"""Coincidence signals for a slit subset: quantum, classical, and exclusive.

``quantum_correlation`` is the M-fold coincidence rate behind the grating,
which factorizes into a product of single-detector diffraction intensities.
``classical_correlation`` is its incoherent counterpart (independent
particles, no which-path coherence), flat in the detector phases.  The
*exclusive* classical term is the part of the classical signal owed to
paths that use every slit of the subset at least once; by inclusion-exclusion
it is the alternating sum of the plain classical signal over all
sub-combinations, and is what the interference hierarchy subtracts so that
classical many-particle combinatorics never masquerade as interference.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationBudgetError
from .optics import DetectorPhases, SlitSet

DEFAULT_COMBINATION_BUDGET = 1 << 20


@dataclass(frozen=True)
class CorrelationValue:
    """A coincidence-rate value together with what it was evaluated for."""

    value: float
    m: int
    slits: SlitSet
    phases: DetectorPhases


@dataclass(frozen=True)
class SignedCorrelation:
    """An exclusive-order classical term; may legitimately be negative."""

    value: float
    order: int
    m: int


def grating_amplitude(slits: SlitSet, delta: float) -> complex:
    """Single-detector amplitude ``sum_s w_s exp(i s delta)`` at phase ``delta``."""
    delta = float(delta)
    if not math.isfinite(delta):
        raise ValueError(f"detector phase must be finite, got {delta!r}")
    return sum((w * cmath.exp(1j * s * delta) for s, w in zip(slits.labels, slits.weights)),
               start=complex(0.0))


def quantum_correlation(slits: SlitSet, phases: DetectorPhases) -> CorrelationValue:
    """Coincidence rate: the product of ``|grating_amplitude|**2`` per detector.

    Raises ``OverflowError`` when the product leaves double precision, as
    Python's ``**`` already does for one factor.
    """
    value = 1.0
    for delta in phases:
        value *= abs(grating_amplitude(slits, delta)) ** 2
    if not math.isfinite(value):
        raise OverflowError(34, "Numerical result out of range")
    return CorrelationValue(value=value, m=phases.m, slits=slits, phases=phases)


def classical_correlation(slits: SlitSet, phases: DetectorPhases) -> CorrelationValue:
    """Incoherent coincidence rate ``(sum_s |w_s|**2) ** M``; phase-flat."""
    value = slits.total_intensity() ** phases.m
    return CorrelationValue(value=value, m=phases.m, slits=slits, phases=phases)


def check_subset_budget(what: str, n: int, m: int, budget: int) -> None:
    """Refuse an alternation over ``2**n - 1`` non-empty subsets above ``budget``.

    Called before any per-subset array is built, so oversize requests fail
    fast instead of allocating.
    """
    required = (1 << n) - 1
    if required > budget:
        raise EnumerationBudgetError(
            f"{what} needs {required} subset evaluations, "
            f"over the budget of {budget}",
            n=n, m=m, required=required, budget=budget,
        )


def subset_sums(values: np.ndarray) -> np.ndarray:
    """Sums of ``values`` over every subset of its last axis, indexed by bitmask.

    Entry ``mask`` of the result adds ``values[..., i]`` for the set bits
    ``i`` of ``mask`` in increasing ``i``, starting from zero, through the
    recurrence ``out[mask | 1 << k] = out[mask] + values[k]`` for
    ``mask < 1 << k`` (the zeta transform on the subset lattice).  Adding in
    index order makes each entry bit-identical to a left-to-right sum.
    """
    n = values.shape[-1]
    out = np.zeros(values.shape[:-1] + (1 << n,), dtype=values.dtype)
    for k in range(n):
        out[..., 1 << k:2 << k] = out[..., :1 << k] + values[..., k, None]
    return out


def alternation_signs(n: int) -> np.ndarray:
    """``(-1) ** (n - |T|)`` for every subset ``T`` of ``n`` slits, by bitmask."""
    sizes = subset_sums(np.ones(n, dtype=np.int64))
    return np.where((n - sizes) % 2 == 0, 1.0, -1.0)


def exclusive_classical(slits: SlitSet, phases: DetectorPhases, *,
                        budget: int = DEFAULT_COMBINATION_BUDGET) -> SignedCorrelation:
    """Classical signal from paths using *every* slit of the subset.

    Inclusion-exclusion over the ``2**N`` sub-combinations ``T``: the
    alternating sum of ``(-1)**(N - |T|) (sum_{s in T} |w_s|**2) ** M``,
    combined with compensated summation.  ``budget`` caps the number of
    subsets, as it does for the interference term.

    For unit weights this counts the surjections of M detectors onto N
    slits, and is 0 whenever ``N > M``.  Raises ``OverflowError`` when a
    term leaves double precision.
    """
    n, m = len(slits), phases.m
    check_subset_budget(f"exclusive classical term over {n} slits", n, m, budget)
    intensities = np.array([abs(w) ** 2 for w in slits.weights])
    with np.errstate(over="ignore"):
        terms = alternation_signs(n) * subset_sums(intensities) ** m
    if not np.isfinite(terms).all():
        raise OverflowError(34, "Numerical result out of range")
    return SignedCorrelation(value=math.fsum(terms.tolist()), order=n, m=m)


def central_peak(slits: SlitSet, m: int) -> CorrelationValue:
    """Coincidence rate with every detector on the central maximum."""
    if m < 1:
        raise ValueError(f"detector count must be positive, got {m}")
    return quantum_correlation(slits, DetectorPhases((0.0,) * m))
