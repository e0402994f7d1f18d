"""Interference terms of every order, and checks that high orders vanish.

The Nth-order M-particle interference term is what remains of an N-slit
coincidence signal after removing everything attributable to fewer slits:
alternating over the coincidence signals of all sub-gratings, then
subtracting the exclusive classical term of the full slit set.  One batched
kernel evaluates that alternation for many detector-phase rows at once.  The
same quantity is recomputed here by a brute-force reduction over path pairs
(``interference_oracle``), which shares no code path with the subset route
and serves as its independent check.

For gratings wider than twice the particle number every path pair leaves
some slit untouched, so the term vanishes identically; ``vanishing_check``
probes that over random detector phases.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from . import paths
from .correlations import (DEFAULT_COMBINATION_BUDGET, alternation_signs,
                           central_peak, check_subset_budget,
                           exclusive_classical, subset_sums)
from .optics import DetectorPhases, SlitSet, preset_fixed_scan

DEFAULT_SEED = 12345
# Imaginary residue allowed per unit of one pair term, max(1, max|w|)**(2M)
_ORACLE_IMAG_TOL = 1e-10
# Largest batch buffer in entries: the per-detector subset amplitudes of a
# chunk of phase rows, and the phase draws of one vanishing-check chunk.
_ENTRY_CAP = 1 << 13

PRESETS = ("fixed_scan", "opposite_scan")


@dataclass(frozen=True)
class InterferenceValue:
    """An interference-term value and the context it was evaluated in."""

    value: float
    m: int
    order: int
    slits: SlitSet
    phases: DetectorPhases
    method: str


def _check_m(m: int, phases: DetectorPhases) -> None:
    if m < 1:
        raise ValueError(f"particle number must be positive, got {m}")
    if phases.m != m:
        raise ValueError(f"got {phases.m} detector phases for {m} particles")


def _check_budget(m: int, n: int, budget: int) -> None:
    check_subset_budget(f"order-{n} interference", n, m, budget)


def _interference_rows(m: int, slits: SlitSet, rows: Sequence[Sequence[float]],
                       budget: int = DEFAULT_COMBINATION_BUDGET) -> list[float]:
    """Order-``len(slits)`` interference term at each row of detector phases.

    Evaluates ``sum_T (-1)**(N - |T|) Q(T) - C`` over the subsets ``T``,
    ``C`` being the exclusive classical term, for chunks of rows whose
    per-detector subset amplitudes stay under ``_ENTRY_CAP`` entries.  Each
    row repeats the arithmetic of ``quantum_correlation`` on every
    sub-grating: legs ``w_s exp(i s delta)`` summed in slit order, ``hypot``
    (what ``abs`` of a Python complex uses) squared by libm ``pow`` through
    ``np.float_power`` with an array exponent (what Python's ``pow(x, 2)``
    calls; neither ``np.square`` nor ``np.power`` rounds the same way), and
    the product over detectors in order from 1.0.  Rows are combined
    with compensated summation, since the cancellation is exact in the
    vanishing regime and catastrophic for naive accumulation.  So every
    value is bit-identical to the per-subset route, whatever the chunking.
    Rows must hold Python floats: numpy scalars change the leg arithmetic.

    Each distinct phase of a detector column is evaluated once per chunk
    and its squares gathered back to the rows, so detectors parked on one
    phase (the scan presets) cost one row per chunk; a column without
    repeats needs no gather.  Equal phases give equal bits; the dict that
    finds them also merges ``0.0`` with ``-0.0``, which only flips the
    sign of zero parts of the legs and never changes a modulus.
    A detector product that overflows raises ``OverflowError`` instead of
    returning inf or nan.
    """
    n = len(slits)
    _check_budget(m, n, budget)
    if n == 1:
        return [0.0] * len(rows)
    classical = exclusive_classical(slits, DetectorPhases((0.0,) * m),
                                    budget=budget).value
    signs = alternation_signs(n)
    legs = tuple(zip(slits.labels, slits.weights))
    step = max(1, _ENTRY_CAP >> n)
    out = []
    for start in range(0, len(rows), step):
        q = 1.0
        for column in zip(*rows[start:start + step]):
            slot = {}  # distinct phases in first-seen order, by row
            where = [slot.setdefault(delta, len(slot)) for delta in column]
            amps = subset_sums(np.array(
                [[w * cmath.exp(1j * s * delta) for s, w in legs] for delta in slot]))
            moduli = np.hypot(amps.real, amps.imag)
            # libm pow, as Python's pow(x, 2) calls it: x * x (np.square)
            # differs in the last bit for some inputs, and np.power with an
            # array exponent takes a SIMD path that differs too
            with np.errstate(over="ignore", invalid="ignore"):
                squares = np.float_power(moduli, np.full(moduli.shape, 2.0))
                if len(slot) < len(column):
                    squares = squares[where]
                q = q * squares
        if not np.isfinite(q).all():
            # Python's pow and quantum_correlation raise here too
            raise OverflowError(34, "Numerical result out of range")
        for terms in (signs * q).tolist():
            terms.append(-classical)
            out.append(math.fsum(terms))
    return out


def interference(m: int, slits: SlitSet, phases: DetectorPhases, *,
                 budget: int = DEFAULT_COMBINATION_BUDGET) -> InterferenceValue:
    """Interference term of order ``len(slits)`` via subset alternation.

    The single-row case of the batched kernel: alternating subset
    contributions combined with compensated summation.  A single slit
    supports no interference at all, so order 1 returns exactly 0.0.
    """
    _check_m(m, phases)
    [value] = _interference_rows(m, slits, [phases.phases], budget)
    return InterferenceValue(value=value, m=m, order=len(slits), slits=slits,
                             phases=phases, method="subset_alternation")


def interference_oracle(m: int, slits: SlitSet, phases: DetectorPhases, *,
                        budget: int = paths.DEFAULT_PAIR_BUDGET) -> InterferenceValue:
    """Same quantity as ``interference``, from first principles.

    Sums ``amp(ket) * conj(amp(bra))`` over the path pairs that are
    off-diagonal and jointly use every slit: the diagonal pairs of full
    support are exactly the exclusive classical term, and pairs missing a
    slit belong to lower orders, so this residue is the interference term.
    At N <= 2M it costs ``N**(2M)`` pair visits, streamed through a fixed
    buffer; meant for cross-checks at small sizes.  At N >= 2M + 1 no pair
    covers every slit, so the value is exactly 0.0 and no pair is visited
    (the pair budget and the mask-width limit still refuse first); the
    oracle therefore checks the subset route only at N <= 2M.  The
    imaginary residue left by the conjugate pairs must stay under
    ``1e-10 * max(1, max|w_s|) ** (2M)``, the scale of one pair term, or
    ``ArithmeticError`` is raised.
    """
    _check_m(m, phases)
    n = len(slits)
    if n == 1:
        return InterferenceValue(value=0.0, m=m, order=n, slits=slits,
                                 phases=phases, method="path_pairs")
    total = paths.pair_sum(slits, phases, exact_support=slits.labels,
                           include_diagonal=False, budget=budget)
    scale = max(1.0, *map(abs, slits.weights)) ** (2 * m)
    if abs(total.imag) >= _ORACLE_IMAG_TOL * scale:
        raise ArithmeticError(
            f"pair reduction left an imaginary residue of {total.imag!r}; "
            "the conjugate-pair cancellation did not hold"
        )
    return InterferenceValue(value=total.real, m=m, order=n, slits=slits,
                             phases=phases, method="path_pairs")


@dataclass(frozen=True)
class VanishingReport:
    """Outcome of probing an interference term over random detector phases."""

    m: int
    order: int
    trials: int
    seed: int
    peak: float
    max_abs: float
    max_normalized: float
    vanishing_expected: bool
    threshold: float
    passed: bool

    def as_dict(self) -> dict:
        return asdict(self)


def vanishing_check(m: int, order: int, *, trials: int = 20,
                    seed: int = DEFAULT_SEED,
                    threshold: float = 1e-9) -> VanishingReport:
    """Evaluate the order-``order`` term at random phases and compare to zero.

    Residues are normalized by the all-detectors-on-peak coincidence rate so
    the threshold is scale free.  Passing means every draw stayed below the
    threshold; for gratings of fewer than ``2 m + 1`` slits the term is
    genuinely nonzero and the check is expected to fail.  Phases are drawn
    in chunks of ``(rows, m)``, which yields the same stream as one draw per
    trial, so memory stays flat in ``trials``.
    """
    if trials < 1:
        raise ValueError(f"trial count must be positive, got {trials}")
    slits = SlitSet.contiguous(order)
    _check_budget(m, order, DEFAULT_COMBINATION_BUDGET)
    peak = central_peak(slits, m).value
    rng = np.random.default_rng(seed)
    step = max(1, _ENTRY_CAP // m)
    max_abs = 0.0
    for start in range(0, trials, step):
        draws = rng.uniform(0.0, 2.0 * math.pi, size=(min(step, trials - start), m))
        values = _interference_rows(m, slits, draws.tolist())
        max_abs = max(max_abs, *map(abs, values))
    max_normalized = max_abs / peak
    return VanishingReport(
        m=m, order=order, trials=trials, seed=seed, peak=peak,
        max_abs=max_abs, max_normalized=max_normalized,
        vanishing_expected=order >= 2 * m + 1, threshold=threshold,
        passed=max_normalized < threshold,
    )


def _preset_rows(preset: str, m: int, deltas: list[float]) -> list[tuple[float, ...]]:
    """Kernel phase rows of a preset scan: the phases its ``DetectorPhases`` holds."""
    name = preset.replace("-", "_")
    if name == "fixed_scan":
        parked = preset_fixed_scan(m, 0.0).phases[:-1]
        rows = [parked + (delta,) for delta in deltas]
    elif name == "opposite_scan":
        if m != 2:
            raise ValueError("the opposite-scan preset needs exactly 2 detectors")
        rows = [(delta, -delta) for delta in deltas]
    else:
        raise ValueError(f"unknown preset {preset!r}; choose from {PRESETS}")
    if not all(map(math.isfinite, deltas)):
        raise ValueError("detector phases must be finite")
    return rows


def curve(m: int, order: int, preset: str, deltas: Sequence[float], *,
          normalize: bool = True) -> list[tuple[float, float]]:
    """Interference term along a scan of the last detector phase.

    Returns ``(delta, value)`` pairs; with ``normalize`` the values are
    divided by the central-peak coincidence rate of the full grating.  The
    whole scan is one batch for the kernel.
    """
    slits = SlitSet.contiguous(order)
    _check_budget(m, order, DEFAULT_COMBINATION_BUDGET)
    scale = central_peak(slits, m).value if normalize else 1.0
    deltas = [float(delta) for delta in deltas]
    values = _interference_rows(m, slits, _preset_rows(preset, m, deltas))
    return [(delta, value / scale) for delta, value in zip(deltas, values)]
