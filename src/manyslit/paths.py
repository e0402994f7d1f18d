"""Many-particle path amplitudes and path-pair reductions.

A path assigns one source slit to each of the M detectors, so an N-slit
grating offers ``N**M`` paths; its amplitude is the product of the per-leg
amplitudes ``w_s * exp(i s delta)``.  Probabilities come from pairs of
paths (ket, bra), and ``pair_sum`` visits all ``N**(2M)`` pairs, streaming
blocks of ket rows through one reused buffer; the pair list is never
materialized.  The one shortcut is a support count: a pair touches at most
2M slits (a diagonal pair at most M), so a reduction restricted to a wider
support is exactly zero and visits no pair.  This brute-force route is
deliberately kept independent of the subset inclusion-exclusion route in
``hierarchy`` so each can check the other.
"""
from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import EnumerationBudgetError
from .optics import DetectorPhases, SlitSet

DEFAULT_PATH_BUDGET = 10_000_000
DEFAULT_PAIR_BUDGET = 1_000_000_000
# Pairs are reduced in blocks of whole ket rows of about this many entries
# (512 KB complex, with a 256 KB int64 and a 32 KB bool buffer beside it),
# so the buffers stay in cache and are reused; a wider row is one block.
_BLOCK_ENTRIES = 1 << 15

# Support filters pack slit membership into an int64 bitmask, one bit per
# slit of the grating, so they only work for gratings this narrow.
MAX_MASK_SLITS = 62


def path_count(slits: SlitSet, m: int) -> int:
    if m < 1:
        raise ValueError(f"detector count must be positive, got {m}")
    return len(slits) ** m


def _check_budget(kind: str, slits: SlitSet, m: int, required: int, budget: int) -> None:
    if required > budget:
        raise EnumerationBudgetError(
            f"{kind} enumeration needs {required} terms for {len(slits)} slits "
            f"and {m} detectors, over the budget of {budget}",
            n=len(slits), m=m, required=required, budget=budget,
        )


def amplitude_table(slits: SlitSet, phases: DetectorPhases, *,
                    budget: int = DEFAULT_PATH_BUDGET) -> np.ndarray:
    """Amplitudes of every path, in ``itertools.product(labels, repeat=m)`` order."""
    total = path_count(slits, phases.m)
    _check_budget("path", slits, phases.m, total, budget)
    labels = np.asarray(slits.labels, dtype=np.float64)
    weights = np.asarray(slits.weights, dtype=np.complex128)
    table = np.ones(1, dtype=np.complex128)
    for delta in phases:
        leg = weights * np.exp(1j * labels * delta)
        table = (table[:, None] * leg[None, :]).ravel()
    return table


def _check_mask_width(slits: SlitSet) -> None:
    if len(slits) > MAX_MASK_SLITS:
        raise ValueError(
            f"support masks handle at most {MAX_MASK_SLITS} slits, got {len(slits)}"
        )


def support_table(slits: SlitSet, m: int, *,
                  budget: int = DEFAULT_PATH_BUDGET) -> np.ndarray:
    """Per-path slit-usage bitmasks (bit j = j-th slit of the grating used).

    Paths come in the order of ``amplitude_table``.
    """
    total = path_count(slits, m)
    _check_budget("path", slits, m, total, budget)
    _check_mask_width(slits)
    bits = np.left_shift(np.int64(1), np.arange(len(slits), dtype=np.int64))
    table = np.zeros(1, dtype=np.int64)
    for _ in range(m):
        table = np.bitwise_or(table[:, None], bits[None, :]).ravel()
    return table


def _support_mask(slits: SlitSet, support: Iterable[int]) -> int:
    index = {s: i for i, s in enumerate(slits.labels)}
    mask = 0
    for s in support:
        if s not in index:
            raise ValueError(f"support label {s} is not a slit of this grating")
        mask |= 1 << index[s]
    return mask


def _checked_target(slits: SlitSet, m: int, exact_support: Iterable[int] | None,
                    budget: int) -> int | None:
    """Refuse as a full reduction would, in its order; return the support bitmask.

    Callers apply their support-count bound only after this, so a provably
    zero reduction is still refused exactly when a full one would be.
    """
    total_paths = path_count(slits, m)
    _check_budget("pair", slits, m, total_paths ** 2, budget)
    _check_budget("path", slits, m, total_paths, DEFAULT_PATH_BUDGET)
    if exact_support is None:
        return None
    target = _support_mask(slits, exact_support)
    _check_mask_width(slits)
    return target


def _diagonal(amps: np.ndarray, masks: np.ndarray | None, target: int | None) -> float:
    intensity = np.abs(amps) ** 2
    if target is not None:
        intensity = intensity[masks == target]
    return float(math.fsum(intensity.tolist()))


def pair_sum(slits: SlitSet, phases: DetectorPhases, *,
             exact_support: Iterable[int] | None = None,
             include_diagonal: bool = True,
             budget: int = DEFAULT_PAIR_BUDGET) -> complex:
    """Sum of ``amp(ket) * conj(amp(bra))`` over path pairs, streamed.

    With ``exact_support`` the sum keeps only pairs whose joint support is
    exactly that slit set; ``include_diagonal=False`` drops the ket == bra
    pairs.  A ket and a bra of M legs each touch at most 2M slits, so a
    support of more than 2M distinct slits is reached by no pair: the sum is
    exactly ``0j`` and neither a path table nor a pair is built.  Otherwise
    every pair is visited: each block of ket rows is filled into one reused
    buffer of about ``_BLOCK_ENTRIES`` entries, filtered in place, summed,
    and the block partials are combined in order with ``fsum``.  So the pair
    buffers take under 1 MB whatever ``N**(2M)`` is (one row if a row of
    ``N**M`` entries is wider); only the path tables grow.
    """
    target = _checked_target(slits, phases.m, exact_support, budget)
    if target is not None and target.bit_count() > 2 * phases.m:
        return 0j
    amps = amplitude_table(slits, phases)
    conj = np.conj(amps)
    total_paths = len(amps)
    rows = max(1, _BLOCK_ENTRIES // total_paths)
    block = np.empty((min(rows, total_paths), total_paths), dtype=np.complex128)
    masks = None
    if target is not None:
        masks = support_table(slits, phases.m)
        cover = np.empty(block.shape, dtype=np.int64)
        drop = np.empty(block.shape, dtype=bool)

    partials = []
    for start in range(0, total_paths, rows):
        stop = min(start + rows, total_paths)
        b = block[:stop - start]
        np.multiply(amps[start:stop, None], conj[None, :], out=b)
        if target is not None:
            c, d = cover[:stop - start], drop[:stop - start]
            np.bitwise_or(masks[start:stop, None], masks[None, :], out=c)
            np.not_equal(c, target, out=d)
            np.copyto(b, 0.0, where=d)
        partials.append(complex(b.sum()))

    total = complex(math.fsum(p.real for p in partials),
                    math.fsum(p.imag for p in partials))
    if not include_diagonal:
        total -= complex(_diagonal(amps, masks, target))
    return total


def diagonal_sum(slits: SlitSet, phases: DetectorPhases, *,
                 exact_support: Iterable[int] | None = None,
                 budget: int = DEFAULT_PAIR_BUDGET) -> float:
    """Sum of ``|amp|**2`` over the diagonal (ket == bra) pairs only.

    A path of M legs touches at most M slits, so a support of more than M
    distinct slits gives exactly ``0.0`` without building a path table.
    """
    target = _checked_target(slits, phases.m, exact_support, budget)
    if target is not None and target.bit_count() > phases.m:
        return 0.0
    masks = None if target is None else support_table(slits, phases.m)
    return _diagonal(amplitude_table(slits, phases), masks, target)
