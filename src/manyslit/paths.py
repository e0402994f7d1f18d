"""Many-particle path amplitudes and path-pair reductions.

A path assigns one source slit to each of the M detectors, so an N-slit
grating offers ``N**M`` paths; its amplitude is the product of the per-leg
amplitudes ``w_s * exp(i s delta)``.  Probabilities come from pairs of
paths (ket, bra), and ``pair_sum`` reduces over all ``N**(2M)`` pairs as a
chunked double loop over the path table, never materializing the pair list.
This brute-force route is deliberately kept independent of the subset
inclusion-exclusion route in ``hierarchy`` so each can check the other.
"""
from __future__ import annotations

import math
import os
from typing import Iterable

import numpy as np

from .errors import EnumerationBudgetError
from .optics import DetectorPhases, SlitSet

DEFAULT_PATH_BUDGET = 10_000_000
DEFAULT_PAIR_BUDGET = 1_000_000_000
# Upper bound on complex buffer entries per chunk; keeps peak memory modest.
_CHUNK_ENTRY_CAP = 1_000_000
THREADS_ENV = "MANYSLIT_THREADS"

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


def support_table(slits: SlitSet, m: int, *,
                  budget: int = DEFAULT_PATH_BUDGET) -> np.ndarray:
    """Per-path slit-usage bitmasks (bit j = j-th slit of the grating used).

    Paths come in the order of ``amplitude_table``.
    """
    total = path_count(slits, m)
    _check_budget("path", slits, m, total, budget)
    if len(slits) > MAX_MASK_SLITS:
        raise ValueError(
            f"support masks handle at most {MAX_MASK_SLITS} slits, got {len(slits)}"
        )
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


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        env = os.environ.get(THREADS_ENV, "").strip()
        workers = int(env) if env else 1
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    return workers


def pair_sum(slits: SlitSet, phases: DetectorPhases, *,
             exact_support: Iterable[int] | None = None,
             include_diagonal: bool = True,
             budget: int = DEFAULT_PAIR_BUDGET,
             chunk_size: int = 4096,
             workers: int | None = None) -> complex:
    """Sum of ``amp(ket) * conj(amp(bra))`` over path pairs, streamed.

    With ``exact_support`` the sum keeps only pairs whose joint support is
    exactly that slit set; ``include_diagonal=False`` drops the ket == bra
    pairs.  The reduction runs chunk by chunk over the ket index, optionally
    fanned out over ``workers`` threads (default from the MANYSLIT_THREADS
    environment variable); the chunk partials are recombined in a fixed
    order, so the result does not depend on thread scheduling.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk size must be positive, got {chunk_size}")
    total_paths = path_count(slits, phases.m)
    _check_budget("pair", slits, phases.m, total_paths ** 2, budget)
    amps = amplitude_table(slits, phases)
    conj = np.conj(amps)

    target = None
    masks = None
    if exact_support is not None:
        target = np.int64(_support_mask(slits, exact_support))
        masks = support_table(slits, phases.m)

    rows = max(1, min(chunk_size, _CHUNK_ENTRY_CAP // max(1, total_paths)))
    starts = range(0, total_paths, rows)

    def reduce_chunk(start: int) -> complex:
        stop = min(start + rows, total_paths)
        block = amps[start:stop, None] * conj[None, :]
        if masks is not None:
            keep = np.bitwise_or(masks[start:stop, None], masks[None, :]) == target
            block = np.where(keep, block, 0.0)
        return complex(block.sum())

    nworkers = _resolve_workers(workers)
    if nworkers == 1:
        partials = [reduce_chunk(start) for start in starts]
    else:
        # imported here: it pulls in logging, which no serial run needs
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            partials = list(pool.map(reduce_chunk, starts))

    total = complex(math.fsum(p.real for p in partials),
                    math.fsum(p.imag for p in partials))
    if not include_diagonal:
        total -= complex(diagonal_sum(slits, phases, exact_support=exact_support,
                                      budget=budget))
    return total


def diagonal_sum(slits: SlitSet, phases: DetectorPhases, *,
                 exact_support: Iterable[int] | None = None,
                 budget: int = DEFAULT_PAIR_BUDGET) -> float:
    """Sum of ``|amp|**2`` over the diagonal (ket == bra) pairs only."""
    total_paths = path_count(slits, phases.m)
    _check_budget("pair", slits, phases.m, total_paths ** 2, budget)
    intensity = np.abs(amplitude_table(slits, phases)) ** 2
    if exact_support is not None:
        target = np.int64(_support_mask(slits, exact_support))
        intensity = intensity[support_table(slits, phases.m) == target]
    return float(math.fsum(intensity.tolist()))
