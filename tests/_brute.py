"""Tiny reference implementations used only to cross-check the library.

Everything here favors obviousness over speed: explicit nested loops over
path tuples, exact fractions for combinatorial sums, no shared code with
the package under test.
"""
from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np


def amp(path, phases, weights):
    out = complex(1.0)
    for s, d in zip(path, phases):
        out *= weights[s] * cmath.exp(1j * s * d)
    return out


def all_paths(labels, m):
    return itertools.product(labels, repeat=m)


def pair_total(labels, phases, weights=None):
    """Plain double loop over every (ket, bra) pair, no filters."""
    weights = weights or {s: 1.0 for s in labels}
    total = complex(0.0)
    for ket in all_paths(labels, len(phases)):
        for bra in all_paths(labels, len(phases)):
            total += amp(ket, phases, weights) * amp(bra, phases, weights).conjugate()
    return total


def interference_pairs(labels, phases, weights=None):
    """Off-diagonal pairs that jointly touch every slit."""
    weights = weights or {s: 1.0 for s in labels}
    full = set(labels)
    total = 0.0
    for ket in all_paths(labels, len(phases)):
        for bra in all_paths(labels, len(phases)):
            if ket == bra:
                continue
            if set(ket) | set(bra) != full:
                continue
            term = amp(ket, phases, weights) * amp(bra, phases, weights).conjugate()
            total += term.real
    return total


def exclusive_pairs(labels, phases, weights=None):
    """Diagonal pairs whose path touches every slit."""
    weights = weights or {s: 1.0 for s in labels}
    full = set(labels)
    total = 0.0
    for path in all_paths(labels, len(phases)):
        if set(path) == full:
            total += abs(amp(path, phases, weights)) ** 2
    return total


def diagonal_total(labels, phases, weights=None):
    weights = weights or {s: 1.0 for s in labels}
    return sum(abs(amp(p, phases, weights)) ** 2 for p in all_paths(labels, len(phases)))


def surjections(n, m):
    """Ways to hand m detectors onto n slits so every slit is used."""
    return sum((-1) ** j * math.comb(n, j) * (n - j) ** m for j in range(n + 1))


def c_exact(m):
    """Deviation-channel count as an exact fraction."""
    n = 2 * m + 1
    return sum(Fraction(math.comb(n, k)) * Fraction(k, n) ** (m - 1)
               for k in range(1, n + 1))


def ratio_exact(m):
    return (3.0 * m / (2 * m + 1)) * math.sqrt(float(c_exact(m)) / 7.0)


def mc_rms_whole_chunk(m, delta, law, seed, trials, entry_cap=2_000_000):
    """Monte-Carlo RMS of the central-point parameter, one array per chunk.

    The reduction as it stood before it was streamed through a cache-sized
    buffer: chunk ``index`` draws its ``(t, 2**n - 1)`` offsets in one call
    from ``default_rng([seed, index])`` and reduces the whole matrix at once.
    """
    n = 2 * m + 1
    sizes = np.repeat(np.arange(1, n + 1),
                      [math.comb(n, k) for k in range(1, n + 1)])
    signs = np.where((n - sizes) % 2 == 0, 1.0, -1.0)
    base = (sizes * sizes).astype(np.float64)
    peak = float(n) ** (2 * m)
    chunk = max(1, entry_cap // sizes.size)
    total_sq = 0.0
    done = 0
    index = 0
    while done < trials:
        t = min(chunk, trials - done)
        rng = np.random.default_rng([seed, index])
        if law == "uniform_symmetric":
            draws = rng.uniform(-delta, delta, size=(t, sizes.size))
        else:
            draws = rng.normal(0.0, delta, size=(t, sizes.size))
        values = (base[None, :] + draws) ** m
        kappas = (values * signs[None, :]).sum(axis=1) / peak
        total_sq += float(np.sum(kappas * kappas))
        done += t
        index += 1
    return math.sqrt(total_sq / trials)
