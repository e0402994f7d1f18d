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


def support_pairs(labels, phases, weights, support, include_diagonal=True):
    """Pairs whose joint support is exactly ``support``, with or without ket == bra."""
    support = set(support)
    total = complex(0.0)
    for ket in all_paths(labels, len(phases)):
        for bra in all_paths(labels, len(phases)):
            if ket == bra and not include_diagonal:
                continue
            if set(ket) | set(bra) != support:
                continue
            total += amp(ket, phases, weights) * amp(bra, phases, weights).conjugate()
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


def deviation_terms(m, deviations):
    """Signed central-point terms of the order-(2M+1) alternating sum.

    Each non-empty combination ``X`` of the ``2M + 1`` slits, taken size by
    size in ``itertools.combinations`` order, contributes
    ``(-1)**(n - |X|) (|X|**2 + Delta_X)**M``; combinations absent from
    ``deviations`` (keyed by slit-label sets) carry no offset.
    """
    n = 2 * m + 1
    offsets = {frozenset(key): float(value) for key, value in deviations.items()}
    for key in offsets:
        if not key or not key.issubset(range(n)):
            raise ValueError(
                f"deviation key {set(key)!r} is not a non-empty subset of the "
                f"{n} slit labels"
            )
    terms = []
    for k in range(1, n + 1):
        sign = -1.0 if (n - k) % 2 else 1.0
        for combo in itertools.combinations(range(n), k):
            terms.append(sign * (k * k + offsets.get(frozenset(combo), 0.0)) ** m)
    return terms


def sorkin_with_deviations(m, deviations):
    """Central-point Sorkin parameter with per-combination probability offsets.

    The alternating sum of ``deviation_terms`` over the unit-weight peak
    ``(2M + 1)**(2M)``; with no offsets it is exactly 0.
    """
    return math.fsum(deviation_terms(m, deviations)) / float(2 * m + 1) ** (2 * m)


def glynn_top_order(labels, phases, weights):
    """I(M, 2M) as a permanent, by Glynn's formula; returns (value, scale).

    At N = 2M slits the interference term is the permanent of the N x N
    matrix whose rows are ``x_j`` and ``conj(x_j)`` per detector, with
    ``x_{j,s} = w_s exp(i s delta_j)``.  Glynn's formula sums over sign
    vectors ``d`` with ``d_0 = 1``:
    ``2**(1 - N) sum_d (prod_s d_s) prod_j |sum_s d_s x_{j,s}|**2``.
    ``scale`` is the same sum over the terms' magnitudes.
    """
    n = len(labels)
    if n != 2 * len(phases):
        raise ValueError("Glynn's route covers the top order N = 2M only")
    legs = [[weights[s] * cmath.exp(1j * s * delta) for s in labels]
            for delta in phases]
    terms = []
    for rest in itertools.product((1, -1), repeat=n - 1):
        signs = (1,) + rest
        term = float(math.prod(signs))
        for x in legs:
            term *= abs(sum(d * v for d, v in zip(signs, x))) ** 2
        terms.append(term)
    norm = 2.0 ** (1 - n)
    return norm * math.fsum(terms), norm * math.fsum(map(abs, terms))


def fixed_scan_closed(m, n, delta):
    """Fixed-scan I(M, N; delta) on N contiguous unit slits, in closed form.

    The M - 1 parked detectors see A(T) = |T|, so summing them out leaves
    ``(alpha - beta) N + beta sin^2(N delta/2) / sin^2(delta/2) - C`` with
    integer ``alpha = g(1)``, ``beta = g(2)``,
    ``g(u) = sum_k (-1)**(N-k) C(N-u, k-u) k**(2(M-1))`` and the surjection
    count ``C = sum_k (-1)**(N-k) C(N, k) k**M``.  At delta = 0 the Fejer
    factor is N**2.
    """
    def g(u):
        return sum((-1) ** (n - k) * math.comb(n - u, k - u) * k ** (2 * (m - 1))
                   for k in range(u, n + 1))

    alpha, beta = g(1), g(2)
    c = sum((-1) ** (n - k) * math.comb(n, k) * k ** m for k in range(n + 1))
    half = math.sin(delta / 2)
    fejer = float(n * n) if half == 0.0 else (math.sin(n * delta / 2) / half) ** 2
    return float((alpha - beta) * n) + float(beta) * fejer - float(c)


def fixed_scan_top_order(m, delta):
    """The closed form at N = 2M: ``(2M-2)! [sin^2(M delta)/sin^2(delta/2) - 2M]``."""
    half = math.sin(delta / 2)
    ratio = float(4 * m * m) if half == 0.0 else (math.sin(m * delta) / half) ** 2
    return math.factorial(2 * m - 2) * (ratio - 2 * m)


def glynn_top_order_matrix(labels, phases, weights, chunk=1 << 12):
    """``glynn_top_order`` as matrix products; returns (value, scale).

    The sign vectors (``d_0 = 1``, the other N - 1 signs taken from the bits
    of a counter) come ``chunk`` at a time as a +-1 matrix, which multiplies
    the N x M matrix of legs ``x_{j,s}``; each row's ``|.|**2`` product times
    ``prod_s d_s`` is one term, and the terms are added by ``fsum``.
    """
    n = len(labels)
    if n != 2 * len(phases):
        raise ValueError("Glynn's route covers the top order N = 2M only")
    legs = np.array([[weights[s] * cmath.exp(1j * s * delta) for delta in phases]
                     for s in labels])
    terms = []
    for start in range(0, 1 << (n - 1), chunk):
        counter = np.arange(start, min(start + chunk, 1 << (n - 1)))
        bits = (counter[:, None] >> np.arange(n - 1)) & 1
        signs = np.ones((len(counter), n))
        signs[:, 1:] -= 2.0 * bits
        products = np.prod(np.abs(signs @ legs) ** 2, axis=1)
        terms.extend((np.prod(signs, axis=1) * products).tolist())
    norm = 2.0 ** (1 - n)
    return norm * math.fsum(terms), norm * math.fsum(map(abs, terms))
