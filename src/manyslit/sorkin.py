"""Generalized Sorkin parameters and their sensitivity to Born-rule deviations.

``sorkin`` normalizes the lowest vanishing interference order, ``2M + 1``,
by the all-on-peak coincidence rate; under exact Born physics it is zero for
every detector placement, so any nonzero value is a deviation signal.  The
rest of the module quantifies that signal: ``sensitivity_c`` counts the
independent deviation channels feeding the parameter, ``sensitivity_ratio``
and ``sensitivity_table`` compare M-particle against single-particle
sensitivity, and ``deviation_montecarlo`` measures the response to injected
deviations directly.

Two deviation variants exist because statistical and deterministic injections
answer different questions: iid per-combination offsets make RMS claims
well-posed, while the exponent variant (probabilities ``|psi|**(2+eps)``)
shows a deterministic, signed response that must vanish as ``eps -> 0``.

Normalization convention: unit-weight gratings are taken coherent, so the
single-detector central peak of ``2M+1`` slits is ``(2M+1)**2``.  The ratio
and table outputs are closed forms independent of that convention.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .correlations import central_peak
from .errors import DegenerateNormalizationError, EnumerationBudgetError
from .hierarchy import DEFAULT_SEED, interference
from .optics import DetectorPhases, SlitSet

# Exact integer binomials are guaranteed only up to this many slits.
MAX_BINOMIAL_SLITS = 64

DEVIATION_LAWS = ("uniform_symmetric", "gaussian")
DEVIATION_VARIANTS = ("per_combination_iid", "exponent_epsilon")

DEFAULT_MC_BUDGET = 1_000_000_000
# Trial chunks are sized to keep the draw matrix around this many entries.
_MC_ENTRY_CAP = 2_000_000
# Each chunk is reduced in blocks of whole rows of about this many entries
# (512 KB), so the working buffer stays in cache and is reused.
_MC_BLOCK_ENTRIES = 1 << 16
# A single trial row wider than this (M >= 13) is refused.
_MC_ROW_CAP = 1 << 25

# Validated-regime bounds; outside them reports carry a note, not an error.
MIN_RMS_TRIALS = 1000
MAX_LINEAR_DELTA = 1e-2


@dataclass(frozen=True)
class DeviationModel:
    """How Born-rule deviations are injected into the central-point signal."""

    delta: float = 0.0
    law: str = "uniform_symmetric"
    seed: int = DEFAULT_SEED
    variant: str = "per_combination_iid"
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        delta = float(self.delta)
        if not math.isfinite(delta) or delta < 0.0:
            raise ValueError(f"deviation magnitude must be >= 0 and finite, got {delta!r}")
        if self.law not in DEVIATION_LAWS:
            raise ValueError(f"unknown law {self.law!r}; choose from {DEVIATION_LAWS}")
        if self.variant not in DEVIATION_VARIANTS:
            raise ValueError(
                f"unknown variant {self.variant!r}; choose from {DEVIATION_VARIANTS}"
            )
        epsilon = float(self.epsilon)
        if not math.isfinite(epsilon):
            raise ValueError(f"exponent deviation must be finite, got {epsilon!r}")
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "seed", int(self.seed))

    def rms_delta(self) -> float:
        """Standard deviation of one draw under this model's law."""
        if self.law == "uniform_symmetric":
            return self.delta / math.sqrt(3.0)
        return self.delta


@dataclass(frozen=True)
class SensitivityReport:
    """One row of sensitivity results; Monte-Carlo fields stay None when unused."""

    m: int
    c_of_m: float
    ratio: float
    table_row: float
    mc_rms: float | None = None
    mc_prediction: float | None = None
    mc_rms_slit_peak: float | None = None
    mc_prediction_slit_peak: float | None = None
    trials: int | None = None
    seed: int | None = None
    delta: float | None = None
    law: str | None = None
    variant: str | None = None
    epsilon: float | None = None
    notes: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {**asdict(self), "notes": list(self.notes)}


def _check_m(m: int) -> int:
    m = int(m)
    if m < 1:
        raise ValueError(f"particle number must be positive, got {m}")
    if 2 * m + 1 > MAX_BINOMIAL_SLITS:
        raise ValueError(
            f"sensitivity formulas are supported up to 2M+1 = {MAX_BINOMIAL_SLITS} "
            f"slit combinations, got M = {m}"
        )
    return m


def sorkin(m: int, phases: DetectorPhases, slits: SlitSet | None = None) -> float:
    """Normalized interference term of order ``2M + 1``; zero under Born's rule."""
    m = _check_m(m)
    if slits is None:
        slits = SlitSet.contiguous(2 * m + 1)
    if len(slits) != 2 * m + 1:
        raise ValueError(
            f"the order-(2M+1) parameter for M={m} needs {2 * m + 1} slits, "
            f"got {len(slits)}"
        )
    peak = central_peak(slits, m).value
    if peak == 0.0:
        raise DegenerateNormalizationError(
            "central coincidence peak is zero; the normalized parameter is undefined"
        )
    return interference(m, slits, phases).value / peak


def sensitivity_c(m: int) -> float:
    """Deviation-channel count ``sum_k binom(2M+1, k) (k/(2M+1))**(M-1)``.

    Accumulated as one exact integer sum divided once at the end, so the
    anchor values (7 for M=1, 16 for M=2) come out exact in floating point.
    """
    m = _check_m(m)
    n = 2 * m + 1
    total = sum(math.comb(n, k) * k ** (m - 1) for k in range(1, n + 1))
    return total / n ** (m - 1)


def sensitivity_ratio(m: int) -> float:
    """M-particle over single-particle sensitivity, ``(3M/(2M+1)) sqrt(C(M)/7)``."""
    m = _check_m(m)
    return (3.0 * m / (2 * m + 1)) * math.sqrt(sensitivity_c(m) / 7.0)


def sensitivity_table(m_max: int) -> list[SensitivityReport]:
    """Sensitivity rows for M = 2 .. m_max, ratios also rounded to one decimal."""
    m_max = int(m_max)
    if m_max < 2:
        raise ValueError(f"the table starts at M = 2, got m_max = {m_max}")
    rows = []
    for m in range(2, m_max + 1):
        ratio = sensitivity_ratio(m)
        rows.append(SensitivityReport(m=m, c_of_m=sensitivity_c(m), ratio=ratio,
                                      table_row=round(ratio, 1)))
    return rows


def _per_combination(n: int, per_size: list[float]) -> np.ndarray:
    """Spread one value per subset size 1..n over every combination of that size."""
    return np.repeat(per_size, [math.comb(n, k) for k in range(1, n + 1)])


def _epsilon_kappa(m: int, epsilon: float) -> float:
    """Deterministic Sorkin parameter when probabilities go as ``|psi|**(2+eps)``.

    Every slit combination's central-point probability becomes
    ``k**(M (2+eps))``; the alternating sum then fails to cancel.  Normalized
    by the deviated full-grating peak, the way a measured parameter would be.

    The sum cancels from terms of up to ``2**n`` down to roughly
    ``eps (2M)! / n**(2M)``, beyond double precision from small M on, so it
    is evaluated in ``decimal`` at ``2M log10(n) + n log10(2)`` digits, plus
    ``-log10|eps|`` for small ``eps`` and 30 guard digits, each term as
    ``exp(M (2+eps) ln(k/n))``.  ``eps = 0`` is Born's rule: exactly 0.0.
    """
    if epsilon == 0.0:
        return 0.0
    # imported here: only this variant needs it, not every CLI start
    import decimal

    n = 2 * m + 1
    digits = (math.ceil(2 * m * math.log10(n) + n * math.log10(2)) + 30
              + max(0, math.ceil(-math.log10(abs(epsilon)))))
    with decimal.localcontext(decimal.Context(prec=digits)):
        exponent = m * (2 + decimal.Decimal(epsilon))
        ln_n = decimal.Decimal(n).ln()
        try:
            total = sum((-1) ** (n - k) * math.comb(n, k)
                        * (exponent * (decimal.Decimal(k).ln() - ln_n)).exp()
                        for k in range(1, n + 1))
        except decimal.Overflow:  # eps < -2 lifts k < n above the peak
            total = decimal.Decimal("Infinity")
    kappa = float(total)
    if math.isinf(kappa):
        raise OverflowError(34, "Numerical result out of range")
    return kappa


def _mc_rms(m: int, model: DeviationModel, trials: int, budget: int) -> float:
    n = 2 * m + 1
    width = (1 << n) - 1
    # Both refusals come before any per-combination array is built.
    if width * trials > budget:
        raise EnumerationBudgetError(
            f"Monte-Carlo run needs {width * trials} deviation draws, "
            f"over the budget of {budget}",
            n=n, m=m, required=width * trials, budget=budget,
        )
    if width > _MC_ROW_CAP:
        raise EnumerationBudgetError(
            f"one Monte-Carlo trial needs {width} deviation draws, over the "
            f"per-trial cap of {_MC_ROW_CAP}",
            n=n, m=m, required=width, budget=_MC_ROW_CAP,
        )
    sizes = range(1, n + 1)
    signs = _per_combination(n, [-1.0 if (n - k) % 2 else 1.0 for k in sizes])
    base = _per_combination(n, [float(k * k) for k in sizes])
    peak = float(n) ** (2 * m)

    # Seed contract: chunk `index` holds `chunk` trials drawn from
    # default_rng([seed, index]), so changing _MC_ENTRY_CAP changes every
    # report.  The cache block is not part of it: the chunk's draws are taken
    # in whole rows, in order, and each row is reduced on its own.
    chunk = max(1, _MC_ENTRY_CAP // width)
    rows = min(max(1, _MC_BLOCK_ENTRIES // width), chunk, trials)
    buf = np.empty((rows, width))
    kappas = np.empty(min(chunk, trials))
    total_sq = 0.0
    done = 0
    index = 0
    while done < trials:
        t = min(chunk, trials - done)
        rng = np.random.default_rng([model.seed, index])
        for lo in range(0, t, rows):
            b = buf[:t - lo]
            # uniform(-d, d) is -d + 2d * random(); normal(0, d) is
            # d * standard_normal(), bit for bit
            if model.law == "uniform_symmetric":
                rng.random(out=b)
                b *= 2.0 * model.delta
                b += -model.delta
            else:
                rng.standard_normal(out=b)
                b *= model.delta
            np.add(base, b, out=b)
            b **= m  # the operator's scalar fast paths, as for `** m`
            np.multiply(b, signs, out=b)
            b.sum(axis=1, out=kappas[lo:lo + len(b)])
        k = kappas[:t]
        k /= peak
        total_sq += float(np.sum(k * k))
        done += t
        index += 1
    return math.sqrt(total_sq / trials)


def deviation_montecarlo(m: int, model: DeviationModel, trials: int, *,
                         budget: int = DEFAULT_MC_BUDGET) -> SensitivityReport:
    """Measure the central-point Sorkin parameter under injected deviations.

    Under the iid variant each trial draws one offset per slit combination,
    rebuilds the order-(2M+1) alternating sum from the offset probabilities,
    and the report carries the RMS parameter over trials next to the
    variance-propagation prediction
    ``M sigma sqrt(sum_k binom(2M+1,k) k**(4(M-1))) / (2M+1)**(2M)``.
    The exponent variant is deterministic: the report carries the magnitude
    of the single resulting parameter and no prediction.

    Absolute magnitudes depend on how the normalizing peak counts slits, so
    the report carries both conventions: ``mc_rms``/``mc_prediction`` divide
    by the coherent intensity peak (``(2M+1)**2`` per particle), while the
    ``*_slit_peak`` twins divide by a peak counting each slit once per
    particle (``2M+1``), a factor ``sqrt(peak)`` larger.  Ratio and table
    columns are closed forms untouched by either choice.
    """
    m = _check_m(m)
    trials = int(trials)
    if trials < 1:
        raise ValueError(f"trial count must be positive, got {trials}")
    n = 2 * m + 1
    notes = []
    if trials < MIN_RMS_TRIALS:
        notes.append(f"RMS estimates are validated for trials >= {MIN_RMS_TRIALS}")
    if model.delta > MAX_LINEAR_DELTA:
        notes.append(f"linearized regime is validated for delta <= {MAX_LINEAR_DELTA}")

    if model.variant == "exponent_epsilon":
        rms = abs(_epsilon_kappa(m, model.epsilon))
        prediction = None
        # _epsilon_kappa divides by the deviated intensity peak
        peak = float(n) ** (m * (2.0 + model.epsilon))
    else:
        rms = _mc_rms(m, model, trials, budget)
        sigma = model.rms_delta()
        channel_sum = sum(math.comb(n, k) * k ** (4 * (m - 1))
                          for k in range(1, n + 1))
        peak = float(n) ** (2 * m)
        prediction = m * sigma * math.sqrt(channel_sum) / peak

    # Counting the peak as one unit per slit halves the normalizing exponent.
    scale = math.sqrt(peak)
    ratio = sensitivity_ratio(m)
    return SensitivityReport(
        m=m, c_of_m=sensitivity_c(m), ratio=ratio, table_row=round(ratio, 1),
        mc_rms=rms, mc_prediction=prediction,
        mc_rms_slit_peak=rms * scale,
        mc_prediction_slit_peak=None if prediction is None else prediction * scale,
        trials=trials, seed=model.seed,
        delta=model.delta, law=model.law, variant=model.variant,
        epsilon=model.epsilon, notes=tuple(notes),
    )
