"""Many-particle interference hierarchies behind multi-slit gratings.

Core objects: gratings and detector phases (`optics`), path amplitudes and
pair reductions (`paths`), coincidence signals (`correlations`), interference
terms of every order with an independent brute-force cross-check
(`hierarchy`), and Sorkin-parameter sensitivity tools (`sorkin`).
"""
from __future__ import annotations

from .correlations import (CorrelationValue, SignedCorrelation, central_peak,
                           classical_correlation, exclusive_classical,
                           grating_amplitude, quantum_correlation)
from .errors import DegenerateNormalizationError, EnumerationBudgetError
from .hierarchy import (InterferenceValue, VanishingReport, curve,
                        interference, interference_oracle, vanishing_check)
from .optics import (DetectorPhases, Geometry, SlitSet, phase_from_angle,
                     preset_fixed_scan, preset_opposite_scan)
from .paths import diagonal_sum, pair_sum, path_count
from .sorkin import (DeviationModel, SensitivityReport, deviation_montecarlo,
                     sensitivity_c, sensitivity_ratio, sensitivity_table,
                     sorkin)

__version__ = "0.1.0"

__all__ = [
    "CorrelationValue", "SignedCorrelation", "central_peak",
    "classical_correlation", "exclusive_classical", "grating_amplitude",
    "quantum_correlation",
    "DegenerateNormalizationError", "EnumerationBudgetError",
    "InterferenceValue", "VanishingReport", "curve", "interference",
    "interference_oracle", "vanishing_check",
    "DetectorPhases", "Geometry", "SlitSet", "phase_from_angle",
    "preset_fixed_scan", "preset_opposite_scan",
    "diagonal_sum", "pair_sum", "path_count",
    "DeviationModel", "SensitivityReport", "deviation_montecarlo",
    "sensitivity_c", "sensitivity_ratio", "sensitivity_table", "sorkin",
    "__version__",
]
