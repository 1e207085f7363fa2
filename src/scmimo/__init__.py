"""Link-level simulation of single-carrier massive MIMO with correlated arrays.

The package covers both directions of a flat single-cell system built on
frequency-domain filter banks: downlink precoding (conjugate matched
filter, zero-forcing, regularized zero-forcing) and uplink equalization
(matched filter, zero-forcing, ridge/MMSE), plus the Monte Carlo rate
analysis and closed-form baselines used to cross-check them.

The package root exports the names of the README quick start; everything
else is imported from its submodule.
"""

from .analysis import Scenario, sum_rate_mc
from .channel import SimulationDims, exponential_pdp
from .corr_models import exponential_correlation, ula

__all__ = ["Scenario", "SimulationDims", "exponential_correlation",
           "exponential_pdp", "sum_rate_mc", "ula"]

__version__ = "0.1.0"
