"""Link-level simulation of single-carrier massive MIMO with correlated arrays.

The package covers both directions of a flat single-cell system built on
frequency-domain filter banks: downlink precoding (conjugate matched
filter, zero-forcing, regularized zero-forcing) and uplink equalization
(matched filter, zero-forcing, ridge/MMSE), plus the Monte Carlo rate
analysis and closed-form baselines used to cross-check them.
"""

from .analysis import (NoiseBreakdown, Scenario, SignalBlocks,
                       SumRateResult, appendix_moment, buckets_to_result,
                       cmfe_rate_closed, cmfp_rate_closed, coop_capacity,
                       decompose, mc_buckets, sum_rate_mc)
from .channel import (ChannelRealization, PowerDelayProfile, SimulationDims,
                      draw_channel, exponential_pdp, taps_to_freq, trial_rng)
from .corr_models import (ArrayGeometry, CorrelationMatrix,
                          bessel_correlation, distance_matrix,
                          exponential_correlation, hermitian_sqrt,
                          identity_correlation, ula, upa)
from .dl_precoding import (FrequencyFilterBank, cmfp_transmit,
                           downlink_receive, normalize_bank,
                           precoded_transmit, rzfp_bank, synthesis_bins,
                           zfp_bank)
from .experiments_cli import (ScenarioConfig, emit_plot_script, load_config,
                              optimize_beta, run_sweep, validate)
from .ul_equalization import (UplinkFrame, apply_equalizer_bank, cmfe_apply,
                              make_uplink_frame, mmsee_bank, uplink_receive,
                              zfe_bank)

__all__ = [
    "ArrayGeometry", "CorrelationMatrix", "ula", "upa",
    "distance_matrix", "hermitian_sqrt",
    "identity_correlation", "exponential_correlation", "bessel_correlation",
    "SimulationDims", "PowerDelayProfile", "ChannelRealization",
    "exponential_pdp", "draw_channel", "taps_to_freq", "trial_rng",
    "FrequencyFilterBank", "synthesis_bins", "zfp_bank", "rzfp_bank",
    "normalize_bank", "precoded_transmit", "cmfp_transmit",
    "downlink_receive",
    "UplinkFrame", "make_uplink_frame", "uplink_receive", "cmfe_apply",
    "zfe_bank", "mmsee_bank", "apply_equalizer_bank",
    "NoiseBreakdown", "SumRateResult", "Scenario", "SignalBlocks",
    "decompose", "mc_buckets", "buckets_to_result", "sum_rate_mc",
    "cmfp_rate_closed", "coop_capacity", "cmfe_rate_closed",
    "appendix_moment",
    "ScenarioConfig", "load_config", "optimize_beta", "run_sweep",
    "emit_plot_script", "validate",
]

__version__ = "0.1.0"
