"""Ordering reliability of top-ranked entities in Poisson count data.

Counts with power-law means (Zipf or shifted Zipf laws) sampled with
Poisson noise keep their top ranks in the true order only up to a depth
that grows slowly with the data size.  This package computes that depth:
analytic misordering bounds and thresholds, scale estimation from data,
seeded Monte Carlo validation of the bounds, and corpus diagnostics.
"""

from .bounds import (
    BoundReport,
    EnsembleParams,
    ThresholdReport,
    interloper_bound,
    jumper_bound,
    pick_n,
    poisson_lower_tail_bound,
    poisson_upper_tail_bound,
    prefix_error_bound,
    prefix_error_closed_form,
    skellam_order_bound,
    swap_lower_bound,
    teicher_floor,
    threshold_A,
    threshold_n_hat,
    threshold_n_prime,
)
from .corpus import (
    AnalysisReport,
    CountsSummary,
    ReferenceLine,
    ZipfPlotData,
    adjacent_se,
    analyze,
    load_rank_counts,
    write_se_csv,
    write_zipf_csv,
    zipf_plot_data,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    DomainError,
    ParseError,
    ZipfOrderError,
)
from .estimate import (
    RankedCounts,
    ScaleEstimates,
    SensitivityReport,
    SensitivityRow,
    estimate_N_total,
    local_scale_estimates,
    sensitivity_sweep,
)
from .simulate import (
    ExperimentSummary,
    OrderingOutcome,
    ordering_outcome,
    replicate_stream,
    run_experiment,
    truncation_index,
)
from .special import (
    hurwitz_zeta,
    ln_gamma,
    normal_cdf,
    riemann_zeta,
    solve_zeta_equals,
)

__version__ = "0.1.0"
