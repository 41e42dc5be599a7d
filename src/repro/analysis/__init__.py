"""Analysis utilities: gradient statistics, convergence diagnostics, scaling, reporting."""

from repro.analysis.gradient_stats import GradientDistributionTracker, gradient_histogram
from repro.analysis.convergence import (
    assumption3_bound_estimate,
    empirical_gradient_bound_holds,
    reconstruction_preserves_mean,
    single_shot_error,
    time_to_accuracy,
    variance_ratio,
)
from repro.analysis.scaling import scaling_efficiency_table, speedup_curve
from repro.analysis.sweeps import (
    convergence_sweep,
    cost_sweep,
    synchronization_sweep,
    time_to_accuracy_sweep,
)
from repro.analysis.reporting import (
    format_figure_series,
    format_table,
    render_convergence_figure,
    render_iteration_time_figure,
    render_table2,
)

__all__ = [
    "GradientDistributionTracker",
    "gradient_histogram",
    "assumption3_bound_estimate",
    "empirical_gradient_bound_holds",
    "variance_ratio",
    "reconstruction_preserves_mean",
    "single_shot_error",
    "scaling_efficiency_table",
    "speedup_curve",
    "time_to_accuracy",
    "convergence_sweep",
    "cost_sweep",
    "synchronization_sweep",
    "time_to_accuracy_sweep",
    "format_table",
    "format_figure_series",
    "render_table2",
    "render_convergence_figure",
    "render_iteration_time_figure",
]
