"""Experiment regeneration: the paper's tables, figures and sweeps."""

from .tables import table2, table3, TableResult
from .figures import (
    fig2_stack_iv_curve,
    fig3_efficiency_curves,
    fig4_motivational,
    fig7_current_profiles,
    MotivationalResult,
)
from .report import format_table, format_series, ascii_plot
from .battery_contrast import ShapingCost, shaping_contrast
from .export import export_all
from .energy_density import compare_packs, camcorder_comparison, DensityComparison
from .experiments import full_report, mpc_comparison
from .sweep import (
    storage_capacity_sweep,
    predictor_sweep,
    efficiency_slope_sweep,
    recharge_threshold_sweep,
)

__all__ = [
    "table2",
    "table3",
    "TableResult",
    "fig2_stack_iv_curve",
    "fig3_efficiency_curves",
    "fig4_motivational",
    "fig7_current_profiles",
    "MotivationalResult",
    "format_table",
    "format_series",
    "ascii_plot",
    "ShapingCost",
    "export_all",
    "compare_packs",
    "camcorder_comparison",
    "DensityComparison",
    "shaping_contrast",
    "full_report",
    "mpc_comparison",
    "storage_capacity_sweep",
    "predictor_sweep",
    "efficiency_slope_sweep",
    "recharge_threshold_sweep",
]
