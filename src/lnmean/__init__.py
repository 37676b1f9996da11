"""Inference for the common mean of several lognormal populations.

Monte Carlo pivot methods (tests and confidence intervals) for the shared
parameter of the N(a*mu + b*sigma_i^2, sigma_i^2) family, classical
comparison procedures for the lognormal special case, and a simulation
harness for size/power/coverage studies.
"""

from .classical import (AhmedComponents, MleResult, ahmed_ci, ahmed_components,
                        ahmed_test, baklizi_ci, constrained_sigma2, gupta_li_ci,
                        gupta_li_mle, gupta_li_test, log_likelihood, lr_test)
from .generalized import (MCConfig, PivotDraws, PivotMethod, TestSpec, gci, gp_value,
                          interval_from_pivots, pivot_draw_umvue,
                          pivot_draw_weighted, pvalue_from_pivots, sample_pivots)
from .model import (COMMON_NORMAL_MEAN, LOGNORMAL_MEAN, Dataset, KnownVarianceSpec,
                    ModelSpec, SampleSummary, summarize, umvue_known_variance,
                    umvue_lognormal_mean)
from .outcomes import (Alternative, IntervalOutcome, TestOutcome,
                       interval_from_log, interval_from_phi)
from .rmrs import RMRS_GROUP_LABELS, RMRS_SUMMARY_ROWS, rmrs_dataset
from .samplers import StreamKey, chi_square, std_normal
from .simulate import (RateEstimate, SimulationCell, SimulationResult,
                       cells_from_config, load_grid_config, run_cell, run_grid,
                       write_csv)

__version__ = "0.1.0"

__all__ = [
    "AhmedComponents", "Alternative", "COMMON_NORMAL_MEAN", "Dataset",
    "IntervalOutcome", "KnownVarianceSpec", "LOGNORMAL_MEAN", "MCConfig",
    "MleResult", "ModelSpec", "PivotDraws", "PivotMethod", "RMRS_GROUP_LABELS",
    "RMRS_SUMMARY_ROWS", "RateEstimate", "SampleSummary", "SimulationCell",
    "SimulationResult", "StreamKey", "TestOutcome", "TestSpec",
    "ahmed_ci", "ahmed_components", "ahmed_test", "baklizi_ci",
    "cells_from_config", "chi_square", "constrained_sigma2", "gci",
    "gp_value", "gupta_li_ci", "gupta_li_mle",
    "gupta_li_test", "interval_from_log", "interval_from_phi",
    "interval_from_pivots", "load_grid_config", "log_likelihood", "lr_test",
    "pivot_draw_umvue", "pivot_draw_weighted",
    "pvalue_from_pivots", "rmrs_dataset", "run_cell", "run_grid",
    "sample_pivots", "std_normal", "summarize", "umvue_known_variance",
    "umvue_lognormal_mean", "write_csv",
]
