"""Uncoupled regression from pairwise comparison data.

Learns a linear regression function from three ingredients that never carry a
feature/target correspondence: unlabeled feature vectors, the marginal target
distribution, and pairwise comparisons (which of two points has the larger
target).  Two estimators are provided, one built on a rewrite of the
squared-loss risk ("ra") and one built on transforming scores through the
target CDF ("tt"), next to ordinary least squares and a pairwise-ranking
baseline.  The paper states the rewrite for any Bregman divergence; the
package implements the squared loss only.
"""

from .core import (
    Dataset,
    DegenerateVarianceError,
    DivergenceError,
    DomainError,
    EmptyDataError,
    LinearModel,
    NumericError,
    PairwiseSet,
    ParameterError,
    RiskConfig,
    SchemaError,
    ShapeError,
    UncoupledError,
    predict,
)
from .distributions import (
    KdeModel,
    TargetDistribution,
    empirical_distribution,
    fit_kde,
    gaussian_distribution,
    kde_distribution,
    uniform_distribution,
)
from .pairgen import (
    CounterexampleVariant,
    SyntheticSpec,
    counterexample_sampler,
    generate_synthetic,
    pairwise_from_arrays,
    random_unit_vector,
    sample_pairwise_from_spec,
)
from .optimize import GdResult, minimize_gd
from .risk_approx import (
    RaVariances,
    err_objective,
    err_objective_empirical,
    estimate_variances,
    optimal_lambda,
    ra_empirical_risk,
    ra_fit,
    solve_normal_equations,
    tune_weights,
    tune_weights_empirical,
)
from .target_transform import tt_fit, tt_predict
from .baselines import lr_fit, rank_predict, ranker_fit
from .evaluation import (
    DEFAULT_SEED,
    METHOD_ORDER,
    CheckReport,
    ExperimentSpec,
    ResultRow,
    ResultTable,
    check_counterexample,
    check_lemma1,
    check_theorem1_variance,
    check_unbiasedness,
    mse,
    run_benchmark,
    run_synthetic,
)
from .dataio import CsvSchema, load_csv

__version__ = "0.1.0"
