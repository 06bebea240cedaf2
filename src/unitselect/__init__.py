"""Learning bounds of a unit-selection benefit function from finite data.

The package simulates a binary-treatment structural causal model, computes
exact per-cell ground truth by noise enumeration, estimates bound labels from
finite experimental and observational samples, and trains small regressors to
predict those bounds for every cell of observed characteristics.
"""

from .bounds import (
    DEFAULT_BENEFIT_VECTOR,
    BenefitVector,
    BoundsBreakdown,
    ExperimentalDistribution,
    ObservationalJoint,
    ResponseProfile,
    benefit_bounds,
    exact_benefit,
    pns_bounds,
    sigma,
    value_range,
    w_term,
)
from .cells import (
    DropTable,
    IneligibleCellError,
    LabelTable,
    SplitSpec,
    aggregate,
    build_labels,
    estimate,
    split,
)
from .datagen import (
    DatasetMeta,
    iter_codes,
    read_dataset,
    write_dataset,
)
from .informer import (
    InformerTable,
    completion_weights,
    exact_experimental,
    exact_observational,
    informer_table,
    response_profile,
    true_benefit_profile,
)
from .learner import (
    Hyperparams,
    Model,
    PredictionTable,
    evaluate,
    predict_all,
    train,
)
from .model import (
    MAX_CELLS,
    CellKey,
    CellSpaceTooLarge,
    ConfigError,
    ExogenousAssignment,
    FullProfile,
    ScmConfig,
    counterfactual_pair,
    default_config,
    eval_x,
    eval_y,
    m_value,
    random_config,
)

__version__ = "1.0.0"

__all__ = [
    "BenefitVector",
    "BoundsBreakdown",
    "CellKey",
    "CellSpaceTooLarge",
    "ConfigError",
    "DEFAULT_BENEFIT_VECTOR",
    "DatasetMeta",
    "DropTable",
    "ExogenousAssignment",
    "ExperimentalDistribution",
    "FullProfile",
    "Hyperparams",
    "IneligibleCellError",
    "InformerTable",
    "LabelTable",
    "MAX_CELLS",
    "Model",
    "ObservationalJoint",
    "PredictionTable",
    "ResponseProfile",
    "ScmConfig",
    "SplitSpec",
    "aggregate",
    "benefit_bounds",
    "build_labels",
    "completion_weights",
    "counterfactual_pair",
    "default_config",
    "estimate",
    "eval_x",
    "eval_y",
    "evaluate",
    "exact_benefit",
    "exact_experimental",
    "exact_observational",
    "informer_table",
    "iter_codes",
    "m_value",
    "pns_bounds",
    "predict_all",
    "random_config",
    "read_dataset",
    "response_profile",
    "sigma",
    "split",
    "train",
    "true_benefit_profile",
    "value_range",
    "w_term",
    "write_dataset",
]
