"""Replayable adversarial SGD training with per-instance influence estimation."""

from .config import DatasetSpec, ExperimentConfig, load_config, trace_fingerprint
from .influence import (
    InfluenceTable,
    QueryVector,
    infer_linear_influence,
    propagate_query,
)
from .metrics import (
    Classifier,
    ClassifierSettings,
    MetricContext,
    MetricSpec,
    average_log_likelihood,
    build_query_vector,
    metric_value,
    train_classifier,
)
from .models import FcGan, GanArchitecture, MlpLayout, NonFiniteError, joint_gradient
from .oracle import CounterfactualResult, counterfactual_retrain
from .training import (
    DivergenceError,
    StepRecord,
    TrainingSettings,
    TrainingTrace,
    load_trace,
    minibatch_schedule,
    run_training,
    save_trace,
    trace_checksum,
)

__version__ = "0.1.0"
