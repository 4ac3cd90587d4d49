"""Statement-gated out-of-distribution detection for C/C++ source code.

The pipeline: normalize functions into renamed token statements, encode
each statement with a small convolutional encoder, gate statements with a
learned relaxed-Bernoulli selector, train a classifier jointly with a
cluster-contrastive objective, then score new samples by their minimum
cluster-conditioned Mahalanobis distance against a calibrated threshold.

The package root re-exports only the train / score / persist surface and
its typed errors; everything else is imported from its module.
"""

__version__ = "0.1.0"

from .autodiff import GraphError, NumericError
from .config import TrainConfig, load_config
from .data import load_dataset
from .model import ModelArtifact, ModelFormatError, load_model, save_model
from .normalize import NormalizeError
from .train import TrainingError, evaluate, score_records
from .train import train as train_model

__all__ = [
    "TrainConfig",
    "load_config",
    "load_dataset",
    "train_model",
    "evaluate",
    "score_records",
    "save_model",
    "load_model",
    "ModelArtifact",
    "ModelFormatError",
    "NormalizeError",
    "TrainingError",
    "NumericError",
    "GraphError",
]
