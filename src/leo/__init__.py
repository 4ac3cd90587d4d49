"""Statement-gated out-of-distribution detection for C/C++ source code.

The pipeline: normalize functions into renamed token statements, encode
each statement with a small convolutional encoder, gate statements with a
learned relaxed-Bernoulli selector, train a classifier jointly with a
cluster-contrastive objective, then score new samples by their minimum
cluster-conditioned Mahalanobis distance against a calibrated threshold.
"""

__version__ = "0.1.0"

from .autodiff import GraphError, NumericError, Tensor, backward, finite_difference_check
from .config import TrainConfig, load_config, parse_config_text
from .data import DatasetRecord, load_dataset, split_dataset, write_dataset
from .encoder import EncoderParams, encode_batch, init_encoder_params
from .losses import (
    ClassifierParams,
    ClusterAssignment,
    JointLossParts,
    KMeansResult,
    assign_clusters,
    batch_cross_entropy,
    classifier_forward,
    cluster_contrastive_loss,
    data_distribution_loss,
    init_classifier_params,
    joint_loss,
    minibatch_kmeans,
)
from .metrics import (
    EvalReport,
    ScoreSet,
    aupr,
    auroc,
    build_report,
    fpr_at_tpr,
    parse_report,
    parse_score_dump,
    render_report,
    render_score_dump,
)
from .model import ModelArtifact, ModelFormatError, load_model, save_model
from .normalize import (
    NormalizedFunction,
    NormalizeError,
    Vocabulary,
    build_vocabulary,
    encode_tokens,
    normalize_source,
)
from .optim import Adam, ParameterStore, clip_gradients, init_mlp_params
from .scoring import (
    ClusterStatistics,
    calibrate_threshold,
    fit_cluster_statistics,
    mahalanobis_scores,
)
from .selector import (
    SelectorParams,
    deterministic_mask,
    init_selector_params,
    relax_gates,
    sample_gumbel,
    selector_forward,
)
from .synth import generate_pair, generate_synthetic, write_corpus
from .train import (
    ModelParams,
    TrainingError,
    evaluate,
    masked_representations,
    model_from_artifact,
    prepare_samples,
    score_records,
)
from .train import train as train_model
