"""The two-step training loop, post-training calibration, and evaluation.

Each batch takes two updates, each on the parameters its loss reaches. The
first trains the classifier and encoder on randomly masked functions, so it
respects the data distribution rather than the selector's current choices
and never reaches the selector; the second trains the selector, classifier,
and encoder jointly on the gated cross-entropy plus the weighted
cluster-contrastive term. Dropout and relaxed gates are sampled only here,
where a dropout rng is passed; every forward pass without one is
deterministic. An epoch's log line and log digest row reduce over one record
per batch. After the final epoch the parameters are rounded to their stored
float32 form and rebuilt frozen, without the classifier, by
model_from_artifact, the same rebuild Mahalanobis scoring uses: cluster
statistics are fit on the training split's masked representations under that
model, and the decision threshold is calibrated on the validation split.
"""
from __future__ import annotations

import logging
import warnings

import numpy as np

from . import autodiff as ad
from .autodiff import NumericError, backward
from .config import TrainConfig
from .data import load_dataset, split_dataset
from .encoder import encode_batch
from .losses import classifier_forward, data_distribution_loss, gated_block, joint_loss
from .metrics import ScoreSet, build_report, dump_rows
from .model import ModelArtifact, ModelParams, init_model, model_from_artifact
from .normalize import NormalizeError, Vocabulary, build_vocabulary, encode_tokens, normalize_source
from .optim import Adam, clip_store_gradients
from .scoring import (calibrate_threshold, fit_cluster_statistics,
                      mahalanobis_scores, representation_dim)
from .selector import deterministic_mask, selector_forward

log = logging.getLogger("leo")


class TrainingError(RuntimeError):
    pass


def _normalize(record):
    """normalize_source on a record; a lexing failure names the sample."""
    try:
        return normalize_source(record.code)
    except NormalizeError as exc:
        raise TrainingError(f"sample '{record.sample_id}': {exc}") from exc


def prepare_samples(records, vocab: Vocabulary, config: TrainConfig):
    """Each record's function as its list of statement id lists: normalize
    it and map each statement to token ids with encode_tokens, capped at
    stmt_token_cap tokens per statement. Reads no label."""
    cap = config.stmt_token_cap
    return [[encode_tokens(stmt[:cap], vocab) for stmt in _normalize(r).statements]
            for r in records]


def build_training_vocabulary(train_records, config: TrainConfig) -> Vocabulary:
    """Vocabulary from the training split only."""
    return build_vocabulary([_normalize(r) for r in train_records],
                            config.vocab_max)


def masked_representations(params: ModelParams, functions, config: TrainConfig):
    """Deterministic-gate scoring representations, batched, without
    dropout, and the classifier's max-softmax complement when `params` holds
    the classifier (None for a rebuild without it). The selector scores each
    batch's real statement rows, each distinct statement once under frozen
    parameters, and training's gated_block gates them and places them into
    one (batch, longest, dim) block: given encode_batch's index, it gates
    each distinct row once and copies the product into every slot that
    reads it.
    pooled-d is the mean of a function's gated rows (zero without
    statements); concat-diagonal is the block flattened row-major, zero past
    longest * dim; max-softmax runs training's classifier_forward on it."""
    n = len(functions)
    reps = np.zeros((n, representation_dim(config)))
    msp_out = None if params.classifier is None else np.zeros(n)
    for start in range(0, n, config.batch_size):
        chunk = functions[start:start + config.batch_size]
        x, lengths, index = encode_batch(chunk, params.encoder, config.max_statements)
        probs = selector_forward(x, params.selector).data
        gates = deterministic_mask(probs, config.gate_mode)
        block = gated_block(x, ad.constant(gates), lengths, index)
        b = len(chunk)
        if config.scoring_mode == "pooled-d":
            # summed down the rows in row order, as a per-function slice sum
            reps[start:start + b] = (block.data.sum(axis=1)
                                     / np.maximum(lengths, 1)[:, None])
        else:
            reps[start:start + b, :block.data[0].size] = block.data.reshape(b, -1)
        if msp_out is not None:
            class_probs = classifier_forward(block, params.classifier).data
            msp_out[start:start + b] = 1.0 - class_probs.max(axis=1)
    return reps, msp_out


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0


def _train_parameters(config: TrainConfig, vocab_size: int, functions,
                      labels_all: np.ndarray, rngs) -> tuple[dict, str]:
    """The two-step epoch loop over the prepared training functions and
    their labels, from freshly drawn parameters. Returns the trained
    parameters rounded to their stored float32 form and the log digest;
    the live parameters, the Adam moments and the last graph end with this
    call. `rngs` are the init, order, distribution-mask, joint-loss and
    dropout streams."""
    init_rng, order_rng, dd_rng, joint_rng, dropout_rng = rngs
    params = init_model(config, vocab_size, init_rng)
    adam = Adam(lr=config.learning_rate)

    def update(loss: ad.Tensor, what: str) -> float:
        """One clipped Adam step, from a finite scalar loss, on the
        parameters that loss reaches; returns the pre-clip gradient norm."""
        if not np.isfinite(loss.data):
            raise NumericError(f"{what} is not finite")
        params.store.zero_grads()
        backward(loss)
        norm = clip_store_gradients(params.store, config.clip_norm)
        adam.step(params.store)
        return norm

    weight = 0.0 if config.ablate_cd else config.contrastive_weight
    if weight > 0 and not (labels_all == 1).any():
        warnings.warn("no vulnerable samples in the training split; "
                      "the contrastive term is permanently zero")
        weight = 0.0

    n = len(functions)
    digest_lines = ["epoch,distribution_loss,gated_ce,contrastive"]
    for epoch in range(config.epochs):
        order = order_rng.permutation(n)
        records = []
        for batch_no, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start:start + config.batch_size]
            batch = [functions[i] for i in idx]
            labels = labels_all[idx]
            record = {}  # Python numbers only: no step's arrays outlive it
            try:
                if not config.ablate_cd:
                    x1, lengths1, _ = encode_batch(batch, params.encoder,
                                                   config.max_statements,
                                                   rng=dropout_rng)
                    loss1 = data_distribution_loss(
                        x1, lengths1, labels, params.classifier,
                        relax_temp=config.relax_temp, rng=dd_rng,
                        dropout_rng=dropout_rng)
                    record["norm1"] = update(loss1, "distribution loss")
                    record["distribution"] = float(loss1.data)
                    del x1, loss1  # step 1's activations end before step 2

                x2, lengths2, _ = encode_batch(batch, params.encoder,
                                               config.max_statements,
                                               rng=dropout_rng)
                parts = joint_loss(
                    x2, lengths2, labels, params.selector, params.classifier,
                    relax_temp=config.relax_temp,
                    temperature=config.contrastive_temp,
                    contrastive_weight=weight, clusters=config.clusters,
                    rng=joint_rng, variant=config.contrastive_variant,
                    kmeans_iters=config.kmeans_iters, dropout_rng=dropout_rng)
                record["norm2"] = update(parts.total, "joint loss")
            except NumericError as exc:
                raise TrainingError(
                    f"aborting: epoch {epoch} batch {batch_no}: {exc}") from exc
            records.append(dict(
                record, gated_ce=float(parts.cross_entropy.data),
                contrastive=float(parts.contrastive.data),
                gate_sum=float(parts.gates.data.sum()), live=int(lengths2.sum()),
                k_effective=parts.assignment.k_effective if parts.assignment else 0,
                anchors=parts.anchors))
        means = {key: _mean([r[key] for r in records if key in r])
                 for key in ("distribution", "gated_ce", "contrastive",
                             "k_effective", "anchors", "norm1", "norm2")}
        means["live_gate"] = (sum(r["gate_sum"] for r in records)
                              / max(sum(r["live"] for r in records), 1))
        digest_lines.append(f"{epoch},{means['distribution']!r},"
                            f"{means['gated_ce']!r},{means['contrastive']!r}")
        log.info("epoch %(epoch)d: distribution %(distribution).4f, gated CE "
                 "%(gated_ce).4f, contrastive %(contrastive).4f, mean step-2 "
                 "gate over live statements %(live_gate).4f, mean step-2 "
                 "k-means clusters %(k_effective).2f, contrastive anchors "
                 "%(anchors).2f, mean pre-clip gradient norm step 1 "
                 "%(norm1).4f, step 2 %(norm2).4f", dict(means, epoch=epoch))
    tensors = {name: t.data.astype(np.float32) for name, t in params.store.items()}
    return tensors, "\n".join(digest_lines) + "\n"


def train(config: TrainConfig, records) -> ModelArtifact:
    """Full training run on labeled in-distribution records; returns the
    self-contained artifact. A record without a label is refused."""
    records = list(records)
    if unlabeled := [r.sample_id for r in records if r.label is None]:
        raise TrainingError(f"{len(unlabeled)} of {len(records)} records have "
                            f"no label, the first '{unlabeled[0]}'")
    train_recs, val_recs = split_dataset(records, config.seed,
                                         config.val_fraction)
    vocab = build_training_vocabulary(train_recs, config)
    train_samples = prepare_samples(train_recs, vocab, config)
    val_samples = prepare_samples(val_recs, vocab, config)

    *loop_rngs, stats_rng = (np.random.default_rng(s) for s in
                             np.random.SeedSequence(config.seed).spawn(6))
    labels = np.array([r.label for r in train_recs], dtype=np.int64)
    tensors, digest = _train_parameters(config, vocab.size, train_samples,
                                        labels, loop_rngs)
    # stats and threshold are fit below on the model scoring will rebuild
    artifact = ModelArtifact(vocab=vocab, tensors=tensors, config=config,
                             stats=None, threshold=0.0, log_digest=digest)
    params = model_from_artifact(artifact, classifier=False)
    train_reps, _ = masked_representations(params, train_samples, config)
    artifact.stats = fit_cluster_statistics(train_reps, config.clusters,
                                            stats_rng, mode=config.scoring_mode,
                                            kmeans_iters=config.kmeans_iters)
    val_reps, _ = masked_representations(params, val_samples, config)
    artifact.threshold = calibrate_threshold(
        mahalanobis_scores(val_reps, artifact.stats), artifact.quantile)
    return artifact


def score_records(artifact: ModelArtifact, records, *, use_msp: bool = False):
    """Outlier scores and ID/OOD decisions for a record list: max-softmax
    when the model is rebuilt with its classifier (use_msp), else
    Mahalanobis against the stored threshold. Max-softmax decisions come
    from the scores' own quantile at the artifact's calibration quantile,
    for metric comparisons, not deployment."""
    params = model_from_artifact(artifact, classifier=use_msp)
    samples = prepare_samples(records, artifact.vocab, artifact.config)
    reps, msp = masked_representations(params, samples, artifact.config)
    if msp is not None:
        scores = msp
        threshold = (calibrate_threshold(scores, artifact.quantile)
                     if len(scores) else 0.0)
    else:
        scores = mahalanobis_scores(reps, artifact.stats)
        threshold = artifact.threshold
    decisions = np.where(scores > threshold, "OOD", "ID")
    return scores, decisions


def evaluate(artifact: ModelArtifact, id_test_path: str, ood_test_path: str,
             *, dump_path: str = "", use_msp: bool = False):
    """Load both test files and reject an empty one, then score the ID and
    the OOD population. Returns the metrics report, stamped with the
    artifact's config fingerprint and `dump_path`, and the score-dump rows,
    the ID rows before the OOD rows."""
    records = {"id": load_dataset(id_test_path), "ood": load_dataset(ood_test_path)}
    for population, path in (("id", id_test_path), ("ood", ood_test_path)):
        if not records[population]:
            raise ValueError(f"{population.upper()} test file {path} is empty")
    scores, rows = [], []
    for population, recs in records.items():
        scored, decisions = score_records(artifact, recs, use_msp=use_msp)
        scores.append(scored)
        rows += dump_rows(recs, population, scored, decisions)
    fingerprint = artifact.config.fingerprint()
    return build_report(ScoreSet(*scores), fingerprint, dump_path), rows
