"""Quality report: can the evaluation tell a worse model from a better one?

Five A5-shape models train on `generate_synthetic(200, 200, seed)`: the
full model for 3 epochs, the same with `ablate_cd`, an untrained control
(`learning_rate=1e-12`), and two step-matched controls. The full model
takes two Adam steps per batch (the distribution step and the joint step)
and `ablate_cd` takes one, so `ablate_cd@6` trains for 6 epochs, the full
model's step count at 3. `lambda=0` is the full model with
`contrastive_weight=0`: it keeps the distribution step and drops the
contrastive term. Each prints one line per seed:

- max-softmax (MSP) AUROC and FPR@95 of the ID test split against family C
  and against the held-out family D (`oracles.family_d_records`, drawn from
  `default_rng(1000 + seed)`);
- ID twin accuracy: the classifier's accuracy on the ID test split;
- guard-gate AUROC: the selector's keep probability on the statements a
  benign ID-test function has and its vulnerable twin lacks, against every
  other statement of those benign functions;
- the Mahalanobis separation, min OOD score / max ID score, on C and D.
  Above 1 the Mahalanobis AUROC is 1.0 whatever the model: it saturates.

The report asserts no ranking, only that every value is defined. A family
that does not rank models, for the record: E, family B's `malloc` and a
capacity guard `if (n > cap) { return 0; }` in family A's loop shape, read
MSP AUROC 0.67/0.74 trained, 0.66/0.57 with `ablate_cd` and 0.30/0.80
untrained on seeds 7/8, so it is not generated.

`PYTHONPATH=src python tests/test_quality_report.py 7 8 9` prints the lines
for any seeds.
"""
import math
import sys

import numpy as np
import pytest

from leo import autodiff as ad
from leo.config import TrainConfig
from leo.encoder import encode_batch
from leo.losses import classifier_forward
from leo.metrics import ScoreSet, auroc, fpr_at_tpr
from leo.model import model_from_artifact
from leo.selector import deterministic_mask, selector_forward
from leo.synth import generate_synthetic
from leo.train import prepare_samples, score_records, train

from oracles import family_d_records, kept_rows

MODELS = (("trained", {}), ("ablate_cd", {"ablate_cd": True}),
          ("untrained", {"learning_rate": 1e-12}),
          ("ablate_cd@6", {"ablate_cd": True, "epochs": 6}),
          ("lambda=0", {"contrastive_weight": 0.0}))


def report_config(seed, **over):
    """The A5 acceptance shape, cut to 3 epochs; `over` replaces any field."""
    shape = dict(max_statements=40, embed_dim=32, clusters=3,
                 contrastive_weight=0.1, contrastive_temp=0.5, relax_temp=0.5,
                 epochs=3, batch_size=64)
    return TrainConfig(seed=seed, **{**shape, **over})


def scoring_pass(artifact, records):
    """Per function, the selector's keep probabilities of its kept
    statements, and the classifier's class probabilities, as the scoring
    pass computes them (deterministic gates, no dropout)."""
    config = artifact.config
    params = model_from_artifact(artifact)
    samples = prepare_samples(records, artifact.vocab, config)
    rows, lengths = kept_rows(encode_batch(samples, params.encoder,
                                           config.max_statements))
    keep = selector_forward(rows, params.selector).data
    gated = rows.data * deterministic_mask(keep, config.gate_mode)[:, None]
    block = np.zeros((len(samples), config.max_statements, rows.data.shape[1]))
    block[np.arange(config.max_statements)[None, :] < lengths[:, None]] = gated
    probs = classifier_forward(ad.constant(block), params.classifier).data
    ends = np.cumsum(lengths)
    return samples, [keep[e - n:e] for e, n in zip(ends, lengths)], probs


def guard_gate_auroc(artifact, id_test, twins):
    """Keep probability of the statements a benign twin has and its
    vulnerable twin lacks (the guard) against the benign twins' others."""
    benign = [r for r in id_test if r.label == 0 and r.sample_id[:-1] + "v" in twins]
    samples, keep, _ = scoring_pass(artifact, benign)
    lacking = prepare_samples([twins[r.sample_id[:-1] + "v"] for r in benign],
                              artifact.vocab, artifact.config)
    guard, other = [], []
    for sample, twin, probs in zip(samples, lacking, keep):
        present = {tuple(s) for s in twin}
        for statement, p in zip(sample, probs):
            (other if tuple(statement) in present else guard).append(p)
    return auroc(ScoreSet(other, guard))


def quality_lines(seed):
    """One report line per model for `seed`, and its values by name."""
    train_recs, id_test, family_c = generate_synthetic(200, 200, seed)
    family_d = family_d_records(200, np.random.default_rng(1000 + seed))
    twins = {r.sample_id: r for r in train_recs + id_test}
    lines = []
    for name, over in MODELS:
        artifact = train(report_config(seed, **over), train_recs)
        id_msp, _ = score_records(artifact, id_test, use_msp=True)
        id_maha, _ = score_records(artifact, id_test)
        values = {}
        for family, records in (("C", family_c), ("D", family_d)):
            msp, _ = score_records(artifact, records, use_msp=True)
            maha, _ = score_records(artifact, records)
            values[f"{family} auroc"] = auroc(ScoreSet(id_msp, msp))
            values[f"{family} fpr95"] = fpr_at_tpr(ScoreSet(id_msp, msp))
            values[f"{family} maha ratio"] = float(maha.min() / id_maha.max())
        _, _, probs = scoring_pass(artifact, id_test)
        values["twin acc"] = float(np.mean(probs.argmax(axis=1)
                                           == [r.label for r in id_test]))
        values["guard-gate auroc"] = guard_gate_auroc(artifact, id_test, twins)
        lines.append((name, values, (
            f"seed {seed} {name:<11} | MSP C auroc {values['C auroc']:.3f} "
            f"fpr95 {values['C fpr95']:.3f} | MSP D auroc {values['D auroc']:.3f} "
            f"fpr95 {values['D fpr95']:.3f} | twin acc {values['twin acc']:.3f} | "
            f"guard-gate auroc {values['guard-gate auroc']:.3f} | Mahalanobis "
            f"min-OOD/max-ID C {values['C maha ratio']:.2f} "
            f"D {values['D maha ratio']:.2f}")))
    return lines


@pytest.mark.parametrize("seed", [7, 8])
def test_quality_report(seed, capsys):
    for _, values, line in quality_lines(seed):
        with capsys.disabled():
            print(f"\nQUALITY {line}", flush=True)
        assert all(math.isfinite(v) for v in values.values()), line
        for name in ("C auroc", "C fpr95", "D auroc", "D fpr95", "twin acc",
                     "guard-gate auroc"):
            assert 0.0 <= values[name] <= 1.0, line


if __name__ == "__main__":
    for arg in sys.argv[1:] or ["7"]:
        for _, _, line in quality_lines(int(arg)):
            print(line, flush=True)
