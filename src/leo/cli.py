"""Command-line interface.

Subcommands: synth, normalize, vocab, train, eval, score, ablate.
The only environment variable consulted is LEO_LOG (debug/info/warning),
which sets logging verbosity.
"""
from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

import numpy as np

from .autodiff import NumericError
from .config import CONTRASTIVE_VARIANTS, TrainConfig, load_config
from .data import load_dataset
from .metrics import METRIC_NAMES, dump_rows, render_report, render_score_dump
from .model import ModelFormatError, load_model, save_model
from .normalize import NormalizeError, build_vocabulary
from .synth import write_corpus
from .train import TrainingError, _normalize, evaluate, score_records, train


def _add_train_arguments(p: argparse.ArgumentParser):
    p.add_argument("--data", required=True, help="training dataset (JSON lines)")
    p.add_argument("--model", required=True, help="output model path")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--seed", type=int, help="training seed")
    p.add_argument("--k", dest="clusters", metavar="K", type=int, help="cluster count")
    p.add_argument("--lambda", dest="contrastive_weight", type=float,
                   help="contrastive loss weight")
    p.add_argument("--tau", dest="contrastive_temp", metavar="TAU", type=float,
                   help="contrastive temperature")
    p.add_argument("--nu", dest="relax_temp", metavar="NU", type=float,
                   help="gate relaxation temperature")
    p.add_argument("--variant", dest="contrastive_variant", choices=CONTRASTIVE_VARIANTS,
                   help="contrastive grouping variant")
    p.add_argument("--ablate-cd", action="store_const", const=True,
                   help="disable the distribution step and contrastive term")
    p.add_argument("--id-test", help="optional ID test set to evaluate after training")
    p.add_argument("--ood-test", help="optional OOD test set to evaluate after training")
    p.add_argument("--out", help="report output path (with --id-test/--ood-test)")
    p.add_argument("--repeats", type=int, default=1,
                   help="train/evaluate cycles to average (seeds seed..seed+n-1)")


def _write_output(text: str, out_path) -> None:
    """Write text to out_path if one is given, else to stdout."""
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_synth(args) -> int:
    paths = write_corpus(args.out, args.n, args.n_ood, args.seed)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def _cmd_normalize(args) -> int:
    records = load_dataset(args.data)
    lines = []
    for r in records:
        fn = _normalize(r)
        lines.append(f"{r.sample_id}\t" + " ".join(fn.render().split()))
    _write_output("\n".join(lines) + ("\n" if lines else ""), args.out)
    return 0


def _cmd_vocab(args) -> int:
    records = load_dataset(args.data)
    vocab = build_vocabulary([_normalize(r) for r in records], args.max)
    _write_output("\n".join(vocab.tokens) + "\n", args.out)
    return 0


def _evaluate(artifact, args):
    """evaluate's report and dump rows on --id-test and --ood-test."""
    dump = (args.out + ".scores") if args.out else ""
    return evaluate(artifact, args.id_test, args.ood_test,
                    dump_path=dump, use_msp=getattr(args, "msp", False))


def _write_report(report, rows, out) -> None:
    """Print the report; with `out`, write the dump to <out>.scores, then
    the report to `out`: a report never names a dump that was not written."""
    text = render_report(report)
    if out:
        _write_output(render_score_dump(rows), out + ".scores")
        _write_output(text, out)
    _write_output(text, None)


def _cmd_train(args) -> int:
    if args.repeats < 1:
        raise ValueError("--repeats must be at least 1")
    evaluating = bool(args.id_test and args.ood_test)
    stray = [flag for flag, given in (
        ("--id-test", args.id_test), ("--ood-test", args.ood_test),
        ("--out", args.out), ("--repeats", args.repeats > 1)) if given]
    if stray and not evaluating:
        raise ValueError(f"{', '.join(stray)}: evaluating after training "
                         "needs both --id-test and --ood-test")
    config = load_config(args.config, {f.name: getattr(args, f.name, None)
                                       for f in dataclasses.fields(TrainConfig)})
    records = load_dataset(args.data)
    # every run trains and evaluates before anything is written, the model last
    model, results = None, []
    for seed in range(config.seed, config.seed + args.repeats):
        artifact = train(dataclasses.replace(config, seed=seed), records)
        model = model or artifact
        if evaluating:
            results.append(_evaluate(artifact, args))
    if results:
        _write_report(*results[0], args.out)
    if len(results) > 1:
        print(f"averages over {len(results)} runs:")
        for name in METRIC_NAMES:
            mean = float(np.mean([getattr(r, name) for r, _ in results]))
            print(f"{name},{mean!r}")
    save_model(model, args.model)
    print(f"model saved: {args.model}")
    return 0


def _cmd_eval(args) -> int:
    _write_report(*_evaluate(load_model(args.model), args), args.out)
    return 0


def _cmd_score(args) -> int:
    artifact = load_model(args.model)
    records = load_dataset(args.data)
    if not records:
        raise ValueError(f"{args.data} is empty")
    scores, decisions = score_records(artifact, records, use_msp=args.msp)
    _write_output(render_score_dump(dump_rows(records, args.population,
                                              scores, decisions)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leo",
        description="Statement-selection OOD detection for C-like source code")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, default=1000,
                   help="samples per in-distribution family")
    p.add_argument("--n-ood", type=int, default=500, help="OOD samples")
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("normalize", help="print normalized token streams")
    p.add_argument("--data", required=True)
    p.add_argument("--out")

    p = sub.add_parser("vocab", help="build a vocabulary listing")
    p.add_argument("--data", required=True)
    p.add_argument("--max", type=int, default=10000)
    p.add_argument("--out")

    p = sub.add_parser("train", help="train a model")
    _add_train_arguments(p)

    p = sub.add_parser("ablate", help="train with the ablation forced on")
    _add_train_arguments(p)
    p.set_defaults(ablate_cd=True)

    p = sub.add_parser("eval", help="evaluate a model on ID + OOD test sets")
    p.add_argument("--model", required=True)
    p.add_argument("--id-test", required=True)
    p.add_argument("--ood-test", required=True)
    p.add_argument("--out", help="report path (scores go to <out>.scores)")
    p.add_argument("--msp", action="store_true",
                   help="score with 1 - max softmax probability instead")

    p = sub.add_parser("score", help="score one dataset file")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--population", choices=("id", "ood"), default="id")
    p.add_argument("--out")
    p.add_argument("--msp", action="store_true")
    return parser


def _configure_logging() -> None:
    level_name = os.environ.get("LEO_LOG", "").strip().lower()
    levels = {"debug": logging.DEBUG, "info": logging.INFO,
              "warning": logging.WARNING}
    if level_name:
        logging.basicConfig(level=levels.get(level_name, logging.INFO),
                            format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    handlers = {
        "synth": _cmd_synth,
        "normalize": _cmd_normalize,
        "vocab": _cmd_vocab,
        "train": _cmd_train,
        "ablate": _cmd_train,
        "eval": _cmd_eval,
        "score": _cmd_score,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, TrainingError, ModelFormatError, NormalizeError,
            NumericError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
