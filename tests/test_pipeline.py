"""Configuration, ingestion, the synthetic generator, the model container,
the training loop contracts, and the CLI."""
import argparse
import dataclasses
import logging
import os
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import leo.train as train_module
from leo.autodiff import NumericError, backward
from leo.cli import build_parser, main
from leo.config import (CONTRASTIVE_VARIANTS, GATE_MODES, TrainConfig,
                        load_config, parse_config_text)
from leo.data import DatasetRecord, load_dataset, split_dataset, write_dataset
from leo.encoder import encode_batch
from leo.losses import data_distribution_loss, joint_loss
from leo.metrics import parse_report, parse_score_dump
from leo.model import (
    ModelFormatError,
    deserialize_model,
    load_model,
    save_model,
    serialize_model,
)
from leo.normalize import UNK_ID, encode_tokens, normalize_source
from leo.optim import Adam, clip_store_gradients
from leo.scoring import SCORING_MODES, calibrate_threshold, mahalanobis_scores
from leo.synth import generate_family, generate_pair, generate_synthetic, write_corpus
from leo.train import (
    TrainingError,
    build_training_vocabulary,
    evaluate,
    init_model,
    masked_representations,
    model_from_artifact,
    prepare_samples,
    score_records,
    train,
)

TINY = dict(max_statements=14, embed_dim=10, vocab_max=300,
            selector_hidden=(12, 12), classifier_hidden=(24, 12),
            batch_size=16, epochs=2, clusters=2)


def tiny_config(seed=11, **over):
    kw = {**TINY, **over}
    return TrainConfig(seed=seed, **kw)


def tiny_corpus(seed=3, n=60, n_ood=20):
    return generate_synthetic(n, n_ood, seed=seed)


# --- config --------------------------------------------------------------------

EVERY_FIELD = dict(
    seed=3, max_statements=9, embed_dim=5, vocab_max=77, kernel_size=2,
    selector_hidden=(7, 8), classifier_hidden=(9,), dropout_retain=0.75,
    relax_temp=0.7, contrastive_temp=0.25, contrastive_weight=0.0, clusters=4,
    learning_rate=0.0005, batch_size=12, epochs=3, clip_norm=2.5,
    val_fraction=0.3, stmt_token_cap=11, kmeans_iters=6,
    scoring_mode="concat-diagonal", contrastive_variant="supervised-class",
    gate_mode="hard", ablate_cd=True)


def test_config_defaults_and_render_round_trip():
    cfg = TrainConfig(seed=7)
    again = TrainConfig(**parse_config_text(cfg.render()))
    assert again == cfg
    # every field away from its default, in both text forms
    assert set(EVERY_FIELD) == {f.name for f in dataclasses.fields(TrainConfig)}
    full = TrainConfig(**EVERY_FIELD)
    assert all(getattr(full, k) != getattr(cfg, k) for k in EVERY_FIELD)
    assert TrainConfig(**parse_config_text(full.render())) == full
    assert full.render() == (
        "seed = 3\nmax_statements = 9\nembed_dim = 5\nvocab_max = 77\n"
        "kernel_size = 2\nselector_hidden = 7,8\nclassifier_hidden = 9\n"
        "dropout_retain = 0.75\nrelax_temp = 0.7\ncontrastive_temp = 0.25\n"
        "contrastive_weight = 0.0\nclusters = 4\nlearning_rate = 0.0005\n"
        "batch_size = 12\nepochs = 3\nclip_norm = 2.5\nval_fraction = 0.3\n"
        "stmt_token_cap = 11\nkmeans_iters = 6\nscoring_mode = concat-diagonal\n"
        "contrastive_variant = supervised-class\ngate_mode = hard\n"
        "ablate_cd = true\n")
    assert full.fingerprint() == (
        "seed=3;max_statements=9;embed_dim=5;vocab_max=77;kernel_size=2;"
        "selector_hidden=7x8;classifier_hidden=9;dropout_retain=0.75;"
        "relax_temp=0.7;contrastive_temp=0.25;contrastive_weight=0.0;clusters=4;"
        "learning_rate=0.0005;batch_size=12;epochs=3;clip_norm=2.5;"
        "val_fraction=0.3;stmt_token_cap=11;kmeans_iters=6;"
        "scoring_mode=concat-diagonal;contrastive_variant=supervised-class;"
        "gate_mode=hard;ablate_cd=true")


def test_config_file_plus_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nseed = 5\nclusters = 9\n\nembed_dim = 16\n")
    cfg = load_config(str(path), {"clusters": 3})
    assert (cfg.seed, cfg.clusters, cfg.embed_dim) == (5, 3, 16)


def test_config_requires_seed_and_known_keys(tmp_path):
    with pytest.raises(ValueError, match="seed"):
        load_config(None, {})
    bad = tmp_path / "bad.cfg"
    bad.write_text("seed = 1\nmystery = 4\n")
    with pytest.raises(ValueError, match="line 2"):
        load_config(str(bad), {})
    with pytest.raises(ValueError, match="key = value"):
        parse_config_text("seed: 4")
    with pytest.raises(ValueError, match="unknown config key 'mystery'"):
        load_config(None, {"seed": 1, "mystery": 4})


def test_config_rejects_a_repeated_key():
    with pytest.raises(ValueError, match="config line 3: repeated key 'seed'"):
        parse_config_text("seed = 1\nembed_dim = 4\nseed = 2")


def test_config_rejects_vocab_max_below_two_by_name():
    with pytest.raises(ValueError, match="vocab_max must be at least 2"):
        TrainConfig(seed=1, vocab_max=1)
    assert TrainConfig(seed=1, vocab_max=2).vocab_max == 2


def test_config_validation_rejects_bad_values():
    for kw in (dict(dropout_retain=0.0), dict(val_fraction=1.0),
               dict(clusters=0), dict(scoring_mode="avg"),
               dict(contrastive_variant="pairwise"), dict(gate_mode="soft"),
               dict(contrastive_weight=-0.1), dict(selector_hidden=(0,))):
        with pytest.raises(ValueError):
            TrainConfig(seed=1, **kw)
    # hidden widths: a tuple or list of ints of at least 1, stored as a tuple
    for kw in (dict(selector_hidden=(2.7, True)), dict(selector_hidden=(4, 0)),
               dict(classifier_hidden=(True,)), dict(classifier_hidden=[3, -1]),
               dict(selector_hidden=(np.int64(3),))):
        name = next(iter(kw))
        with pytest.raises(ValueError, match=f"^{name} must hold ints of at least 1"):
            TrainConfig(seed=1, **kw)
    for kw in (dict(classifier_hidden=False), dict(selector_hidden=12),
               dict(selector_hidden="12"), dict(classifier_hidden=None)):
        name = next(iter(kw))
        with pytest.raises(ValueError, match=f"^{name} must be of type tuple"):
            TrainConfig(seed=1, **kw)
    cfg = TrainConfig(seed=1, selector_hidden=[3, 4], classifier_hidden=(5,))
    assert (cfg.selector_hidden, cfg.classifier_hidden) == ((3, 4), (5,))
    with pytest.raises(ValueError):
        TrainConfig(seed=-1)
    # values the CONF text could not read back as themselves
    for kw in (dict(seed=True), dict(seed=7.0), dict(embed_dim=True),
               dict(epochs=2.5), dict(learning_rate=True),
               dict(dropout_retain=True), dict(ablate_cd="no"),
               dict(ablate_cd=1)):
        name = next(iter(kw))
        with pytest.raises(ValueError, match=f"^{name} must be of type"):
            TrainConfig(**{"seed": 1, **kw})
    for name in ("clip_norm", "learning_rate", "relax_temp",
                 "contrastive_temp", "contrastive_weight", "dropout_retain",
                 "val_fraction"):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match=f"^{name} must be finite"):
                TrainConfig(seed=1, **{name: bad})


CONFIG_VALUES = st.one_of(
    st.booleans(), st.integers(-2, 10**6),
    st.floats(allow_nan=True, allow_infinity=True), st.floats(0.0, 2.0),
    st.sampled_from(SCORING_MODES + CONTRASTIVE_VARIANTS + GATE_MODES
                    + ("", "no", "true")),
    st.lists(st.one_of(st.integers(0, 400), st.booleans(), st.floats(0.0, 9.0)),
             max_size=3).flatmap(lambda ws: st.sampled_from((ws, tuple(ws)))))


@settings(max_examples=300, deadline=None)
@example({"clip_norm": 5, "learning_rate": 1})  # int float fields: stored as floats
@given(st.dictionaries(st.sampled_from(sorted(EVERY_FIELD)), CONFIG_VALUES,
                       max_size=3))
def test_every_accepted_config_reads_back_equal_from_its_render(over):
    """Whatever TrainConfig accepts, its CONF text reads back as the same
    config, with the same text and fingerprint; whatever it rejects raises
    a ValueError."""
    try:
        cfg = TrainConfig(**{"seed": 1, **over})
    except ValueError:
        return
    again = TrainConfig(**parse_config_text(cfg.render()))
    assert again == cfg
    assert (again.render(), again.fingerprint()) == (cfg.render(), cfg.fingerprint())


def test_config_hidden_sizes_and_bool_parsing():
    vals = parse_config_text("selector_hidden = 100,100,100\nablate_cd = true\n")
    assert vals["selector_hidden"] == (100, 100, 100)
    assert vals["ablate_cd"] is True


def test_fingerprint_avoids_commas():
    fp = TrainConfig(seed=2).fingerprint()
    assert "," not in fp
    assert "seed=2" in fp and "ablate_cd=false" in fp


# --- dataset ingestion ------------------------------------------------------------

def test_load_dataset_happy_path(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"id": "a", "code": "int f() { return 0; }", "label": 0}\n'
                 '{"code": "int g() { return 1; }", "label": 1, "cwe": "CWE-125"}\n')
    recs = load_dataset(str(p))
    assert [r.sample_id for r in recs] == ["a", "line2"]
    assert recs[1].cwe == "CWE-125"


UNLABELED_LINE2 = '{"id": "a", "code": "x", "label": 0}\n{"code": "y"}\n'


def test_load_dataset_errors_name_the_line(tmp_path):
    cases = [
        ('{"code": "x", "label": 2}\n', "label"),
        ('{"label": 0}\n', "code"),
        ('{not json}\n', "malformed"),
        ('[{"code": "x", "label": 0}]\n', "line 1: record must be an object"),
        ('{"id": "a", "code": "x", "label": 0}\n{"id": "a", "code": "y", "label": 0}\n',
         "duplicate"),
    ]
    for text, needle in cases:
        p = tmp_path / "bad.jsonl"
        p.write_text(text)
        with pytest.raises(ValueError, match=needle):
            load_dataset(str(p))
    p.write_text(UNLABELED_LINE2)
    assert [r.label for r in load_dataset(str(p))] == [0, None]


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_training_names_the_first_unlabeled_record(command, tmp_path, capsys):
    """A label is required only where training starts: train() and `leo
    train` / `leo ablate` refuse a file whose second line has none."""
    p = tmp_path / "unlabeled.jsonl"
    p.write_text(UNLABELED_LINE2)
    message = "1 of 2 records have no label, the first 'line2'"
    with pytest.raises(TrainingError, match=re.escape(message)):
        train(tiny_config(), load_dataset(str(p)))
    model = tmp_path / "m.leo"
    assert main([command, "--data", str(p), "--model", str(model),
                 "--seed", "1"]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not model.exists()


@pytest.mark.parametrize("label", ["true", "1.0", '"1"'])
def test_load_dataset_rejects_non_integer_labels(tmp_path, label):
    p = tmp_path / "labels.jsonl"
    p.write_text('{"id": "a", "code": "x", "label": 0}\n'
                 f'{{"id": "b", "code": "y", "label": {label}}}\n')
    with pytest.raises(ValueError, match="line 2: label must be 0 or 1"):
        load_dataset(str(p))


def test_load_dataset_rejects_invalid_utf8(tmp_path):
    p = tmp_path / "bytes.jsonl"
    p.write_bytes(b'{"id": "a", "code": "x", "label": 0}\n'
                  b'{"id": "b", "code": "\xff\xfe", "label": 0}\n')
    with pytest.raises(ValueError, match=r"bytes\.jsonl line 2: not valid UTF-8"):
        load_dataset(str(p))


@pytest.mark.parametrize("code", ["null", "7", '["x"]'])
def test_load_dataset_rejects_non_string_code(tmp_path, code):
    p = tmp_path / "code.jsonl"
    p.write_text('{"id": "a", "code": "x", "label": 0}\n\n'
                 f'{{"id": "b", "code": {code}, "label": 0}}\n')
    with pytest.raises(ValueError, match=r"code\.jsonl line 3: code must be a string"):
        load_dataset(str(p))


def test_load_dataset_empty_warns(tmp_path):
    p = tmp_path / "empty.jsonl"
    p.write_text("")
    with pytest.warns(UserWarning):
        assert load_dataset(str(p)) == []


def test_dataset_write_read_round_trip(tmp_path):
    recs = [DatasetRecord("x1", 'int f() { return 0; }', 0, "CWE-125"),
            DatasetRecord("x2", 'char c = \'a\';', 1),
            DatasetRecord("x3", "int x;", None)]
    p = tmp_path / "rt.jsonl"
    write_dataset(recs, str(p))
    assert '"label": null' in p.read_text().splitlines()[2]
    back = load_dataset(str(p))
    assert [(r.sample_id, r.code, r.label, r.cwe) for r in back] == \
        [(r.sample_id, r.code, r.label, r.cwe) for r in recs]


def _records(n):
    return [DatasetRecord(f"r{i:03d}", f"int f() {{ return {i}; }}", i % 2)
            for i in range(n)]


def test_split_sizes_and_roles():
    train_r, val_r = split_dataset(_records(10), seed=4)
    assert (len(train_r), len(val_r)) == (8, 2)


def test_split_deterministic_and_order_free():
    a = split_dataset(_records(20), seed=9)
    b = split_dataset(_records(20), seed=9)
    assert [r.sample_id for r in a[0]] == [r.sample_id for r in b[0]]
    reversed_in = list(reversed(_records(20)))
    c = split_dataset(reversed_in, seed=9)
    assert {r.sample_id for r in c[1]} == {r.sample_id for r in a[1]}


def test_split_varies_across_seeds():
    partitions = set()
    for seed in range(100):
        _, val = split_dataset(_records(10), seed=seed)
        partitions.add(frozenset(r.sample_id for r in val))
    assert len(partitions) > 20


def test_split_rejects_tiny_input():
    with pytest.raises(ValueError):
        split_dataset(_records(4), seed=0)


# --- synthetic generator -----------------------------------------------------------

def test_generator_counts_and_labels():
    rng = np.random.default_rng(0)
    fam = generate_family("A", 100, rng)
    assert len(fam) == 100
    assert sum(r.label for r in fam) == 50
    assert all(r.cwe == "CWE-125" for r in fam)


def test_twin_differs_by_exactly_the_guard():
    rng = np.random.default_rng(1)
    for fam in ("A", "B", "C"):
        benign, vulnerable, _ = generate_pair(fam, rng)
        b_lines = benign.splitlines()
        v_lines = vulnerable.splitlines()
        assert len(b_lines) == len(v_lines) + 1
        removed = [l for l in b_lines if l not in v_lines]
        assert len(removed) == 1 and "if" in removed[0]
        assert [l for l in b_lines if l in v_lines] == v_lines


def test_generator_seed_determinism(tmp_path):
    p1 = write_corpus(str(tmp_path / "a"), 20, 10, seed=5)
    p2 = write_corpus(str(tmp_path / "b"), 20, 10, seed=5)
    p3 = write_corpus(str(tmp_path / "c"), 20, 10, seed=6)
    for key in p1:
        with open(p1[key], "rb") as f1, open(p2[key], "rb") as f2:
            assert f1.read() == f2.read()
    with open(p1["train"], "rb") as f1, open(p3["train"], "rb") as f2:
        assert f1.read() != f2.read()


def test_generator_split_sizes_and_families():
    train_r, id_test, ood = generate_synthetic(100, 30, seed=2)
    assert len(train_r) + len(id_test) == 200
    assert len(id_test) == 40
    assert len(ood) == 30
    assert all(r.cwe == "CWE-862" for r in ood)
    assert {r.cwe for r in train_r} == {"CWE-125", "CWE-787"}
    for r in train_r + id_test + ood:
        normalize_source(r.code)


# --- model container -----------------------------------------------------------------

def small_artifact():
    train_recs, _, _ = tiny_corpus()
    return train(tiny_config(epochs=1), train_recs)


def test_container_round_trip_exact():
    art = small_artifact()
    blob = serialize_model(art)
    back = deserialize_model(blob)
    assert back.vocab.tokens == art.vocab.tokens
    assert back.config == art.config
    assert set(back.tensors) == set(art.tensors)
    for name in art.tensors:
        np.testing.assert_array_equal(back.tensors[name], art.tensors[name])
    np.testing.assert_array_equal(back.stats.means, art.stats.means)
    np.testing.assert_array_equal(back.stats.inverses, art.stats.inverses)
    np.testing.assert_array_equal(back.stats.counts, art.stats.counts)
    assert back.threshold == art.threshold
    assert back.log_digest == art.log_digest
    assert serialize_model(back) == blob


def _with_crc(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


def test_container_rejects_corruption(tmp_path):
    art = small_artifact()
    blob = serialize_model(art)
    with pytest.raises(ModelFormatError, match="magic"):
        deserialize_model(b"NOPE" + blob[4:])
    with pytest.raises(ModelFormatError, match="checksum"):
        deserialize_model(blob[:-10])
    flipped = bytearray(blob)
    flipped[100] ^= 0xFF
    with pytest.raises(ModelFormatError, match="checksum"):
        deserialize_model(bytes(flipped))
    bad_version = bytearray(blob)
    bad_version[4] = 99
    with pytest.raises(ModelFormatError, match="version"):
        deserialize_model(_with_crc(bytes(bad_version[:-4])))


def test_container_rejects_stray_and_unknown_sections():
    blob = serialize_model(small_artifact())
    body = blob[:-4]
    with pytest.raises(ModelFormatError, match="unknown section"):
        deserialize_model(_with_crc(body + b"XTRA" + struct.pack("<I", 0)))
    with pytest.raises(ModelFormatError, match="duplicate section"):
        deserialize_model(_with_crc(body + b"LOGD" + struct.pack("<I", 0)))
    # one extra byte inside VOCB, with its length field grown to match
    length = struct.unpack("<I", body[12:16])[0]
    grown = (body[:12] + struct.pack("<I", length + 1) + body[16:16 + length]
             + b"\x00" + body[16 + length:])
    with pytest.raises(ModelFormatError, match="trailing bytes"):
        deserialize_model(_with_crc(grown))


def _sections(blob: bytes) -> dict:
    """Section tag -> payload of a container, in file order."""
    sections, pos = {}, 8
    while pos < len(blob) - 4:
        length = struct.unpack("<I", blob[pos + 4:pos + 8])[0]
        sections[blob[pos:pos + 4]] = blob[pos + 8:pos + 8 + length]
        pos += 8 + length
    return sections


def _with_section(blob: bytes, tag: bytes, payload: bytes) -> bytes:
    """The container with one section's payload replaced, checksum redone."""
    sections = {**_sections(blob), tag: payload}
    return _with_crc(blob[:8] + b"".join(t + struct.pack("<I", len(p)) + p
                                         for t, p in sections.items()))


def _vocab_payload(tokens) -> bytes:
    return struct.pack("<I", len(tokens)) + b"".join(
        struct.pack("<I", len(t.encode())) + t.encode() for t in tokens)


def test_container_rejects_a_repeated_tensor():
    art = small_artifact()
    blob = serialize_model(art)
    tens = _sections(blob)[b"TENS"]
    bias = art.tensors["encoder/conv_bias"]
    entry = (struct.pack("<I", 17) + b"encoder/conv_bias"
             + struct.pack("<BI", 1, bias.size) + bias.astype("<f4").tobytes())
    count = struct.unpack("<I", tens[:4])[0]
    repeated = struct.pack("<I", count + 1) + tens[4:] + entry
    with pytest.raises(ModelFormatError, match="repeats tensor 'encoder/conv_bias'"):
        deserialize_model(_with_section(blob, b"TENS", repeated))


def test_container_rejects_a_repeated_vocabulary_token():
    art = small_artifact()
    tokens = art.vocab.tokens
    blob = _with_section(serialize_model(art), b"VOCB",
                         _vocab_payload((*tokens, tokens[2])))
    with pytest.raises(ModelFormatError, match=re.escape(f"repeats token {tokens[2]!r}")):
        deserialize_model(blob)


def test_container_rejects_a_vocabulary_without_pad_and_unk_first():
    art = small_artifact()
    pad, unk, *rest = art.vocab.tokens
    blob = serialize_model(art)
    assert deserialize_model(_with_section(blob, b"VOCB", _vocab_payload(
        (pad, unk, *rest)))).vocab == art.vocab
    for tokens in ((unk, pad, *rest), (pad, *rest, unk), (pad,), ()):
        with pytest.raises(ModelFormatError, match="VOCB starts with"):
            deserialize_model(_with_section(blob, b"VOCB", _vocab_payload(tokens)))


def test_container_rejects_a_config_that_repeats_a_key():
    art = small_artifact()
    conf = art.config.render() + "scoring_mode = concat-diagonal\n"
    line = conf.count("\n")
    blob = _with_section(serialize_model(art), b"CONF", conf.encode())
    with pytest.raises(ModelFormatError,
                       match=f"config line {line}: repeated key 'scoring_mode'"):
        deserialize_model(blob)


def test_container_rejects_a_config_with_vocab_max_below_two():
    art = small_artifact()
    conf = re.sub(r"(?m)^vocab_max = \d+$", "vocab_max = 1", art.config.render())
    assert "vocab_max = 1\n" in conf
    blob = _with_section(serialize_model(art), b"CONF", conf.encode())
    with pytest.raises(ModelFormatError, match="vocab_max must be at least 2"):
        deserialize_model(blob)


def test_container_rejects_a_config_that_leaves_fields_out():
    art = small_artifact()
    art.config = dataclasses.replace(art.config, stmt_token_cap=5, gate_mode="hard")
    blob = serialize_model(art)
    assert deserialize_model(blob).config == art.config
    conf = "".join(line for line in art.config.render().splitlines(keepends=True)
                   if not line.startswith(("stmt_token_cap ", "gate_mode ")))
    with pytest.raises(ModelFormatError,
                       match="CONF does not name stmt_token_cap, gate_mode$"):
        deserialize_model(_with_section(blob, b"CONF", conf.encode()))


def test_container_truncations_name_what_was_read():
    blob = serialize_model(small_artifact())
    body, sections = blob[:-4], _sections(blob)
    without_logd = b"".join(t + struct.pack("<I", len(p)) + p
                            for t, p in sections.items() if t != b"LOGD")
    for bad, message in (
            (blob[:10], "file too short"),
            (_with_crc(body[:14]), "container truncated"),  # inside VOCB's length
            (_with_crc(body[:12] + struct.pack("<I", len(body)) + body[16:]),
             "container truncated"),
            (_with_crc(body[:8] + without_logd), "missing sections: [b'LOGD']"),
            (_with_section(blob, b"TENS", sections[b"TENS"][:-3]),
             "section b'TENS' truncated")):
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            deserialize_model(bad)


def test_threshold_and_text_sections_name_themselves_when_malformed():
    blob = serialize_model(small_artifact())
    thrs = _sections(blob)[b"THRS"]
    assert len(thrs) == 16
    for tag, payload, message in (
            (b"THRS", thrs[:15], "section b'THRS' truncated"),
            (b"THRS", thrs + b"\x00", "section b'THRS' has 1 trailing bytes"),
            (b"CONF", b"\xff", "section b'CONF' is not UTF-8"),
            (b"LOGD", b"\xff", "section b'LOGD' is not UTF-8")):
        with pytest.raises(ModelFormatError, match=re.escape(message)):
            deserialize_model(_with_section(blob, tag, payload))


def test_container_fuzz_raises_only_model_format_error():
    train_recs, _, _ = tiny_corpus(n=30, n_ood=10)
    cfg = TrainConfig(seed=1, max_statements=3, embed_dim=2, vocab_max=40,
                      selector_hidden=(2,), classifier_hidden=(2,),
                      batch_size=16, epochs=1, clusters=2)
    body = serialize_model(train(cfg, train_recs))[:-4]
    rng = np.random.default_rng(0)
    rejected = 0
    for _ in range(300):
        corrupt = bytearray(body)
        pos = int(rng.integers(4, len(corrupt)))
        corrupt[pos] = (corrupt[pos] + int(rng.integers(1, 256))) % 256
        try:
            deserialize_model(_with_crc(bytes(corrupt)))
        except ModelFormatError:
            rejected += 1
    assert rejected > 100  # most corruptions hit structure, not float payloads


def test_save_load_file(tmp_path):
    art = small_artifact()
    path = str(tmp_path / "m.leo")
    save_model(art, path)
    back = load_model(path)
    assert serialize_model(back) == serialize_model(art)


# --- training loop ---------------------------------------------------------------------

def test_training_reduces_classification_loss():
    train_recs, _, _ = tiny_corpus(n=64)
    art = train(tiny_config(epochs=3), train_recs)
    lines = art.log_digest.strip().splitlines()[1:]
    first_ce = float(lines[0].split(",")[2])
    last_ce = float(lines[-1].split(",")[2])
    assert last_ce < first_ce


def test_training_is_byte_deterministic():
    train_recs, _, _ = tiny_corpus(n=40)
    a = train(tiny_config(), train_recs)
    b = train(tiny_config(), tiny_corpus(n=40)[0])
    assert serialize_model(a) == serialize_model(b)


def test_different_seed_changes_artifact():
    train_recs, _, _ = tiny_corpus(n=40)
    a = train(tiny_config(seed=11, epochs=1), train_recs)
    b = train(tiny_config(seed=12, epochs=1), train_recs)
    assert serialize_model(a) != serialize_model(b)


def test_ablation_recorded_and_changes_training():
    train_recs, _, _ = tiny_corpus(n=40)
    full = train(tiny_config(epochs=1), train_recs)
    ablated = train(tiny_config(epochs=1, ablate_cd=True), train_recs)
    assert ablated.config.ablate_cd is True
    assert "ablate_cd = true" in ablated.config.render()
    digest = ablated.log_digest.strip().splitlines()
    assert all(line.split(",")[1] == "0.0" for line in digest[1:])
    assert serialize_model(full) != serialize_model(ablated)


def test_epoch_log_reports_mean_pre_clip_norms(caplog, monkeypatch):
    """Each epoch's log line ends with each step's mean pre-clip gradient
    norm, the norms clip_store_gradients returned; the digest keeps its
    four loss columns."""
    norms = []
    real_clip = train_module.clip_store_gradients

    def spy(store, max_norm):
        norms.append(real_clip(store, max_norm))
        return norms[-1]

    monkeypatch.setattr(train_module, "clip_store_gradients", spy)
    with caplog.at_level(logging.INFO, logger="leo"):
        art = train(tiny_config(epochs=1), tiny_corpus(n=40)[0])
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("epoch ")]
    step1, step2 = norms[0::2], norms[1::2]  # each batch: step 1, then step 2
    assert len(lines) == 1 and len(step1) == len(step2) > 1
    assert lines[0].endswith(f"step 1 {np.mean(step1):.4f}, "
                             f"step 2 {np.mean(step2):.4f}")
    assert art.log_digest.splitlines()[0] == \
        "epoch,distribution_loss,gated_ce,contrastive"


def test_epoch_log_reports_mean_live_gate(caplog, monkeypatch):
    """Each epoch's log line reports the mean step-2 gate over the real
    statements of every batch; the digest does not carry it."""
    gates = []
    real_joint = train_module.joint_loss

    def spy(*args, **kwargs):
        parts = real_joint(*args, **kwargs)
        gates.append(parts.gates.data)
        return parts

    monkeypatch.setattr(train_module, "joint_loss", spy)
    with caplog.at_level(logging.INFO, logger="leo"):
        art = train(tiny_config(epochs=1), tiny_corpus(n=40)[0])
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("epoch ")]
    assert len(lines) == 1 and len(gates) > 1
    mean = np.concatenate(gates).mean()
    assert 0.0 < mean < 1.0
    assert f"mean step-2 gate over live statements {mean:.4f}, " in lines[0]
    assert all(len(line.split(",")) == 4 for line in art.log_digest.splitlines())


@pytest.mark.parametrize("ablate", [False, True])
def test_epoch_log_reports_mean_clusters_and_anchors(caplog, monkeypatch, ablate):
    """Each epoch's log line reports, per step-2 batch, the mean number of
    clusters k-means kept and the mean contrastive anchor count: vulnerable
    samples with a same-cluster peer. Without a contrastive term both read
    0. The digest carries neither."""
    parts_seen = []
    real_joint = train_module.joint_loss

    def spy(*args, **kwargs):
        parts_seen.append((np.asarray(args[2]), real_joint(*args, **kwargs)))
        return parts_seen[-1][1]

    monkeypatch.setattr(train_module, "joint_loss", spy)
    with caplog.at_level(logging.INFO, logger="leo"):
        art = train(tiny_config(epochs=2, ablate_cd=ablate), tiny_corpus(n=40)[0])
    lines = [r.getMessage() for r in caplog.records
             if r.getMessage().startswith("epoch ")]
    assert len(lines) == 2 and len(parts_seen) % 2 == 0
    per_epoch = len(parts_seen) // 2
    for epoch, line in enumerate(lines):
        batches = parts_seen[epoch * per_epoch:(epoch + 1) * per_epoch]
        clusters, anchors = [], []
        for labels, parts in batches:
            cluster_of = (parts.assignment.cluster_of if parts.assignment
                          else np.full(len(labels), -1))
            sizes = np.bincount(cluster_of[cluster_of >= 0], minlength=1)
            clusters.append(parts.assignment.k_effective if parts.assignment else 0)
            anchors.append(int(sizes[sizes >= 2].sum()))
            assert parts.anchors == anchors[-1]
        assert (max(clusters) == 0) == ablate
        if ablate:  # step 1 leaves no record: its fields reduce to 0.0
            assert ": distribution 0.0000, " in line
            assert " norm step 1 0.0000, step 2 " in line
        assert (f"mean step-2 k-means clusters {np.mean(clusters):.2f}, "
                f"contrastive anchors {np.mean(anchors):.2f}, ") in line
    assert all(len(line.split(",")) == 4 for line in art.log_digest.splitlines())


def test_prepare_samples_maps_ids_as_encode_tokens_per_statement():
    """Each statement maps as encode_tokens of its first stmt_token_cap
    tokens: statements over the cap are cut and unseen tokens map to the
    unknown id."""
    cfg = tiny_config(stmt_token_cap=4)
    train_recs, id_test, ood_test = tiny_corpus(n=30, n_ood=10)
    records = train_recs + id_test + ood_test
    vocab = build_training_vocabulary(train_recs[:10], cfg)
    statements = [normalize_source(r.code).statements for r in records]
    want = [[encode_tokens(stmt[:4], vocab) for stmt in fn] for fn in statements]
    got = prepare_samples(records, vocab, cfg)
    assert got == want
    assert any(len(stmt) > 4 for fn in statements for stmt in fn)
    assert any(UNK_ID in ids for fn in got for ids in fn)


def _update(params, adam, loss, clip_norm):
    """The training loop's update: the calls `_train_parameters` makes."""
    params.store.zero_grads()
    backward(loss)
    clip_store_gradients(params.store, clip_norm)
    adam.step(params.store)


def _values(params):
    return {n: t.data.copy() for n, t in params.store.items()}


def _moved(before, after):
    return {n for n in before if not np.array_equal(before[n], after[n])}


def test_step1_never_touches_selector_params():
    train_recs, _, _ = tiny_corpus(n=40)
    cfg = tiny_config()
    vocab = build_training_vocabulary(train_recs, cfg)
    samples = prepare_samples(train_recs, vocab, cfg)
    params = init_model(cfg, vocab.size, np.random.default_rng(0))
    adam = Adam(lr=cfg.learning_rate)

    before = _values(params)
    x, lengths, _ = encode_batch(samples[:16], params.encoder, cfg.max_statements)
    loss = data_distribution_loss(
        x, lengths, [r.label for r in train_recs[:16]], params.classifier,
        relax_temp=cfg.relax_temp, rng=np.random.default_rng(1))
    _update(params, adam, loss, cfg.clip_norm)
    moved = _moved(before, _values(params))
    assert not any(n.startswith("selector/") for n in moved)
    assert any(n.startswith("classifier/") for n in moved)
    assert any(n.startswith("encoder/") for n in moved)


def test_statementless_batch_leaves_encoder_and_its_moments_alone():
    # a batch whose functions have no statements never reaches the encoder,
    # so its step moves neither the encoder nor its Adam moments, while the
    # selector and classifier still move on the first step's momentum
    train_recs, _, _ = tiny_corpus(n=40)
    cfg = tiny_config()
    vocab = build_training_vocabulary(train_recs, cfg)
    samples = prepare_samples(train_recs, vocab, cfg)
    params = init_model(cfg, vocab.size, np.random.default_rng(0))
    adam = Adam(lr=cfg.learning_rate)

    def step(batch, labels):
        x, lengths, _ = encode_batch(batch, params.encoder, cfg.max_statements)
        parts = joint_loss(
            x, lengths, np.array(labels), params.selector, params.classifier,
            relax_temp=cfg.relax_temp, temperature=cfg.contrastive_temp,
            contrastive_weight=cfg.contrastive_weight, clusters=cfg.clusters,
            rng=np.random.default_rng(1))
        _update(params, adam, parts.total, cfg.clip_norm)

    step(samples[:16], [r.label for r in train_recs[:16]])
    before = _values(params)
    moments = {n: (adam._m[n].copy(), adam._v[n].copy())
               for n in before if n.startswith("encoder/")}
    step([[] for _ in range(4)], [0, 1, 0, 1])
    moved = _moved(before, _values(params))
    assert not any(n.startswith("encoder/") for n in moved)
    for n, (m, v) in moments.items():
        np.testing.assert_array_equal(adam._m[n], m)
        np.testing.assert_array_equal(adam._v[n], v)
    assert any(n.startswith("selector/") for n in moved)
    assert any(n.startswith("classifier/") for n in moved)


def test_vocabulary_ignores_validation_only_tokens():
    records = [
        DatasetRecord(f"t{i}", f"int f() {{ return {100 + i}; }}", 0)
        for i in range(9)
    ]
    rare = DatasetRecord("zz_rare", "int f() { return 777777; }", 0)
    records.append(rare)
    cfg = tiny_config(seed=0)
    for seed in range(50):
        _, val = split_dataset([DatasetRecord(r.sample_id, r.code, r.label)
                                for r in records], seed=seed)
        if any(r.sample_id == "zz_rare" for r in val):
            train_split, _ = split_dataset(
                [DatasetRecord(r.sample_id, r.code, r.label) for r in records],
                seed=seed)
            vocab = build_training_vocabulary(train_split, cfg)
            assert "777777" not in vocab
            assert "return" in vocab
            return
    pytest.fail("no seed put the rare record into the validation split")


def test_threshold_recalibration_matches_stored_value():
    train_recs, _, _ = tiny_corpus(n=60)
    cfg = tiny_config(epochs=1)
    art = train(cfg, train_recs)
    params = model_from_artifact(art)
    fresh = [DatasetRecord(r.sample_id, r.code, r.label, r.cwe)
             for r in train_recs]
    _, val_recs = split_dataset(fresh, cfg.seed, cfg.val_fraction)
    val_samples = prepare_samples(val_recs, art.vocab, art.config)
    reps, _ = masked_representations(params, val_samples, art.config)
    scores = mahalanobis_scores(reps, art.stats)
    with np.errstate(all="ignore"):
        import warnings as w
        with w.catch_warnings():
            w.simplefilter("ignore")
            assert calibrate_threshold(scores) == art.threshold


def test_probe_scores_survive_save_load(tmp_path):
    train_recs, id_test, _ = tiny_corpus(n=60)
    art = train(tiny_config(epochs=1), train_recs)
    probe = id_test[:8]
    before, _ = score_records(art, probe)
    path = str(tmp_path / "m.leo")
    save_model(art, path)
    after, _ = score_records(load_model(path), probe)
    np.testing.assert_allclose(after, before, rtol=1e-5)


def test_self_vs_self_auroc_is_half(tmp_path):
    train_recs, id_test, _ = tiny_corpus(n=80, n_ood=4)
    art = train(tiny_config(epochs=1), train_recs)
    p = tmp_path / "same.jsonl"
    write_dataset(id_test, str(p))
    report, rows = evaluate(art, str(p), str(p))
    assert report.auroc == 0.5
    # identical populations: at least 95% of OOD falls at or below the
    # ID threshold; tied scores can push the fraction past the quantile
    assert report.fpr_at_tpr95 >= 0.95
    assert len(rows) == 2 * len(id_test)


def test_normalize_and_encode_call_contract(monkeypatch):
    """bench/tracing.py wraps normalize_source and encode_batch where
    leo.train looks them up, reads max_statements from the third argument
    and the true lengths from result[1], and derives its repeat and padding
    ratios from one call per record and one encoder call per batch."""
    normalized, encoded = [], []
    real_normalize = train_module.normalize_source
    real_encode = train_module.encode_batch

    def count_normalize(text):
        normalized.append(text)
        return real_normalize(text)

    def count_encode(*args, **kwargs):
        result = real_encode(*args, **kwargs)
        max_statements = args[2] if len(args) > 2 else kwargs["max_statements"]
        encoded.append((args[0], max_statements, result[1]))
        return result

    monkeypatch.setattr(train_module, "normalize_source", count_normalize)
    monkeypatch.setattr(train_module, "encode_batch", count_encode)
    cfg = tiny_config(epochs=1)
    train_recs, id_test, ood_test = tiny_corpus(n=20, n_ood=6)
    artifact = train(cfg, train_recs)
    fit_split, val_split = split_dataset(list(train_recs), cfg.seed, cfg.val_fraction)
    assert len(normalized) == 2 * len(fit_split) + len(val_split)

    records = id_test + ood_test + train_recs[:20]
    normalized.clear()
    encoded.clear()
    score_records(artifact, records)
    assert normalized == [r.code for r in records]
    assert len(encoded) == -(-len(records) // cfg.batch_size) == 3
    assert sum(len(batch) for batch, _, _ in encoded) == len(records)
    want = [min(len(real_normalize(r.code).statements), cfg.max_statements)
            for r in records]
    got = [n for _, m, lengths in encoded for n in lengths.tolist()]
    assert all(m == cfg.max_statements for _, m, _ in encoded)
    assert got == want


def test_prepare_samples_names_bad_sample():
    cfg = tiny_config()
    records = [DatasetRecord(f"ok{i}", "int f() { return 1; }", 0) for i in range(5)]
    records.append(DatasetRecord("broken1", 'int f() { char *s = "unterminated; }', 0))
    vocab = build_training_vocabulary(records[:5], cfg)
    with pytest.raises(TrainingError, match="broken1"):
        prepare_samples(records, vocab, cfg)


def test_numeric_failure_aborts_with_batch_index(monkeypatch):
    train_recs, _, _ = tiny_corpus(n=40)

    def explode(*args, **kwargs):
        raise NumericError("synthetic overflow")

    monkeypatch.setattr(train_module, "data_distribution_loss", explode)
    with pytest.raises(TrainingError, match="epoch 0 batch 0"):
        train(tiny_config(), train_recs)


def test_no_vulnerable_population_warns():
    records = [DatasetRecord(f"b{i:02d}", f"int f() {{ return {i}; }}", 0)
               for i in range(30)]
    with pytest.warns(UserWarning, match="vulnerable"):
        art = train(tiny_config(epochs=1, clusters=1), records)
    digest = art.log_digest.strip().splitlines()[1:]
    assert all(line.split(",")[3] == "0.0" for line in digest)


def test_representation_dimensions_and_gating():
    train_recs, _, _ = tiny_corpus(n=40)
    cfg = tiny_config()
    vocab = build_training_vocabulary(train_recs, cfg)
    samples = prepare_samples(train_recs, vocab, cfg)
    params = init_model(cfg, vocab.size, np.random.default_rng(0))
    reps, msp = masked_representations(params, samples, cfg)
    assert reps.shape == (len(samples), cfg.embed_dim)
    assert msp.shape == (len(samples),)
    assert np.all((msp >= 0.0) & (msp <= 0.5))
    assert np.any(msp > 0.0)
    concat_cfg = tiny_config(scoring_mode="concat-diagonal")
    reps_c, _ = masked_representations(params, samples[:5], concat_cfg)
    assert reps_c.shape == (5, cfg.max_statements * cfg.embed_dim)


def test_training_fit_records_no_tape(monkeypatch):
    """train fits and calibrates on the frozen model scoring rebuilds, so
    encoding the training and validation splits records no tape."""
    train_recs, _, _ = tiny_corpus(n=40)
    seen = []
    original = train_module.masked_representations

    def spy(params, samples, config):
        seen.append([t.requires_grad for _, t in params.store.items()])
        return original(params, samples, config)

    monkeypatch.setattr(train_module, "masked_representations", spy)
    train(tiny_config(epochs=1), train_recs)
    assert len(seen) == 2
    assert all(flags and not any(flags) for flags in seen)


def test_training_fit_never_runs_or_widens_the_classifier(monkeypatch):
    """The cluster fit and the threshold read only the masked statement
    representations, so they rebuild the model without its classifier."""
    train_recs, _, _ = tiny_corpus(n=40)
    rebuilt = []
    original = train_module.model_from_artifact

    def refuse(*args, **kwargs):
        raise AssertionError("ran the classifier")

    def spy(*args, **kwargs):
        rebuilt.append(original(*args, **kwargs))
        return rebuilt[-1]

    monkeypatch.setattr(train_module, "classifier_forward", refuse)
    monkeypatch.setattr(train_module, "model_from_artifact", spy)
    art = train(tiny_config(epochs=1), train_recs)
    assert len(rebuilt) == 1 and rebuilt[0].classifier is None
    names = rebuilt[0].store.names()
    assert names and not [n for n in names if n.startswith("classifier/")]
    assert any(n.startswith("classifier/") for n in art.tensors)


# --- package root -------------------------------------------------------------


def test_package_root_all_names_resolve():
    import leo

    for name in leo.__all__:
        assert getattr(leo, name) is not None, name


# --- CLI -------------------------------------------------------------------------------

def _write_tiny_config(path):
    cfg = tiny_config(epochs=1)
    text = cfg.render().replace("seed = 11", "seed = 11")
    path.write_text(text)


def test_cli_end_to_end(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--n", "40", "--n-ood", "12",
                 "--seed", "3"]) == 0
    cfg_path = tmp_path / "run.cfg"
    _write_tiny_config(cfg_path)
    model_path = str(tmp_path / "m.leo")
    rc = main(["train", "--data", str(corpus / "train.jsonl"),
               "--model", model_path, "--config", str(cfg_path), "--k", "2"])
    assert rc == 0
    assert os.path.exists(model_path)
    report_path = str(tmp_path / "report.csv")
    rc = main(["eval", "--model", model_path,
               "--id-test", str(corpus / "id_test.jsonl"),
               "--ood-test", str(corpus / "ood_test.jsonl"),
               "--out", report_path])
    assert rc == 0
    report = parse_report(open(report_path).read())
    assert 0.0 <= report.auroc <= 1.0
    rows = parse_score_dump(open(report_path + ".scores").read())
    assert {r[1] for r in rows} == {"id", "ood"}
    capsys.readouterr()
    rc = main(["score", "--model", model_path,
               "--data", str(corpus / "ood_test.jsonl"), "--population", "ood"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("id,population,score,decision")


def test_cli_normalize_and_vocab(tmp_path, capsys):
    corpus = tmp_path / "c"
    main(["synth", "--out", str(corpus), "--n", "8", "--n-ood", "4",
          "--seed", "1"])
    assert main(["normalize", "--data", str(corpus / "ood_test.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "\t" in out and "var1" in out
    vocab_path = str(tmp_path / "vocab.txt")
    assert main(["vocab", "--data", str(corpus / "train.jsonl"),
                 "--max", "60", "--out", vocab_path]) == 0
    lines = open(vocab_path).read().splitlines()
    assert lines[:2] == ["<pad>", "<unk>"]
    assert len(lines) <= 60


def test_cli_ablate_forces_flag(tmp_path):
    corpus = tmp_path / "c"
    main(["synth", "--out", str(corpus), "--n", "40", "--n-ood", "8",
          "--seed", "2"])
    cfg_path = tmp_path / "run.cfg"
    _write_tiny_config(cfg_path)
    model_path = str(tmp_path / "ab.leo")
    assert main(["ablate", "--data", str(corpus / "train.jsonl"),
                 "--model", model_path, "--config", str(cfg_path)]) == 0
    assert load_model(model_path).config.ablate_cd is True


CLI_ONLY_DESTS = {"data", "model", "config", "id_test", "ood_test", "out",
                  "repeats", "help"}


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_cli_training_options_store_under_config_keys(command):
    """Training flags reach the config by dest name alone, so a dest that
    is neither a TrainConfig field nor a CLI-only option would be dropped."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices[command]._actions}
    keys = {f.name for f in dataclasses.fields(TrainConfig)}
    assert dests - keys - CLI_ONLY_DESTS == set()


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    """A small synthetic corpus and a 1-epoch tiny config file that sets
    ablate_cd = false."""
    root = tmp_path_factory.mktemp("cli")
    main(["synth", "--out", str(root), "--n", "40", "--n-ood", "8",
          "--seed", "2"])
    _write_tiny_config(root / "run.cfg")
    assert "ablate_cd = false" in (root / "run.cfg").read_text()
    return root


def _train_cli(cli_corpus, tmp_path, command, *flags):
    model_path = str(tmp_path / "m.leo")
    assert main([command, "--data", str(cli_corpus / "train.jsonl"),
                 "--model", model_path, "--config", str(cli_corpus / "run.cfg"),
                 *flags]) == 0
    return load_model(model_path).config


def test_cli_training_flags_reach_the_saved_config(cli_corpus, tmp_path):
    config = _train_cli(cli_corpus, tmp_path, "train", "--seed", "5",
                        "--k", "3", "--lambda", "0.25", "--tau", "0.7",
                        "--nu", "0.4", "--variant", "supervised-class")
    assert (config.seed, config.clusters, config.contrastive_weight,
            config.contrastive_temp, config.relax_temp,
            config.contrastive_variant) == (5, 3, 0.25, 0.7, 0.4,
                                            "supervised-class")


@pytest.mark.parametrize("command, flags, ablated", [
    ("train", [], False), ("train", ["--ablate-cd"], True),
    ("ablate", [], True), ("ablate", ["--ablate-cd"], True)])
def test_cli_ablation_over_a_config_that_turns_it_off(cli_corpus, tmp_path,
                                                      command, flags, ablated):
    assert _train_cli(cli_corpus, tmp_path, command, *flags).ablate_cd is ablated


def test_cli_error_paths(cli_corpus, tmp_path, capsys):
    assert main(["eval", "--model", str(tmp_path / "missing.leo"),
                 "--id-test", "x", "--ood-test", "y"]) == 2
    assert "error:" in capsys.readouterr().err
    # evaluation flags training would otherwise ignore: one test set,
    # --out or --repeats above 1 without both test sets
    model = tmp_path / "never.leo"
    for command, flags, named in (
            ("train", ["--id-test", "x", "--out", "r"], "--id-test, --out"),
            ("ablate", ["--ood-test", "y"], "--ood-test"),
            ("train", ["--out", "r"], "--out"),
            ("train", ["--repeats", "3"], "--repeats")):
        assert main([command, "--data", str(cli_corpus / "train.jsonl"),
                     "--model", str(model), "--config",
                     str(cli_corpus / "run.cfg"), *flags]) == 2
        assert (f"error: {named}: evaluating after training needs both "
                "--id-test and --ood-test") in capsys.readouterr().err
        assert not model.exists()
    assert main(["train", "--data", str(cli_corpus / "train.jsonl"), "--model",
                 str(model), "--config", str(cli_corpus / "run.cfg"),
                 "--repeats", "0"]) == 2
    assert "error: --repeats must be at least 1" in capsys.readouterr().err
    assert not model.exists()
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("seed = 1\nwhatever = 2\n")
    assert main(["train", "--data", "nope.jsonl", "--model", "m",
                 "--config", str(bad_cfg)]) == 2
    repeated_cfg = tmp_path / "repeated.cfg"
    repeated_cfg.write_text("seed = 1\nclusters = 2\nseed = 3\n")
    assert main(["train", "--data", "nope.jsonl", "--model", "m",
                 "--config", str(repeated_cfg)]) == 2
    assert "config line 3: repeated key 'seed'" in capsys.readouterr().err
    nan_cfg = tmp_path / "nan.cfg"
    nan_cfg.write_text("seed = 1\nclip_norm = nan\n")
    assert main(["train", "--data", "nope.jsonl", "--model", "m",
                 "--config", str(nan_cfg)]) == 2
    assert "clip_norm must be finite, not nan" in capsys.readouterr().err
    # a directory where a file is expected: a named error, not a traceback
    _train_cli(cli_corpus, tmp_path, "train")
    for model, data in ((tmp_path, cli_corpus / "train.jsonl"),
                        (tmp_path / "m.leo", tmp_path)):
        assert main(["score", "--model", str(model), "--data", str(data)]) == 2
        assert f"Is a directory: '{tmp_path}'" in capsys.readouterr().err
    # a model file with a non-finite parameter loads, and scoring it is a
    # named error that writes no output, not a traceback
    artifact = load_model(str(tmp_path / "m.leo"))
    poisoned = artifact.tensors["selector/w0"].copy()
    poisoned[0, 0] = np.nan
    artifact.tensors = {**artifact.tensors, "selector/w0": poisoned}
    save_model(artifact, str(tmp_path / "nan.leo"))
    out = tmp_path / "nan.out"
    for argv in (["score", "--data", str(cli_corpus / "id_test.jsonl")],
                 ["score", "--msp", "--data", str(cli_corpus / "id_test.jsonl")],
                 ["eval", "--id-test", str(cli_corpus / "id_test.jsonl"),
                  "--ood-test", str(cli_corpus / "ood_test.jsonl")]):
        assert main(argv + ["--model", str(tmp_path / "nan.leo"),
                            "--out", str(out)]) == 2
        assert "error: non-finite values in node" in capsys.readouterr().err
        assert not (out.exists() or (tmp_path / "nan.out.scores").exists())
    # a dump that cannot be written leaves no report that would name it
    report = tmp_path / "report.csv"
    (tmp_path / "report.csv.scores").mkdir()
    tests = ["--id-test", str(cli_corpus / "id_test.jsonl"),
             "--ood-test", str(cli_corpus / "ood_test.jsonl"), "--out", str(report)]
    trained = tmp_path / "m2.leo"
    train_argv = ["train", "--data", str(cli_corpus / "train.jsonl"), "--model",
                  str(trained), "--config", str(cli_corpus / "run.cfg")]
    for argv in (["eval", "--model", str(tmp_path / "m.leo")], train_argv):
        assert main(argv + tests) == 2
        assert "Is a directory: " in capsys.readouterr().err
        assert not report.exists()
    # nor does it leave a trained model, and neither does an ID test file
    # that will not lex: a train whose evaluation fails writes nothing
    assert not trained.exists()
    unlexable = tmp_path / "unlexable.jsonl"
    unlexable.write_text('{"id": "a", "code": "int f() { /* open", "label": 0}\n')
    report = tmp_path / "fresh.csv"
    assert main(train_argv + ["--id-test", str(unlexable), "--ood-test",
                              str(cli_corpus / "ood_test.jsonl"),
                              "--out", str(report)]) == 2
    assert ("error: sample 'a': unterminated block comment"
            in capsys.readouterr().err)
    assert not (trained.exists() or report.exists()
                or (tmp_path / "fresh.csv.scores").exists())


def test_empty_score_and_id_test_files_are_named(cli_corpus, tmp_path, capsys):
    _train_cli(cli_corpus, tmp_path, "train")
    model = str(tmp_path / "m.leo")
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.warns(UserWarning):
        assert main(["score", "--model", model, "--data", str(empty)]) == 2
    assert f"error: {empty} is empty" in capsys.readouterr().err
    with pytest.warns(UserWarning), pytest.raises(
            ValueError, match=re.escape(f"ID test file {empty} is empty")):
        evaluate(load_model(model), str(empty), str(cli_corpus / "ood_test.jsonl"))


def test_cli_eval_and_score_outputs_read_back_exactly(cli_corpus, tmp_path):
    """The report and dump `leo eval --out` writes parse back to evaluate's
    report and rows, and the dump `leo score --out` writes to score_records'
    scores and decisions, under either score."""
    _train_cli(cli_corpus, tmp_path, "train")
    model = str(tmp_path / "m.leo")
    artifact = load_model(model)
    id_path = str(cli_corpus / "id_test.jsonl")
    ood_path = str(cli_corpus / "ood_test.jsonl")
    report_path, score_path = tmp_path / "report.csv", tmp_path / "scores.csv"
    dump_path = tmp_path / "report.csv.scores"
    for flags, use_msp in (([], False), (["--msp"], True)):
        assert main(["eval", "--model", model, "--id-test", id_path,
                     "--ood-test", ood_path, "--out", str(report_path),
                     *flags]) == 0
        report, rows = evaluate(artifact, id_path, ood_path, use_msp=use_msp,
                                dump_path=str(dump_path))
        assert parse_report(report_path.read_text()) == report
        assert parse_score_dump(dump_path.read_text()) == rows
        assert main(["score", "--model", model, "--data", ood_path,
                     "--population", "ood", "--out", str(score_path),
                     *flags]) == 0
        records = load_dataset(ood_path)
        scores, decisions = score_records(artifact, records, use_msp=use_msp)
        assert parse_score_dump(score_path.read_text()) == [
            (r.sample_id, "ood", float(s), str(d))
            for r, s, d in zip(records, scores, decisions)]


def test_cli_eval_and_score_read_no_label(cli_corpus, tmp_path, capsys):
    """`leo score` and `leo eval` on copies of the test files without
    labels print the dump rows and report they print on the labeled files."""
    _train_cli(cli_corpus, tmp_path, "train")
    capsys.readouterr()
    model = str(tmp_path / "m.leo")
    paths = {}
    for name in ("id_test", "ood_test"):
        labeled = cli_corpus / f"{name}.jsonl"
        unlabeled = tmp_path / f"{name}.unlabeled.jsonl"
        write_dataset([dataclasses.replace(r, label=None)
                       for r in load_dataset(str(labeled))], str(unlabeled))
        paths[name] = (str(labeled), str(unlabeled))
    out, outputs = tmp_path / "report.csv", []
    for i in range(2):
        for flags in ([], ["--msp"]):
            assert main(["score", "--model", model, "--data", paths["ood_test"][i],
                         "--population", "ood", *flags]) == 0
            assert main(["eval", "--model", model, "--id-test", paths["id_test"][i],
                         "--ood-test", paths["ood_test"][i], "--out", str(out),
                         *flags]) == 0
            outputs.append((capsys.readouterr().out, out.read_text(),
                            (tmp_path / "report.csv.scores").read_text()))
    assert outputs[:2] == outputs[2:]
    assert outputs[0] != outputs[1]


def test_cli_rejects_a_config_file_with_vocab_max_below_two(tmp_path, capsys):
    cfg = tmp_path / "vocab.cfg"
    cfg.write_text("seed = 1\nvocab_max = 1\n")
    assert main(["train", "--data", "nope.jsonl", "--model", "m",
                 "--config", str(cfg)]) == 2
    assert "vocab_max must be at least 2" in capsys.readouterr().err


@pytest.fixture(scope="module")
def bad_record_setup(tmp_path_factory):
    """A tiny saved model and an ID file whose second record will not lex."""
    root = tmp_path_factory.mktemp("bad_record")
    train_recs, id_test, ood_test = tiny_corpus(n=20, n_ood=6)
    model_path = str(root / "m.leo")
    save_model(train(tiny_config(epochs=1), train_recs), model_path)
    code = "int f(int a) {\n  return a; /* never closed\n}\n"
    bad = DatasetRecord("bad-fn", code, 0)
    write_dataset([id_test[0], bad, *id_test[1:4]], str(root / "id.jsonl"))
    write_dataset(ood_test[:4], str(root / "ood.jsonl"))
    return root, model_path, code.index("/*")


@pytest.mark.parametrize("command", ["score", "eval", "normalize", "vocab"])
def test_cli_bad_record_fails_fast(bad_record_setup, command, capsys, tmp_path):
    root, model_path, offset = bad_record_setup
    out = tmp_path / "out.csv"
    if command == "score":
        argv = ["score", "--model", model_path, "--data", str(root / "id.jsonl")]
    elif command == "eval":
        argv = ["eval", "--model", model_path, "--id-test", str(root / "id.jsonl"),
                "--ood-test", str(root / "ood.jsonl")]
    else:
        argv = [command, "--data", str(root / "id.jsonl")]
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"sample 'bad-fn': unterminated block comment at byte offset {offset}" in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("line", [b'{"id": "b", "code": "\xff\xfe", "label": 0}',
                                  b'{"id": "b", "code": null, "label": 0}'],
                         ids=["invalid-utf8", "null-code"])
def test_cli_score_names_the_bad_line(bad_record_setup, line, capsys, tmp_path):
    root, model_path, _ = bad_record_setup
    data = root / "undecodable.jsonl"
    data.write_bytes(b'{"id": "a", "code": "int x;", "label": 0}\n' + line + b"\n")
    out = tmp_path / "out.csv"
    argv = ["score", "--model", model_path, "--data", str(data), "--out", str(out)]
    assert main(argv) == 2
    assert f"error: {data} line 2: " in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cli_repeats_prints_averages(tmp_path, capsys):
    corpus = tmp_path / "c"
    main(["synth", "--out", str(corpus), "--n", "40", "--n-ood", "12",
          "--seed", "4"])
    cfg_path = tmp_path / "run.cfg"
    _write_tiny_config(cfg_path)
    rc = main(["train", "--data", str(corpus / "train.jsonl"),
               "--model", str(tmp_path / "m.leo"), "--config", str(cfg_path),
               "--id-test", str(corpus / "id_test.jsonl"),
               "--ood-test", str(corpus / "ood_test.jsonl"),
               "--out", str(tmp_path / "rep.csv"), "--repeats", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "averages over 2 runs:" in out
    assert "auroc," in out
