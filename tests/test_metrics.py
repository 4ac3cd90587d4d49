"""Detection metrics against brute-force oracles and worked examples."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leo.metrics import (
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

from oracles import brute_aupr, brute_auroc, brute_fpr_at_tpr


def sset(ids, oods):
    return ScoreSet(np.asarray(ids, dtype=float), np.asarray(oods, dtype=float))


# --- ScoreSet validation ------------------------------------------------------

def test_score_set_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        sset([], [1.0])
    with pytest.raises(ValueError):
        sset([1.0], [])
    with pytest.raises(ValueError):
        sset([np.nan], [1.0])
    with pytest.raises(ValueError):
        sset([1.0], [np.inf])


# --- fpr_at_tpr -----------------------------------------------------------------

def test_fpr_worked_example():
    s = sset(list(range(1, 21)), [10.0, 25.0])
    assert fpr_at_tpr(s) == 0.5


def test_fpr_perfect_separation_is_zero():
    s = sset([1.0, 2.0, 3.0], [10.0, 11.0])
    assert fpr_at_tpr(s) == 0.0


def test_fpr_on_copied_population_is_ninety_five_percent():
    ids = list(range(1, 101))
    s = sset(ids, list(ids))
    assert fpr_at_tpr(s) == 0.95


def test_fpr_monotone_as_ood_scores_rise():
    rng = np.random.default_rng(0)
    ids = rng.normal(size=40)
    oods = rng.normal(size=40)
    prev = fpr_at_tpr(sset(ids, oods))
    for shift in (0.5, 1.0, 3.0):
        cur = fpr_at_tpr(sset(ids, oods + shift))
        assert cur <= prev
        prev = cur


def test_fpr_matches_oracle_and_checks_tpr():
    rng = np.random.default_rng(1)
    for _ in range(50):
        ids = rng.normal(size=rng.integers(1, 50))
        oods = rng.normal(size=rng.integers(1, 50))
        s = sset(ids, oods)
        assert fpr_at_tpr(s) == brute_fpr_at_tpr(ids, oods)
        assert fpr_at_tpr(s, 0.8) == brute_fpr_at_tpr(ids, oods, 0.8)
    with pytest.raises(ValueError):
        fpr_at_tpr(sset([1.0], [1.0]), tpr=1.0)


# --- auroc ----------------------------------------------------------------------

def test_auroc_perfect_separation():
    assert auroc(sset([0.1, 0.2], [0.8, 0.9])) == 1.0


def test_auroc_all_ties_is_half():
    assert auroc(sset([3.0, 3.0, 3.0], [3.0, 3.0])) == 0.5


def test_auroc_worked_example():
    assert auroc(sset([0.1, 0.7], [0.5, 0.9])) == 0.75


def test_auroc_reversed_separation_is_zero():
    assert auroc(sset([5.0, 6.0], [1.0, 2.0])) == 0.0


def test_auroc_strictly_increasing_transform_invariant():
    rng = np.random.default_rng(2)
    ids = rng.normal(size=30)
    oods = rng.normal(size=25)
    base = auroc(sset(ids, oods))
    for f in (lambda x: 3 * x + 1, np.tanh, lambda x: x ** 3):
        assert auroc(sset(f(ids), f(oods))) == pytest.approx(base, abs=1e-12)


def test_auroc_role_swap_complements_without_ties():
    rng = np.random.default_rng(3)
    ids = rng.normal(size=20)
    oods = rng.normal(size=30) + 0.3
    a = auroc(sset(ids, oods))
    assert auroc(sset(oods, ids)) == pytest.approx(1.0 - a, abs=1e-12)


# --- aupr -----------------------------------------------------------------------

def test_aupr_perfect_separation():
    assert aupr(sset([0.1, 0.2, 0.3], [0.8, 0.9])) == 1.0


def test_aupr_single_positive_ranked_first():
    assert aupr(sset([0.1, 0.2, 0.3, 0.4], [0.9])) == 1.0


def test_aupr_worked_example():
    assert aupr(sset([0.1, 0.7], [0.5, 0.9])) == pytest.approx(5.0 / 6.0, abs=1e-15)


# --- oracle sweep (acceptance A3 seed values live here too) ----------------------

def test_auroc_and_aupr_match_brute_oracles_on_random_sets():
    rng = np.random.default_rng(7)
    for trial in range(1000):
        n_id = int(rng.integers(1, 51))
        n_ood = int(rng.integers(1, 51))
        if trial % 3 == 0:
            pool = rng.integers(0, 8, size=n_id + n_ood) / 4.0  # force ties
            ids, oods = pool[:n_id], pool[n_id:]
        else:
            ids = rng.normal(size=n_id)
            oods = rng.normal(loc=0.5, size=n_ood)
        s = sset(ids, oods)
        assert auroc(s) == pytest.approx(brute_auroc(ids, oods), abs=1e-12)
        assert aupr(s) == pytest.approx(brute_aupr(ids, oods), abs=1e-12)


# --- report + dump round-trips ---------------------------------------------------

def test_build_report_perfect_separation():
    r = build_report(sset([1.0, 2.0], [5.0, 6.0]), fingerprint="seed=1")
    assert (r.fpr_at_tpr95, r.auroc, r.aupr) == (0.0, 1.0, 1.0)
    assert (r.n_id, r.n_ood) == (2, 2)


def test_report_identical_distributions_near_half():
    rng = np.random.default_rng(11)
    pool = rng.normal(size=800)
    r = build_report(sset(pool[:400], pool[400:]))
    assert r.auroc == pytest.approx(0.5, abs=0.05)


def test_report_metrics_validated():
    with pytest.raises(ValueError):
        EvalReport(fpr_at_tpr95=1.2, auroc=0.5, aupr=0.5, n_id=1, n_ood=1)


def test_report_csv_round_trip_byte_identical():
    r = build_report(sset([0.1, 0.7, 0.2], [0.5, 0.9]),
                     fingerprint="d=32;seed=7", dump_path="scores.csv")
    text = render_report(r)
    assert text == ("metric,value\nfpr_at_tpr95,0.5\nauroc,0.8333333333333334\n"
                    "aupr,0.8333333333333333\nn_id,3\nn_ood,2\n"
                    "fingerprint,d=32;seed=7\ndump_path,scores.csv\n")
    again = render_report(parse_report(text))
    assert again == text


def test_report_parse_rejects_missing_header():
    with pytest.raises(ValueError):
        parse_report("auroc,0.5\n")


@pytest.mark.parametrize("missing", ["fpr_at_tpr95", "auroc", "aupr", "n_id", "n_ood"])
def test_report_parse_names_missing_metric_row(missing):
    text = render_report(build_report(sset([0.1, 0.7], [0.5])))
    lines = [ln for ln in text.splitlines(keepends=True)
             if not ln.startswith(missing + ",")]
    with pytest.raises(ValueError, match=f"missing metric rows: {missing}$"):
        parse_report("".join(lines))


def test_report_parse_rejects_a_repeated_row():
    text = render_report(build_report(sset([0.1, 0.7], [0.5])))
    with pytest.raises(ValueError, match="report record 9: repeated row 'auroc'"):
        parse_report(text + "auroc,0.7\n")


def test_report_parse_rejects_an_unknown_row_by_name():
    text = render_report(build_report(sset([0.1, 0.7], [0.5]), fingerprint="seed=1"))
    misspelled = text.replace("fingerprint,seed=1", "fingerprnt,seed=1")
    with pytest.raises(ValueError, match="report record 7: unknown row 'fingerprnt'"):
        parse_report(misspelled)


@pytest.mark.parametrize("row, value", [("n_id", "1.5"), ("auroc", "high"),
                                        ("n_ood", "")])
def test_report_parse_names_the_row_it_cannot_read(row, value):
    text = render_report(build_report(sset([0.1, 0.7], [0.5])))
    lines = [f"{row},{value}\n" if ln.startswith(row + ",") else ln
             for ln in text.splitlines(keepends=True)]
    with pytest.raises(ValueError, match=f"report row '{row}': "):
        parse_report("".join(lines))


def test_score_dump_round_trip():
    rows = [("fn_001", "id", 0.125, "ID"), ("fn_755", "ood", 3.5, "OOD")]
    text = render_score_dump(rows)
    assert text == ("id,population,score,decision\n"
                    "fn_001,id,0.125,ID\nfn_755,ood,3.5,OOD\n")
    assert parse_score_dump(text) == rows
    assert render_score_dump(parse_score_dump(text)) == text


TRICKY_TEXT = st.text(alphabet=st.sampled_from(list('ab ,"\n\r;\t\u00e9')) | st.characters(),
                      max_size=12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(TRICKY_TEXT, st.sampled_from(["id", "ood"]),
                          st.floats(allow_nan=False), st.sampled_from(["ID", "OOD"])),
                max_size=6))
def test_score_dump_round_trips_any_id(rows):
    text = render_score_dump(rows)
    assert parse_score_dump(text) == rows
    assert render_score_dump(parse_score_dump(text)) == text


@settings(max_examples=100, deadline=None)
@given(TRICKY_TEXT, TRICKY_TEXT)
def test_report_round_trips_any_text_fields(fingerprint, dump_path):
    r = build_report(sset([0.1, 0.7], [0.5]), fingerprint=fingerprint,
                     dump_path=dump_path)
    again = parse_report(render_report(r))
    assert (again.fingerprint, again.dump_path) == (fingerprint, dump_path)


def test_score_dump_render_rejects_a_bad_decision():
    with pytest.raises(ValueError, match="decision must be 'ID' or 'OOD', got 'maybe'"):
        render_score_dump([("x", "id", 1.0, "maybe")])


@pytest.mark.parametrize("record, message", [
    ("a,xx,1.0,ID", "population must be 'id' or 'ood', got 'xx'"),
    ("a,id,1.0,maybe", "decision must be 'ID' or 'OOD', got 'maybe'"),
    ("a,ood,notanumber,OOD", "could not convert string to float"),
])
def test_score_dump_parse_names_the_bad_record(record, message):
    text = render_score_dump([("ok", "id", 0.5, "ID")]) + "\n" + record + "\n"
    with pytest.raises(ValueError, match=f"dump record 3: {message}"):
        parse_score_dump(text)


def test_score_dump_validates_population():
    with pytest.raises(ValueError):
        render_score_dump([("x", "test", 1.0, "ID")])
    with pytest.raises(ValueError):
        parse_score_dump("nope\n")
    with pytest.raises(ValueError, match="record 2"):
        parse_score_dump("id,population,score,decision\na,b,id,1.0,ID\n")
