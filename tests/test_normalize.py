"""Lexer, renaming, statement splitting, and vocabulary behavior."""
import hashlib
import json

import numpy as np
import pytest

from leo.normalize import (
    PAD_ID,
    UNK_ID,
    NormalizeError,
    NormalizedFunction,
    build_vocabulary,
    encode_tokens,
    normalize_source,
)
from leo.synth import generate_pair, generate_synthetic
from oracles import reference_normalize


def statements_of(src):
    return normalize_source(src).statements


def corpus_of(*statement_lists):
    return [NormalizedFunction(statements=list(sl)) for sl in statement_lists]


# ---------------------------------------------------------------------------
# tokenization and renaming


def test_for_loop_token_sequence():
    got = statements_of("for (i = 0; i < 10; i++)")
    assert got == [["for", "(", "var1", "=", "0", ";", "var1", "<", "10", ";",
                    "var1", "++", ")"]]


def test_comment_removed_and_identifier_renamed():
    got = statements_of("int count = 0; // init")
    assert got == [["int", "var1", "=", "0", ";"]]


def test_stdlib_call_kept_string_collapsed():
    got = statements_of('printf("abc");')
    assert got == [["printf", "(", "str", ")", ";"]]


def test_char_literal_collapses_to_str():
    got = statements_of("char c = 'x';")
    assert got == [["char", "var1", "=", "str", ";"]]


def test_block_comment_and_blank_lines_removed():
    src = "int a = 1;\n\n/* multi\nline */\nint b = 2;\n"
    got = statements_of(src)
    assert got == [["int", "var1", "=", "1", ";"], ["int", "var2", "=", "2", ";"]]


def test_function_vs_variable_renaming_order():
    got = statements_of("int total = helper(total, weights);")
    # total seen first -> var1; helper called -> func1; weights -> var2
    assert got == [["int", "var1", "=", "func1", "(", "var1", ",", "var2", ")", ";"]]


def test_rename_map_records_assignments():
    fn = normalize_source("int alpha = beta(gamma, alpha);")
    assert fn.rename_map == {"alpha": "var1", "beta": "func1", "gamma": "var2"}
    values = list(fn.rename_map.values())
    assert len(values) == len(set(values))


def test_non_ascii_bytes_dropped():
    got = statements_of("int aéb = 1; ☃")
    flat = [t for stmt in got for t in stmt]
    assert all(all(ord(ch) < 128 for ch in tok) for tok in flat)
    assert got == [["int", "var1", "=", "1", ";"]]


def test_line_splice_joins_logical_line():
    got = statements_of("int a = \\\n 1;")
    assert got == [["int", "var1", "=", "1", ";"]]


def test_unterminated_block_comment_reports_offset():
    with pytest.raises(NormalizeError) as err:
        normalize_source("int a; /* oops")
    assert err.value.offset == 7


def test_unterminated_string_reports_offset():
    with pytest.raises(NormalizeError) as err:
        normalize_source('puts("oops);')
    assert err.value.offset == 5


def test_unterminated_char_reports_offset():
    with pytest.raises(NormalizeError) as err:
        normalize_source("char c = 'a\n;")
    assert err.value.offset == 9


def test_error_offset_indexes_the_folded_ascii_text():
    for src, offset in (("é/*", 0), ("a\r\nb /*", 4), ("a \\\nb /*", 5)):
        with pytest.raises(NormalizeError) as err:
            normalize_source(src)
        assert err.value.offset == offset


def test_include_target_collapses():
    assert statements_of("#include <stdio.h>") == [["#", "include", "str"]]
    assert statements_of('#include "local.h"') == [["#", "include", "str"]]


def test_include_target_closes_on_a_greater_than_first_past_its_line():
    assert statements_of("#include <a\n>") == [["#", "include", "str"]]
    # a token between the line end and the ">" leaves the target unfolded
    assert statements_of("#include <a\nb>") == [["#", "include", "<", "var1"],
                                                 ["var2", ">"]]


def test_include_fold_closes_an_earlier_directive_line_first():
    # the "#" line ends before the folded include is placed on the next one
    assert statements_of("#\ninclude <a.h>") == [["#"], ["include", "str"]]
    # mid-line "#" opens no directive, but the target still folds
    assert statements_of("x # include <a> ;") == [["var1", "#", "include", "str", ";"]]
    assert statements_of("# /*c*/ include <b> // t\nz;") == [
        ["#", "include", "str"], ["var1", ";"]]


def test_define_is_one_statement():
    got = statements_of("#define MAX 10\nint a = MAX;")
    assert got[0] == ["#", "define", "var1", "10"]
    assert got[1] == ["int", "var2", "=", "var1", ";"]


def test_number_forms_survive_as_text():
    got = statements_of("x = 0xFF + 1.5e3 + 10UL;")
    assert got == [["var1", "=", "0xFF", "+", "1.5e3", "+", "10UL", ";"]]


# ---------------------------------------------------------------------------
# statement splitting


def test_two_semicolons_two_statements():
    assert len(statements_of("a=1;b=2;")) == 2


def test_if_block_splits_into_four():
    got = statements_of("if(x){y=1;}")
    assert got == [["if", "(", "var1", ")"], ["{"], ["var2", "=", "1", ";"], ["}"]]


def test_empty_input_empty_list():
    assert statements_of("") == []
    assert statements_of("   \n \n") == []
    assert statements_of("// only a comment") == []


def test_control_header_keeps_trailing_semicolon():
    got = statements_of("while (n--) ;")
    assert got == [["while", "(", "var1", "--", ")", ";"]]


def test_else_if_header_splits():
    got = statements_of("else if (x) y = 1;")
    assert got == [["else", "if", "(", "var1", ")"], ["var2", "=", "1", ";"]]


def test_function_signature_stays_with_parameter_list():
    got = statements_of("int work(int a, int b) {\nreturn a + b;\n}")
    assert got == [
        ["int", "func1", "(", "int", "var1", ",", "int", "var2", ")"],
        ["{"],
        ["return", "var1", "+", "var2", ";"],
        ["}"],
    ]


def test_for_header_semicolons_do_not_split():
    got = statements_of("for (i = 0; i < n; i++) { s += i; }")
    assert got[0][0] == "for"
    assert got[0][-1] == ")"
    assert len(got) == 4


def test_nested_calls_keep_one_statement():
    got = statements_of("x = f(g(a, h(b)), c);")
    assert len(got) == 1


def test_switch_case_splitting():
    got = statements_of("switch (k) { case 1: x = 2; break; default: break; }")
    assert got[0] == ["switch", "(", "var1", ")"]
    assert got[1] == ["{"]
    assert got[-1] == ["}"]
    flat = [t for stmt in got for t in stmt]
    assert flat.count(";") == sum(stmt.count(";") for stmt in got)


def test_split_statements_plain_tokens():
    assert statements_of("a = 1 ; b = 2 ;") == [
        ["var1", "=", "1", ";"], ["var2", "=", "2", ";"]]
    assert statements_of("") == []


def test_splitting_conserves_tokens():
    src = "int f(int n){if(n<0){return 0;}return n*2;}"
    fn = normalize_source(src)
    assert all(stmt for stmt in fn.statements)
    flat = [t for stmt in fn.statements for t in stmt]
    assert flat == fn.render().split()


# ---------------------------------------------------------------------------
# idempotence


EXAMPLES = [
    "for (i = 0; i < 10; i++)",
    "int count = 0; // init",
    'printf("abc");',
    "if(x){y=1;}",
    "#include <stdio.h>\nint main(void) { return 0; }",
    "while (a < b) { a += step(a); }\nswitch (k) { case 1: b = 2; break; default: break; }",
    "char *p = (char *) malloc(64);\nif (p == NULL) { return NULL; }\nmemcpy(p, src, 64);",
]


@pytest.mark.parametrize("src", EXAMPLES)
def test_idempotence_on_examples(src):
    first = normalize_source(src)
    second = normalize_source(first.render())
    assert second.statements == first.statements


def test_determinism():
    src = EXAMPLES[-1]
    assert normalize_source(src).statements == normalize_source(src).statements


# ---------------------------------------------------------------------------
# fuzzed invariants. The full 500-function sweep runs in the acceptance
# suite against the synthetic corpus; this local generator keeps the unit
# run self-contained.


def _random_function(rng):
    names = ["total", "idx", "buf", "limit", "acc", "tmp", "flag", "row"]
    calls = ["check", "fill", "lookup", "mix"]
    lines = ["int %s(int %s, int %s) {" % (
        rng.choice(calls), rng.choice(names), rng.choice(names))]
    for _ in range(int(rng.integers(2, 7))):
        kind = int(rng.integers(0, 6))
        a, b = rng.choice(names), rng.choice(names)
        k = int(rng.integers(0, 100))
        if kind == 0:
            lines.append("int %s = %d; // note" % (a, k))
        elif kind == 1:
            lines.append("if (%s < %d) { %s = %s + 1; }" % (a, k, b, b))
        elif kind == 2:
            lines.append("for (%s = 0; %s < %d; %s++) { %s += %s; }" % (a, a, k, a, b, a))
        elif kind == 3:
            lines.append('printf("v=%%d", %s); /* trace */' % a)
        elif kind == 4:
            lines.append("%s = %s(%s, %d);" % (a, rng.choice(calls), b, k))
        else:
            lines.append("while (%s > 0) { %s--; }" % (a, a))
    lines.append("return %s;" % rng.choice(names))
    lines.append("}")
    return "\n".join(lines)


@pytest.mark.parametrize("seed", [0, 1])
def test_fuzz_invariants(seed):
    rng = np.random.default_rng(seed)
    for i in range(60):
        src = _random_function(rng)
        if i % 3 == 0:
            src = "// leading nöte\n" + src
        if i % 4 == 0:
            src = src.replace("{", "{ /* opened */", 1)
        fn = normalize_source(src)
        assert all(stmt for stmt in fn.statements)
        flat = [t for stmt in fn.statements for t in stmt]
        assert all(tok and " " not in tok for tok in flat)
        assert all(all(ord(c) < 128 for c in tok) for tok in flat)
        renamed = list(fn.rename_map.values())
        assert len(renamed) == len(set(renamed))
        again = normalize_source(fn.render())
        assert again.statements == fn.statements


# ---------------------------------------------------------------------------
# vocabulary


def test_vocabulary_frequency_order():
    vocab = build_vocabulary(corpus_of([["a", "a", "b"]]), max_size=4)
    assert vocab.tokens == ("<pad>", "<unk>", "a", "b")
    assert encode_tokens(["a", "b"], vocab) == [2, 3]


def test_vocabulary_capacity_overflow_to_unk():
    vocab = build_vocabulary(corpus_of([["a", "a", "b"]]), max_size=3)
    assert "b" not in vocab
    assert encode_tokens(["b"], vocab) == [UNK_ID]


def test_vocabulary_tie_breaks_lexicographic():
    vocab = build_vocabulary(corpus_of([["b", "a"]]), max_size=4)
    assert encode_tokens(["a", "b"], vocab) == [2, 3]


def test_encode_examples():
    vocab = build_vocabulary(corpus_of([["a", "a", "b"]]), max_size=4)
    assert encode_tokens(["a", "b"], vocab) == [2, 3]
    assert encode_tokens(["zzz"], vocab) == [UNK_ID]
    assert encode_tokens([], vocab) == []
    assert PAD_ID not in encode_tokens(["a", "zzz", "b"], vocab)


def test_vocabulary_requires_room():
    with pytest.raises(ValueError):
        build_vocabulary([], max_size=1)


def test_vocabulary_deterministic():
    fns = corpus_of([["x", "y", "y"], ["z"]])
    assert build_vocabulary(fns, max_size=10).tokens == \
        build_vocabulary(fns, max_size=10).tokens


def test_vocabulary_counts_across_functions():
    fns = corpus_of([["a"]], [["b", "b"]])
    vocab = build_vocabulary(fns, max_size=4)
    assert encode_tokens(["b", "a"], vocab) == [2, 3]


# ---------------------------------------------------------------------------
# frozen output. The digest below was taken on the earlier five-pass lexer;
# any change to statements, rename maps, error messages or error offsets on
# this corpus changes it.

UNIT_EXAMPLES = EXAMPLES + [
    "char c = 'x';",
    "int a = 1;\n\n/* multi\nline */\nint b = 2;\n",
    "int total = helper(total, weights);",
    "int alpha = beta(gamma, alpha);",
    "int aéb = 1; ☃",
    "int a = \\\n 1;",
    "int a; /* oops",
    'puts("oops);',
    "char c = 'a\n;",
    "#include <stdio.h>",
    '#include "local.h"',
    "#define MAX 10\nint a = MAX;",
    "x = 0xFF + 1.5e3 + 10UL;",
    "a=1;b=2;",
    "while (n--) ;",
    "else if (x) y = 1;",
    "int work(int a, int b) {\nreturn a + b;\n}",
    "for (i = 0; i < n; i++) { s += i; }",
    "x = f(g(a, h(b)), c);",
    "switch (k) { case 1: x = 2; break; default: break; }",
    "a = 1 ; b = 2 ;",
    "",
    "   \n \n",
    "// only a comment",
    "int f(int n){if(n<0){return 0;}return n*2;}",
]

# Edge cases of the include collapse, the preprocessor-line rule, control
# headers and stray bytes.
EDGE_CASES = [
    "#include <stdio.h",
    "#include <a.h>\n#include \"b.h\"\nint x;",
    "#include\n<a.h>",
    "  # include <sys/types.h> // why\nx;",
    "x # include <a>",
    "#define F(x) ((x) + 1)\nF(2);",
    "#define LONG a \\\n b\nint c;",
    "#if defined(X)\nint a;\n#endif",
    "a = b; # define Q 1\nq;",
    "#\n#\n",
    "if (a) ; else if (b) { c; } else d;",
    "for (;;) {}",
    "))) ((( ]]] [[[ ;",
    "}{ } {",
    "a[i] = {1, 2}; b(c)[d] = e;",
    "do { x++; } while (x < 3);",
    "if (f(a)) return g(b);",
    "x = a ? b : c; y = 'q'; z = \"w\";",
    "s = \"esc \\\" quote\"; t = '\\'';",
    "p->q.r = *s++; u = v >>= 2; w <<= 3; ...;",
    "x = y // tail",
    "x = y /* tail */",
    "x = y\t \t",
    "x = \\ y @ z $ w ` v;",
    "\\",
    "@",
    "x\r\ny\r\n",
    "x = 1;\\\r\ny = 2;",
    "a = .5 + 5. + 1e9 + 0x1fUL + 07 + 1.2E-3f;",
    "std::vector<int> v; v.push_back(1);",
    "class A : public B { virtual void f() override; };",
    "x=\"unterminated\ny\";",
    "'",
    '"',
    "/*",
    "x /* a */ y /* b",
    "é/*",
    "x = 'é';",
]

_STRAY = ("\\", "@", "$", "`", "\\\n", "/*", "*/", '"', "'", "é", "//",
          "\n", " ", "#", "<", ">", "(", ")", "{", "}", ";")


def _edit_fuzzed(rng, bases, n):
    """n texts, each a base with one to three random edits: stray bytes,
    line splices, comment and literal openers, deletions, CRLF line ends,
    truncation, and a // comment at the very end."""
    out = []
    for _ in range(n):
        text = bases[int(rng.integers(len(bases)))]
        for _ in range(int(rng.integers(1, 4))):
            kind = int(rng.integers(0, 6))
            pos = int(rng.integers(0, len(text) + 1))
            if kind <= 1:
                text = text[:pos] + _STRAY[int(rng.integers(len(_STRAY)))] + text[pos:]
            elif kind == 2:
                text = text[:pos] + text[pos + int(rng.integers(1, 4)):]
            elif kind == 3:
                text = text.replace("\n", "\r\n")
            elif kind == 4:
                text = text[:pos]
            else:
                text = text + "// trailing note"
        out.append(text)
    return out


def _digest_corpus():
    synthetic = []
    for seed in range(6):
        for part in generate_synthetic(12, 12, seed):
            synthetic.extend(r.code for r in part)
    rng = np.random.default_rng(88)  # A8's fuzz set, with its decorations
    a8 = []
    while len(a8) < 500:
        benign, vulnerable, _ = generate_pair(("A", "B", "C")[len(a8) % 3], rng)
        a8.extend([benign, vulnerable])
    decorations = ["// táctica comment\n", "/* блок */\n", "\t \n", "// ok\n"]
    a8 = [decorations[i % 4] + code for i, code in enumerate(a8[:500])]
    local = [_random_function(np.random.default_rng(s)) for s in range(40)]
    bases = synthetic[:200] + UNIT_EXAMPLES + EDGE_CASES + local
    fuzzed = _edit_fuzzed(np.random.default_rng(2024), bases, 2000)
    return synthetic + a8 + UNIT_EXAMPLES + EDGE_CASES + local + fuzzed


def _outcome(text):
    try:
        fn = normalize_source(text)
    except NormalizeError as exc:
        return ["error", str(exc), exc.offset]
    return ["ok", fn.statements, list(fn.rename_map.items())]


FROZEN_DIGEST = "3b9c2891ae60215901f689ec14c2b0a9d4a39b4194984663435a2f76dcd79492"


def test_normalizer_digest_frozen():
    corpus = _digest_corpus()
    outcomes = [_outcome(text) for text in corpus]
    errors = sum(o[0] == "error" for o in outcomes)
    assert 200 < errors < len(corpus) // 2  # both paths are exercised
    blob = json.dumps(outcomes, ensure_ascii=True).encode("ascii")
    assert hashlib.sha256(blob).hexdigest() == FROZEN_DIGEST


# ---------------------------------------------------------------------------
# the two-scan normalizer against the one-scan lexer it replaced

# Pieces whose mixes reach every rule the line marks and the lookaheads
# touch: a multi-line block comment before "#" and inside an include
# target, "#include <a" + newline + ">", "if (x)" + newline + ";", "//"
# inside a literal, lone openers after a multi-line comment, CRLF, stray
# bytes, and U+2028, which the ASCII strip removes before the mark is made.
_MIX_PIECES = (
    "/* a\nb */", "/* c */", "#", "#include <a", "#include <", " include",
    "\n", "\r\n", ">", "<", "if (x)", "while (y)", "f", "(", ")", ";", "{",
    "}", "else", "define", '"//"', "'/*'", "// c", "/*", '"', "'", "@",
    "\\", "$", "\u2028", "\u2028x", " ", "x", "é", "\\\n", "\r",
)


def _mixed_corpus(n, seed):
    rng = np.random.default_rng(seed)
    return ["".join(_MIX_PIECES[int(i)] for i in
                    rng.integers(len(_MIX_PIECES), size=int(rng.integers(1, 14))))
            for _ in range(n)]


def _outcome_of(normalize, text):
    try:
        fn = normalize(text)
    except NormalizeError as exc:
        return ["error", str(exc), exc.offset]
    return ["ok", fn.statements, fn.rename_map]


@pytest.mark.parametrize("corpus", ["digest", "mixed"])
def test_normalizer_matches_the_one_scan_lexer(corpus):
    """normalize_source gives the statements, rename map, error message
    and error offset of the earlier one-scan lexer (tests/oracles.py), on
    the frozen digest's corpus and on seeded mixes of the cases where the
    comment and literal rewrite and the line marks could differ from it."""
    texts = _digest_corpus() if corpus == "digest" else _mixed_corpus(4000, 28)
    got = [_outcome_of(normalize_source, t) for t in texts]
    want = [_outcome_of(reference_normalize, t) for t in texts]
    mismatched = [t for t, g, w in zip(texts, got, want) if g != w]
    assert not mismatched, f"{len(mismatched)} differ, first {mismatched[0]!r}"
    if corpus == "mixed":  # errors, folded targets and line marks all occur
        ok = [(t, o[1]) for t, o in zip(texts, got) if o[0] == "ok"]
        assert len(ok) < len(texts)
        assert sum(["#", "include", "str"] in stmts for _, stmts in ok) >= 10
        assert sum("/* a\nb */" in t for t, _ in ok) >= 100
