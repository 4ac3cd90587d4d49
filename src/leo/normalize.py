"""Turn raw C/C++ function text into normalized statement token sequences.

No AST and no preprocessor: a hand-written lexer strips comments and
literals, user-defined identifiers are renamed to var1, var2, ... and
func1, func2, ... in first-appearance order (an identifier is a function
when its next token is an opening parenthesis), and a heuristic splitter
cuts the token stream into statements. String and character literals, and
include targets, all collapse to the single token "str".

The output is deterministic, ASCII-only, and stable under re-normalization
of its own rendering.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field


class NormalizeError(ValueError):
    """Lexical failure (unterminated comment/string), with a byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at byte offset {offset}")
        self.offset = offset


# Keywords and common library names survive renaming; everything else is a
# user-defined symbol. "str" is included so the normalizer's own output
# re-normalizes to itself.
C_KEYWORDS = frozenset("""
    auto break case char const continue default do double else enum extern
    float for goto if inline int long register restrict return short signed
    sizeof static struct switch typedef union unsigned void volatile while
    _Bool _Complex _Imaginary bool true false class namespace template
    typename using new delete this private public protected virtual operator
    friend explicit mutable constexpr nullptr static_cast dynamic_cast
    reinterpret_cast const_cast try catch throw noexcept decltype final
    override wchar_t char16_t char32_t and or not xor asm
""".split())

PREPROCESSOR_WORDS = frozenset("""
    include define undef ifdef ifndef endif elif pragma error warning line
    defined
""".split())

STDLIB_NAMES = frozenset("""
    printf fprintf sprintf snprintf scanf fscanf sscanf puts putchar gets
    fgets fputs fputc fgetc fopen fclose fread fwrite fseek ftell rewind feof
    ferror fflush remove rename tmpfile perror
    malloc calloc realloc free exit abort atexit system getenv
    atoi atol atof strtol strtoul strtod rand srand qsort bsearch abs labs
    memcpy memmove memset memcmp memchr
    strcpy strncpy strcat strncat strcmp strncmp strchr strrchr strstr strlen
    strtok strerror strdup strspn strcspn strpbrk
    isalpha isdigit isalnum isspace isupper islower ispunct toupper tolower
    sqrt pow exp log log10 sin cos tan asin acos atan atan2 sinh cosh tanh
    ceil floor fabs fmod round
    assert errno stderr stdout stdin EOF NULL FILE
    size_t ssize_t ptrdiff_t intptr_t uintptr_t
    int8_t int16_t int32_t int64_t uint8_t uint16_t uint32_t uint64_t
    va_list va_start va_arg va_end offsetof
    open close read write lseek stat fstat mmap munmap fork execve waitpid
    pipe dup2 getpid kill signal time clock difftime mktime localtime gmtime
    strftime
    std cout cin cerr endl string vector map set list deque pair make_pair
    push_back pop_back emplace_back begin end size empty clear insert erase
    find at front back data c_str npos first second iterator sort
    unique reverse min max swap move forward shared_ptr unique_ptr
    make_shared make_unique
    str
""".split())

ALLOWLIST = C_KEYWORDS | PREPROCESSOR_WORDS | STDLIB_NAMES

CONTROL_KEYWORDS = frozenset({"if", "for", "while", "switch"})

# Order matters: longest operators first so the alternation is greedy.
_OPERATORS = [
    "<<=", ">>=", "...", "->*", "::", "->", "++", "--", "<<", ">>", "<=",
    ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=", "##", "+", "-", "*", "/", "%", "<", ">", "=", "!", "&", "|", "^",
    "~", "?", ":", ".", "#",
]

_TOKEN_RE = re.compile(
    r"""
    (?P<NEWLINE>\n)
  | (?P<WS>[^\S\n]+)
  | (?P<COMMENT_SINGLE>//[^\n]*)
  | (?P<COMMENT_MULTI>/\*.*?\*/)
  | (?P<COMMENT_OPEN>/\*)
  | (?P<STRING>"(?:\\.|[^"\\\n])*")
  | (?P<STRING_OPEN>")
  | (?P<CHAR>'(?:\\.|[^'\\\n])*')
  | (?P<CHAR_OPEN>')
  | (?P<NUMBER>
        0[xX][0-9a-fA-F]+[uUlL]*
      | (?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[uUlLfF]*
    )
  | (?P<IDENT>[A-Za-z_]\w*)
  | (?P<OP>""" + "|".join(re.escape(op) for op in _OPERATORS) + r""")
  | (?P<PUNCT>[(){}\[\],;])
    """,
    re.VERBOSE | re.DOTALL,
)


@dataclass
class _Lexeme:
    kind: str
    text: str
    line: int
    first_on_line: bool


@dataclass
class NormalizedFunction:
    """Statement token sequences plus the audit map of renamed identifiers."""
    statements: list[list[str]]
    rename_map: dict[str, str] = field(default_factory=dict)

    def render(self) -> str:
        """One statement per line, tokens space-separated. Re-normalizing the
        rendering reproduces the same statements."""
        return "\n".join(" ".join(stmt) for stmt in self.statements)


def _strip_non_ascii(text: str) -> str:
    return text.encode("ascii", errors="ignore").decode("ascii")


def _lex(text: str) -> list[_Lexeme]:
    out: list[_Lexeme] = []
    pos = 0
    line = 1
    line_has_token = False
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # unknown byte (stray backslash etc.): drop it
            pos += 1
            continue
        kind = m.lastgroup
        value = m.group()
        if kind == "COMMENT_OPEN":
            raise NormalizeError("unterminated block comment", pos)
        if kind == "STRING_OPEN":
            raise NormalizeError("unterminated string literal", pos)
        if kind == "CHAR_OPEN":
            raise NormalizeError("unterminated character literal", pos)
        if kind == "NEWLINE":
            line += 1
            line_has_token = False
        elif kind in ("WS",):
            pass
        elif kind == "COMMENT_SINGLE":
            pass
        elif kind == "COMMENT_MULTI":
            line += value.count("\n")
        else:
            out.append(_Lexeme(kind, value, line, not line_has_token))
            line_has_token = True
        pos = m.end()
    return out


def _collapse_include_target(lexemes: list[_Lexeme]) -> list[_Lexeme]:
    """Fold the <...> target of an include directive into one "str" lexeme,
    mirroring the literal-collapse rule for quoted targets."""
    out: list[_Lexeme] = []
    i = 0
    while i < len(lexemes):
        lx = lexemes[i]
        out.append(lx)
        is_include = (
            lx.kind == "IDENT" and lx.text == "include"
            and out[-2:-1] and out[-2].text == "#"
        )
        if is_include and i + 1 < len(lexemes) and lexemes[i + 1].text == "<":
            j = i + 1
            while j < len(lexemes) and lexemes[j].text != ">" and lexemes[j].line == lx.line:
                j += 1
            if j < len(lexemes) and lexemes[j].text == ">":
                out.append(_Lexeme("STRING", '"collapsed"', lx.line, False))
                i = j + 1
                continue
        i += 1
    return out


def _rename_identifiers(lexemes: list[_Lexeme]) -> tuple[list[_Lexeme], dict[str, str]]:
    rename: dict[str, str] = {}
    var_count = 0
    func_count = 0
    out: list[_Lexeme] = []
    for i, lx in enumerate(lexemes):
        if lx.kind != "IDENT" or lx.text in ALLOWLIST:
            out.append(lx)
            continue
        name = rename.get(lx.text)
        if name is None:
            followed_by_paren = i + 1 < len(lexemes) and lexemes[i + 1].text == "("
            if followed_by_paren:
                func_count += 1
                name = f"func{func_count}"
            else:
                var_count += 1
                name = f"var{var_count}"
            rename[lx.text] = name
        out.append(_Lexeme(lx.kind, name, lx.line, lx.first_on_line))
    return out, rename


def _split(lexemes: list[_Lexeme]) -> list[list[str]]:
    """Cut a lexeme stream into statements.

    Boundaries: after ';' at paren depth 0; before and after '{' / '}' at
    paren depth 0 (each brace is its own statement); after the ')' that
    closes an if/for/while/switch header, unless a ';' follows immediately;
    a preprocessor line ('#' first on its line) is one whole statement.
    """
    statements: list[list[str]] = []
    current: list[str] = []
    depth = 0
    control_depth: int | None = None  # paren depth where a control header opened
    pp_line: int | None = None

    def flush():
        nonlocal control_depth
        if current:
            statements.append(current.copy())
            current.clear()
        control_depth = None

    i = 0
    n = len(lexemes)
    while i < n:
        lx = lexemes[i]
        text = lx.text

        if pp_line is not None:
            if lx.line != pp_line:
                flush()
                pp_line = None
            else:
                current.append(text)
                i += 1
                continue

        if pp_line is None and text == "#" and lx.first_on_line:
            flush()
            pp_line = lx.line
            current.append(text)
            i += 1
            continue

        if text in ("(", "["):
            depth += 1
            current.append(text)
            i += 1
            continue
        if text in (")", "]"):
            depth = max(0, depth - 1)
            current.append(text)
            if text == ")" and depth == 0 and control_depth == 0:
                nxt = lexemes[i + 1].text if i + 1 < n else None
                if nxt == ";":
                    current.append(";")
                    i += 1
                flush()
            i += 1
            continue

        if depth == 0 and text in ("{", "}"):
            flush()
            statements.append([text])
            i += 1
            continue

        if text in CONTROL_KEYWORDS and (not current or current == ["else"]):
            control_depth = 0
        current.append(text)

        if text == ";" and depth == 0:
            flush()
        i += 1

    if pp_line is not None or current:
        flush()
    return statements


def normalize_source(source_text: str) -> NormalizedFunction:
    """Normalize one function body: strip comments, blank lines and
    non-ASCII bytes, collapse literals to "str", rename user identifiers,
    and split into statements."""
    text = _strip_non_ascii(source_text)
    text = text.replace("\r\n", "\n").replace("\\\n", " ")
    lexemes = _lex(text)
    lexemes = _collapse_include_target(lexemes)
    for lx in lexemes:
        if lx.kind in ("STRING", "CHAR"):
            lx.kind = "STRING"
            lx.text = "str"
    lexemes, rename_map = _rename_identifiers(lexemes)
    statements = _split(lexemes)
    return NormalizedFunction(statements=statements, rename_map=rename_map)


# ---------------------------------------------------------------------------
# vocabulary

PAD_ID = 0
UNK_ID = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"


@dataclass(frozen=True)
class Vocabulary:
    """Token -> dense id map. Id 0 is padding, id 1 is the unknown token;
    the rest are corpus tokens ordered by descending frequency, ties broken
    lexicographically."""
    tokens: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "_index", {tok: i for i, tok in enumerate(self.tokens)})

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        return self._index.get(token, UNK_ID)

    def __contains__(self, token: str) -> bool:
        return token in self._index


def build_vocabulary(corpus: list[NormalizedFunction], max_size: int) -> Vocabulary:
    if max_size < 2:
        raise ValueError("vocabulary needs room for the pad and unknown entries")
    counts: dict[str, int] = {}
    for fn in corpus:
        for stmt in fn.statements:
            for tok in stmt:
                counts[tok] = counts.get(tok, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [tok for tok, _ in ranked[: max_size - 2]]
    return Vocabulary(tokens=(PAD_TOKEN, UNK_TOKEN, *kept))


def encode_tokens(tokens: list[str], vocab: Vocabulary) -> list[int]:
    """Map tokens to ids; unseen tokens become the unknown id, never padding."""
    return [vocab.id_of(t) for t in tokens]
