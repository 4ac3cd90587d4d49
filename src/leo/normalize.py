"""Turn raw C/C++ function text into normalized statement token sequences.

No AST and no preprocessor. User-defined identifiers are renamed to var1,
var2, ... and func1, func2, ... in first-appearance order (an identifier is
a function when its next token is an opening parenthesis). String and
character literals, and include targets, all collapse to the single token
"str".

normalize_source makes two passes over plain tuples. One finditer scan
drops non-token bytes, whitespace and comments, raises on an unterminated
comment or literal, collapses literals and records each token's line. A
heuristic splitter then cuts the token stream into statements, folding
include targets and renaming identifiers as it places them.

The output is deterministic, ASCII-only, and stable under re-normalization
of its own rendering.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field


class NormalizeError(ValueError):
    """Lexical failure (unterminated comment or literal) with an offset.

    The offset indexes the text after non-ASCII characters are stripped and
    CRLF line ends and line splices are folded, not the raw input: "é/*"
    reports offset 0."""

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

# One match per token. The prefix skips horizontal whitespace and // comments
# atomically (a lookahead capture re-matched by backreference), so a token
# never starts inside a comment; \Z lets whitespace or a comment end the
# text. A byte that starts no token (a stray backslash, @, $, `) matches
# nothing and is skipped by finditer. Alternatives that share a first
# character keep their priority: a complete comment or literal before its
# lone opener (which is then unterminated) and before the "/" operator, a
# number before ".", and longer operators before shorter ones.
_TOKEN_RE = re.compile(
    r"""
    (?=((?:[^\S\n]+|//[^\n]*)*))\1
    (?:
        (?P<IDENT>[A-Za-z_]\w*)
      | (?P<NEWLINE>\n)
      | (?P<COMMENT>/\*.*?\*/)
      | (?P<LITERAL>"(?:\\.|[^"\\\n])*"|'(?:\\.|[^'\\\n])*')
      | (?P<OPEN>/\*|"|')
      | (?P<OTHER>
            [(){}\[\],;]
          | 0[xX][0-9a-fA-F]+[uUlL]*
          | (?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[uUlLfF]*
          | """ + "|".join(re.escape(op) for op in _OPERATORS) + r"""
        )
      | \Z
    )
    """,
    re.VERBOSE | re.DOTALL,
)

_UNTERMINATED = {
    "/*": "unterminated block comment",
    '"': "unterminated string literal",
    "'": "unterminated character literal",
}


@dataclass
class NormalizedFunction:
    """Statement token sequences plus the audit map of renamed identifiers."""
    statements: list[list[str]]
    rename_map: dict[str, str] = field(default_factory=dict)

    def render(self) -> str:
        """One statement per line, tokens space-separated. Re-normalizing the
        rendering reproduces the same statements."""
        return "\n".join(" ".join(stmt) for stmt in self.statements)


def _lex(text: str) -> list[tuple[str, bool, int, bool]]:
    """(text, is identifier, line, first on its line) per token, with
    string and character literals already collapsed to "str"."""
    tokens = []
    line = 1
    first = True
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "IDENT" or kind == "OTHER":
            tokens.append((m[kind], kind == "IDENT", line, first))
            first = False
        elif kind == "NEWLINE":
            line += 1
            first = True
        elif kind == "LITERAL":
            tokens.append(("str", False, line, first))
            first = False
        elif kind == "COMMENT":
            line += m[kind].count("\n")
        elif kind == "OPEN":
            raise NormalizeError(_UNTERMINATED[m[kind]], m.start(kind))
    return tokens


def _split(tokens) -> tuple[list[list[str]], dict[str, str]]:
    """Rename user identifiers and cut _lex's token stream into statements,
    in one walk. Returns the statements and the rename map.

    An identifier is renamed just before it is placed, as a function when
    the next token is "(". The <...> target of an include directive folds
    into one "str" token, mirroring the quoted-target rule. The target scan
    stays on the include's line, but a ">" that is the first token past
    that line still closes it: "#include <a\\n>" gives one statement,
    ["#", "include", "str"]. That quirk is kept: normalized output is frozen.

    Boundaries: after ';' at paren depth 0; before and after '{' / '}' at
    paren depth 0 (each brace is its own statement); after the ')' that
    closes an if/for/while/switch header, unless a ';' follows immediately;
    a preprocessor line ('#' first on its line) is one whole statement.
    """
    statements: list[list[str]] = []
    current: list[str] = []
    rename: dict[str, str] = {}
    counts = {"var": 0, "func": 0}
    depth = 0
    control = False  # a control header opened at paren depth 0
    pp_line = None
    i, n = 0, len(tokens)
    while i < n:
        text, ident, line, first = tokens[i]
        i += 1
        if pp_line is not None and line != pp_line:
            statements.append(current)  # the directive, from its "#"
            current = []
            pp_line = None
        if ident:
            if text not in ALLOWLIST:
                name = rename.get(text)
                if name is None:
                    kind = "func" if i < n and tokens[i][0] == "(" else "var"
                    counts[kind] += 1
                    name = rename[text] = f"{kind}{counts[kind]}"
                text = name
            elif (text == "include" and i > 1 and tokens[i - 2][0] == "#"
                  and i < n and tokens[i][0] == "<"):
                j = i
                while j < n and tokens[j][0] != ">" and tokens[j][2] == line:
                    j += 1
                if j < n and tokens[j][0] == ">":
                    current.append(text)
                    text, i = "str", j + 1
        if pp_line is not None:
            current.append(text)
        elif text == "#" and first:
            if current:
                statements.append(current)
            current = [text]
            control = False
            pp_line = line
        elif text == "(" or text == "[":
            depth += 1
            current.append(text)
        elif text == ")" or text == "]":
            if depth:
                depth -= 1
            current.append(text)
            if text == ")" and not depth and control:
                if i < n and tokens[i][0] == ";":
                    current.append(";")
                    i += 1
                statements.append(current)
                current = []
                control = False
        elif not depth and (text == "{" or text == "}"):
            if current:
                statements.append(current)
                current = []
            control = False
            statements.append([text])
        else:
            if text in CONTROL_KEYWORDS and (not current or current == ["else"]):
                control = True
            current.append(text)
            if text == ";" and not depth:
                statements.append(current)
                current = []
                control = False
    if current:
        statements.append(current)
    return statements, rename


def normalize_source(source_text: str) -> NormalizedFunction:
    """Normalize one function body: strip comments, blank lines and
    non-ASCII bytes, collapse literals to "str", rename user identifiers,
    and split into statements."""
    text = source_text.encode("ascii", errors="ignore").decode("ascii")
    text = text.replace("\r\n", "\n").replace("\\\n", " ")
    statements, rename_map = _split(_lex(text))
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
    index = vocab._index
    return [index.get(t, UNK_ID) for t in tokens]
