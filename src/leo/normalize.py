"""Turn raw C/C++ function text into normalized statement token sequences.

No AST and no preprocessor. User-defined identifiers are renamed to var1,
var2, ... and func1, func2, ... in first-appearance order (an identifier is
a function when its next token is an opening parenthesis). String and
character literals, and include targets, all collapse to the single token
"str".

normalize_source makes two C-level regex scans and one walk over plain
strings. The first scan rewrites comments and literals, leftmost first,
and raises on an unterminated one: a literal becomes "str", a comment a
space, and a comment that spans lines one line mark. The second returns the
token strings, newlines and marks included; whitespace and bytes that start
no token fall away. A heuristic splitter then walks those strings once,
cutting them into statements and folding include targets and renaming
identifiers as it places them.

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

# Comments and literals are rewritten before tokens are scanned, leftmost
# first: a literal to " str ", a comment to a space (so neither joins its
# neighbours) and a comment that spans lines to _MARK, a character that is
# not ASCII, so the stripped input cannot hold it; it tells the splitter the
# line changed. No token holds a quote, and the only tokens with a slash,
# "/" and "/=", start no comment, so these are the matches a token scan
# would meet. No group captures: with groups the regex engine drops its
# first-character search, and the scan took about eight times as long on
# synthetic functions.
_MARK = "\u2028"

_SKIP_RE = re.compile(
    r"""
        //[^\n]*
      | /\*.*?\*/
      | "(?:\\.|[^"\\\n])*" | '(?:\\.|[^'\\\n])*'
      | /\* | " | '
    """,
    re.VERBOSE | re.DOTALL,
)

# One match per token, "\n" and _MARK included; whitespace and a byte that
# starts no token (a stray backslash, @, $, `) match nothing and are skipped
# by findall. Alternatives that share a first character keep their
# priority: a hex number before a decimal one, a number before ".", and,
# for each leading character, longer operators before shorter ones.
_TOKEN_RE = re.compile(
    r"""
        [A-Za-z_]\w*
      | [(){}\[\],;\n""" + _MARK + r"""]
      | 0[xX][0-9a-fA-F]+[uUlL]*
      | (?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[uUlLfF]*
      | <<= | << | <= | <        | >>= | >> | >= | >
      | ->\* | -> | -- | -= | -  | \+\+ | \+= | \+
      | \.\.\. | \.  | :: | :  | == | =  | != | !
      | && | &= | &  | \|\| | \|= | \|  | \*= | \*  | /= | /
      | %= | %  | \^= | \^  | \#\# | \#  | ~  | \?
    """,
    re.VERBOSE | re.ASCII,
)

_BREAKS = frozenset(("\n", _MARK))

# The tokens _split places by their own rule; every other token is a word,
# number or operator, renamed when it is a user identifier.
_ROLES = {"\n": "break", _MARK: "break", "#": "#", "(": "open", "[": "open",
          ")": "close", "]": "close", "{": "brace", "}": "brace", ";": ";"}

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


def _skip(m: re.Match) -> str:
    """_SKIP_RE's replacement for one comment or literal. A lone opener
    matches alone: a complete literal or comment is longer than it."""
    text = m[0]
    if text in _UNTERMINATED:
        raise NormalizeError(_UNTERMINATED[text], m.start())
    if text[0] != "/":
        return " str "
    return _MARK if "\n" in text else " "


def _seek(tokens: list[str], i: int, step: int = 1) -> int:
    """Index of the first token from tokens[i] on, walking by step, that
    is no line break; out of range when there is none."""
    while 0 <= i < len(tokens) and tokens[i] in _BREAKS:
        i += step
    return i


def _first_on_line(tokens: list[str], i: int) -> bool:
    """Whether only marks lie between tokens[i] and the last "\\n"."""
    i -= 1
    while i >= 0 and tokens[i] == _MARK:
        i -= 1
    return i < 0 or tokens[i] == "\n"


def _target_end(tokens: list[str], i: int) -> int:
    """Index of the ">" that closes the <...> target of an include whose
    "include" is tokens[i - 1], or -1: the "<" must follow it on its line
    and a "#" precede it. The target stays on the include's line, but a ">"
    that is the first token past that line still closes it."""
    k = _seek(tokens, i - 2, -1)
    if k < 0 or tokens[k] != "#" or i == len(tokens) or tokens[i] != "<":
        return -1
    crossed = False
    for j in range(i + 1, len(tokens)):
        if tokens[j] == ">":
            return j
        if tokens[j] in _BREAKS:
            crossed = True
        elif crossed:
            break
    return -1


def _split(tokens: list[str]) -> tuple[list[list[str]], dict[str, str]]:
    """Rename user identifiers and cut _TOKEN_RE's token strings into
    statements, in one walk. Returns the statements and the rename map.

    "\\n" and _MARK both advance the line; only "\\n" starts a new one. An
    identifier is renamed just before it is placed, as a function when the
    next token is "(". The <...> target of an include directive folds into
    one "str" token, mirroring the quoted-target rule; see _target_end for
    its kept quirk: "#include <a\\n>" gives one statement, ["#", "include",
    "str"]. Normalized output is frozen. The lookaheads for "(" and ";"
    skip line breaks.

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
    line, pp_line = 1, None  # line breaks seen; read only in a directive
    i, n = 0, len(tokens)
    while i < n:
        text = tokens[i]
        i += 1
        role = _ROLES.get(text)
        if role == "break":
            line += 1
            continue
        if pp_line is not None and line != pp_line:
            statements.append(current)  # the directive, from its "#"
            current = []
            pp_line = None
        if role is None:  # a word, number or operator: renamed and placed
            name = rename.get(text)
            if name is not None:
                text = name
            elif text not in ALLOWLIST:
                if text.isidentifier():
                    j = _seek(tokens, i)
                    kind = "func" if j < n and tokens[j] == "(" else "var"
                    counts[kind] += 1
                    name = rename[text] = f"{kind}{counts[kind]}"
                    text = name
            elif text == "include":
                end = _target_end(tokens, i)
                if end > 0:
                    current.append(text)
                    line += sum(t in _BREAKS for t in tokens[i:end])
                    text, i = "str", end + 1
            elif (text in CONTROL_KEYWORDS and pp_line is None
                  and (not current or current == ["else"])):
                control = True
            current.append(text)
        elif pp_line is not None:
            current.append(text)
        elif role == "#" and _first_on_line(tokens, i - 1):
            if current:
                statements.append(current)
            current = [text]
            control = False
            pp_line = line
        elif role == "open":
            depth += 1
            current.append(text)
        elif role == "close":
            if depth:
                depth -= 1
            current.append(text)
            if text == ")" and not depth and control:
                j = _seek(tokens, i)
                if j < n and tokens[j] == ";":
                    current.append(";")
                    i = j + 1
                statements.append(current)
                current = []
                control = False
        elif role == "brace" and not depth:
            if current:
                statements.append(current)
                current = []
            control = False
            statements.append([text])
        else:
            current.append(text)
            if role == ";" and not depth:
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
    tokens = _TOKEN_RE.findall(_SKIP_RE.sub(_skip, text))
    statements, rename_map = _split(tokens)
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
