"""Plain-text formats for morphisms, measure tables, and languages.

Shared conventions: UTF-8, LF line endings, lines whose first non-blank
character is `#` are comments, header lines start with `!`, tokens are
whitespace-separated.  Rendering is canonical (length, then alphabet order)
so equal values produce identical bytes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from collections.abc import Callable

from . import language as _language, measure as _measure, morphism as _morphism  # lazy: each runs on first use
from .words import Alphabet, Word, _canonical, _check_token, _require_over


class ParseError(ValueError):
    """Input text that does not conform to one of the file formats."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


_HeaderReader = Callable[[str, list[str]], object]
_BodyHandler = Callable[[list[tuple[int, str]], dict[str, object]], None]


def _read_format(
    text: str, readers: dict[str, _HeaderReader], body: _BodyHandler, required: bool = False
) -> tuple[dict[str, object], dict[str, int], int]:
    """Walk the content lines (not blank, not ``#`` comments) of one format.

    A ``!name`` line is read by ``readers[name]``; an unknown or duplicate
    name, or a ``ValueError`` from the reader, is an error at that line.  Each
    run of other lines between two headers goes to ``body`` in one call, as
    ``(line number, line)`` pairs with the headers read before it, and
    ``body`` raises its own ParseError.  With ``required``, a missing header
    is an error at the last content line.  Returns the headers and their lines
    by name, and the last content line.
    """
    _require_over(text, str, None, "text")
    headers: dict[str, object] = {}
    lines: dict[str, int] = {}
    run: list[tuple[int, str]] = []
    last_line = 1
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        last_line = number
        if line[0] != "!":
            run.append((number, line))
            continue
        if run:
            body(run, headers)
            run = []
        name, *fields = line.split()
        if name not in readers:
            raise ParseError(number, f"unknown header {name!r}")
        if name in headers:
            raise ParseError(number, f"duplicate {name} header")
        try:
            headers[name] = readers[name](name, fields)
        except ValueError as exc:
            raise ParseError(number, str(exc)) from None
        lines[name] = number
    if run:
        body(run, headers)
    if required:
        for name in readers:
            if name not in headers:
                raise ParseError(last_line, f"missing {name} header")
    return headers, lines, last_line


def _alphabet_header(name: str, fields: list[str]) -> Alphabet:
    if not fields:
        raise ValueError(f"{name} header needs at least one token")
    return Alphabet(tuple(fields))


def _count_header(name: str, fields: list[str]) -> int:
    """The one positive integer, in ASCII digits, of a ``!depth`` or
    ``!maxlen`` header."""
    if len(fields) == 1 and fields[0].isascii() and fields[0].isdigit():
        try:
            value = int(fields[0])
        except ValueError:  # more digits than int() converts
            value = 0
        if value >= 1:
            return value
    raise ValueError(f"{name} needs one positive integer")


def _mass_header(name: str, fields: list[str]) -> Fraction:
    if len(fields) != 1:
        raise ValueError(f"{name} needs one rational value")
    return _parse_rational(fields[0])


def parse_morphism(text: str) -> _morphism.Morphism:
    """Read the one-rule-per-line format ``a -> c d c``.

    Optional ``!domain``/``!codomain`` headers fix the alphabets and their
    order; otherwise the domain follows rule order and the codomain the
    first appearance of image letters.
    """
    rules: list[tuple[int, str, list[str]]] = []

    def rule_lines(run: list[tuple[int, str]], headers: dict[str, object]) -> None:
        try:
            for number, line in run:
                fields = line.split()
                if len(fields) < 2 or fields[1] != "->":
                    raise ValueError("expected a rule of the form '<letter> -> <letter> ...'")
                if len(fields) < 3:
                    raise ValueError(f"empty image for {fields[0]!r}")
                for token in (fields[0], *fields[2:]):
                    _check_token(token)
                rules.append((number, fields[0], fields[2:]))
        except ValueError as exc:
            raise ParseError(number, str(exc)) from None

    headers, lines, last_line = _read_format(
        text, {"!domain": _alphabet_header, "!codomain": _alphabet_header}, rule_lines
    )
    if not rules:
        raise ParseError(last_line, "no morphism rules found")

    seen: dict[str, int] = {}
    for number, lhs, _ in rules:
        if lhs in seen:
            raise ParseError(number, f"duplicate rule for {lhs!r}")
        seen[lhs] = number
    domain = headers.get("!domain") or Alphabet(tuple(seen))
    for number, lhs, _ in rules:
        if lhs not in domain:
            raise ParseError(number, f"rule for {lhs!r} outside the declared domain")
    for token in domain:
        if token not in seen:
            raise ParseError(lines["!domain"], f"no image given for domain letter {token!r}")
    codomain = headers.get("!codomain") or Alphabet(
        tuple(dict.fromkeys(token for _, _, rhs in rules for token in rhs))
    )

    images: dict[str, Word] = {}
    for number, lhs, rhs in rules:
        try:
            images[lhs] = codomain.word(rhs)
        except ValueError as exc:
            raise ParseError(number, str(exc)) from None
    return _morphism.Morphism._trusted(domain, codomain, tuple(images[t] for t in domain.symbols))


def render_morphism(sigma: _morphism.Morphism) -> str:
    _require_over(sigma, _morphism.Morphism, None, "morphism")
    lines = [f"!domain {sigma.domain}", f"!codomain {sigma.codomain}"]
    for token, image in zip(sigma.domain.symbols, sigma.images):
        lines.append(f"{token} -> {image}")
    return "\n".join(lines) + "\n"


def parse_measure(text: str) -> _measure.MeasureTable:
    """Read the header-plus-entries format; unlisted words are zero.

    Headers ``!alphabet`` and ``!depth`` must precede the entry lines, and
    ``!mass`` must appear somewhere; an entry is the word's tokens, a tab,
    and a rational value.  An entry ``head + " " + last`` whose head is the
    word text of an earlier entry, spelled the same way, takes that entry's
    letters and maps only its last token.  Every table render_measure writes
    from a consistent measure lists each such prefix first, as mu(u) <=
    mu(u[:-1]); any other entry maps all of its tokens through Alphabet.word,
    after one rpartition and one lookup.  Only those others' prefixes are
    looked up again to store the table's _prefixes, when it has no zero entry.
    """
    weights: dict[tuple[int, ...], Fraction] = {}
    parsed: dict[str, Fraction] = {}  # by raw value text: a table repeats few distinct values
    known: dict[str, tuple[int, ...]] = {}  # by word text: always alphabet.word(text.split()).letters
    unmatched: list[tuple[int, ...]] = []  # entries of 2 or more letters not read off a known prefix

    def entries(run: list[tuple[int, str]], headers: dict[str, object]) -> None:
        alphabet, depth = headers.get("!alphabet"), headers.get("!depth")
        if alphabet is None or depth is None:
            raise ParseError(run[0][0], "!alphabet and !depth headers must precede entries")
        indices = alphabet._indices
        try:
            for number, line in run:
                left, tab, right = line.partition("\t")
                if not tab:
                    raise ValueError("entry needs a tab between the word and its value")
                head, _, last = left.rpartition(" ")
                prefix = known.get(head)
                if prefix is not None and last in indices:
                    letters = prefix + (indices[last],)
                else:
                    letters = alphabet.word(left.split()).letters
                    if len(letters) > 1:
                        unmatched.append(letters)
                if len(letters) > depth:
                    raise ValueError(
                        f"word '{' '.join(left.split())}' is longer than the declared depth {depth}")
                if letters in weights:
                    raise ValueError(f"duplicate entry for '{' '.join(left.split())}'")
                value = parsed.get(right)
                if value is None:
                    value = parsed[right] = _parse_rational(right.strip())
                weights[letters] = value
                known[left] = letters
        except ValueError as exc:
            raise ParseError(number, str(exc)) from None

    headers, _, _ = _read_format(
        text,
        {"!alphabet": _alphabet_header, "!depth": _count_header, "!mass": _mass_header},
        entries,
        required=True,
    )
    stored = {}
    if not all(parsed.values()):  # zero entries were kept to catch their duplicates
        weights = {u: v for u, v in weights.items() if v}
    elif all(u[:-1] in weights for u in unmatched):  # prefix-closed: the search's keys, as is
        stored["_prefixes"] = weights
    return _measure.MeasureTable._trusted(headers["!alphabet"], headers["!depth"], weights, headers["!mass"],
                                          **stored)


# ASCII digits only: p, p/q with q > 0, or the decimal p.q.  Fraction()
# alone would also take signs, exponents, underscores and non-ASCII digits.
_RATIONAL = re.compile(r"([0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def _parse_rational(text: str) -> Fraction:
    match = _RATIONAL.fullmatch(text)
    if match is not None:
        whole, denominator, decimals = match.groups()
        try:
            if denominator is not None:
                return Fraction(int(whole), int(denominator))
            if decimals is not None:
                return Fraction(int(whole + decimals), 10 ** len(decimals))
            return Fraction(int(whole))
        except (ValueError, ZeroDivisionError):  # q = 0, or more digits than int() converts
            pass
    elif text.startswith("-") and _RATIONAL.fullmatch(text[1:]):
        raise ValueError(f"negative value: {text!r}")
    raise ValueError(f"not a rational value: {text!r}")


def render_measure(m: _measure.MeasureTable) -> str:
    """The table's text: three headers, then one entry per support word in
    canonical order (length, then letters), as parse_measure reads it.

    The order is words._canonical's, from two C-level sorts.  A word's text
    is its prefix's text, a space and its last symbol, whenever the prefix
    is in the table (it always is in a consistent one, as mu(u) <=
    mu(u[:-1])), and the full join otherwise;
    only the previous length's texts are kept.  Each distinct value object
    is formatted once, by id: the table holds every value while this runs,
    so no id is reused, and a table shares few value objects.
    """
    symbols, weights = _require_over(m, _measure.MeasureTable, None, "table").alphabet.symbols, m._weights
    lines = [f"!alphabet {m.alphabet}", f"!depth {m.depth}", f"!mass {m.total_mass}"]
    order = _canonical(weights)
    values: dict[int, str] = {}
    previous: dict[tuple[int, ...], str] = {}
    texts: dict[tuple[int, ...], str] = {}
    length = 0
    for u in order:
        if len(u) != length:
            previous, texts, length = texts, {}, len(u)
        head = previous.get(u[:-1])
        text = texts[u] = (" ".join([symbols[i] for i in u]) if head is None
                           else head + " " + symbols[u[-1]])
        value = weights[u]
        value_text = values.get(id(value))
        if value_text is None:
            value_text = values[id(value)] = str(value)
        lines.append(text + "\t" + value_text)
    return "\n".join(lines) + "\n"


def parse_language(text: str) -> _language.FactorLanguage:
    """Read the one-word-per-line format; factor closure is applied on load,
    so words longer than the cap contribute their factors."""
    words: list[Word] = []

    def word_lines(run: list[tuple[int, str]], headers: dict[str, object]) -> None:
        if "!alphabet" not in headers:
            raise ParseError(run[0][0], "!alphabet header must precede words")
        try:
            for number, line in run:
                words.append(headers["!alphabet"].word(line.split()))
        except ValueError as exc:
            raise ParseError(number, str(exc)) from None

    headers, _, _ = _read_format(
        text, {"!alphabet": _alphabet_header, "!maxlen": _count_header}, word_lines, required=True
    )
    return _language.factorial_closure(headers["!alphabet"], words, headers["!maxlen"])


def render_language(language: _language.FactorLanguage) -> str:
    symbols = _require_over(language, _language.FactorLanguage, None, "language").alphabet.symbols
    lines = [f"!alphabet {language.alphabet}", f"!maxlen {language.maxlen}"]
    for x in _canonical(language._words):
        lines.append(" ".join([symbols[i] for i in x]))
    return "\n".join(lines) + "\n"


def _tokens(text: str, compact: bool) -> list[str]:
    """Whitespace-separated tokens, or single characters in compact mode."""
    _require_over(text, str, None, "text")
    return list(text.strip()) if compact else text.split()


def parse_word(alphabet: Alphabet, text: str, compact: bool = False) -> Word:
    """Parse a word from tokens, or from single characters in compact mode."""
    return _require_over(alphabet, Alphabet, None, "alphabet").word(_tokens(text, compact))
