"""Plain-text formats for morphisms, measure tables, and languages.

Shared conventions: UTF-8, LF line endings, lines whose first non-blank
character is `#` are comments, header lines start with `!`, tokens are
whitespace-separated.  Rendering is canonical (length, then alphabet order)
so equal values produce identical bytes.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator

from .language import FactorLanguage, factorial_closure
from .measure import MeasureTable
from .morphism import Morphism
from .words import Alphabet, Word


class ParseError(Exception):
    """Input text that does not conform to one of the file formats."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def _content_lines(text: str) -> Iterator[tuple[int, str]]:
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield number, line


def _parse_header_tokens(line_number: int, line: str, name: str) -> list[str]:
    fields = line.split()
    if len(fields) < 2:
        raise ParseError(line_number, f"{name} header needs at least one token")
    return fields[1:]


def _parse_header_count(line_number: int, line: str, name: str) -> int:
    """The one positive integer, in ASCII digits, of a ``!depth`` or
    ``!maxlen`` header."""
    fields = line.split()
    if len(fields) == 2 and fields[1].isascii() and fields[1].isdigit():
        try:
            value = int(fields[1])
        except ValueError:  # more digits than int() converts
            value = 0
        if value >= 1:
            return value
    raise ParseError(line_number, f"{name} needs one positive integer")


def parse_morphism(text: str) -> Morphism:
    """Read the one-rule-per-line format ``a -> c d c``.

    Optional ``!domain``/``!codomain`` headers fix the alphabets and their
    order; otherwise the domain follows rule order and the codomain the
    first appearance of image letters.
    """
    domain_decl: list[str] | None = None
    codomain_decl: list[str] | None = None
    domain_line = 1
    rules: list[tuple[int, str, list[str]]] = []
    last_line = 1
    for number, line in _content_lines(text):
        last_line = number
        if line.startswith("!"):
            name = line.split()[0]
            if name == "!domain":
                if domain_decl is not None:
                    raise ParseError(number, "duplicate !domain header")
                domain_decl = _parse_header_tokens(number, line, "!domain")
                domain_line = number
            elif name == "!codomain":
                if codomain_decl is not None:
                    raise ParseError(number, "duplicate !codomain header")
                codomain_decl = _parse_header_tokens(number, line, "!codomain")
            else:
                raise ParseError(number, f"unknown header {name!r}")
            continue
        fields = line.split()
        if len(fields) < 2 or fields[1] != "->":
            raise ParseError(number, "expected a rule of the form '<letter> -> <letter> ...'")
        if len(fields) < 3:
            raise ParseError(number, f"empty image for {fields[0]!r}")
        if "->" in fields[2:]:
            raise ParseError(number, "'->' cannot be an image token")
        rules.append((number, fields[0], fields[2:]))
    if not rules:
        raise ParseError(last_line, "no morphism rules found")

    seen: dict[str, int] = {}
    for number, lhs, _ in rules:
        if lhs in seen:
            raise ParseError(number, f"duplicate rule for {lhs!r}")
        seen[lhs] = number
    domain_tokens = domain_decl if domain_decl is not None else [lhs for _, lhs, _ in rules]
    for number, lhs, _ in rules:
        if lhs not in domain_tokens:
            raise ParseError(number, f"rule for {lhs!r} outside the declared domain")
    for token in domain_tokens:
        if token not in seen:
            raise ParseError(domain_line, f"no image given for domain letter {token!r}")

    if codomain_decl is not None:
        codomain_tokens = codomain_decl
    else:
        codomain_tokens = []
        for _, _, rhs in rules:
            for token in rhs:
                if token not in codomain_tokens:
                    codomain_tokens.append(token)
    try:
        domain = Alphabet(tuple(domain_tokens))
        codomain = Alphabet(tuple(codomain_tokens))
    except ValueError as exc:
        raise ParseError(domain_line, str(exc)) from None

    images: dict[str, Word] = {}
    for number, lhs, rhs in rules:
        try:
            images[lhs] = codomain.word(rhs)
        except ValueError as exc:
            raise ParseError(number, str(exc)) from None
    return Morphism(domain, codomain, tuple(images[t] for t in domain.symbols))


def render_morphism(sigma: Morphism) -> str:
    lines = [f"!domain {sigma.domain}", f"!codomain {sigma.codomain}"]
    for token, image in zip(sigma.domain.symbols, sigma.images):
        lines.append(f"{token} -> {image}")
    return "\n".join(lines) + "\n"


def parse_measure(text: str) -> MeasureTable:
    """Read the header-plus-entries format; unlisted words are zero.

    Headers ``!alphabet``, ``!depth`` and ``!mass`` must precede the entry
    lines; an entry is the word's tokens, a tab, and a rational value.
    """
    alphabet: Alphabet | None = None
    depth: int | None = None
    mass: Fraction | None = None
    values: dict[Word, Fraction] = {}
    last_line = 1
    for number, line in _content_lines(text):
        last_line = number
        if line.startswith("!"):
            name = line.split()[0]
            if name == "!alphabet":
                if alphabet is not None:
                    raise ParseError(number, "duplicate !alphabet header")
                try:
                    alphabet = Alphabet(tuple(_parse_header_tokens(number, line, "!alphabet")))
                except ValueError as exc:
                    raise ParseError(number, str(exc)) from None
            elif name == "!depth":
                value = _parse_header_count(number, line, "!depth")
                if depth is not None:
                    raise ParseError(number, "duplicate !depth header")
                depth = value
            elif name == "!mass":
                fields = line.split()
                if len(fields) != 2:
                    raise ParseError(number, "!mass needs one rational value")
                if mass is not None:
                    raise ParseError(number, "duplicate !mass header")
                mass = _parse_rational(number, fields[1])
            else:
                raise ParseError(number, f"unknown header {name!r}")
            continue
        if alphabet is None or depth is None:
            raise ParseError(number, "!alphabet and !depth headers must precede entries")
        left, tab, right = line.partition("\t")
        if not tab:
            raise ParseError(number, "entry needs a tab between the word and its value")
        tokens = left.split()
        if not tokens:
            raise ParseError(number, "entry for the empty word is not allowed")
        try:
            word = alphabet.word(tokens)
        except ValueError as exc:
            raise ParseError(number, str(exc)) from None
        if len(word) > depth:
            raise ParseError(number, f"word '{word}' is longer than the declared depth {depth}")
        if word in values:
            raise ParseError(number, f"duplicate entry for '{word}'")
        values[word] = _parse_rational(number, right.strip())
    if alphabet is None:
        raise ParseError(last_line, "missing !alphabet header")
    if depth is None:
        raise ParseError(last_line, "missing !depth header")
    if mass is None:
        raise ParseError(last_line, "missing !mass header")
    return MeasureTable(alphabet, depth, values, mass)


# ASCII digits only: p, p/q with q > 0, or the decimal p.q.  Fraction()
# alone would also take signs, exponents, underscores and non-ASCII digits.
_RATIONAL = re.compile(r"([0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def _parse_rational(line_number: int, text: str) -> Fraction:
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
        raise ParseError(line_number, f"negative value: {text!r}")
    raise ParseError(line_number, f"not a rational value: {text!r}")


def render_measure(m: MeasureTable) -> str:
    lines = [f"!alphabet {m.alphabet}", f"!depth {m.depth}", f"!mass {m.total_mass}"]
    for word in sorted(m.values, key=Word.sort_key):
        lines.append(f"{word}\t{m.values[word]}")
    return "\n".join(lines) + "\n"


def parse_language(text: str) -> FactorLanguage:
    """Read the one-word-per-line format; factor closure is applied on load,
    so words longer than the cap contribute their factors."""
    alphabet: Alphabet | None = None
    maxlen: int | None = None
    words: list[Word] = []
    last_line = 1
    for number, line in _content_lines(text):
        last_line = number
        if line.startswith("!"):
            name = line.split()[0]
            if name == "!alphabet":
                if alphabet is not None:
                    raise ParseError(number, "duplicate !alphabet header")
                try:
                    alphabet = Alphabet(tuple(_parse_header_tokens(number, line, "!alphabet")))
                except ValueError as exc:
                    raise ParseError(number, str(exc)) from None
            elif name == "!maxlen":
                value = _parse_header_count(number, line, "!maxlen")
                if maxlen is not None:
                    raise ParseError(number, "duplicate !maxlen header")
                maxlen = value
            else:
                raise ParseError(number, f"unknown header {name!r}")
            continue
        if alphabet is None:
            raise ParseError(number, "!alphabet header must precede words")
        try:
            words.append(alphabet.word(line.split()))
        except ValueError as exc:
            raise ParseError(number, str(exc)) from None
    if alphabet is None:
        raise ParseError(last_line, "missing !alphabet header")
    if maxlen is None:
        raise ParseError(last_line, "missing !maxlen header")
    return factorial_closure(alphabet, words, maxlen)


def render_language(language: FactorLanguage) -> str:
    lines = [f"!alphabet {language.alphabet}", f"!maxlen {language.maxlen}"]
    for word in sorted(language.words, key=Word.sort_key):
        lines.append(str(word))
    return "\n".join(lines) + "\n"


def parse_word(alphabet: Alphabet, text: str, compact: bool = False) -> Word:
    """Parse a word from tokens, or from single characters in compact mode."""
    tokens = list(text.strip()) if compact else text.split()
    return alphabet.word(tokens)
