"""Command-line interface: deterministic text in, deterministic text out.

Exit codes: 0 success, 1 semantic finding (a violation was reported), 2
parse or I/O failure, 3 precondition failure (for instance an input table
that is too shallow for the requested depth).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Callable, Iterator, Sequence, TypeVar

from .diagnostics import _reports
from .language import image_language
from .measure import characteristic_measure, validate
from .morphism import canonical_decomposition, compose, incidence_matrix
from .textio import (
    ParseError,
    parse_language,
    parse_measure,
    parse_morphism,
    parse_word,
    render_language,
    render_measure,
    render_morphism,
)
from .transfer import transfer_eval, transfer_table
from .words import Alphabet

_T = TypeVar("_T")


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise _Failure(2, f"cannot write {path}: {exc.strerror or exc}") from exc


def _load(parse: Callable[[str], _T], path: str) -> _T:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _Failure(2, f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return parse(text)
    except ParseError as exc:
        raise _Failure(2, f"{path}:{exc.line}: {exc.message}") from exc


@contextlib.contextmanager
def _any_digits() -> Iterator[None]:
    """Lift the interpreter's int-to-str digit limit (CPython 3.10.7 on) while
    exact values are written.  Parsing keeps it: a header integer of thousands
    of digits still fails fast."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _parse_cli_word(alphabet: Alphabet, text: str, compact: bool):
    try:
        return parse_word(alphabet, text, compact=compact)
    except ValueError as exc:
        raise _Failure(2, f"bad word {text!r}: {exc}") from exc


def _cmd_transfer(args: argparse.Namespace) -> int:
    sigma = _load(parse_morphism, args.morphism)
    table = _load(parse_measure, args.measure)
    out = transfer_table(sigma, table, args.depth)
    with _any_digits():
        sys.stdout.write(render_measure(out))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    sigma = _load(parse_morphism, args.morphism)
    table = _load(parse_measure, args.measure)
    target = _parse_cli_word(sigma.codomain, args.word, args.compact)
    value = transfer_eval(sigma, table, target)
    with _any_digits():
        print(value)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    decomposition = canonical_decomposition(_load(parse_morphism, args.morphism))
    _write(args.pi_out, render_morphism(decomposition.pi))
    _write(args.alpha_out, render_morphism(decomposition.alpha))
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    outer = _load(parse_morphism, args.outer)
    inner = _load(parse_morphism, args.inner)
    sys.stdout.write(render_morphism(compose(outer, inner)))
    return 0


def _cmd_incidence(args: argparse.Namespace) -> int:
    matrix = incidence_matrix(_load(parse_morphism, args.morphism))
    for token, row in zip(matrix.row_alphabet.symbols, matrix.entries):
        print(token, *row)
    return 0


def _cmd_characteristic(args: argparse.Namespace) -> int:
    if args.alphabet is not None:
        tokens = list(args.alphabet.strip()) if args.compact else args.alphabet.split()
    else:  # the word's tokens in order of first appearance
        tokens = list(dict.fromkeys(list(args.word.strip()) if args.compact else args.word.split()))
    if not tokens:
        raise _Failure(2, "cannot infer an alphabet from an empty word")
    try:
        alphabet = Alphabet(tuple(tokens))
    except ValueError as exc:
        raise _Failure(2, str(exc)) from exc
    word = _parse_cli_word(alphabet, args.word, args.compact)
    sys.stdout.write(render_measure(characteristic_measure(word, args.depth)))
    return 0


def _cmd_image_language(args: argparse.Namespace) -> int:
    sigma = _load(parse_morphism, args.morphism)
    language = _load(parse_language, args.language)
    sys.stdout.write(render_language(image_language(sigma, language, args.maxlen)))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    sigma = _load(parse_morphism, args.morphism)
    language = None if args.language is None else _load(parse_language, args.language)
    period, orbit = _reports(sigma, language, args.bound)
    print("\n".join([period.render()] + orbit.lines()))
    return 1 if period or orbit else 0


def _cmd_kirchhoff(args: argparse.Namespace) -> int:
    violations = validate(_load(parse_measure, args.measure))
    with _any_digits():
        for violation in violations:
            print(f"VIOLATION {violation}")
    return 1 if violations else 0


_MORPHISM = ("morphism", {"help": "morphism file"})
_MEASURE = ("measure", {"help": "measure table file"})
_COMPACT = ("--compact", {"action": "store_true", "help": "one character = one token"})

# name -> (help, handler, (argument, add_argument keywords) in declaration order)
_COMMANDS: dict[str, tuple[str, Callable[[argparse.Namespace], int], tuple]] = {
    "transfer": ("transfer a measure table along a morphism", _cmd_transfer, (
        _MORPHISM, _MEASURE,
        ("--depth", {"type": int, "required": True, "help": "output table depth"}))),
    "eval": ("transferred weight of a single word", _cmd_eval, (
        _MORPHISM, _MEASURE,
        ("--word", {"required": True, "help": "target word (codomain tokens)"}), _COMPACT)),
    "decompose": ("write the canonical decomposition", _cmd_decompose, (
        _MORPHISM,
        ("--pi-out", {"required": True, "help": "output file for the subdivision part"}),
        ("--alpha-out", {"required": True, "help": "output file for the letter-to-letter part"}))),
    "compose": ("compose two morphisms (inner applied first)", _cmd_compose, (
        ("outer", {"help": "outer morphism file"}), ("inner", {"help": "inner morphism file"}))),
    "incidence": ("print the incidence matrix, one labeled row per codomain letter",
                  _cmd_incidence, (_MORPHISM,)),
    "characteristic": ("characteristic measure table of a periodic orbit", _cmd_characteristic, (
        ("--word", {"required": True, "help": "period word"}),
        ("--depth", {"type": int, "required": True, "help": "table depth"}),
        ("--alphabet", {"help": "alphabet tokens (default: letters of the word)"}), _COMPACT)),
    "image-language": ("depth-limited language of the image subshift", _cmd_image_language, (
        _MORPHISM, ("language", {"help": "language file"}),
        ("--maxlen", {"type": int, "required": True, "help": "output language cap"}))),
    "check": ("bounded injectivity checks on periodic orbits", _cmd_check, (
        _MORPHISM, ("--bound", {"type": int, "required": True, "help": "period bound"}),
        ("--language", {"help": "language file (default: full shift at the bound)"}))),
    "kirchhoff": ("validate a measure table's consistency", _cmd_kirchhoff, (_MEASURE,)),
}


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser; given a command, with only that command's
    subparser.  Its metavar keeps the top-level usage, which an unrecognized
    argument prints, listing every command."""
    parser = argparse.ArgumentParser(
        prog="shiftmeasure",
        description="Exact measure transfer for subshifts under non-erasing morphisms.",
    )
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in _COMMANDS if command is None else (command,):
        help_text, handler, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return args.handler(args)
    except _Failure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return failure.code
    except (ValueError, TypeError) as exc:  # DepthError included
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
