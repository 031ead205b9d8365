"""Command-line interface: deterministic text in, deterministic text out.

Exit codes: 0 success, 1 semantic finding (a violation was reported), 2
parse or I/O failure, 3 precondition failure (for instance an input table
that is too shallow for the requested depth).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence, TypeVar

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
from .transfer import DepthError, transfer_eval, transfer_table
from .words import Alphabet

_T = TypeVar("_T")


class _Failure(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _Failure(2, f"cannot read {path}: {exc.strerror or exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise _Failure(2, f"cannot write {path}: {exc.strerror or exc}") from exc


def _load(parse: Callable[[str], _T], path: str) -> _T:
    try:
        return parse(_read(path))
    except ParseError as exc:
        raise _Failure(2, f"{path}:{exc.line}: {exc.message}") from exc


def _parse_cli_word(alphabet: Alphabet, text: str, compact: bool):
    try:
        return parse_word(alphabet, text, compact=compact)
    except ValueError as exc:
        raise _Failure(2, f"bad word {text!r}: {exc}") from exc


def _cmd_transfer(args: argparse.Namespace) -> int:
    sigma = _load(parse_morphism, args.morphism)
    table = _load(parse_measure, args.measure)
    sys.stdout.write(render_measure(transfer_table(sigma, table, args.depth)))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    sigma = _load(parse_morphism, args.morphism)
    table = _load(parse_measure, args.measure)
    target = _parse_cli_word(sigma.codomain, args.word, args.compact)
    print(transfer_eval(sigma, table, target))
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
    else:
        tokens = []
        raw = list(args.word.strip()) if args.compact else args.word.split()
        for token in raw:
            if token not in tokens:
                tokens.append(token)
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
    for violation in violations:
        print(f"VIOLATION {violation}")
    return 1 if violations else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftmeasure",
        description="Exact measure transfer for subshifts under non-erasing morphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transfer", help="transfer a measure table along a morphism")
    p.add_argument("morphism", help="morphism file")
    p.add_argument("measure", help="measure table file")
    p.add_argument("--depth", type=int, required=True, help="output table depth")
    p.set_defaults(handler=_cmd_transfer)

    p = sub.add_parser("eval", help="transferred weight of a single word")
    p.add_argument("morphism", help="morphism file")
    p.add_argument("measure", help="measure table file")
    p.add_argument("--word", required=True, help="target word (codomain tokens)")
    p.add_argument("--compact", action="store_true", help="one character = one token")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("decompose", help="write the canonical decomposition")
    p.add_argument("morphism", help="morphism file")
    p.add_argument("--pi-out", required=True, help="output file for the subdivision part")
    p.add_argument("--alpha-out", required=True, help="output file for the letter-to-letter part")
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("compose", help="compose two morphisms (inner applied first)")
    p.add_argument("outer", help="outer morphism file")
    p.add_argument("inner", help="inner morphism file")
    p.set_defaults(handler=_cmd_compose)

    p = sub.add_parser("incidence", help="print the incidence matrix, one labeled row per codomain letter")
    p.add_argument("morphism", help="morphism file")
    p.set_defaults(handler=_cmd_incidence)

    p = sub.add_parser("characteristic", help="characteristic measure table of a periodic orbit")
    p.add_argument("--word", required=True, help="period word")
    p.add_argument("--depth", type=int, required=True, help="table depth")
    p.add_argument("--alphabet", help="alphabet tokens (default: letters of the word)")
    p.add_argument("--compact", action="store_true", help="one character = one token")
    p.set_defaults(handler=_cmd_characteristic)

    p = sub.add_parser("image-language", help="depth-limited language of the image subshift")
    p.add_argument("morphism", help="morphism file")
    p.add_argument("language", help="language file")
    p.add_argument("--maxlen", type=int, required=True, help="output language cap")
    p.set_defaults(handler=_cmd_image_language)

    p = sub.add_parser("check", help="bounded injectivity checks on periodic orbits")
    p.add_argument("morphism", help="morphism file")
    p.add_argument("--bound", type=int, required=True, help="period bound")
    p.add_argument("--language", help="language file (default: full shift at the bound)")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("kirchhoff", help="validate a measure table's consistency")
    p.add_argument("measure", help="measure table file")
    p.set_defaults(handler=_cmd_kirchhoff)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _Failure as failure:
        print(f"error: {failure.message}", file=sys.stderr)
        return failure.code
    except DepthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
