"""Command-line interface: deterministic text in, deterministic text out.

Exit codes: 0 success, 1 semantic finding (a violation was reported), 2
parse or I/O failure, 3 precondition failure (a PreconditionError, such as a
table too shallow for the depth), 4 fault (any other exception: a traceback).

An argv that names a command is parsed by a parser of that command alone;
the full parser, with every command, is built only for help and for the
usage errors it reports.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import os
import sys
from collections.abc import Callable, Iterator, Sequence

from . import diagnostics, language, measure, morphism, transfer  # lazy: each runs in the commands that use it
from .textio import (
    ParseError,
    _tokens,
    parse_language,
    parse_measure,
    parse_morphism,
    parse_word,
    render_language,
    render_measure,
    render_morphism,
)
from .words import Alphabet, PreconditionError

_BLOCK_LINES = 4096  # reports are written in blocks: memory follows the block, not the report


class _Failure(Exception):
    """An input that cannot be read or parsed, or an output that cannot be written: exit 2."""


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise _Failure(f"cannot write {path}: {exc.strerror or exc}") from exc


def _load(parse: Callable[[str], object], path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _Failure(f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return parse(text)
    except ParseError as exc:
        raise _Failure(f"{path}:{exc.line}: {exc.message}") from exc


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


def _write_lines(lines: Iterator[str]) -> bool:
    """Write the lines to stdout _BLOCK_LINES at a time; True if there was one."""
    wrote = False
    while block := list(itertools.islice(lines, _BLOCK_LINES)):
        sys.stdout.write("\n".join(block) + "\n")
        wrote = True
    return wrote


def _parse_cli_word(alphabet: Alphabet, text: str, compact: bool):
    try:
        return parse_word(alphabet, text, compact=compact)
    except PreconditionError as exc:
        raise _Failure(f"bad word {text!r}: {exc}") from exc


def _cmd_transfer(args: argparse.Namespace) -> int:
    sigma = _load(parse_morphism, args.morphism)
    table = _load(parse_measure, args.measure)
    out = transfer.transfer_table(sigma, table, args.depth)
    with _any_digits():
        sys.stdout.write(render_measure(out))
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    sigma = _load(parse_morphism, args.morphism)
    table = _load(parse_measure, args.measure)
    target = _parse_cli_word(sigma.codomain, args.word, args.compact)
    value = transfer.transfer_eval(sigma, table, target)
    with _any_digits():
        print(value)
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    decomposition = morphism.canonical_decomposition(_load(parse_morphism, args.morphism))
    _write(args.pi_out, render_morphism(decomposition.pi))
    _write(args.alpha_out, render_morphism(decomposition.alpha))
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    outer = _load(parse_morphism, args.outer)
    inner = _load(parse_morphism, args.inner)
    sys.stdout.write(render_morphism(morphism.compose(outer, inner)))
    return 0


def _cmd_incidence(args: argparse.Namespace) -> int:
    matrix = morphism.incidence_matrix(_load(parse_morphism, args.morphism))
    for token, row in zip(matrix.row_alphabet.symbols, matrix.entries):
        print(token, *row)
    return 0


def _cmd_characteristic(args: argparse.Namespace) -> int:
    if args.alphabet is not None:
        tokens = _tokens(args.alphabet, args.compact)
    else:  # the word's tokens in order of first appearance
        tokens = list(dict.fromkeys(_tokens(args.word, args.compact)))
        if not tokens:
            raise _Failure("cannot infer an alphabet from an empty word")
    try:
        alphabet = Alphabet(tuple(tokens))
    except PreconditionError as exc:
        raise _Failure(str(exc)) from exc
    word = _parse_cli_word(alphabet, args.word, args.compact)
    sys.stdout.write(render_measure(measure.characteristic_measure(word, args.depth)))
    return 0


def _cmd_image_language(args: argparse.Namespace) -> int:
    sigma = _load(parse_morphism, args.morphism)
    lang = _load(parse_language, args.language)
    sys.stdout.write(render_language(language.image_language(sigma, lang, args.maxlen)))
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    sigma = _load(parse_morphism, args.morphism)
    lang = None if args.language is None else _load(parse_language, args.language)
    period, orbit = diagnostics._reports(sigma, lang, args.bound)
    _write_lines(itertools.chain([f"BOUND {args.bound}"], period._lines(), orbit._lines()))
    return 1 if period or orbit else 0


def _cmd_kirchhoff(args: argparse.Namespace) -> int:
    violations = measure._violations(_load(parse_measure, args.measure))
    with _any_digits():
        return 1 if _write_lines(f"VIOLATION {violation}" for violation in violations) else 0


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


def _add_command(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Give the parser the arguments and the handler of command `name`."""
    _, handler, arguments = _COMMANDS[name]
    for flag, options in arguments:
        parser.add_argument(flag, **options)
    parser.set_defaults(handler=handler)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The full parser, with a subparser per command."""
    parser = argparse.ArgumentParser(
        prog="shiftmeasure",
        description="Exact measure transfer for subshifts under non-erasing morphisms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_text), name)
    return parser


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse argv as the full parser does.  A named command's own parser,
    built as the full parser builds its subparser, parses the rest; the full
    parser is built only when argv names no command or has arguments over.
    Its help formatters, one per argument, share one terminal width lookup."""
    if argv and argv[0] in _COMMANDS:
        import shutil  # on first parse, as argparse imports it: not at start-up

        width = shutil.get_terminal_size().columns - 2
        parser = argparse.ArgumentParser(
            prog=f"shiftmeasure {argv[0]}",
            formatter_class=lambda prog: argparse.HelpFormatter(prog, width=width))
        args, extras = _add_command(parser, argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    return _build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except OSError as exc:  # _load and _write wrap file errors, so stdout failed: flush to devnull
        with contextlib.suppress(AttributeError, OSError, ValueError):  # a StringIO has no fd
            fd = sys.stdout.fileno()
            with open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), fd)
        print(f"error: cannot write to stdout: {exc.strerror or exc}", file=sys.stderr)
        return 2
    except _Failure as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 2
    except PreconditionError as exc:  # DepthError and the budgets included
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception:  # a fault, not a refusal
        import traceback  # here: at start-up it would load linecache and tokenize

        traceback.print_exc()
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
