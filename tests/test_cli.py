"""End-to-end CLI behaviour: golden output bytes, exit codes, and the error
channel.  All invocations go through main(argv) with captured streams; one
subprocess test covers the installed entry point."""

import argparse
import ast
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gen
import shiftmeasure
from shiftmeasure import (
    FactorLanguage,
    MeasureTable,
    Morphism,
    Word,
    render_language,
    render_measure,
    render_morphism,
    required_input_depth,
    support_words,
)
from shiftmeasure import cli, diagnostics, language, transfer
from shiftmeasure.cli import main

MORPHISM_SIGMA4 = "a -> c d c\nb -> d c c\n"
MORPHISM_DDED = "a -> d e d\nb -> d e\nc -> d e d d\n"
MEASURE_AB = "!alphabet a b\n!depth 2\n!mass 2\na\t1\nb\t1\na b\t1\nb a\t1\n"
MEASURE_THIRDS = (
    "!alphabet a b c\n!depth 3\n!mass 1\n"
    "a\t1/3\nb\t1/3\nc\t1/3\n"
    "a a\t1/3\nb b\t1/3\nc c\t1/3\n"
    "a a a\t1/3\nb b b\t1/3\nc c c\t1/3\n"
)
TRANSFER_GOLDEN = "!alphabet c d\n!depth 2\n!mass 6\nc\t4\nd\t2\nc c\t2\nc d\t2\nd c\t2\n"


def _subprocess_env(**extra):
    """Environment for a CLI subprocess that imports the package under test."""
    src = str(Path(shiftmeasure.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    path = src + os.pathsep + inherited if inherited else src
    return {**os.environ, "PYTHONPATH": path, **extra}


@pytest.fixture
def files(tmp_path):
    def put(name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return put


def test_transfer_golden(files, capsys):
    sigma = files("sigma.morphism", MORPHISM_SIGMA4)
    measure = files("orbit.measure", MEASURE_AB)
    assert main(["transfer", sigma, measure, "--depth", "2"]) == 0
    assert capsys.readouterr().out == TRANSFER_GOLDEN


def test_transfer_is_deterministic(files, capsys):
    sigma = files("sigma.morphism", MORPHISM_SIGMA4)
    measure = files("orbit.measure", MEASURE_AB)
    main(["transfer", sigma, measure, "--depth", "2"])
    first = capsys.readouterr().out
    main(["transfer", sigma, measure, "--depth", "2"])
    assert capsys.readouterr().out == first


def test_eval_golden(files, capsys):
    sigma = files("sigma.morphism", MORPHISM_DDED)
    measure = files("thirds.measure", MEASURE_THIRDS)
    assert main(["eval", sigma, measure, "--word", "d d e d"]) == 0
    assert capsys.readouterr().out == "2/3\n"
    assert main(["eval", sigma, measure, "--word", "dded", "--compact"]) == 0
    assert capsys.readouterr().out == "2/3\n"


def test_eval_empty_word_prints_the_mass(files, capsys):
    sigma = files("sigma.morphism", MORPHISM_SIGMA4)
    measure = files("orbit.measure", MEASURE_AB)
    assert main(["eval", sigma, measure, "--word", ""]) == 0
    assert capsys.readouterr().out == "6\n"


def test_decompose_round_trips_through_compose(files, capsys, tmp_path):
    sigma = files("sigma.morphism", MORPHISM_SIGMA4)
    pi_out = str(tmp_path / "pi.morphism")
    alpha_out = str(tmp_path / "alpha.morphism")
    assert main(["decompose", sigma, "--pi-out", pi_out, "--alpha-out", alpha_out]) == 0
    capsys.readouterr()
    assert main(["compose", alpha_out, pi_out]) == 0
    composed = capsys.readouterr().out
    assert composed == "!domain a b\n!codomain c d\na -> c d c\nb -> d c c\n"


def test_decompose_pi_golden(files, capsys, tmp_path):
    sigma = files("sigma.morphism", "a -> c d\nb -> c\n")
    pi_out = tmp_path / "pi.morphism"
    alpha_out = tmp_path / "alpha.morphism"
    assert main(["decompose", sigma, "--pi-out", str(pi_out), "--alpha-out", str(alpha_out)]) == 0
    assert pi_out.read_text(encoding="utf-8") == (
        "!domain a b\n!codomain a.1 a.2 b.1\na -> a.1 a.2\nb -> b.1\n"
    )
    assert alpha_out.read_text(encoding="utf-8") == (
        "!domain a.1 a.2 b.1\n!codomain c d\na.1 -> c\na.2 -> d\nb.1 -> c\n"
    )


def test_incidence_golden(files, capsys):
    sigma = files("sigma.morphism", MORPHISM_SIGMA4)
    assert main(["incidence", sigma]) == 0
    assert capsys.readouterr().out == "c 2 2\nd 1 1\n"


def test_characteristic_golden(capsys):
    assert main(["characteristic", "--word", "a b", "--depth", "2"]) == 0
    assert capsys.readouterr().out == MEASURE_AB
    assert main(["characteristic", "--word", "ab", "--depth", "2", "--compact"]) == 0
    assert capsys.readouterr().out == MEASURE_AB


def test_characteristic_rejects_reserved_tokens(capsys):
    # "#\t1" would read back as a comment line.
    assert main(["characteristic", "--word", "# a", "--depth", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid symbol token: '#'" in captured.err


def test_characteristic_explicit_alphabet(capsys):
    assert main(["characteristic", "--word", "a", "--depth", "1", "--alphabet", "b a"]) == 0
    assert capsys.readouterr().out == "!alphabet b a\n!depth 1\n!mass 1\na\t1\n"


@gen.deadline(5)
def test_characteristic_depth_past_any_index_is_a_precondition_failure(capsys):
    """A depth no index can hold is refused by the table budget before the
    orbit is repeated."""
    depth = 99999999999999999999999
    assert main(["characteristic", "--word", "a b", "--depth", str(depth)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: depth {depth} is over the table budget: its keys for an orbit of period 2 "
        f"hold {depth * (depth + 1)} letters, more than 10000000\n"
    )


@pytest.mark.parametrize("depth", [2**62, 10**9])
@gen.deadline(5)
def test_characteristic_depth_over_the_table_budget_is_a_precondition_failure(capsys, depth):
    """2^62 fits an index (it once ended in a MemoryError traceback and exit 1),
    and 10^9 would allocate gigabytes: both exit 3 with the letter count."""
    assert main(["characteristic", "--word", "a b", "--depth", str(depth)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(f"error: depth {depth} is over the table budget: ")
    assert f" hold {depth * (depth + 1)} letters, more than 10000000\n" in captured.err


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() has no digit limit"
)
@gen.deadline(5)
def test_characteristic_letter_count_past_the_int_digit_limit_is_refused_in_one_line(capsys):
    """A depth of 2,501 digits puts the letter count past the interpreter's
    int-to-str limit: the refusal shows that count by its digits, exit 3."""
    depth = 10**2500
    assert main(["characteristic", "--word", "a b", "--depth", str(depth)]) == 3
    assert capsys.readouterr() == ("", f"error: depth {depth} is over the table budget: its keys for an orbit "
                                       "of period 2 hold <5001-digit number> letters, more than 10000000\n")


def test_characteristic_empty_alphabet_messages(capsys):
    """Only an alphabet inferred from the word blames the word."""
    assert main(["characteristic", "--word", "a", "--depth", "1", "--alphabet", ""]) == 2
    assert capsys.readouterr() == ("", "error: alphabet must not be empty\n")
    assert main(["characteristic", "--word", "", "--depth", "1"]) == 2
    assert capsys.readouterr() == ("", "error: cannot infer an alphabet from an empty word\n")


def test_characteristic_compact_alphabets(capsys):
    """--compact splits an explicit or inferred alphabet into characters, as it does the word."""
    assert main(["characteristic", "--word", "a", "--depth", "1", "--alphabet", " ba ",
                 "--compact"]) == 0
    assert capsys.readouterr().out == "!alphabet b a\n!depth 1\n!mass 1\na\t1\n"
    assert main(["characteristic", "--word", "abba", "--depth", "1", "--compact"]) == 0
    assert capsys.readouterr().out == "!alphabet a b\n!depth 1\n!mass 4\na\t2\nb\t2\n"
    assert main(["characteristic", "--word", "a", "--depth", "1", "--alphabet", "  ",
                 "--compact"]) == 2
    assert capsys.readouterr() == ("", "error: alphabet must not be empty\n")
    assert main(["characteristic", "--word", " ", "--depth", "1", "--compact"]) == 2
    assert capsys.readouterr() == ("", "error: cannot infer an alphabet from an empty word\n")


def test_image_language_golden(files, capsys):
    sigma = files("sigma.morphism", MORPHISM_SIGMA4)
    language = files("full.language", "!alphabet a b\n!maxlen 2\na a\na b\nb a\nb b\n")
    assert main(["image-language", sigma, language, "--maxlen", "2"]) == 0
    assert capsys.readouterr().out == "!alphabet c d\n!maxlen 2\nc\nd\nc c\nc d\nd c\n"


def test_check_reports_violations_with_exit_one(files, capsys):
    sigma = files("tm.morphism", "a -> c d\nb -> d c\n")
    assert main(["check", sigma, "--bound", "1"]) == 1
    assert capsys.readouterr().out == "BOUND 1\nVIOLATION orbit-injectivity a b\n"


def test_check_clean_morphism_exits_zero(files, capsys):
    sigma = files("id.morphism", "a -> a\nb -> b\n")
    assert main(["check", sigma, "--bound", "4"]) == 0
    assert capsys.readouterr().out == "BOUND 4\n"


def test_check_never_materialises_the_full_shift(files, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the full shift was materialised")

    # diagnostics and language are imported above, so this finds them even when run alone.  Only
    # a module that holds the name is patched: hasattr would make the package resolve the name,
    # and keep the patched function after the test.
    for name, module in list(sys.modules.items()):
        if name == "shiftmeasure" or name.startswith("shiftmeasure."):
            for attr in ("full_shift_language", "iter_words"):
                if attr in vars(module):
                    monkeypatch.setattr(module, attr, refuse)
    sigma = files("tm.morphism", "a -> c d\nb -> d c\n")
    assert main(["check", sigma, "--bound", "8"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["BOUND 8", "VIOLATION orbit-injectivity a b"]


def test_check_refuses_a_bound_over_the_budget(files, capsys):
    sigma = files("tm.morphism", "a -> c d\nb -> d c\n")
    assert main(["check", sigma, "--bound", "1000000000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "has 1465020 primitive orbits of period <= 24, more than 1000000" in captured.err


def test_check_images_each_representative_once(files, capsys, monkeypatch):
    """Both checks come from one pass: one image and one scan of it per
    representative (the 71 Lyndon words over two letters up to length 8)."""
    calls = {"_image_letters": 0, "_root_rotation": 0}

    def counting(name):
        real = getattr(diagnostics, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(diagnostics, name, counting(name))
    sigma = files("tm.morphism", "a -> c d\nb -> d c\n")
    assert main(["check", sigma, "--bound", "8"]) == 1
    tm = Morphism.from_images(("a", "b"), ("c", "d"), {"a": "cd", "b": "dc"})
    representatives = len(diagnostics._primitive_representatives(tm, None, 8))
    assert representatives == 71
    assert calls == {"_image_letters": 71, "_root_rotation": 71}


def _peak_run(argv, out, timeout):
    """main(argv) in a child whose stdout is the file out: the finished process,
    whose stderr is the child's peak RSS in KiB.  The child reads its peak from
    VmHWM, which starts afresh at exec; ru_maxrss can carry over this process's
    larger peak."""
    script = (
        "import sys\n"
        "from shiftmeasure.cli import main\n"
        f"code = main({argv!r})\n"
        "sys.stdout.flush()\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')),\n"
        "          file=sys.stderr)\n"
        "raise SystemExit(code)\n"
    )
    with open(out, "wb") as handle:
        return subprocess.run([sys.executable, "-c", script], stdout=handle,
                              stderr=subprocess.PIPE, env=_subprocess_env(), timeout=timeout)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_check_writes_a_report_at_the_budget_in_bounded_memory(files, tmp_path):
    """The collapse a -> c, b -> c at bound 13 has 1,377 representatives in one
    collision group and owes 947,376 pairs, 948,752 lines in all.  The report
    keeps the group, not the pairs, joins each word's text once and writes the
    lines in blocks, so the child peaks far below the 273 MiB that joining the
    whole report took and the 84 MiB that one tuple per pair took, and the
    bytes are the ones they always were.  It takes well under a second, so
    30 s catches per-pair cost creeping back."""
    sigma = files("collapse.morphism", "a -> c\nb -> c\n")
    out = tmp_path / "collapse.out"
    proc = _peak_run(["check", sigma, "--bound", "13"], out, timeout=30)
    assert proc.returncode == 1, proc.stderr
    lines, digest = 0, hashlib.sha256()
    with open(out, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            lines += block.count(b"\n")
            digest.update(block)
    assert (lines, digest.hexdigest()) == (
        948752, "8fb98d6f73ef0245a92138f3aba562dcd095ae3d87283c36851aa07f98300390")
    peak_mib = int(proc.stderr) / 1024
    assert peak_mib < 40, peak_mib


def test_check_into_a_closed_pipe_is_an_io_failure(files):
    """A reader that stops after one line closes stdout: exit 2 with one
    error line, no traceback, and nothing from the flush at exit.  A report
    small enough to sit in the stdout buffer meets the closed pipe only when
    it is flushed, which must fail the same way.  stdout is buffered, as by
    default: PYTHONUNBUFFERED would let no byte wait for the flush at exit."""
    sigma = files("collapse.morphism", "a -> c\nb -> c\n")
    env = {k: v for k, v in _subprocess_env().items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "shiftmeasure", "check", sigma, "--bound", "10"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline() == b"BOUND 10\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("error: cannot write to stdout") and err.count("\n") == 1, err
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        small = subprocess.run([sys.executable, "-m", "shiftmeasure", "check", sigma, "--bound", "3"],
                               stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (small.returncode, small.stderr.decode()) == (2, err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [True, False])
def test_a_full_stdout_is_an_io_failure(files, buffered):
    """Every write failure on stdout, not only a closed pipe, exits 2 with one
    error line: /dev/full fails each write with ENOSPC, whether it comes from
    a write (unbuffered) or from the flush (buffered)."""
    sigma = files("collapse.morphism", "a -> c\nb -> c\n")
    deep = files("deep.measure", "!alphabet a b\n!depth 5\n!mass 1\n")
    table = files("ab.measure", MEASURE_AB)
    env = {k: v for k, v in _subprocess_env().items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in [["check", sigma, "--bound", "3"], ["kirchhoff", deep],
                 ["transfer", sigma, table, "--depth", "2"],
                 ["characteristic", "--word", "a b", "--depth", "2"]]:
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "shiftmeasure", *argv], stdout=full,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        assert (proc.returncode, proc.stderr.decode()) == (
            2, f"error: cannot write to stdout: {os.strerror(28)}\n"), argv


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_a_failed_stdout_write_leaves_no_descriptor_open(files, capsys, monkeypatch):
    """The handler sends the rest of stdout to devnull and closes the devnull
    descriptor it opened; a stream with no descriptor opens none.  Five
    failures on a stream that raises BrokenPipeError and has no fileno, and one
    on a real pipe whose reader is gone, leave as many descriptors open as
    before, and each prints the one error line."""
    sigma = files("fibonacci.morphism", "a -> a b\nb -> a\n")

    class BrokenStream(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, os.strerror(32))

    before = len(os.listdir("/proc/self/fd"))
    for _ in range(5):
        monkeypatch.setattr(sys, "stdout", BrokenStream())
        assert main(["compose", sigma, sigma]) == 2
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as pipe:
        monkeypatch.setattr(sys, "stdout", pipe)
        assert main(["compose", sigma, sigma]) == 2
        monkeypatch.undo()
    assert len(os.listdir("/proc/self/fd")) == before
    assert capsys.readouterr().err == f"error: cannot write to stdout: {os.strerror(32)}\n" * 6


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="no /proc/self/status")
def test_kirchhoff_streams_a_deep_table_in_bounded_memory(files, tmp_path):
    """A table of depth 100,000 with mass 1 and no entries breaks every level
    sum: the 100,000 lines are written in blocks as they are found, not listed
    first (which peaked at 36.5 MiB), and they are the bytes they always were."""
    measure = files("deep.measure", "!alphabet a b\n!depth 100000\n!mass 1\n")
    out = tmp_path / "deep.out"
    proc = _peak_run(["kirchhoff", measure], out, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "860a6d2593367cac0f1fb3c46d270c9cc128cbb848b57927ba8877143e5f8b4c")
    assert int(proc.stderr) / 1024 < 24, proc.stderr


# Modules the CLI must not run at start-up: dataclasses and the code introspection
# it pulls in, typing, and the submodules that only some commands use.
_LATE = tuple(f"shiftmeasure.{name}" for name in ("diagnostics", "language", "measure", "morphism", "transfer"))
_HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing", *_LATE)
# A child prints those that have run.  A submodule not used yet is in sys.modules
# as a lazy module, whose type is a subclass of the module type until its code runs.
_PRINT_RUN = f"print(sorted(n for n in {_HEAVY!r} if type(sys.modules.get(n)) is type(sys)))\n"


def _child(code, *flags):
    """The stdout lines of a child python [flags] -c code that imports the package under test."""
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                          env=_subprocess_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_the_cli_imports_no_code_introspection():
    """Start-up cost: neither importing the CLI nor running --help loads
    dataclasses, the inspect, ast, dis and tokenize modules it pulls in, or
    typing, and neither runs diagnostics, language, measure, morphism or
    transfer: of the package, only cli, textio and words run.  Those that a
    bare child of the same interpreter and environment already has (a site .pth
    may import inspect or typing) are the interpreter's, not the CLI's; a child
    without site (-S) has none of them."""
    script = (
        "import runpy, sys\n"
        "import shiftmeasure.cli\n"
        f"{_PRINT_RUN}"
        "sys.argv = ['shiftmeasure', '--help']\n"
        "try:\n"
        "    runpy.run_module('shiftmeasure', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass\n"
        f"{_PRINT_RUN}"
    )
    for flags in [(), ("-S",)]:
        preloaded = set(ast.literal_eval(_child("import sys\n" + _PRINT_RUN, *flags)[0]))
        assert not preloaded & set(_LATE), preloaded
        lines = _child(script, *flags)
        assert lines[1].startswith("usage: shiftmeasure"), lines
        for line in (lines[0], lines[-1]):
            assert set(ast.literal_eval(line)) - preloaded == set(), (flags, lines, preloaded)


# Each command's argv ({dir} is the directory of the files below; each exits 0) and the late modules it runs.
_COMMAND_FILES = {"sigma.morphism": MORPHISM_SIGMA4, "fib.morphism": "a -> a b\nb -> a\n",
                  "ab.measure": MEASURE_AB, "ab.language": "!alphabet a b\n!maxlen 3\na b a\nb b\n"}
_COMMAND_RUNS = {
    "kirchhoff": (["kirchhoff", "{dir}/ab.measure"], {"measure"}),
    "characteristic": (["characteristic", "--word", "a b", "--depth", "2"], {"measure"}),
    "decompose": (["decompose", "{dir}/sigma.morphism", "--pi-out", "{dir}/pi.out",
                   "--alpha-out", "{dir}/alpha.out"], {"morphism"}),
    "compose": (["compose", "{dir}/fib.morphism", "{dir}/fib.morphism"], {"morphism"}),
    "incidence": (["incidence", "{dir}/sigma.morphism"], {"morphism"}),
    "check": (["check", "{dir}/fib.morphism", "--bound", "3"], {"morphism", "diagnostics"}),
    "check-language": (["check", "{dir}/fib.morphism", "--bound", "3", "--language", "{dir}/ab.language"],
                       {"morphism", "diagnostics", "language"}),
    "image-language": (["image-language", "{dir}/sigma.morphism", "{dir}/ab.language", "--maxlen", "3"],
                       {"morphism", "language"}),
    "transfer": (["transfer", "{dir}/sigma.morphism", "{dir}/ab.measure", "--depth", "2"],
                 {"measure", "morphism", "transfer"}),
    "eval": (["eval", "{dir}/sigma.morphism", "{dir}/ab.measure", "--word", "c d"],
             {"measure", "morphism", "transfer"}),
}


@pytest.mark.parametrize("command", _COMMAND_RUNS)
def test_a_command_runs_only_the_submodules_it_uses(tmp_path, command):
    """Of diagnostics, language, measure, morphism and transfer, a command runs exactly those it calls."""
    for name, text in _COMMAND_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv, late = _COMMAND_RUNS[command]
    argv = [arg.format(dir=tmp_path) for arg in argv]
    script = f"import sys\nfrom shiftmeasure.cli import main\nprint(main({argv!r}))\n{_PRINT_RUN}"
    lines = _child(script)
    assert lines[-2] == "0", lines
    assert set(ast.literal_eval(lines[-1])) & set(_LATE) == {f"shiftmeasure.{name}" for name in late}, lines


PUBLIC = """
    Alphabet DepthError FactorLanguage FrequencyVector IncidenceMatrix MeasureTable Morphism ParseError
    PreconditionError SubdivisionData Violation ViolationReport Word apply candidate_lengths
    canonical_decomposition characteristic_measure check_period_preservation check_periodic_orbit_injectivity
    complexity compose count_occurrences essential_occurrences factorial_closure factors frequency_vector
    full_shift_language image_language incidence_matrix is_proper_power is_rotation iter_words
    linear_combination min_rotation norms parse_language parse_measure parse_morphism parse_word
    periodic_orbit_language primitive_root prolongation_split pushforward_letter_to_letter render_language
    render_measure render_morphism required_input_depth rotations subdivision_measure subdivision_morphism
    support_words transfer_eval transfer_table transfer_via_decomposition union validate
""".split()


def test_the_public_names_resolve_on_first_use():
    """In a fresh child, dir() lists every public name before any is used, a
    star import binds exactly the public names, and any other name is an
    AttributeError."""
    assert shiftmeasure.__all__ == PUBLIC
    script = (
        "import shiftmeasure\n"
        "print(sorted(set(shiftmeasure.__all__) - set(dir(shiftmeasure))))\n"
        "names = {}\n"
        "exec('from shiftmeasure import *', names)\n"
        "print(sorted(set(names) - {'__builtins__'}))\n"
        "try:\n"
        "    shiftmeasure.nope\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert _child(script) == ["[]", repr(PUBLIC), "module 'shiftmeasure' has no attribute 'nope'"]


@pytest.mark.parametrize("fault", [RuntimeError("boom"), TypeError("boom"), MemoryError("boom")],
                         ids=["runtime", "type", "memory"])
def test_a_fault_exits_four_with_its_traceback(files, capsys, monkeypatch, fault):
    """Only a PreconditionError is a refusal (exit 3, one error line); any other
    exception in a handler is a fault: exit 4, its traceback on stderr."""
    sigma = files("sigma.morphism", MORPHISM_SIGMA4)
    measure = files("orbit.measure", MEASURE_AB)

    def fail(*args):
        raise fault

    monkeypatch.setattr(transfer, "transfer_table", fail)
    assert main(["transfer", sigma, measure, "--depth", "2"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Traceback (most recent call last):\n")
    assert "in fail\n" in err
    assert err.endswith(f"{type(fault).__name__}: boom\n")


def test_a_precondition_error_exits_three_with_one_line(files, capsys, monkeypatch):
    sigma = files("sigma.morphism", MORPHISM_SIGMA4)
    measure = files("orbit.measure", MEASURE_AB)

    def refuse(*args):
        raise shiftmeasure.PreconditionError("refused")

    monkeypatch.setattr(transfer, "transfer_table", refuse)
    assert main(["transfer", sigma, measure, "--depth", "2"]) == 3
    assert capsys.readouterr() == ("", "error: refused\n")


def test_check_prints_its_certificates_without_words(files, capsys, monkeypatch):
    """The reports hold letter tuples: check renders them from the domain's
    symbols and builds no Word, while certificates still gives the Words.
    Their letters are already checked, so every Word is a _trusted build."""
    built = []

    def counting(*args):
        built.append(args)
        return Word._trusted(*args)

    monkeypatch.setattr(diagnostics, "Word", SimpleNamespace(_trusted=counting))
    sigma = files("collapse.morphism", "a -> c\nb -> c\n")
    assert main(["check", sigma, "--bound", "6"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert built == []
    collapse = Morphism.from_images(("a", "b"), ("c",), {"a": "c", "b": "c"})
    period, orbit = diagnostics._reports(collapse, None, 6)
    assert lines == period.render().splitlines() + orbit.lines()
    # Every one of the 23 Lyndon words up to length 6 images into c*: one group.
    assert len(orbit.certificates) == 23 * 22 // 2 and len(built) == 2 * 253
    assert len(period.certificates) == 21 and len(built) == 2 * 253 + 21
    words = [(w,) for w in period.certificates] + list(orbit.certificates)
    assert lines[1:] == [f"VIOLATION {kind} " + " ".join(map(str, c)) for kind, c in zip(
        ["period-preservation"] * 21 + ["orbit-injectivity"] * 253, words)]


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() has no digit limit"
)
def test_values_beyond_the_int_digit_limit_are_written_in_full(files, capsys):
    """1,500 weights over as many primes sum to a denominator of about 5,400
    digits, over the interpreter's int-to-str limit: transfer, eval and
    kirchhoff print it in full, and the limit is back in place afterwards."""
    limit = sys.get_int_max_str_digits()
    primes, n = [], 2
    while len(primes) < 1500:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    tokens = [f"x{i}" for i in range(len(primes))]
    measure = files("primes.measure", f"!alphabet {' '.join(tokens)}\n!depth 1\n!mass 1\n"
                    + "".join(f"{t}\t1/{p}\n" for t, p in zip(tokens, primes)))
    sigma = files("collapse.morphism", "".join(f"{t} -> c\n" for t in tokens))
    total = sum((Fraction(1, p) for p in primes), Fraction(0))
    sys.set_int_max_str_digits(0)
    try:
        text = str(total)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(text) > limit
    assert main(["transfer", sigma, measure, "--depth", "1"]) == 0
    assert capsys.readouterr().out == f"!alphabet c\n!depth 1\n!mass {text}\nc\t{text}\n"
    assert main(["eval", sigma, measure, "--word", "c"]) == 0
    assert capsys.readouterr().out == text + "\n"
    assert main(["kirchhoff", measure]) == 1
    captured = capsys.readouterr()
    assert captured.out == f"VIOLATION level-sum at length-1: expected 1, found {text}\n"
    assert captured.err == ""
    assert sys.get_int_max_str_digits() == limit
    # Reading keeps the limit: an over-long header integer is still a parse error.
    deep = files("deep.measure", f"!alphabet a\n!depth {'9' * (limit + 1)}\n!mass 1\n")
    assert main(["kirchhoff", deep]) == 2
    assert capsys.readouterr().err.startswith(f"error: {deep}:2: ")


@pytest.mark.parametrize("bound", ["14", "20"])
def test_check_refuses_a_report_over_the_certificate_budget(files, capsys, bound):
    """The collapse owes 3.2M pairs at bound 14; it is refused before any
    certificate is built or printed."""
    sigma = files("collapse.morphism", "a -> c\nb -> c\n")
    assert main(["check", sigma, "--bound", bound]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "give at least 1000403 certificates, more than 1000000" in captured.err


def test_check_with_explicit_language(files, capsys):
    sigma = files("collapse.morphism", "a -> c\nb -> c\n")
    language = files("thin.language", "!alphabet a b\n!maxlen 2\na a\n")
    assert main(["check", sigma, "--language", language, "--bound", "2"]) == 0
    assert capsys.readouterr().out == "BOUND 2\n"


def test_kirchhoff_silent_on_consistent_tables(files, capsys):
    measure = files("orbit.measure", MEASURE_AB)
    assert main(["kirchhoff", measure]) == 0
    assert capsys.readouterr().out == ""


def test_kirchhoff_lists_violations_with_exit_one(files, capsys):
    measure = files("broken.measure", "!alphabet a b\n!depth 2\n!mass 1\na\t1\na a\t1\na b\t1\n")
    assert main(["kirchhoff", measure]) == 1
    out = capsys.readouterr().out
    assert out.startswith("VIOLATION ")
    assert all(line.startswith("VIOLATION ") for line in out.splitlines())


# stdout, stderr and exit code of argparse's own output (help, usage and
# argument errors), recorded with COLUMNS=80 from the top-level parser and
# its subparsers.  Cases with an argument left over ("extra", "--bogus") are
# the one error the top-level parser reports after a command has matched.
# 3.13 prints the command choices on one usage line and widens the command
# column of --help, so it has its own file, recorded on 3.13 with the same argvs.
# A case with a "python" version holds on that release alone, in place of the
# case of the same argv without one: 3.13.0 quotes each choice in "invalid choice".
_RELEASE = list(sys.version_info[:3])
_RECORDED = json.loads(Path(__file__).with_name(
    "argparse_goldens_3.13.json" if sys.version_info >= (3, 13) else "argparse_goldens.json"
).read_text(encoding="utf-8"))
_PINNED = [case["argv"] for case in _RECORDED if case.get("python") == _RELEASE]
ARGPARSE_GOLDENS = [case for case in _RECORDED
                    if case.get("python") == _RELEASE or ("python" not in case and case["argv"] not in _PINNED)]


@pytest.mark.parametrize(
    "case", ARGPARSE_GOLDENS, ids=lambda case: " ".join(case["argv"]) or "no-arguments"
)
def test_argparse_output_is_pinned(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(case["argv"])
    out, err = capsys.readouterr()
    assert (exit_info.value.code, out, err) == (case["exit"], case["stdout"], case["stderr"])


def test_a_command_builds_only_its_own_parser(files, capsys, monkeypatch):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    sigma = files("sigma.morphism", MORPHISM_SIGMA4)
    measure = files("orbit.measure", MEASURE_AB)
    assert main(["eval", sigma, measure, "--word", "c c"]) == 0
    assert progs == ["shiftmeasure eval"]
    # No parser is kept between calls.
    assert main(["eval", sigma, measure, "--word", "c c"]) == 0
    assert progs == ["shiftmeasure eval"] * 2
    assert capsys.readouterr().out == "2\n2\n"
    # A left-over argument is the full parser's error: it builds every subparser.
    full = ["shiftmeasure"] + [f"shiftmeasure {name}" for name in cli._COMMANDS]
    progs.clear()
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", sigma, measure, "--word", "c c", "extra"])
    assert exit_info.value.code == 2
    assert progs == ["shiftmeasure eval"] + full
    assert capsys.readouterr().err.startswith("usage: shiftmeasure [-h]\n")
    progs.clear()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert progs == full
    assert capsys.readouterr().out.startswith("usage: shiftmeasure [-h]\n")


def _argparse_outcome(parse, argv):
    """vars() of the namespace parse(argv) returns, or its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def _command_argvs(name):
    """Argvs naming a command: its positionals and required options, shuffled
    with up to four pieces drawn from its flags (whole, abbreviated, in =
    form, with a bad value or none), "--", "-h" and strings it does not know."""
    base, pieces = [], [("--",), ("-h",), ("extra",), ("-x",), ("--bogus",)]
    for flag, options in cli._COMMANDS[name][2]:
        if not flag.startswith("-"):
            base.append((flag,))
        elif options.get("action") == "store_true":
            pieces += [(flag,), (flag[:-1],), (f"{flag}=1",)]
        else:
            (base if options.get("required") else pieces).append((flag, "3"))
            pieces += [(flag, "4"), (flag[:-1], "5"), (f"{flag}=6",), (flag[:4], "x"), (flag,)]
    return st.lists(st.sampled_from(pieces), max_size=4).flatmap(
        lambda more: st.permutations(base + more)).map(
        lambda shuffled: [name, *itertools.chain.from_iterable(shuffled)])


def test_a_command_parser_formats_at_the_terminal_width(monkeypatch):
    # A command's parser reads the terminal width once per parse: its help and
    # usage errors are those of a parser whose every formatter reads it.
    outcomes = {}
    for columns in ("50", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        for name in cli._COMMANDS:
            old = cli._add_command(argparse.ArgumentParser(prog=f"shiftmeasure {name}"), name)
            for argv in ([name, "-h"], [name]):
                expected = _argparse_outcome(lambda a: old.parse_args(a[1:]), argv)
                assert _argparse_outcome(cli._parse_args, argv) == expected, (columns, argv)
                outcomes[columns, *argv] = expected
    assert outcomes["50", "eval", "-h"] != outcomes["200", "eval", "-h"]  # the widths wrap differently


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(list(cli._COMMANDS)).flatmap(_command_argvs))
def test_a_command_parser_parses_as_the_full_parser(argv):
    # The full parser is the oracle: a named command's own parser must give
    # the same namespace (but for the full parser's command name), or exit
    # with the same code and output.
    expected = _argparse_outcome(lambda a: cli._build_parser().parse_args(a), argv)
    if isinstance(expected, dict):
        assert expected.pop("command") == argv[0]
    assert _argparse_outcome(cli._parse_args, argv) == expected


def test_parse_errors_exit_two_with_file_and_line(files, capsys):
    bad = files("bad.morphism", "a -> c\nnonsense\n")
    measure = files("orbit.measure", MEASURE_AB)
    assert main(["transfer", bad, measure, "--depth", "1"]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:2:" in err


@pytest.mark.parametrize(
    "command, name, text",
    [
        ("kirchhoff", "super.measure", "!alphabet a b\n!depth \u00b2\n!mass 1\n"),
        ("image-language", "super.language", "!alphabet a b\n!maxlen \u00b2\na b\n"),
    ],
    ids=["measure", "language"],
)
def test_non_ascii_header_digits_exit_two_with_file_and_line(files, capsys, command, name, text):
    """A superscript two passes str.isdigit() but is not a header integer."""
    path = files(name, text)
    argv = [command, path]
    if command == "image-language":
        argv = [command, files("sigma.morphism", MORPHISM_SIGMA4), path, "--maxlen", "1"]
    assert main(argv) == 2
    assert f"{path}:2:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1e3", "1e99999", "1_000", "+3", "٣"])
@pytest.mark.parametrize(
    "template, line",
    [
        ("!alphabet a b\n!depth 1\n!mass 1\na\t{}\n", 4),
        ("!alphabet a b\n!depth 1\n!mass {}\na\t1\n", 3),
    ],
    ids=["entry", "mass"],
)
def test_undocumented_rational_forms_exit_two_with_file_and_line(files, capsys, value, template, line):
    """Fraction() takes exponents, underscores, signs and non-ASCII digits;
    the format takes only ASCII p, p/q and p.q."""
    path = files("odd.measure", template.format(value))
    assert main(["kirchhoff", path]) == 2
    assert f"{path}:{line}: " in capsys.readouterr().err


def test_missing_file_exits_two(files, capsys):
    measure = files("orbit.measure", MEASURE_AB)
    assert main(["transfer", "/nonexistent/sigma.morphism", measure, "--depth", "1"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_foreign_word_token_exits_two(files, capsys):
    sigma = files("sigma.morphism", MORPHISM_SIGMA4)
    measure = files("orbit.measure", MEASURE_AB)
    assert main(["eval", sigma, measure, "--word", "c x"]) == 2
    assert "bad word" in capsys.readouterr().err


def test_depth_shortfall_exits_three_and_names_the_required_depth(files, capsys):
    sigma = files("sigma.morphism", MORPHISM_SIGMA4)
    measure = files("orbit.measure", MEASURE_AB)
    assert main(["transfer", sigma, measure, "--depth", "5"]) == 3
    err = capsys.readouterr().err
    assert "depth >= 3 is required" in err


@pytest.mark.parametrize("bound, language, message", [
    ("0", True, ">= 1"), ("9", True, "<= 8"), ("0", False, ">= 1"),
], ids=["zero-with-language", "past-maxlen", "zero"])
def test_bad_bound_exits_three(files, capsys, bound, language, message):
    """A check bound of 0, or one past the language's maxlen, is refused in
    the range form of every count argument."""
    argv = ["check", files("sigma.morphism", MORPHISM_SIGMA4), "--bound", bound]
    if language:
        argv += ["--language", files("short.language", "!alphabet a b\n!maxlen 8\na\n")]
    assert main(argv) == 3
    assert capsys.readouterr() == ("", f"error: bound must be {message}\n")


@pytest.mark.parametrize("argv, code, message", [
    (["transfer", "{sigma}", "{measure}", "--depth", "0"], 3, "output depth must be >= 1"),
    (["image-language", "{sigma}", "{language}", "--maxlen", "0"], 3, "maxlen must be >= 1"),
    (["decompose", "{sigma}", "--pi-out", "/nonexistent/x", "--alpha-out", "{alpha}"], 2,
     "cannot write /nonexistent/x: No such file or directory"),
], ids=["transfer-depth", "image-language-maxlen", "decompose-unwritable"])
def test_out_of_range_values_and_unwritable_outputs_exit_with_one_line(files, capsys, tmp_path,
                                                                       argv, code, message):
    paths = {"sigma": files("sigma.morphism", MORPHISM_SIGMA4),
             "measure": files("orbit.measure", MEASURE_AB),
             "language": files("ab.language", "!alphabet a b\n!maxlen 1\na\nb\n"),
             "alpha": str(tmp_path / "alpha.morphism")}
    assert main([arg.format(**paths) for arg in argv]) == code
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_module_entry_point_smoke(files):
    sigma = files("sigma.morphism", MORPHISM_SIGMA4)
    measure = files("orbit.measure", MEASURE_AB)
    proc = subprocess.run(
        [sys.executable, "-m", "shiftmeasure", "transfer", sigma, measure, "--depth", "2"],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == TRANSFER_GOLDEN


def test_output_bytes_do_not_depend_on_the_hash_seed(files):
    """Word hashes follow string hashing, so set and dict order change with
    PYTHONHASHSEED; the rendered output must not."""
    rng = random.Random(62)
    sigma = gen.random_morphism(rng, gen.alphabet(3), gen.alphabet(3, 3))
    out_depth = 5
    table = gen.random_orbit_table(rng, sigma.domain, required_input_depth(sigma, out_depth), terms=4)
    language = FactorLanguage(sigma.domain, table.depth, frozenset(support_words(table)))
    # A raised length-2 weight breaks both equalities at the word itself and
    # at its first letter and its last letter, and the level-2 sum.
    raised = dict(table.values)
    raised[min((w for w in raised if len(w) == 2), key=Word.sort_key)] += 1
    sigma_file = files("sigma.morphism", render_morphism(sigma))
    table_file = files("orbits.measure", render_measure(table))
    language_file = files("orbits.language", render_language(language))
    raised_file = files("raised.measure", render_measure(
        MeasureTable(table.alphabet, table.depth, raised, table.total_mass)
    ))
    # Collapses b c onto a: many period and orbit certificates.
    collapse_file = files("collapse.morphism", "a -> c d\nb -> c\nc -> d\n")
    # Sends every letter of the language's alphabet to one orbit: certificates at its cap.
    merge_file = files("merge.morphism", "a -> d\nb -> d\nc -> d\n")
    tau = gen.random_morphism(rng, sigma.codomain, gen.alphabet(2))
    tau_file = files("tau.morphism", render_morphism(tau))
    pi_file, alpha_file = files("pi.morphism", ""), files("alpha.morphism", "")
    # (argv, exit code, files the command writes, least number of output lines)
    commands = [
        (["transfer", sigma_file, table_file, "--depth", str(out_depth)], 0, (), 11),
        (["image-language", sigma_file, language_file, "--maxlen", str(out_depth)], 0, (), 11),
        (["kirchhoff", raised_file], 1, (), 0),
        (["check", collapse_file, "--bound", "4"], 1, (), 0),
        (["check", merge_file, "--bound", str(table.depth), "--language", language_file], 1, (), 0),
        (["eval", sigma_file, table_file, "--word", str(sigma.images[0])], 0, (), 1),
        (["characteristic", "--word", "c b a c a b b", "--depth", "4"], 0, (), 11),
        (["incidence", sigma_file], 0, (), 3),
        (["compose", tau_file, sigma_file], 0, (), 5),
        (["decompose", sigma_file, "--pi-out", pi_file, "--alpha-out", alpha_file], 0,
         (pi_file, alpha_file), 11),
    ]
    for command, code, written, least in commands:
        outputs = set()
        for seed in ("0", "1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "shiftmeasure", *command],
                capture_output=True,
                env=_subprocess_env(PYTHONHASHSEED=seed),
            )
            assert proc.returncode == code, proc.stderr
            outputs.add(proc.stdout + b"".join(Path(path).read_bytes() for path in written))
        assert len(outputs) == 1, command[0]
        lines = outputs.pop().splitlines()
        assert len(lines) >= least, command[0]
        if code == 1:
            assert sum(line.startswith(b"VIOLATION ") for line in lines) >= 5, command[0]
