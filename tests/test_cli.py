"""End-to-end CLI behaviour: golden output bytes, exit codes, and the error
channel.  CLI_CASES pins each plain argv case byte for byte; the other tests
patch the package, spawn children, measure memory or run hypothesis.  All
in-process invocations go through main(argv) with captured streams; one
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
from conftest import MEASURE_AB, _subprocess_env
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
TRANSFER_GOLDEN = "!alphabet c d\n!depth 2\n!mass 6\nc\t4\nd\t2\nc c\t2\nc d\t2\nd c\t2\n"
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
# Fraction() takes exponents, underscores, signs and non-ASCII digits; the format takes only ASCII p, p/q and p.q.
_ODD_RATIONALS = ["1e3", "1e99999", "1_000", "+3", "٣"]

# The input files of every CLI case, written into the directory each case runs in.
FILES = {
    "sigma.morphism": MORPHISM_SIGMA4,
    "fib.morphism": "a -> a b\nb -> a\n",
    "dded.morphism": "a -> d e d\nb -> d e\nc -> d e d d\n",
    "cd.morphism": "a -> c d\nb -> c\n",
    "tm.morphism": "a -> c d\nb -> d c\n",
    "id.morphism": "a -> a\nb -> b\n",
    "collapse.morphism": "a -> c\nb -> c\n",
    "bad.morphism": "a -> c\nnonsense\n",
    "ab.measure": MEASURE_AB,
    "thirds.measure": (
        "!alphabet a b c\n!depth 3\n!mass 1\n"
        "a\t1/3\nb\t1/3\nc\t1/3\n"
        "a a\t1/3\nb b\t1/3\nc c\t1/3\n"
        "a a a\t1/3\nb b b\t1/3\nc c c\t1/3\n"
    ),
    "broken.measure": "!alphabet a b\n!depth 2\n!mass 1\na\t1\na a\t1\na b\t1\n",
    # A superscript two passes str.isdigit() but is not a header integer.
    "super.measure": "!alphabet a b\n!depth ²\n!mass 1\n",
    **{f"entry{i}.measure": f"!alphabet a b\n!depth 1\n!mass 1\na\t{v}\n" for i, v in enumerate(_ODD_RATIONALS)},
    **{f"mass{i}.measure": f"!alphabet a b\n!depth 1\n!mass {v}\na\t1\n" for i, v in enumerate(_ODD_RATIONALS)},
    "ab.language": "!alphabet a b\n!maxlen 3\na b a\nb b\n",
    "full.language": "!alphabet a b\n!maxlen 2\na a\na b\nb a\nb b\n",
    "thin.language": "!alphabet a b\n!maxlen 2\na a\n",
    "short.language": "!alphabet a b\n!maxlen 8\na\n",
    "super.language": "!alphabet a b\n!maxlen ²\na b\n",
}


def _case(id, argv, exit=0, stdout="", stderr="", written=None):
    """main(argv), run in a directory that holds FILES, returns exit, prints exactly
    stdout and stderr, and adds exactly the files in written (name: text)."""
    return {"id": id, "argv": argv, "exit": exit, "stdout": stdout, "stderr": stderr, "written": written or {}}


def _over_the_table_budget(depth, letters):
    return (f"error: depth {depth} is over the table budget: its keys for an orbit of period 2 "
            f"hold {letters} letters, more than 10000000\n")


CLI_CASES = [
    _case("transfer", ["transfer", "sigma.morphism", "ab.measure", "--depth", "2"], stdout=TRANSFER_GOLDEN),
    _case("transfer-depth-zero", ["transfer", "sigma.morphism", "ab.measure", "--depth", "0"], 3,
          stderr="error: output depth must be >= 1\n"),
    _case("transfer-depth-shortfall", ["transfer", "sigma.morphism", "ab.measure", "--depth", "5"], 3,
          stderr="error: input depth 2 is insufficient: depth >= 3 is required\n"),
    _case("transfer-parse-error", ["transfer", "bad.morphism", "ab.measure", "--depth", "1"], 2,
          stderr="error: bad.morphism:2: expected a rule of the form '<letter> -> <letter> ...'\n"),
    _case("transfer-missing-file", ["transfer", "/nonexistent/sigma.morphism", "ab.measure", "--depth", "1"], 2,
          stderr="error: cannot read /nonexistent/sigma.morphism: No such file or directory\n"),
    _case("eval", ["eval", "dded.morphism", "thirds.measure", "--word", "d d e d"], stdout="2/3\n"),
    _case("eval-compact", ["eval", "dded.morphism", "thirds.measure", "--word", "dded", "--compact"],
          stdout="2/3\n"),
    _case("eval-empty-word", ["eval", "sigma.morphism", "ab.measure", "--word", ""], stdout="6\n"),
    _case("eval-foreign-token", ["eval", "sigma.morphism", "ab.measure", "--word", "c x"], 2,
          stderr="error: bad word 'c x': symbol 'x' not in alphabet [c d]\n"),
    _case("decompose", ["decompose", "cd.morphism", "--pi-out", "pi.out", "--alpha-out", "alpha.out"],
          written={"pi.out": "!domain a b\n!codomain a.1 a.2 b.1\na -> a.1 a.2\nb -> b.1\n",
                   "alpha.out": "!domain a.1 a.2 b.1\n!codomain c d\na.1 -> c\na.2 -> d\nb.1 -> c\n"}),
    _case("decompose-unwritable", ["decompose", "sigma.morphism", "--pi-out", "/nonexistent/x",
                                   "--alpha-out", "alpha.out"], 2,
          stderr="error: cannot write /nonexistent/x: No such file or directory\n"),
    _case("incidence", ["incidence", "sigma.morphism"], stdout="c 2 2\nd 1 1\n"),
    _case("characteristic", ["characteristic", "--word", "a b", "--depth", "2"], stdout=MEASURE_AB),
    _case("characteristic-compact", ["characteristic", "--word", "ab", "--depth", "2", "--compact"],
          stdout=MEASURE_AB),
    # "#\t1" would read back as a comment line.
    _case("characteristic-reserved-token", ["characteristic", "--word", "# a", "--depth", "2"], 2,
          stderr="error: invalid symbol token: '#' (a token may not start with '#' or '!', or be '->')\n"),
    _case("characteristic-explicit-alphabet", ["characteristic", "--word", "a", "--depth", "1", "--alphabet", "b a"],
          stdout="!alphabet b a\n!depth 1\n!mass 1\na\t1\n"),
    # Only an alphabet inferred from the word blames the word.
    _case("characteristic-empty-alphabet", ["characteristic", "--word", "a", "--depth", "1", "--alphabet", ""], 2,
          stderr="error: alphabet must not be empty\n"),
    _case("characteristic-empty-word", ["characteristic", "--word", "", "--depth", "1"], 2,
          stderr="error: cannot infer an alphabet from an empty word\n"),
    # --compact splits an explicit or inferred alphabet into characters, as it does the word.
    _case("characteristic-compact-alphabet", ["characteristic", "--word", "a", "--depth", "1", "--alphabet", " ba ",
                                              "--compact"], stdout="!alphabet b a\n!depth 1\n!mass 1\na\t1\n"),
    _case("characteristic-compact-inferred-alphabet",
          ["characteristic", "--word", "abba", "--depth", "1", "--compact"],
          stdout="!alphabet a b\n!depth 1\n!mass 4\na\t2\nb\t2\n"),
    _case("characteristic-compact-empty-alphabet",
          ["characteristic", "--word", "a", "--depth", "1", "--alphabet", "  ", "--compact"], 2,
          stderr="error: alphabet must not be empty\n"),
    _case("characteristic-compact-empty-word", ["characteristic", "--word", " ", "--depth", "1", "--compact"], 2,
          stderr="error: cannot infer an alphabet from an empty word\n"),
    # A depth no index can hold, 2^62 (which fits an index and once ended in a
    # MemoryError traceback and exit 1) and 10^9 (which would allocate gigabytes)
    # are refused by the table budget with the letter count, before the orbit is repeated.
    *(_case(f"characteristic-depth-{name}", ["characteristic", "--word", "a b", "--depth", str(depth)], 3,
            stderr=_over_the_table_budget(depth, depth * (depth + 1)))
      for name, depth in [("past-any-index", 99999999999999999999999), ("2^62", 2**62), ("10^9", 10**9)]),
    # A depth of 2,501 digits puts the letter count past the interpreter's int-to-str
    # limit: the refusal shows that count by its digits.
    _case("characteristic-depth-past-the-int-digit-limit", ["characteristic", "--word", "a b", "--depth",
                                                            str(10**2500)], 3,
          stderr=_over_the_table_budget(str(10**2500), "<5001-digit number>")),
    _case("image-language", ["image-language", "sigma.morphism", "full.language", "--maxlen", "2"],
          stdout="!alphabet c d\n!maxlen 2\nc\nd\nc c\nc d\nd c\n"),
    _case("image-language-maxlen-zero", ["image-language", "sigma.morphism", "full.language", "--maxlen", "0"], 3,
          stderr="error: maxlen must be >= 1\n"),
    _case("image-language-non-ascii-maxlen", ["image-language", "sigma.morphism", "super.language", "--maxlen", "1"],
          2, stderr="error: super.language:2: !maxlen needs one positive integer\n"),
    _case("check", ["check", "id.morphism", "--bound", "4"], stdout="BOUND 4\n"),
    _case("check-violations", ["check", "tm.morphism", "--bound", "1"], 1,
          stdout="BOUND 1\nVIOLATION orbit-injectivity a b\n"),
    _case("check-language", ["check", "collapse.morphism", "--language", "thin.language", "--bound", "2"],
          stdout="BOUND 2\n"),
    # A bound of 0, or one past the language's maxlen, is refused in the range form of every count argument.
    _case("check-bound-zero", ["check", "sigma.morphism", "--bound", "0"], 3, stderr="error: bound must be >= 1\n"),
    _case("check-bound-zero-with-language", ["check", "sigma.morphism", "--bound", "0", "--language", "short.language"],
          3, stderr="error: bound must be >= 1\n"),
    _case("check-bound-past-maxlen", ["check", "sigma.morphism", "--bound", "9", "--language", "short.language"], 3,
          stderr="error: bound must be <= 8\n"),
    _case("check-over-the-work-budget", ["check", "tm.morphism", "--bound", "1000000000"], 3,
          stderr="error: bound 1000000000 is over the work budget: the full shift over 2 letters has 1465020 "
                 "primitive orbits of period <= 24, more than 1000000\n"),
    # The collapse owes 3.2M pairs at bound 14; it is refused before any certificate is built or printed.
    *(_case(f"check-over-the-certificate-budget-{bound}", ["check", "collapse.morphism", "--bound", bound], 3,
            stderr=f"error: bound {bound} is over the certificate budget: the primitive orbits of period <= 14 "
                   "give at least 1000403 certificates, more than 1000000\n")
      for bound in ["14", "20"]),
    _case("kirchhoff", ["kirchhoff", "ab.measure"]),
    _case("kirchhoff-violations", ["kirchhoff", "broken.measure"], 1,
          stdout="VIOLATION right-extension at a: expected 1, found 2\n"
                 "VIOLATION left-extension at b: expected 0, found 1\n"
                 "VIOLATION level-sum at length-2: expected 1, found 2\n"),
    _case("kirchhoff-non-ascii-depth", ["kirchhoff", "super.measure"], 2,
          stderr="error: super.measure:2: !depth needs one positive integer\n"),
    *(_case(f"kirchhoff-{where}-{value}", ["kirchhoff", f"{where}{i}.measure"], 2,
            stderr=f"error: {where}{i}.measure:{line}: not a rational value: {value!r}\n")
      for where, line in [("entry", 4), ("mass", 3)] for i, value in enumerate(_ODD_RATIONALS)),
]


@pytest.mark.parametrize("case", [
    pytest.param(case, id=case["id"], marks=pytest.mark.skipif(
        "int-digit-limit" in case["id"] and not _DIGIT_LIMIT, reason="int() has no digit limit"))
    for case in CLI_CASES])
@gen.deadline(5)
def test_cli_case(case, tmp_path, capsys, monkeypatch):
    """One row, byte for byte.  The deadline turns a fault that makes work
    follow a huge declared size (a depth or bound of 10^9) into a failure."""
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code = main(case["argv"])
    out, err = capsys.readouterr()
    written = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.name not in FILES}
    assert (code, out, err, written) == (
        case["exit"], case["stdout"], case["stderr"], {name: text.encode() for name, text in case["written"].items()})


def test_decompose_round_trips_through_compose(files, capsys, tmp_path):
    sigma = files("sigma.morphism", MORPHISM_SIGMA4)
    pi_out = str(tmp_path / "pi.morphism")
    alpha_out = str(tmp_path / "alpha.morphism")
    assert main(["decompose", sigma, "--pi-out", pi_out, "--alpha-out", alpha_out]) == 0
    capsys.readouterr()
    assert main(["compose", alpha_out, pi_out]) == 0
    composed = capsys.readouterr().out
    assert composed == "!domain a b\n!codomain c d\na -> c d c\nb -> d c c\n"


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


# Each command's argv ({dir} is a directory that holds FILES; each exits 0) and the late modules it runs.
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
    for name, text in FILES.items():
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


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="int() has no digit limit")
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


# stdout, stderr and exit code of argparse's own output (help, usage and
# argument errors), recorded with COLUMNS=80 from the top-level parser and
# its subparsers.  Cases with an argument left over ("extra", "--bogus") are
# the one error the top-level parser reports after a command has matched.
# A case with a "python" release prefix holds on the releases it prefixes, in
# place of the case of the same argv with a shorter prefix or none: [3, 13]
# because 3.13 prints the command choices on one usage line and widens the
# command column of --help, [3, 13, 0] because 3.13.0 also quotes each choice
# in "invalid choice".
_RECORDED = json.loads(Path(__file__).with_name("argparse_goldens.json").read_text(encoding="utf-8"))


def _argparse_goldens(release):
    """For each argv, the case whose "python" is the longest prefix of release (none is the empty prefix)."""
    by_argv = {}
    for case in sorted(_RECORDED, key=lambda case: len(case.get("python", []))):
        pin = case.get("python", [])
        if pin == list(release[:len(pin)]):
            by_argv[tuple(case["argv"])] = case
    return list(by_argv.values())


ARGPARSE_GOLDENS = _argparse_goldens(sys.version_info)


def test_every_release_selects_a_case_for_each_argparse_argv():
    argvs = [case["argv"] for case in _argparse_goldens((3, 10, 0))]
    assert len(argvs) == 22
    for release in [(3, 13, 0), (3, 13, 13)]:
        assert [case["argv"] for case in _argparse_goldens(release)] == argvs


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
