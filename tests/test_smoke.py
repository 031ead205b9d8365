"""Whole runs of the command line: the bytes, line counts and exit codes of
transfer, check, image-language and kirchhoff on inputs large enough to show
a cost that grows with |A|^depth, eval of every entry of a transferred table
(so the one-target search agrees with the sweep), and the time bound of each
slow run.  A run goes through main(argv) in-process; one with a time bound,
or one that must read the real sys.argv, is a child python -m shiftmeasure."""

import hashlib
import itertools
import re
import subprocess
import sys

import pytest

from conftest import MEASURE_AB, _subprocess_env
from shiftmeasure.cli import main
from test_textio import _respaced

AB_MORPHISM = "a -> a b\nb -> a\n"
ABBA_MORPHISM = "a -> a b\nb -> b b a\n"
COLLAPSE_MORPHISM = "a -> c\nb -> c\n"


def _run(argv, timeout=None, **env):
    """A child python -m shiftmeasure argv, killed after timeout seconds."""
    return subprocess.run([sys.executable, "-m", "shiftmeasure", *argv], capture_output=True,
                          env=_subprocess_env(**env), timeout=timeout)


def _pin(out):
    """The line count and sha256 of an output's bytes."""
    return out.count(b"\n"), hashlib.sha256(out).hexdigest()


def _stdout(capsys, argv, code=0):
    assert main(argv) == code
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The files of the scale runs.  full4.language holds every word over
    a b c d of length 1 to 8 (87,382 lines); it is already factor-closed, so
    parsing it must cost about one step per line, not one per factor.
    primes.measure gives 3,000 words each a weight over a different prime: its
    common denominator is far over the 2^64 cap, so validate and the transfer
    sweep (and its total mass) sum the Fractions."""
    directory = tmp_path_factory.mktemp("inputs")
    words = [" ".join(w) for k in range(1, 9) for w in itertools.product("abcd", repeat=k)]
    primes, n = [], 2
    while len(primes) < 3000:
        if all(n % p for p in itertools.takewhile(lambda p: p * p <= n, primes)):
            primes.append(n)
        n += 1
    texts = {
        "full4": "!alphabet a b c d\n!maxlen 8\n" + "".join(w + "\n" for w in words),
        "lang": "a -> a b\nb -> b a\nc -> a b b a\nd -> b\n",
        "primes": "!alphabet a b c d\n!depth 6\n!mass 1\n"
                  + "".join(f"{w}\t1/{p}\n" for w, p in zip(words, primes)),
        "primes_sigma": "a -> a b\nb -> b c\nc -> c d\nd -> d a\n",
    }
    for name, text in texts.items():
        (directory / name).write_text(text, encoding="utf-8")
    assert len(texts["full4"].splitlines()) == 87382
    return {name: str(directory / name) for name in texts}


@pytest.mark.parametrize("argv, timeout, code, lines, sha256", [
    (["check", "{lang}", "--bound", "8", "--language", "{full4}"], 60, 1, 50431,
     "71173b056b29332ca4b6d5ac9399286dd6ac1aa5067b03f6fe0494086ede8e13"),
    (["image-language", "{lang}", "{full4}", "--maxlen", "8"], 60, 0, 304,
     "ec493bd5690bbfbcd8e27aef4055ac1543636568cab402123985909b97d9a678"),
    (["transfer", "{primes_sigma}", "{primes}", "--depth", "8"], 60, 0, 2351,
     "1c513a41ccd009408a5cebdbc2d4fba246c936716b9a59df9ddfa9e0f33726eb"),
    # The length-6 level sum has a denominator of about 7,000 digits, over the
    # interpreter's int-to-str limit: it must still be printed.
    (["kirchhoff", "{primes}"], 60, 1, 2734,
     "45b7d5795dd7c00b25aa61f95b606c3e5991954f9feb8e3bf2f93b34daa772a6"),
], ids=["check-language", "image-language", "primes-transfer", "primes-kirchhoff"])
def test_a_scale_run_prints_its_pinned_bytes_in_time(inputs, argv, timeout, code, lines, sha256):
    proc = _run([arg.format(**inputs) for arg in argv], timeout)
    assert (proc.returncode, *_pin(proc.stdout)) == (code, lines, sha256), proc.stderr


def test_check_of_the_fibonacci_morphism_at_bound_20_ends_in_time(files):
    """Without --language, check never builds the full shift: bound 20 over
    two letters inspects 111,013 Lyndon words, not 2.1M words.  Certificates
    found (exit 1) pass."""
    proc = _run(["check", files("fibonacci.morphism", AB_MORPHISM), "--bound", "20"], 120)
    assert proc.returncode in (0, 1), proc.stderr


@pytest.mark.parametrize("argv, code, error", [
    # The collapse owes billions of pairs at bound 20: the certificate budget refuses it.
    (["check", "{collapse}", "--bound", "20"], 3, r"error: .*, more than 1000000\n"),
    # A mass-0 table with no entries and a ten-digit depth: no level is walked.
    (["kirchhoff", "{deep}"], 0, ""),
    *[(["characteristic", "--word", "a b", "--depth", depth], 3, r"error: .* letters, more than 10000000\n")
      for depth in (str(2**62), str(10**9), str(10**2500))],
], ids=["collapse-bound-20", "deep-mass-0", "depth-2^62", "depth-10^9", "depth-10^2500"])
def test_a_refusal_or_an_empty_report_comes_at_once(files, argv, code, error):
    """Exit code, empty stdout and at most one stderr line, within 10 s."""
    paths = {"collapse": files("collapse.morphism", COLLAPSE_MORPHISM),
             "deep": files("deep.measure", "!alphabet a b\n!depth 10000000000\n!mass 0\n")}
    proc = _run([arg.format(**paths) for arg in argv], 10)
    assert (proc.returncode, proc.stdout) == (code, b""), proc.stderr
    assert re.fullmatch(error, proc.stderr.decode()), proc.stderr


@pytest.mark.parametrize("morphism, table, depth, entries, pin", [
    (ABBA_MORPHISM, ("a a b a b a b b", "9"), "8", 84,
     (87, "a0d09f0ca95e7137801e2af27f0d45f6b738fee8f57c4f96ab0ba8fccfe4cf78")),
    (COLLAPSE_MORPHISM, ("a a b", "8"), "8", 8, None),
    (ABBA_MORPHISM, "!alphabet a b\n!depth 2\n!mass 2\nb\t1\na b\t1\nb a\t1\n", "3", 10, None),
], ids=["period-8-orbit", "collapse", "a-b-without-a"])
def test_eval_of_each_transferred_entry_prints_its_value(files, capsys, morphism, table, depth, entries, pin):
    """The essential preimages that eval lists for one target agree with the
    transfer's sweep on every entry.  On the collapse the search extends only
    the table's 23 support words; a table that lists a b but not a is searched
    over every prefix of its keys, and b b, a b b and b b b are reached only
    through a b."""
    if isinstance(table, tuple):
        table = _stdout(capsys, ["characteristic", "--word", table[0], "--depth", table[1]])
    sigma, table = files("sigma.morphism", morphism), files("table.measure", table)
    transferred = _stdout(capsys, ["transfer", sigma, table, "--depth", depth])
    if pin:
        assert _pin(transferred.encode()) == pin
    rows = [line.split("\t") for line in transferred.splitlines()[3:]]
    for word, value in rows:
        assert _stdout(capsys, ["eval", sigma, table, "--word", word]) == value + "\n", word
    assert len(rows) == entries


def test_eval_of_c_x16_on_the_collapse_comes_at_once(files, capsys):
    """Its cuts are every word of length 16 and the depth-17 table's keys are
    50: the search over the keys answers within 10 s."""
    table = files("aab17.measure", _stdout(capsys, ["characteristic", "--word", "a a b", "--depth", "17"]))
    proc = _run(["eval", files("collapse.morphism", COLLAPSE_MORPHISM), table, "--word", " ".join("c" * 16)], 10)
    assert (proc.returncode, proc.stdout) == (0, b"3\n"), proc.stderr


def test_eval_of_a_word_across_two_letter_blocks(files, capsys):
    """The image orbit of a b under a -> a b, b -> a is that of a b a, and
    a a straddles two letter blocks.  Positionals after -- are the command's."""
    sigma, table = files("ab.morphism", AB_MORPHISM), files("ab.measure", MEASURE_AB)
    assert _stdout(capsys, ["eval", sigma, table, "--word", "a a"]) == "1\n"
    assert _stdout(capsys, ["eval", "--word", "a a", "--", sigma, table]) == "1\n"


def test_the_entry_point_parses_the_real_argv(files):
    """The parser built for one command sees sys.argv: its help exits 0, and an
    argument it leaves over is the full parser's error (its usage, exit 2)."""
    sigma, table = files("ab.morphism", AB_MORPHISM), files("ab.measure", MEASURE_AB)
    proc = _run(["eval", sigma, table, "--word", "a a", "extra"], COLUMNS="80")
    lines = proc.stderr.decode().splitlines()
    assert (proc.returncode, proc.stdout, lines[0]) == (2, b"", "usage: shiftmeasure [-h]"), lines
    assert lines[-1].endswith("error: unrecognized arguments: extra"), lines
    proc = _run(["eval", "--help"])
    assert (proc.returncode, proc.stdout.startswith(b"usage: shiftmeasure eval")) == (0, True), proc.stderr


def test_a_respaced_table_reads_as_the_canonical_one(files, capsys):
    """The entries reversed, each with its first space doubled, so that no
    entry's prefix comes before it: transfer gives the same bytes, and
    kirchhoff on a copy with a b raised prints the same lines, exit 1."""
    canonical = _stdout(capsys, ["characteristic", "--word", "a a b", "--depth", "3"])
    raised = canonical.replace("\na b\t1\n", "\na b\t2\n")
    sigma = files("ab.morphism", AB_MORPHISM)
    transfers = {_stdout(capsys, ["transfer", sigma, files(name, text), "--depth", "3"])
                 for name, text in [("aab.measure", canonical), ("respaced.measure", _respaced(canonical))]}
    assert len(transfers) == 1
    reports = {_stdout(capsys, ["kirchhoff", files(name, text)], 1)
               for name, text in [("raised.measure", raised), ("raised-respaced.measure", _respaced(raised))]}
    assert len(reports) == 1 and reports != {""}


@pytest.mark.parametrize("argv, name, text, line", [
    # A header among the entries, then a comment, a blank line and the unknown token.
    (["kirchhoff", "{bad}"], "mid.measure", "!alphabet a b\n!depth 2\na\t1\n!mass 2\nb\t1\n# note\n\nz\t1\n", 8),
    (["image-language", "--maxlen", "2", "{sigma}", "{bad}"], "bad.language", "!alphabet a b\n!maxlen 2\na\nz\n", 4),
    # An image under a declared !codomain.
    (["compose", "{sigma}", "{bad}"], "bad.morphism", "!codomain a b\na -> a z\n", 2),
], ids=["measure", "language", "morphism"])
def test_an_unknown_token_exits_two_with_the_file_and_line(files, capsys, argv, name, text, line):
    paths = {"sigma": files("ab.morphism", AB_MORPHISM), "bad": files(name, text)}
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {paths['bad']}:{line}: symbol 'z' not in alphabet [a b]\n")
