"""End-to-end CLI behaviour: golden output bytes, exit codes, and the error
channel.  All invocations go through main(argv) with captured streams; one
subprocess test covers the installed entry point."""

import argparse
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

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
from shiftmeasure import cli, diagnostics
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

    for name, module in list(sys.modules.items()):
        if name == "shiftmeasure" or name.startswith("shiftmeasure."):
            for attr in ("full_shift_language", "iter_words"):
                if hasattr(module, attr):
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
    """Both checks come from one pass: one image and one primitive root per
    representative (the 71 Lyndon words over two letters up to length 8)."""
    calls = {"_image_letters": 0, "_root_letters": 0}

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
    assert calls == {"_image_letters": 71, "_root_letters": 71}


def test_check_prints_its_certificates_without_words(files, capsys, monkeypatch):
    """The reports hold letter tuples: check renders them from the domain's
    symbols and builds no Word, while certificates still gives the Words."""
    built = []

    def counting(*args):
        built.append(args)
        return Word(*args)

    monkeypatch.setattr(diagnostics, "Word", counting)
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
# argument errors), recorded with COLUMNS=80 from the parser that built all
# nine subcommands on every call.  The last case is the one error the
# top-level parser reports after a command has matched.
ARGPARSE_GOLDENS = json.loads(
    (Path(__file__).with_name("argparse_goldens.json")).read_text(encoding="utf-8")
)


@pytest.mark.parametrize(
    "case", ARGPARSE_GOLDENS, ids=lambda case: " ".join(case["argv"]) or "no-arguments"
)
def test_argparse_output_is_pinned(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        main(case["argv"])
    out, err = capsys.readouterr()
    assert (exit_info.value.code, out, err) == (case["exit"], case["stdout"], case["stderr"])


def test_a_command_builds_only_its_own_subparser(files, capsys, monkeypatch):
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        names.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    sigma = files("sigma.morphism", MORPHISM_SIGMA4)
    measure = files("orbit.measure", MEASURE_AB)
    assert main(["eval", sigma, measure, "--word", "c c"]) == 0
    assert names == ["eval"]
    # No parser is kept between calls.
    assert main(["eval", sigma, measure, "--word", "c c"]) == 0
    assert names == ["eval", "eval"]
    assert capsys.readouterr().out == "2\n2\n"
    names.clear()
    with pytest.raises(SystemExit):
        main(["--help"])
    assert names == list(cli._COMMANDS)
    assert capsys.readouterr().out.startswith("usage: shiftmeasure [-h]\n")


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


def test_bad_bound_exits_three(files, capsys):
    sigma = files("sigma.morphism", MORPHISM_SIGMA4)
    assert main(["check", sigma, "--bound", "0"]) == 3
    assert "error:" in capsys.readouterr().err


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
    tau = gen.random_morphism(rng, sigma.codomain, gen.alphabet(2))
    tau_file = files("tau.morphism", render_morphism(tau))
    pi_file, alpha_file = files("pi.morphism", ""), files("alpha.morphism", "")
    # (argv, exit code, files the command writes, least number of output lines)
    commands = [
        (["transfer", sigma_file, table_file, "--depth", str(out_depth)], 0, (), 11),
        (["image-language", sigma_file, language_file, "--maxlen", str(out_depth)], 0, (), 11),
        (["kirchhoff", raised_file], 1, (), 0),
        (["check", collapse_file, "--bound", "4"], 1, (), 0),
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
