"""End-to-end CLI behaviour: golden output bytes, exit codes, and the error
channel.  All invocations go through main(argv) with captured streams; one
subprocess test covers the installed entry point."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import shiftmeasure
from shiftmeasure import (
    FactorLanguage,
    render_language,
    render_measure,
    render_morphism,
    required_input_depth,
    support_words,
)
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
    sigma_file = files("sigma.morphism", render_morphism(sigma))
    table_file = files("orbits.measure", render_measure(table))
    language_file = files("orbits.language", render_language(language))
    commands = [
        ["transfer", sigma_file, table_file, "--depth", str(out_depth)],
        ["image-language", sigma_file, language_file, "--maxlen", str(out_depth)],
    ]
    for command in commands:
        outputs = set()
        for seed in ("0", "1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "shiftmeasure", *command],
                capture_output=True,
                env=_subprocess_env(PYTHONHASHSEED=seed),
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1, command[0]
        assert len(outputs.pop().splitlines()) > 10
