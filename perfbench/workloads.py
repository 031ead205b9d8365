"""Seeded inputs and reference outputs for the four benchmark workloads.

The generator mirrors the test-suite one: alphabets drawn from a fixed letter
pool, random non-erasing morphisms, and Kirchhoff-consistent tables built as
positive rational combinations of characteristic measures of periodic
orbits.  It is a copy on plain tuples, so edits to the tests cannot shift a
workload and the program only ever sees the files written here.

Each workload is a list of cases ``{"argv", "stdout", "code"}``: one CLI
invocation with the exact bytes and exit code it must produce.  Cases of
different shapes are interleaved so that any prefix of the list has the same
mix as the whole.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from pathlib import Path

import oracle

POOL = "abcdefgh"

# Transfer: (domain letters, image lengths, orbit periods, accepted output
# support).  Output depth 8 with a length-1 image needs input depth 8.  The
# support band keeps per-op cost within a narrow range, so that a run's
# median does not hinge on which random cases a seed drew.
TRANSFER_DEPTH = 8
TRANSFER_SHAPES = [
    (3, (1, 2, 3), (4, 5, 6, 7), (150, 190)),
    (4, (1, 2, 2, 3), (4, 5, 6, 7), (130, 165)),
]
TRANSFER_CASES = 60

# Eval: a few large tables, many single-word targets; every fifth is a
# word of zero weight.
EVAL_DEPTH = 8
EVAL_PERIODS = (5, 6, 7, 8, 9, 10, 11, 12)
EVAL_TABLES = 6
EVAL_TARGETS = 40

# Kirchhoff: (letters, depth); validate walks |A|^k words per level.
KIRCHHOFF_SHAPES = [(2, 11), (3, 7), (4, 6)]
KIRCHHOFF_PERIODS = (4, 5, 6, 7)
KIRCHHOFF_TABLES = 4

# Check: the full shift over 3 letters up to bound 6, into 2 letters.
# Morphisms with no certificate, or with the thousands that a pair of
# commuting images produces, are redrawn: every op reports at least one
# certificate and output size stays comparable.  One shape only: a mix of
# shapes with different costs would put the median between two modes.
CHECK_LETTERS, CHECK_BOUND, CHECK_IMAGE_LENGTHS = 3, 6, (1, 2, 3)
CHECK_CERTIFICATES = (1, 500)
CHECK_CASES = 48


def alphabet(size: int, start: int = 0) -> tuple[str, ...]:
    return tuple(POOL[start : start + size])


def random_word(rng: random.Random, letters: int, length: int) -> tuple:
    return tuple(rng.randrange(letters) for _ in range(length))


def primitive_word(rng: random.Random, letters: int, length: int) -> tuple:
    """A random primitive word that uses every letter."""
    if length < letters:
        raise ValueError(f"a word of length {length} cannot use {letters} letters")
    while True:
        w = random_word(rng, letters, length)
        if len(set(w)) == letters and oracle._root(w) == w:
            return w


def characteristic(w: tuple, depth: int) -> tuple[dict, Fraction]:
    """Counting measure of the periodic orbit of w: (values, mass |w|)."""
    root = oracle._root(w)
    exponent = len(w) // len(root)
    stream = root * (-(-depth // len(root)) + 1)
    values: dict[tuple, Fraction] = {}
    for offset in range(len(root)):
        for length in range(1, depth + 1):
            v = stream[offset : offset + length]
            values[v] = values.get(v, Fraction(0)) + exponent
    return values, Fraction(len(w))


def orbit_table(rng: random.Random, letters: int, depth: int, periods) -> tuple[dict, Fraction]:
    """Positive rational combination of characteristic measures."""
    values: dict[tuple, Fraction] = {}
    mass = Fraction(0)
    for period in periods:
        coefficient = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        term, term_mass = characteristic(primitive_word(rng, letters, period), depth)
        mass += coefficient * term_mass
        for w, v in term.items():
            values[w] = values.get(w, Fraction(0)) + coefficient * v
    return values, mass


def random_images(rng: random.Random, codomain: int, lengths) -> tuple:
    lengths = list(lengths)
    rng.shuffle(lengths)
    return tuple(random_word(rng, codomain, n) for n in lengths)


def _spread(xs) -> dict:
    return {"min": min(xs), "median": statistics.median(xs), "max": max(xs)}


def _reference_transfer(images, dom, cod, in_depth, values, mass, depth):
    """Transfer by the decomposition route, checked by the oracle."""
    from shiftmeasure import Alphabet, MeasureTable, Morphism, Word, transfer_via_decomposition

    da, ca = Alphabet(dom), Alphabet(cod)
    sigma = Morphism(da, ca, tuple(Word(ca, img) for img in images))
    table = MeasureTable(da, in_depth, {Word(da, w): v for w, v in values.items()}, mass)
    out = transfer_via_decomposition(sigma, table, depth)
    out_values = {w.letters: v for w, v in out.values.items()}
    oracle.check_transfer_reference(images, len(cod), values, mass, depth,
                                    out_values, out.total_mass)
    return out_values, out.total_mass


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return path.as_posix()


def _consistent(letters: int, depth: int, values: dict, mass: Fraction) -> None:
    problems = oracle.kirchhoff_problems(letters, depth, values, mass)
    if problems:
        raise AssertionError("generated table is inconsistent: " + problems[0])


def transfer(rng: random.Random, out: Path):
    cases, sizes = [], {"in_support": [], "out_support": [], "domain_letters": [],
                        "codomain_letters": [], "required_input_depth": []}
    for i in range(TRANSFER_CASES):
        letters, lengths, periods, (lo, hi) = TRANSFER_SHAPES[i % len(TRANSFER_SHAPES)]
        while True:
            images = random_images(rng, letters, lengths)
            depth = oracle.required_depth(images, TRANSFER_DEPTH)
            values, mass = orbit_table(rng, letters, depth, periods)
            if lo <= len(oracle.support_candidates(images, values, TRANSFER_DEPTH)) <= hi:
                break
        dom, cod = alphabet(letters), alphabet(letters, 4)
        _consistent(letters, depth, values, mass)
        ref, ref_mass = _reference_transfer(images, dom, cod, depth, values, mass, TRANSFER_DEPTH)
        m = _write(out / f"t{i}.morphism", oracle.render_morphism(dom, cod, images))
        t = _write(out / f"t{i}.measure", oracle.render_table(dom, depth, values, mass))
        cases.append({
            "argv": ["transfer", m, t, "--depth", str(TRANSFER_DEPTH)],
            "stdout": oracle.render_table(cod, TRANSFER_DEPTH, ref, ref_mass),
            "code": 0,
        })
        sizes["in_support"].append(len(values))
        sizes["out_support"].append(len(ref))
        sizes["domain_letters"].append(letters)
        sizes["codomain_letters"].append(letters)
        sizes["required_input_depth"].append(depth)
    sizes = {k: _spread(v) for k, v in sizes.items()}
    sizes.update(cases=len(cases), out_depth=TRANSFER_DEPTH)
    return cases, sizes


def eval_(rng: random.Random, out: Path):
    cases_by_table, in_support, out_support, zero = [], [], [], 0
    dom, cod = alphabet(3), alphabet(3, 4)
    for i in range(EVAL_TABLES):
        images = random_images(rng, 3, (1, 2, 3))
        depth = oracle.required_depth(images, EVAL_DEPTH)
        values, mass = orbit_table(rng, 3, depth, EVAL_PERIODS)
        _consistent(3, depth, values, mass)
        ref, _ = _reference_transfer(images, dom, cod, depth, values, mass, EVAL_DEPTH)
        m = _write(out / f"e{i}.morphism", oracle.render_morphism(dom, cod, images))
        t = _write(out / f"e{i}.measure", oracle.render_table(dom, depth, values, mass))
        by_length: dict[int, list] = {}
        for w in sorted(ref):
            by_length.setdefault(len(w), []).append(w)
        cases = []
        for j in range(EVAL_TARGETS):
            if j % 5 == 4:
                target = random_word(rng, 3, rng.randint(2, EVAL_DEPTH))
                while target in ref:
                    target = random_word(rng, 3, rng.randint(2, EVAL_DEPTH))
                zero += 1
            else:
                target = rng.choice(by_length[rng.randint(2, EVAL_DEPTH)])
            cases.append({
                "argv": ["eval", m, t, "--word", oracle.word_text(cod, target)],
                "stdout": f"{ref.get(target, Fraction(0))}\n",
                "code": 0,
            })
        cases_by_table.append(cases)
        in_support.append(len(values))
        out_support.append(len(ref))
    cases = [c for group in zip(*cases_by_table) for c in group]
    sizes = {"cases": len(cases), "tables": EVAL_TABLES, "domain_letters": 3,
             "codomain_letters": 3, "table_depth": EVAL_DEPTH,
             "required_input_depth": EVAL_DEPTH, "in_support": _spread(in_support),
             "out_support": _spread(out_support), "zero_targets": zero}
    return cases, sizes


def kirchhoff(rng: random.Random, out: Path):
    pairs, in_support, violations = [], [], []
    for i in range(KIRCHHOFF_TABLES * len(KIRCHHOFF_SHAPES)):
        letters, depth = KIRCHHOFF_SHAPES[i % len(KIRCHHOFF_SHAPES)]
        tokens = alphabet(letters)
        values, mass = orbit_table(rng, letters, depth, KIRCHHOFF_PERIODS)
        _consistent(letters, depth, values, mass)
        word = rng.choice(sorted(values))
        delta = Fraction(rng.randint(1, 3), rng.randint(1, 3))
        raised = dict(values)
        raised[word] += delta
        lines = oracle.perturbed_violations(tokens, depth, values, mass, word, delta)
        path = _write(out / f"k{i}.measure", oracle.render_table(tokens, depth, values, mass))
        raised_path = _write(out / f"k{i}-raised.measure",
                             oracle.render_table(tokens, depth, raised, mass))
        pairs.append((
            {"argv": ["kirchhoff", path], "stdout": "", "code": 0},
            {"argv": ["kirchhoff", raised_path], "stdout": "".join(x + "\n" for x in lines),
             "code": 1},
        ))
        in_support.append(len(values))
        violations.append(len(lines))
    # Shapes cycle case by case; consistent and raised tables alternate by round.
    rounds = [(i // len(KIRCHHOFF_SHAPES)) % 2 for i in range(len(pairs))]
    cases = [p[r] for p, r in zip(pairs, rounds)] + [p[1 - r] for p, r in zip(pairs, rounds)]
    sizes = {"cases": len(cases), "shapes": [list(s) for s in KIRCHHOFF_SHAPES],
             "walked_words": {f"{k}^<{d}": sum(k**n for n in range(1, d))
                              for k, d in KIRCHHOFF_SHAPES},
             "in_support": _spread(in_support), "violations": _spread(violations)}
    return cases, sizes


def check(rng: random.Random, out: Path):
    cases, certificates = [], []
    dom, cod = alphabet(CHECK_LETTERS), alphabet(2, 4)
    lo, hi = CHECK_CERTIFICATES
    for i in range(CHECK_CASES):
        while True:
            images = random_images(rng, 2, CHECK_IMAGE_LENGTHS)
            period, groups = oracle.check_groups(images, CHECK_LETTERS, CHECK_BOUND)
            if lo <= len(period) + sum(len(g) * (len(g) - 1) // 2 for g in groups) <= hi:
                break
        pairs = oracle.orbit_pairs(groups)
        oracle.verify_certificates(images, period, pairs)
        m = _write(out / f"c{i}.morphism", oracle.render_morphism(dom, cod, images))
        cases.append({
            "argv": ["check", m, "--bound", str(CHECK_BOUND)],
            "stdout": oracle.render_check(dom, CHECK_BOUND, period, pairs),
            "code": 1,
        })
        certificates.append(len(period) + len(pairs))
    sizes = {"cases": len(cases), "domain_letters": CHECK_LETTERS, "codomain_letters": 2,
             "bound": CHECK_BOUND,
             "language_words": sum(CHECK_LETTERS**n for n in range(1, CHECK_BOUND + 1)),
             "lyndon_representatives": len(oracle.lyndon_words(CHECK_LETTERS, CHECK_BOUND)),
             "certificates": _spread(certificates)}
    return cases, sizes


WORKLOADS = {"transfer": transfer, "eval": eval_, "kirchhoff": kirchhoff, "check": check}


def prepare(workload: str, seed: int, out: Path):
    """Write the workload's input files under out; return (cases, sizes)."""
    out.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), out)
