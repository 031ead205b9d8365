"""Int-numerator sums against the Fraction sums they replace.

validate and transfer_table sum a whole support as int numerators over the
lcm of its denominators (measure._scaled), or as the Fractions themselves when
that lcm is over the cap.  transfer_eval adds its few terms as Fractions, on
both of its paths.  The oracles below are their bodies as they were on
Fraction (for transfer_eval, the sweep it replaced); both must give the same
violations, tables and values, field by field, with Fraction values."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import gen
from shiftmeasure import (
    Alphabet,
    MeasureTable,
    Morphism,
    Violation,
    Word,
    characteristic_measure,
    linear_combination,
    required_input_depth,
    transfer_eval,
    transfer_table,
    transfer_via_decomposition,
    validate,
)
from shiftmeasure import measure, morphism, transfer
from shiftmeasure.measure import _SCALE_CAP, _scaled
from shiftmeasure.morphism import _essential_sweep
from shiftmeasure.transfer import _transferred_mass

# Two Mersenne primes: their product is over the cap, each alone is not.
P31, P61 = 2**31 - 1, 2**61 - 1


def _validate_on_fractions(m):
    """validate before the int sums: the same walk over the Fraction weights."""
    zero = Fraction(0)
    left_sums, right_sums = {}, {}
    level = [zero] * (m.depth + 1)
    for u, v in m._weights.items():
        level[len(u)] += v
        if len(u) >= 2:
            left_sums[u[1:]] = left_sums.get(u[1:], zero) + v
            right_sums[u[:-1]] = right_sums.get(u[:-1], zero) + v
    candidates = {u for u in m._weights if len(u) < m.depth}
    candidates.update(left_sums, right_sums)
    out = []
    for u in sorted(candidates, key=lambda u: (len(u), u)):
        expected = m._weights.get(u, zero)
        for kind, actual in (("left-extension", left_sums.get(u, zero)),
                             ("right-extension", right_sums.get(u, zero))):
            if actual != expected:
                out.append(Violation(kind, Word(m.alphabet, u), None, expected, actual))
    for length in range(1, m.depth + 1):
        if level[length] != m.total_mass:
            out.append(Violation("level-sum", None, length, m.total_mass, level[length]))
    return out


def _transfer_table_on_fractions(sigma, m, out_depth):
    required = required_input_depth(sigma, out_depth)
    support = ((u, mu) for u, mu in m._weights.items() if len(u) <= required)
    swept = _essential_sweep(sigma, support, out_depth)
    return MeasureTable._trusted(sigma.codomain, out_depth, swept, _transferred_mass(sigma, m))


def _transfer_eval_on_fractions(sigma, m, target):
    required = required_input_depth(sigma, len(target))
    support = ((u, mu) for u, mu in m._weights.items() if len(u) <= required)
    swept = _essential_sweep(sigma, support, len(target))
    return Fraction(swept.get(target.letters, 0))


def _fields(violations):
    return [(v.kind, v.word, v.level, v.expected, v.actual) for v in violations]


def _assert_same_violations(m):
    got, expected = validate(m), _validate_on_fractions(m)
    assert _fields(got) == _fields(expected)
    assert all(type(v.expected) is type(v.actual) is Fraction for v in got)
    return got


def _assert_same_transfer(sigma, m, out_depth):
    got = transfer_table(sigma, m, out_depth)
    assert got == _transfer_table_on_fractions(sigma, m, out_depth)
    assert got.total_mass == _transferred_mass(sigma, m)  # on the ints, or over the cap
    assert all(type(v) is Fraction for v in got._weights.values())
    assert type(got.total_mass) is Fraction
    return got


def _prime_table(alph, depth, count, numerator=1):
    """The first count words in canonical order, the i-th weighing
    numerator / (i-th prime): an lcm far over the cap, and inconsistent."""
    primes, n = [], 2
    while len(primes) < count:
        if all(n % p for p in primes if p * p <= n):
            primes.append(n)
        n += 1
    words = (w for k in range(1, depth + 1) for w in itertools.product(range(len(alph)), repeat=k))
    values = {Word(alph, w): Fraction(numerator, p) for w, p in zip(words, primes)}
    return MeasureTable(alph, depth, values, 1)


def _raised(rng, m):
    """m with one weight raised, on a support word or on a new word."""
    values = dict(m.values)
    target = gen.random_nonempty_word(rng, m.alphabet, m.depth)
    raise_by = Fraction(rng.randint(1, 3), rng.randint(1, 7))
    values[target] = values.get(target, Fraction(0)) + raise_by
    return MeasureTable(m.alphabet, m.depth, values, m.total_mass)


def _seeded_tables(rng, alph, depth):
    """A consistent table and a copy with one raised weight for each kind of
    arithmetic: small denominators, huge numerators, and an lcm over the cap."""
    small = gen.random_orbit_table(rng, alph, depth, terms=rng.randint(1, 3))
    orbit = characteristic_measure(gen.random_nonempty_word(rng, alph, 4), depth)
    huge = linear_combination([
        (Fraction(10**40 + rng.randint(0, 10**6), rng.randint(1, 9)), small),
        (rng.randint(1, 10**30), orbit),
    ])
    over_cap = linear_combination([(Fraction(1, P31), small),
                                   (Fraction(rng.randint(1, 5), P61), orbit)])
    for m in (small, huge, over_cap):
        yield m
        yield _raised(rng, m)


def test_scaled_numerators_and_the_fallback():
    assert _scaled({}) == (1, {})
    weights = {(0,): Fraction(1, 6), (1,): Fraction(3, 4), (0, 1): Fraction(5)}
    assert _scaled(weights) == (12, {(0,): 2, (1,): 9, (0, 1): 60})
    assert all(type(n) is int for n in _scaled(weights)[1].values())
    over = {(0,): Fraction(1, P31), (1,): Fraction(1, P61)}
    assert P31 * P61 > _SCALE_CAP
    den, numerators = _scaled(over)
    assert den == 1 and numerators is over
    assert _scaled({(0,): Fraction(1, P61)}) == (P61, {(0,): 1})


def test_validate_matches_the_fraction_sums():
    rng = random.Random(81)
    scaled = fallback = broken = 0
    for _ in range(60):
        alph = gen.alphabet(rng.randint(1, 3))
        for m in _seeded_tables(rng, alph, rng.randint(1, 5)):
            if _scaled(m._weights)[1] is m._weights:
                fallback += 1
            else:
                scaled += 1
            broken += bool(_assert_same_violations(m))
    assert _assert_same_violations(MeasureTable(gen.alphabet(2), 3, {}, 0)) == []
    assert len(_assert_same_violations(MeasureTable(gen.alphabet(2), 3, {}, Fraction(5, 3)))) == 3
    assert scaled >= 200 and fallback >= 100 and broken >= 150


def test_validate_does_no_work_sized_by_the_declared_depth():
    ab = gen.alphabet(2)
    assert validate(MeasureTable(ab, 10**12, {}, 0)) == []
    lone = validate(MeasureTable(ab, 10**12, {ab.word("a"): Fraction(1, 2)}, 0))
    assert _fields(lone) == [
        ("left-extension", ab.word("a"), None, Fraction(1, 2), 0),
        ("right-extension", ab.word("a"), None, Fraction(1, 2), 0),
        ("level-sum", None, 1, 0, Fraction(1, 2)),
    ]
    values = {ab.word("a"): Fraction(1, 2), ab.word("b"): Fraction(1, 2), ab.word("ab"): Fraction(1, 2)}
    deep = MeasureTable(ab, 10**4, values, 1)
    got = _assert_same_violations(deep)
    assert [v.level for v in got if v.kind == "level-sum"] == list(range(2, 10**4 + 1))
    assert len(_assert_same_violations(MeasureTable(ab, 10**4, {}, 1))) == 10**4


def test_transfer_matches_the_fraction_sums():
    rng = random.Random(82)
    scaled = fallback = evaluated = 0
    for _ in range(25):
        domain, codomain = gen.alphabet(rng.randint(2, 3)), gen.alphabet(rng.randint(2, 3), 2)
        sigma = gen.random_morphism(rng, domain, codomain)
        out_depth = rng.randint(1, 6)
        depth = required_input_depth(sigma, out_depth)
        tables = list(_seeded_tables(rng, sigma.domain, depth))
        tables.append(MeasureTable(sigma.domain, depth, {}, 0))
        for m in tables:
            if _scaled(m._weights)[1] is m._weights:
                fallback += 1
            else:
                scaled += 1
            out = _assert_same_transfer(sigma, m, out_depth)
            targets = list(out.values)[:8]
            for target in targets + [gen.random_nonempty_word(rng, sigma.codomain, out_depth)]:
                value = transfer_eval(sigma, m, target)
                assert value == _transfer_eval_on_fractions(sigma, m, target)
                assert type(value) is Fraction
                evaluated += 1
    assert scaled >= 100 and fallback >= 50 and evaluated >= 500


def test_transfer_scales_only_the_words_it_sweeps(monkeypatch):
    """Deep weights over distinct primes put the whole table over the cap, but
    the sweep reads only words up to the required depth: those are scaled,
    and the sums run on ints.  transfer_eval, which scales nothing, gives the
    oracle's Fraction on the same table."""
    alph = Alphabet(("a", "b"))
    sigma = Morphism.from_images(alph, Alphabet(("c", "d")), {"a": "cd", "b": "dc"})
    shallow = characteristic_measure(alph.word("aab"), 5)
    deep = _prime_table(alph, 5, 62)
    values = {w: v for w, v in deep.values.items() if len(w) > 3}
    values.update({w: v for w, v in shallow.values.items() if len(w) <= 3})
    m = MeasureTable(alph, 5, values, shallow.total_mass)
    assert _scaled(m._weights)[1] is m._weights and required_input_depth(sigma, 4) == 3
    on_ints = []

    def recording(weights):
        assert all(len(u) <= 3 for u in weights)
        den, numerators = _scaled(weights)
        on_ints.append(numerators is not weights)
        return den, numerators

    monkeypatch.setattr(transfer, "_scaled", recording)
    assert _assert_same_transfer(sigma, m, 4) == transfer_table(sigma, shallow, 4)
    assert on_ints == [True, True]
    monkeypatch.undo()
    target = sigma.codomain.word("cddc")
    value = transfer_eval(sigma, m, target)
    assert value == _transfer_eval_on_fractions(sigma, m, target) and value
    assert type(value) is Fraction


def test_the_decomposition_route_still_equals_the_direct_route_over_the_cap():
    rng = random.Random(83)
    for _ in range(10):
        sigma = gen.random_morphism(rng, gen.alphabet(2), gen.alphabet(2, 2))
        out_depth = rng.randint(1, 5)
        m = list(_seeded_tables(rng, sigma.domain, required_input_depth(sigma, out_depth)))[4]
        assert _scaled(m._weights)[1] is m._weights
        assert transfer_table(sigma, m, out_depth) == transfer_via_decomposition(sigma, m, out_depth)


def test_a_thousand_distinct_prime_denominators_take_the_fallback():
    """Cost guard: 1,092 weights over as many primes (3 letters, depth 6) run
    on the Fractions and give the oracles' results."""
    alph = Alphabet(("a", "b", "c"))
    m = _prime_table(alph, 6, 1092)
    assert len(m._weights) == 1092
    assert _scaled(m._weights)[1] is m._weights
    assert len(_assert_same_violations(m)) > 700
    sigma = Morphism.from_images(alph, Alphabet(("d", "e")), {"a": "de", "b": "ed", "c": "dd"})
    assert required_input_depth(sigma, 10) == m.depth
    assert len(_assert_same_transfer(sigma, m, 10)._weights) > 900


def test_the_fallback_does_not_rewrap_its_fractions(monkeypatch):
    """Over the cap the sums are already Fractions: no Fraction is built from
    one, for any violation or any transferred entry."""
    alph = Alphabet(("a", "b"))
    m = _prime_table(alph, 5, 62, numerator=3)
    sigma = Morphism.from_images(alph, Alphabet(("c", "d")), {"a": "cd", "b": "dc"})
    rebuilt = []

    def counting(*args):
        rebuilt.extend(a for a in args if isinstance(a, Fraction))
        return Fraction(*args)

    for module in (measure, transfer):
        monkeypatch.setattr(module, "Fraction", counting)
    violations = validate(m)
    out = transfer_table(sigma, m, 6)
    monkeypatch.undo()
    assert rebuilt == []
    assert len(violations) > 50 and len(out._weights) > 50
    assert _fields(violations) == _fields(_validate_on_fractions(m))
    assert out == _transfer_table_on_fractions(sigma, m, 6)


def test_the_fallback_validate_adds_no_fraction_to_an_int(monkeypatch):
    """Its sums start from Fraction(0), as validate did before the int sums:
    0 + Fraction goes through Fraction.__radd__ and an ABC check each time."""
    m = _prime_table(Alphabet(("a", "b")), 5, 62)
    reverse = []
    radd = Fraction.__radd__

    def counting(self, other):
        reverse.append(other)
        return radd(self, other)

    monkeypatch.setattr(Fraction, "__radd__", counting)
    validate(m)
    monkeypatch.undo()
    assert reverse == []


def test_eval_matches_the_fraction_sums_on_every_kind_of_target(monkeypatch):
    """transfer_eval, on its list of parses and on its pruned scan of the
    support past the parse budget, against the sweep it replaced, with targets
    of length 1, of weight zero and longer than any image, tables deeper than
    the required depth, and nonzero values read from weights whose lcm is over
    the cap."""
    paths = Counter()
    real = transfer._parses

    def counting(*args):
        parses = real(*args)
        paths["scan" if parses is None else "parses"] += 1
        return parses

    monkeypatch.setattr(transfer, "_parses", counting)
    rng = random.Random(84)
    seen = Counter()
    for _ in range(40):
        domain, codomain = gen.alphabet(rng.randint(1, 3)), gen.alphabet(rng.randint(1, 3), 3)
        sigma = gen.random_morphism(rng, domain, codomain)
        longest = max(len(img) for img in sigma.images)
        length = rng.choice([1, 2, longest + 1, longest + 3])
        required = required_input_depth(sigma, length)
        for m in _seeded_tables(rng, domain, required + rng.randint(0, 2)):
            deep = any(len(u) > required for u in m._weights)
            readable = {u: v for u, v in m._weights.items() if len(u) <= required}
            over_cap = _scaled(readable)[1] is readable
            for target in [gen.random_word(rng, codomain, length) for _ in range(6)]:
                value = transfer_eval(sigma, m, target)
                assert value == _transfer_eval_on_fractions(sigma, m, target)
                assert type(value) is Fraction
                seen["zero" if value == 0 else "nonzero"] += 1
                seen["length 1"] += length == 1
                seen["longer than any image"] += length > longest
                seen["deep support"] += deep
                seen["nonzero over the cap"] += bool(value) and over_cap
    assert min(seen.values()) >= 100, seen
    # Two cases where no last block narrows the search: a collapse gives every
    # letter one image, and a one-letter target has no proper suffix to end on.
    collapse = Morphism.from_images(gen.alphabet(2), ("c",), {"a": "c", "b": "c"})
    cases = [(collapse, [Word(collapse.codomain, (0,) * k) for k in range(1, 6)])]
    for _ in range(20):
        sigma = gen.random_morphism(rng, gen.alphabet(3), gen.alphabet(rng.randint(1, 3), 3))
        cases.append((sigma, [Word(sigma.codomain, (x,)) for x in range(len(sigma.codomain))]))
    nonzero = Counter()
    for sigma, targets in cases:
        depth = required_input_depth(sigma, max(len(t) for t in targets)) + 1
        for m in _seeded_tables(rng, sigma.domain, depth):
            for target in targets:
                value = transfer_eval(sigma, m, target)
                assert value == _transfer_eval_on_fractions(sigma, m, target)
                nonzero[sigma is collapse] += value != 0
    assert nonzero[True] >= 20 and nonzero[False] >= 100, nonzero
    assert paths["parses"] >= 1500 and paths["scan"] >= 50, paths


def test_eval_images_only_the_words_whose_first_block_can_start_the_target(monkeypatch):
    """The scan past the parse budget, forced by withholding the parses, is no
    sweep: each support word whose middle image leaves room for the
    target (|sigma(u_2 ... u_{n-1})| <= |target| - 2, or |u| = 1), whose
    first block agrees with the target on their overlap and, for |u| >= 2,
    whose last block starts with a proper suffix of the target is imaged
    once, and no other."""
    rng = random.Random(85)
    cases = []
    for _ in range(60):
        sigma = gen.random_morphism(rng, gen.alphabet(3), gen.alphabet(2, 3))
        target = gen.random_nonempty_word(rng, sigma.codomain, 5)
        m = gen.random_orbit_table(rng, sigma.domain, required_input_depth(sigma, len(target)) + 1)
        cases.append((sigma, m, target, _transfer_eval_on_fractions(sigma, m, target)))

    def forbidden(*args):
        raise AssertionError("transfer_eval swept the support")

    imaged = []
    real = morphism._image_letters

    def recording(images, letters):
        imaged.append(letters)
        return real(images, letters)

    monkeypatch.setattr(transfer, "_essential_sweep", forbidden)
    monkeypatch.setattr(transfer, "_parses", lambda *args: None)
    monkeypatch.setattr(morphism, "_image_letters", recording)
    pruned = roomless = endless = 0
    for sigma, m, target, expected in cases:
        imaged.clear()
        assert transfer_eval(sigma, m, target) == expected
        t = target.letters

        def can_start(img):
            return any(all(img[s + i] == t[i] for i in range(min(len(t), len(img) - s)))
                       for s in range(len(img)))

        def can_end(img):  # t = x y with x and y non-empty and y a prefix of img
            return any(t[i:] == img[: len(t) - i] for i in range(max(1, len(t) - len(img)), len(t)))

        def has_room(u):
            return len(u) == 1 or sum(len(sigma.images[x]) for x in u[1:-1]) <= len(t) - 2

        def fits(u):
            return has_room(u) and can_start(sigma.images[u[0]].letters)

        required = required_input_depth(sigma, len(t))
        wanted = [u for u in m._weights if fits(u) and (len(u) == 1 or can_end(sigma.images[u[-1]].letters))]
        assert sorted(imaged) == sorted(wanted)
        assert all(len(u) <= required for u in wanted)
        pruned += sum(1 for u in m._weights if len(u) <= required) - len(wanted)
        roomless += sum(1 for u in m._weights if len(u) <= required and not has_room(u))
        endless += sum(1 for u in m._weights if fits(u)) - len(wanted)
    assert pruned >= 150 and roomless >= 50 and endless >= 50, (pruned, roomless, endless)
