"""Bounded injectivity checks: frozen certificates, an independent quadratic
oracle, invariance laws that justify per-class checking, and the
prolongation split."""

import itertools
import random
import sys
from collections import Counter

import pytest

import gen
from shiftmeasure import diagnostics
from shiftmeasure import (
    Alphabet,
    DepthError,
    FactorLanguage,
    Morphism,
    PreconditionError,
    Word,
    apply,
    check_period_preservation,
    check_periodic_orbit_injectivity,
    compose,
    factorial_closure,
    full_shift_language,
    is_proper_power,
    is_rotation,
    iter_words,
    min_rotation,
    periodic_orbit_language,
    primitive_root,
    prolongation_split,
    subdivision_morphism,
)

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
CD = Alphabet(("c", "d"))
DE = Alphabet(("d", "e"))

THUE_MORSE = Morphism.from_images(AB, CD, {"a": "cd", "b": "dc"})
COLLAPSE = Morphism.from_images(AB, ("c",), {"a": "c", "b": "c"})
SQUARING = Morphism.from_images(("a",), ("b",), {"a": "bb"})


def _random_letter_map(rng, domain, codomain):
    images = {t: rng.choice(codomain.symbols) for t in domain.symbols}
    return Morphism.from_images(domain, codomain, images)


# ---------------------------------------------------------------- frozen certificates

def test_orbit_collision_of_the_exchange_images():
    """cd and dc are rotations, so the two fixed letters collide already."""
    report = check_periodic_orbit_injectivity(THUE_MORSE, full_shift_language(AB, 1), 1)
    assert report.kind == "orbit-injectivity"
    assert report.bound == 1
    assert report.certificates == ((AB.word("a"), AB.word("b")),)
    assert bool(report)
    assert report.render() == "BOUND 1\nVIOLATION orbit-injectivity a b"


def test_collapse_certificates():
    language = full_shift_language(AB, 2)
    orbit = check_periodic_orbit_injectivity(COLLAPSE, language, 2)
    assert (AB.word("a"), AB.word("b")) in orbit.certificates
    period = check_period_preservation(COLLAPSE, language, 2)
    assert period.certificates == (AB.word("ab"),)
    assert period.lines() == ["VIOLATION period-preservation a b"]


def test_a_report_built_from_words_equals_the_checks_report():
    """The public constructor takes Word certificates, as the checks' reports
    give them back: the rebuilt report is equal, hashes the same and renders
    the same lines.  The checks keep an orbit report as collision groups and
    the constructor keeps each pair as a group of two; the collapse's one
    group holds every orbit, so its pairs' order is not forced by their first
    words alone."""
    language = full_shift_language(AB, 7)
    for sigma, lang, bound in [(COLLAPSE, None, 4), (THUE_MORSE, None, 4), (SQUARING, None, 4),
                               (COLLAPSE, None, 8), (THUE_MORSE, None, 6), (SQUARING, None, 6),
                               (COLLAPSE, language, 7), (THUE_MORSE, language, 5)]:
        for report in diagnostics._reports(sigma, lang, bound):
            rebuilt = diagnostics.ViolationReport(report.kind, report.bound, report.certificates)
            assert rebuilt == report and bool(rebuilt) == bool(report)
            assert hash(rebuilt) == hash(report) and repr(rebuilt) == repr(report)
            assert rebuilt.certificates == report.certificates
            assert rebuilt.lines() == report.lines() and rebuilt.render() == report.render()
    orbit = diagnostics._reports(COLLAPSE, None, 8)[1]
    assert len(orbit._groups) == 1 and len(orbit.lines()) == 71 * 70 // 2
    empty = diagnostics.ViolationReport("period-preservation", 3, ())
    assert not empty and empty.certificates == () and empty.render() == "BOUND 3"


def test_a_reports_certificates_are_its_words_not_its_input():
    """certificates is rebuilt from the kept words, whatever iterable held them:
    a generator is read once, a list item is a tuple, and a one-word period
    certificate is the word itself."""
    a, b, ab = AB.word("a"), AB.word("b"), AB.word("ab")
    orbit = diagnostics.ViolationReport("orbit-injectivity", 3, (pair for pair in [(a, b), (a, ab)]))
    assert orbit and len(orbit.lines()) == 2 and orbit.certificates == ((a, b), (a, ab))
    listed = diagnostics.ViolationReport("orbit-injectivity", 3, [[a, b]])
    assert listed.certificates == ((a, b),) and type(listed.certificates[0]) is tuple
    period = diagnostics.ViolationReport("period-preservation", 3, [(a,)])
    assert period.certificates == (a,)
    assert period == diagnostics.ViolationReport("period-preservation", 3, [a])


def test_a_report_refuses_certificates_over_two_alphabets():
    """Certificates are kept as letters over the first word's alphabet, so a
    word over another one, alone or in a pair, would be read with the wrong
    symbols and make the report equal to one it is not."""
    cd = Alphabet(("c", "d"))
    for kind, certificates, position, foreign in [
        ("period-preservation", (AB.word("a"), cd.word("d")), 1, "d"),
        ("period-preservation", (AB.word("a"), Alphabet(("b", "a")).word("b")), 1, "b"),
        ("orbit-injectivity", ((AB.word("a"), AB.word("b")), (AB.word("a"), cd.word("c"))), 1, "c"),
        ("orbit-injectivity", ((AB.word("ab"), cd.word("cd")),), 0, "c d"),
    ]:
        with pytest.raises(ValueError, match=f"^certificate {position} '{foreign}' is not over \\[a b\\]$"):
            diagnostics.ViolationReport(kind, 3, certificates)
    report = diagnostics.ViolationReport("period-preservation", 3, (AB.word("a"), AB.word("b")))
    assert report.lines() == ["VIOLATION period-preservation a", "VIOLATION period-preservation b"]


def test_a_report_refuses_an_empty_certificate():
    """A certificate is one word or a pair; one with no word has no alphabet
    to read and no line to print, and is refused by its count of words."""
    for kind, certificates, position in [
        ("orbit-injectivity", ((),), 0),
        ("orbit-injectivity", [[]], 0),
        ("period-preservation", (AB.word("a"), ()), 1),
        ("orbit-injectivity", ((AB.word("a"), AB.word("b")), (), ()), 1),
    ]:
        with pytest.raises(ValueError, match=f"^certificate {position} has 0 words: "):
            diagnostics.ViolationReport(kind, 3, certificates)


def test_a_report_refuses_an_unknown_kind():
    """A report prints its kind on every line, so a kind no check makes would
    print lines that read as another command's."""
    for kind in ("bogus", "period", ""):
        with pytest.raises(ValueError, match=f"^unknown kind {kind!r}: "):
            diagnostics.ViolationReport(kind, 3, ())


def test_a_report_refuses_a_certificate_of_the_wrong_shape():
    """A period certificate is one word and an orbit certificate two: a pair
    in a period report would print as the line of the two-letter word."""
    a, b, ab = AB.word("a"), AB.word("b"), AB.word("ab")
    for kind, certificates, position, count in [
        ("period-preservation", ((a, b),), 0, 2),
        ("period-preservation", (ab, (a, b, ab)), 1, 3),
        ("orbit-injectivity", (a,), 0, 1),
        ("orbit-injectivity", ((a, b), (b,)), 1, 1),
        ("orbit-injectivity", ((a, b), (a, b, ab)), 1, 3),
    ]:
        with pytest.raises(ValueError, match=f"^certificate {position} has {count} words: a {kind} "):
            diagnostics.ViolationReport(kind, 3, certificates)
    report = diagnostics.ViolationReport("period-preservation", 3, ((ab,),))
    assert report.lines() == ["VIOLATION period-preservation a b"]


def test_a_report_refuses_a_certificate_item_that_is_not_a_word():
    """A certificate holds Words: a str, an int or a pair that mixes a Word
    with a str has no alphabet to read, and is refused as a wrong type, by
    index and the item's type."""
    a = AB.word("a")
    for kind, certificates, position, item in [
        ("period-preservation", (("a",),), 0, "str"),
        ("period-preservation", (a, "b"), 1, "str"),
        ("orbit-injectivity", ((1, 2),), 0, "int"),
        ("orbit-injectivity", ((a, AB.word("b")), (a, "b")), 1, "str"),
        ("orbit-injectivity", (("a", a),), 0, "str"),
    ]:
        message = f"^certificate {position} must be a Word, not {item}$"
        with pytest.raises(TypeError, match=message):
            diagnostics.ViolationReport(kind, 3, certificates)


def test_square_image_breaks_period_preservation():
    a = Alphabet(("a",))
    report = check_period_preservation(SQUARING, full_shift_language(a, 1), 1)
    assert report.certificates == (a.word("a"),)


def test_identity_is_clean():
    language = full_shift_language(AB, 6)
    identity = Morphism.identity(AB)
    assert not check_period_preservation(identity, language, 6)
    assert not check_periodic_orbit_injectivity(identity, language, 6)
    assert check_period_preservation(identity, language, 6).render() == "BOUND 6"


def test_subdivision_morphisms_are_clean():
    """Subdivision images parse uniquely, so neither check can fire."""
    rng = random.Random(60)
    for _ in range(6):
        lengths = {t: rng.randint(1, 3) for t in AB.symbols}
        pi = subdivision_morphism(AB, lengths)
        language = full_shift_language(AB, 8)
        assert not check_period_preservation(pi, language, 8)
        assert not check_periodic_orbit_injectivity(pi, language, 8)
    for _ in range(4):
        lengths = {t: rng.randint(1, 3) for t in ABC.symbols}
        pi = subdivision_morphism(ABC, lengths)
        language = full_shift_language(ABC, 5)
        assert not check_period_preservation(pi, language, 5)
        assert not check_periodic_orbit_injectivity(pi, language, 5)


def test_representatives_need_not_lie_in_the_language():
    """The factors of b a hold b a but not its least rotation a b, which
    still represents the orbit of ...abab..."""
    language = factorial_closure(AB, [AB.word("ba")], 2)
    period = check_period_preservation(COLLAPSE, language, 2)
    assert period.certificates == (AB.word("ab"),)
    orbit = check_periodic_orbit_injectivity(COLLAPSE, language, 2)
    assert orbit.render() == (
        "BOUND 2\n"
        "VIOLATION orbit-injectivity a b\n"
        "VIOLATION orbit-injectivity a a b\n"
        "VIOLATION orbit-injectivity b a b"
    )


def test_default_full_shift_matches_the_materialised_one():
    rng = random.Random(67)
    for case in range(36):
        domain = AB if case % 2 else ABC
        sigma = gen.random_morphism(rng, domain, CD if case % 3 else ABC)
        bound = rng.randint(1, 6)
        language = full_shift_language(domain, bound)
        for check in (check_period_preservation, check_periodic_orbit_injectivity):
            assert check(sigma, None, bound) == check(sigma, language, bound)


def test_full_shift_budget(monkeypatch):
    # Lyndon words up to length 1..7 over two letters: 2, 3, 5, 8, 14, 23, 41.
    monkeypatch.setattr(diagnostics, "FULL_SHIFT_BUDGET", 23)
    assert check_periodic_orbit_injectivity(THUE_MORSE, None, 6).bound == 6
    with pytest.raises(PreconditionError, match="41 primitive orbits of period <= 7"):
        check_period_preservation(THUE_MORSE, None, 7)
    with pytest.raises(PreconditionError, match="41 primitive orbits of period <= 7"):
        check_period_preservation(THUE_MORSE, None, 10**9)
    # One letter has a single primitive orbit whatever the bound.
    assert check_period_preservation(SQUARING, None, 10**9).certificates == (
        Alphabet(("a",)).word("a"),
    )


def test_certificate_budget(monkeypatch):
    """The budget counts period certificates and pairs together, with and
    without a language: a report of exactly the budget passes."""
    thin = factorial_closure(AB, [AB.word("aabb"), AB.word("abab")], 4)
    for language in (None, full_shift_language(AB, 4), thin):
        period = check_period_preservation(COLLAPSE, language, 4)
        orbit = check_periodic_orbit_injectivity(COLLAPSE, language, 4)
        total = len(period.certificates) + len(orbit.certificates)
        assert total == (34 if language is not thin else 19)
        monkeypatch.setattr(diagnostics, "CERTIFICATE_BUDGET", total)
        assert check_period_preservation(COLLAPSE, language, 4) == period
        assert check_periodic_orbit_injectivity(COLLAPSE, language, 4) == orbit
        monkeypatch.setattr(diagnostics, "CERTIFICATE_BUDGET", total - 1)
        message = f"period <= 4 give at least {total} certificates, more than {total - 1}"
        for check in (check_period_preservation, check_periodic_orbit_injectivity):
            with pytest.raises(PreconditionError, match=message):
                check(COLLAPSE, language, 4)
        monkeypatch.undo()


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() has no digit limit"
)
def test_a_bound_past_the_int_digit_limit_is_shown_by_its_digits_in_the_full_shift_budget(monkeypatch):
    monkeypatch.setattr(diagnostics, "FULL_SHIFT_BUDGET", 23)
    with pytest.raises(PreconditionError, match="^bound <5001-digit number> is over the work budget: the full "
                                         "shift over 2 letters has 41 primitive orbits of period <= 7, more than 23$"):
        check_period_preservation(COLLAPSE, None, 10**5000)


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="int() has no digit limit"
)
def test_a_bound_past_the_int_digit_limit_is_shown_by_its_digits_in_the_certificate_budget(monkeypatch):
    language = FactorLanguage(AB, 10**5000, full_shift_language(AB, 4).words)
    monkeypatch.setattr(diagnostics, "CERTIFICATE_BUDGET", 33)
    with pytest.raises(PreconditionError, match="^bound <5001-digit number> is over the certificate budget: the "
                                         "primitive orbits of period <= 4 give at least 34 certificates, more than 33$"):
        check_periodic_orbit_injectivity(COLLAPSE, language, 10**5000)


def test_bound_validation():
    language = full_shift_language(AB, 3)
    with pytest.raises(ValueError):
        check_period_preservation(THUE_MORSE, language, 0)
    with pytest.raises(ValueError):
        check_periodic_orbit_injectivity(THUE_MORSE, None, 0)
    with pytest.raises(ValueError):
        check_periodic_orbit_injectivity(THUE_MORSE, language, 4)
    with pytest.raises(ValueError):
        check_period_preservation(THUE_MORSE, full_shift_language(CD, 3), 2)


# ---------------------------------------------------------------- certificates re-verify

def test_certificates_satisfy_the_defining_conditions():
    rng = random.Random(61)
    for _ in range(25):
        sigma = gen.random_morphism(rng, AB, CD)
        language = full_shift_language(AB, 5)
        period = check_period_preservation(sigma, language, 5)
        for cert in period.certificates:
            assert cert in language
            assert not is_proper_power(cert)
            assert is_proper_power(apply(sigma, cert))
        orbit = check_periodic_orbit_injectivity(sigma, language, 5)
        for left, right in orbit.certificates:
            assert left in language and right in language
            assert not is_proper_power(left) and not is_proper_power(right)
            assert not (len(left) == len(right) and is_rotation(left, right))
            assert is_rotation(
                primitive_root(apply(sigma, left))[0], primitive_root(apply(sigma, right))[0]
            )


def _orbit_pairs_oracle(sigma, words):
    """Quadratic scan over rotation-class representatives of the primitive
    words given; the pairs are sorted by (left, right) in canonical order."""
    seen = set()
    reps = []
    for w in words:
        if is_proper_power(w):
            continue
        canon = min_rotation(w)
        if canon not in seen:
            seen.add(canon)
            reps.append(canon)
    pairs = set()
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            left_root = primitive_root(apply(sigma, reps[i]))[0]
            right_root = primitive_root(apply(sigma, reps[j]))[0]
            if len(left_root) == len(right_root) and is_rotation(left_root, right_root):
                pairs.add(tuple(sorted((reps[i], reps[j]), key=lambda w: w.sort_key())))
    return sorted(pairs, key=lambda pair: (pair[0].sort_key(), pair[1].sort_key()))


def test_orbit_report_matches_quadratic_oracle():
    """Whole certificate tuples, so the order too, on the full shift (given
    and default) and on thin languages; many draws have collision groups of
    three or more orbits, where the order of the pairs is not forced."""
    rng = random.Random(62)
    large_groups = {"full": 0, "thin": 0}
    for case in range(36):
        domain, bound = (AB, 4) if case % 3 else (ABC, 3)
        sigma = gen.random_morphism(rng, domain, CD)
        full = full_shift_language(domain, bound)
        thin = factorial_closure(
            domain, [gen.random_nonempty_word(rng, domain, bound) for _ in range(3)], bound
        )
        for name, language in (("full", full), ("thin", thin)):
            expected = tuple(_orbit_pairs_oracle(sigma, language.words))
            report = check_periodic_orbit_injectivity(sigma, language, bound)
            assert report.certificates == expected
            if name == "full":
                assert check_periodic_orbit_injectivity(sigma, None, bound).certificates == expected
            lefts = [left for left, _ in expected]
            large_groups[name] += any(lefts.count(left) >= 2 for left in lefts)
    assert large_groups["full"] >= 10 and large_groups["thin"] >= 5, large_groups


# ---------------------------------------------------------------- invariance laws

def test_checked_predicates_are_rotation_invariant():
    """Justifies inspecting a single representative per rotation class."""
    rng = random.Random(63)
    for _ in range(10):
        sigma = gen.random_morphism(rng, AB, CD)
        for k in range(1, 6):
            for w in iter_words(AB, k):
                rep = min_rotation(w)
                assert is_proper_power(apply(sigma, w)) == is_proper_power(apply(sigma, rep))
                assert min_rotation(primitive_root(apply(sigma, w))[0]) == min_rotation(
                    primitive_root(apply(sigma, rep))[0]
                )


def test_image_primitivity_composes():
    """The image under a composite is a proper power exactly when the inner
    image is, or the outer image of its primitive root is."""
    rng = random.Random(64)
    for _ in range(12):
        inner = gen.random_morphism(rng, AB, ABC)
        outer = gen.random_morphism(rng, ABC, CD)
        whole = compose(outer, inner)
        for k in range(1, 5):
            for w in iter_words(AB, k):
                mid = apply(inner, w)
                expected = is_proper_power(mid) or is_proper_power(
                    apply(outer, primitive_root(mid)[0])
                )
                assert is_proper_power(apply(whole, w)) == expected


# ---------------------------------------------------------------- prolongation split

def test_prolongation_split_collapse_frozen():
    language = full_shift_language(AB, 3)
    prolongations, unambiguous, ambiguous = prolongation_split(COLLAPSE, language, AB.word("a"), 1)
    expected = {AB.word(t) for t in ("aaa", "aab", "baa", "bab")}
    assert prolongations == expected
    assert unambiguous == set()
    assert ambiguous == expected


def test_prolongation_split_identity_is_all_unambiguous():
    language = full_shift_language(AB, 3)
    identity = Morphism.identity(AB)
    prolongations, unambiguous, ambiguous = prolongation_split(identity, language, AB.word("b"), 1)
    assert unambiguous == prolongations
    assert ambiguous == set()
    assert len(prolongations) == 4


def test_prolongation_split_mixed_frozen():
    """A language where one prolongation of the middle letter is shadowed by
    a same-image word and another is not."""
    sigma = Morphism.from_images(ABC, DE, {"a": "d", "b": "d", "c": "e"})
    language = factorial_closure(ABC, [ABC.word("cac"), ABC.word("cbc"), ABC.word("aaa")], 3)
    prolongations, unambiguous, ambiguous = prolongation_split(sigma, language, ABC.word("a"), 1)
    assert prolongations == {ABC.word("cac"), ABC.word("aaa")}
    assert unambiguous == {ABC.word("aaa")}
    assert ambiguous == {ABC.word("cac")}


def test_prolongation_split_partition_and_membership():
    rng = random.Random(65)
    for _ in range(20):
        sigma = _random_letter_map(rng, ABC, DE)
        words = [gen.random_nonempty_word(rng, ABC, 4) for _ in range(3)]
        language = factorial_closure(ABC, words, 4)
        w = min(words, key=len)
        n = (4 - len(w)) // 2
        prolongations, unambiguous, ambiguous = prolongation_split(sigma, language, w, n)
        assert unambiguous | ambiguous == prolongations
        assert not (unambiguous & ambiguous)
        for x in prolongations:
            assert x in language
            assert len(x) == len(w) + 2 * n
            assert x.letters[n : n + len(w)] == w.letters


def test_prolongation_split_matches_direct_scan():
    rng = random.Random(66)
    for _ in range(15):
        sigma = _random_letter_map(rng, AB, DE)
        language = full_shift_language(AB, 4)
        w = gen.random_nonempty_word(rng, AB, 2)
        n = 1
        prolongations, _, _ = prolongation_split(sigma, language, w, n)
        expected = set()
        for x in language.of_length(len(w) + 2 * n):
            if tuple(str(x).split()[n : n + len(w)]) == w.tokens:
                expected.add(x)
        assert prolongations == expected


def _prolongation_split_oracle(sigma, language, w, n):
    """The split by enumeration in the free monoid: every preimage tuple of a
    prolongation's image is built as a word and looked up in the language."""
    middle = w.letters
    total_len = len(w) + 2 * n
    prolongations = {
        x
        for x in language.words
        if len(x) == total_len and x.letters[n : n + len(w)] == middle
    }
    preimages = {}
    for i, img in enumerate(sigma.images):
        preimages.setdefault(img.letters[0], []).append(i)
    unambiguous, ambiguous = set(), set()
    for x in prolongations:
        options = [preimages.get(b, []) for b in apply(sigma, x).letters]
        clean = True
        for combo in itertools.product(*options):
            if combo[n : n + len(w)] != middle and Word(sigma.domain, combo) in language:
                clean = False
                break
        (unambiguous if clean else ambiguous).add(x)
    return prolongations, unambiguous, ambiguous


def test_prolongation_split_matches_preimage_enumeration():
    """Seeded cases over 1-4 domain and 1-3 codomain letters, on full shifts
    and on thin languages that hold same-image twins, at every allowed n."""
    rng = random.Random(67)
    cases = Counter()
    while sum(cases.values()) < 3000:
        domain, codomain = gen.alphabet(rng.randint(1, 4)), gen.alphabet(rng.randint(1, 3), start=4)
        sigma = _random_letter_map(rng, domain, codomain)
        maxlen = rng.randint(1, 5 if len(domain) < 4 else 4)
        full = rng.random() < 0.4
        if full:
            language = full_shift_language(domain, maxlen)
        else:
            seeds = [gen.random_word(rng, domain, maxlen) for _ in range(rng.randint(1, 6))]
            for seed in seeds[: rng.randint(0, len(seeds))]:
                i = rng.randrange(maxlen)
                twins = [j for j, img in enumerate(sigma.images) if img == sigma.images[seed.letters[i]]]
                seeds.append(Word(domain, seed.letters[:i] + (rng.choice(twins),) + seed.letters[i + 1 :]))
            language = factorial_closure(domain, seeds, maxlen)
        words = sorted(language.words, key=Word.sort_key)
        w = rng.choice([x for x in words if len(x) <= maxlen - 2] or words)
        for n in range((maxlen - len(w)) // 2 + 1):
            got = prolongation_split(sigma, language, w, n)
            assert got == _prolongation_split_oracle(sigma, language, w, n)
            cases[full, min(n, 2), bool(got[1]), bool(got[2])] += 1
    for full in (False, True):
        assert sum(c for (f, n, _, _), c in cases.items() if f == full and n == 2) >= 10
        for split in ((True, False), (False, True)):
            assert sum(c for (f, _, *s), c in cases.items() if f == full and tuple(s) == split) >= 300
    assert sum(c for (_, _, u, a), c in cases.items() if u and a) >= 10
    # The collapse of four letters onto one over the orbit of a: a^9 has 4^9
    # preimage tuples, one of them in the language.
    collapse = Morphism.from_images("abcd", "c", {t: "c" for t in "abcd"})
    language = periodic_orbit_language(collapse.domain.word("a"), 9)
    nine = collapse.domain.word("a" * 9)
    expected = ({nine}, {nine}, set())
    assert prolongation_split(collapse, language, nine, 0) == expected
    assert _prolongation_split_oracle(collapse, language, nine, 0) == expected


def test_prolongation_split_errors():
    language = full_shift_language(AB, 3)
    with pytest.raises(ValueError):
        prolongation_split(THUE_MORSE, full_shift_language(AB, 3), AB.word("a"), 1)
    with pytest.raises(DepthError) as err:
        prolongation_split(COLLAPSE, language, AB.word("ab"), 1)
    assert err.value.required == 4
    with pytest.raises(ValueError):
        prolongation_split(COLLAPSE, language, AB.word("a"), -1)
    thin = factorial_closure(AB, [AB.word("aaa")], 3)
    with pytest.raises(ValueError):
        prolongation_split(COLLAPSE, thin, AB.word("b"), 1)
    with pytest.raises(ValueError, match=r"^language over \[b a\] is not over \[a b\]$"):
        prolongation_split(COLLAPSE, full_shift_language(Alphabet(("b", "a")), 3), AB.word("a"), 1)
