"""Deterministic random generators shared across the test suite.

Kirchhoff-consistent tables are built as positive rational combinations of
characteristic measures of periodic orbits; such combinations satisfy every
consistency constraint by construction.
"""

from fractions import Fraction

from shiftmeasure import (
    Alphabet,
    MeasureTable,
    Morphism,
    Word,
    characteristic_measure,
    linear_combination,
)

POOL = "abcdefgh"


def alphabet(size: int, start: int = 0) -> Alphabet:
    return Alphabet(tuple(POOL[start : start + size]))


def random_word(rng, alph: Alphabet, length: int) -> Word:
    return Word(alph, tuple(rng.randrange(len(alph)) for _ in range(length)))


def random_nonempty_word(rng, alph: Alphabet, max_len: int) -> Word:
    return random_word(rng, alph, rng.randint(1, max_len))


def random_morphism(rng, domain: Alphabet, codomain: Alphabet, max_image_len: int = 3) -> Morphism:
    images = tuple(
        random_word(rng, codomain, rng.randint(1, max_image_len)) for _ in domain.symbols
    )
    return Morphism(domain, codomain, images)


def random_orbit_table(rng, alph: Alphabet, depth: int, max_period: int = 4,
                       terms: int = 2, convex: bool = False):
    """Positive combination of characteristic measures of random words."""
    pairs = []
    for _ in range(terms):
        w = random_nonempty_word(rng, alph, max_period)
        coefficient = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        pairs.append((coefficient, characteristic_measure(w, depth)))
    if convex:
        total = sum(c for c, _ in pairs)
        pairs = [(c / total, table) for c, table in pairs]
    return linear_combination(pairs)


def perturbed_table(rng, alph: Alphabet, depth: int) -> MeasureTable:
    """An orbit table with zero to three random breaks: a weight raised on a
    word outside the support, a support weight lowered to 0, a weight raised
    inside the support, or a shifted total mass.  One table in ten has an
    empty support instead, with mass 0 or a positive mass."""
    if rng.random() < 0.1:
        return MeasureTable(alph, depth, {}, rng.choice([Fraction(0), Fraction(rng.randint(1, 3))]))
    m = random_orbit_table(rng, alph, depth, max_period=5, terms=rng.randint(1, 3))
    values, mass = dict(m.values), m.total_mass
    for _ in range(rng.randint(0, 3)):
        kind = rng.randrange(4)
        if kind == 0:
            outside = random_nonempty_word(rng, alph, depth)
            if outside not in values:
                values[outside] = Fraction(rng.randint(1, 3), rng.randint(1, 4))
        elif kind == 1 and values:
            del values[rng.choice(list(values))]
        elif kind == 2 and values:
            word = rng.choice(list(values))
            values[word] += Fraction(rng.randint(1, 3), rng.randint(1, 4))
        elif kind == 3:
            mass = max(Fraction(0), mass + Fraction(rng.randint(-3, 3), rng.randint(1, 4)))
    return MeasureTable(alph, depth, values, mass)
