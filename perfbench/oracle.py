"""Independent references and output gates for the benchmark.

Nothing here calls the code path a workload times.  Words are plain tuples
of letter indices; tables are dicts from such tuples to Fractions.  The
transfer references come from the decomposition route and are then checked
here with a support-only Kirchhoff test and the mass identity; Kirchhoff
outputs are derived from the injected perturbation; check outputs come from a
Lyndon-word (Duval) enumeration whose certificates are re-verified.
"""

from __future__ import annotations

from fractions import Fraction


def word_text(tokens, word) -> str:
    return " ".join(tokens[i] for i in word)


def render_table(tokens, depth: int, values: dict, mass: Fraction) -> str:
    """The measure-file bytes the CLI must print for this table."""
    lines = [f"!alphabet {' '.join(tokens)}", f"!depth {depth}", f"!mass {mass}"]
    for w in sorted(values, key=lambda w: (len(w), w)):
        lines.append(f"{word_text(tokens, w)}\t{values[w]}")
    return "\n".join(lines) + "\n"


def render_morphism(dom_tokens, cod_tokens, images) -> str:
    lines = [f"!domain {' '.join(dom_tokens)}", f"!codomain {' '.join(cod_tokens)}"]
    for token, image in zip(dom_tokens, images):
        lines.append(f"{token} -> {word_text(cod_tokens, image)}")
    return "\n".join(lines) + "\n"


def required_depth(images, out_len: int) -> int:
    """Input depth that determines every transferred weight up to out_len."""
    if out_len <= 1:
        return 1
    return (out_len - 2) // min(len(img) for img in images) + 2


def image(images, word) -> tuple:
    return tuple(x for i in word for x in images[i])


def support_candidates(images, values: dict, out_depth: int) -> set:
    """Factors of length <= out_depth of images of short support words:
    the only codomain words that can carry transferred weight."""
    required = required_depth(images, out_depth)
    out = set()
    for u in values:
        if len(u) <= required:
            img = image(images, u)
            for i in range(len(img)):
                for j in range(i + 1, min(len(img), i + out_depth) + 1):
                    out.add(img[i:j])
    return out


def kirchhoff_problems(letters: int, depth: int, values: dict, mass: Fraction) -> list[str]:
    """Support-only Kirchhoff check: cost follows the support, not |A|^depth.

    A stored word forces its one-letter-shorter prefix and suffix to be stored
    (weights are nonnegative), so checking both extension sums at stored
    words, closure under dropping an end letter, and every level sum covers
    every equality of the full table.
    """
    problems = []
    level = [Fraction(0)] * (depth + 1)
    for w, v in values.items():
        if not 1 <= len(w) <= depth or v <= 0:
            problems.append(f"bad entry {w}: {v}")
            continue
        level[len(w)] += v
        if len(w) >= 2 and (w[1:] not in values or w[:-1] not in values):
            problems.append(f"stored word {w} has an unstored end factor")
        if len(w) < depth:
            left = sum((values.get((a,) + w, 0) for a in range(letters)), Fraction(0))
            right = sum((values.get(w + (a,), 0) for a in range(letters)), Fraction(0))
            if left != v or right != v:
                problems.append(f"extension sums at {w}: {left}, {right} != {v}")
    for k in range(1, depth + 1):
        if level[k] != mass:
            problems.append(f"level {k} sums to {level[k]} != mass {mass}")
    return problems


def check_transfer_reference(images, cod_letters: int, in_values: dict, in_mass: Fraction,
                             depth: int, out_values: dict, out_mass: Fraction) -> None:
    """Raise unless a reference transfer table is consistent, carries mass
    sum |sigma(a)| * mu(a), and lives on the image candidates."""
    expected_mass = sum(
        (len(img) * in_values.get((a,), Fraction(0)) for a, img in enumerate(images)),
        Fraction(0),
    )
    if out_mass != expected_mass:
        raise AssertionError(f"reference mass {out_mass} != {expected_mass}")
    problems = kirchhoff_problems(cod_letters, depth, out_values, out_mass)
    if problems:
        raise AssertionError("reference table is inconsistent: " + problems[0])
    if not set(out_values) <= support_candidates(images, in_values, depth):
        raise AssertionError("reference weight outside the image candidates")


def perturbed_violations(tokens, depth: int, values: dict, mass: Fraction,
                         word: tuple, delta: Fraction) -> list[str]:
    """Kirchhoff report for a consistent table with values[word] raised by delta.

    Raising one weight breaks both extension equalities at that word, the
    left one at its suffix, the right one at its prefix, and its level sum.
    Words are reported by length, then letter order; left before right.
    """
    by_word: dict[tuple, list[str]] = {}

    def add(w: tuple, kind: str, expected: Fraction, found: Fraction) -> None:
        if 1 <= len(w) < depth:
            line = f"VIOLATION {kind} at {word_text(tokens, w)}: expected {expected}, found {found}"
            by_word.setdefault(w, []).append((kind, line))

    v = values[word]
    add(word, "left-extension", v + delta, v)
    add(word, "right-extension", v + delta, v)
    if len(word) >= 2:
        suffix, prefix = word[1:], word[:-1]
        add(suffix, "left-extension", values[suffix], values[suffix] + delta)
        add(prefix, "right-extension", values[prefix], values[prefix] + delta)
    lines = []
    for w in sorted(by_word, key=lambda w: (len(w), w)):
        lines += [line for _, line in sorted(by_word[w])]
    lines.append(f"VIOLATION level-sum at length-{len(word)}: "
                 f"expected {mass}, found {mass + delta}")
    return lines


def lyndon_words(letters: int, n: int) -> list[tuple]:
    """Lyndon words of length 1..n by Duval's generation, ordered by length
    then letters: the least rotations of the primitive words."""
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        out.append(tuple(w))
        m = len(w)
        while len(w) < n:
            w.append(w[len(w) - m])
        while w and w[-1] == letters - 1:
            w.pop()
    return sorted(out, key=lambda w: (len(w), w))


def _root(x: tuple) -> tuple:
    """Primitive root by the failure function: the shortest period, if it
    divides the length."""
    n = len(x)
    fail = [0] * (n + 1)
    fail[0] = -1
    k = -1
    for i in range(n):
        while k >= 0 and x[k] != x[i]:
            k = fail[k]
        k += 1
        fail[i + 1] = k
    p = n - fail[n]
    return x[:p] if n % p == 0 else x


def _is_proper_power(x: tuple) -> bool:
    return any(len(x) % p == 0 and x[:p] * (len(x) // p) == x for p in range(1, len(x)))


def _conjugate(x: tuple, y: tuple) -> bool:
    return len(x) == len(y) and any(x[i:] + x[:i] == y for i in range(len(x)))


def _is_lyndon(w: tuple) -> bool:
    return all(w < w[i:] + w[:i] for i in range(1, len(w)))


def check_groups(images, letters: int, bound: int) -> tuple[list[tuple], list[list[tuple]]]:
    """Period-preservation words, and the Lyndon words grouped by the
    orbit of their image, on the full shift up to the bound."""
    reps = lyndon_words(letters, bound)
    period = [w for w in reps if _root(image(images, w)) != image(images, w)]
    groups: dict[tuple, list[tuple]] = {}
    for w in reps:
        r = _root(image(images, w))
        groups.setdefault(min(r[i:] + r[:i] for i in range(len(r))), []).append(w)
    return period, list(groups.values())


def orbit_pairs(groups) -> list[tuple]:
    """Orbit-injectivity certificates: pairs within a group, in output order."""
    pairs = [
        (members[i], members[j])
        for members in groups
        for i in range(len(members))
        for j in range(i + 1, len(members))
    ]
    pairs.sort(key=lambda p: ((len(p[0]), p[0]), (len(p[1]), p[1])))
    return pairs


def verify_certificates(images, period, pairs) -> None:
    """Re-check each certificate against its defining condition."""
    for w in period:
        if not _is_lyndon(w) or not _is_proper_power(image(images, w)):
            raise AssertionError(f"bad period-preservation certificate {w}")
    for u, v in pairs:
        if u == v or not (_is_lyndon(u) and _is_lyndon(v)):
            raise AssertionError(f"bad orbit-injectivity witnesses {u}, {v}")
        if not _conjugate(_root(image(images, u)), _root(image(images, v))):
            raise AssertionError(f"images of {u} and {v} lie on different orbits")


def render_check(tokens, bound: int, period, pairs) -> str:
    lines = [f"BOUND {bound}"]
    lines += [f"VIOLATION period-preservation {word_text(tokens, w)}" for w in period]
    lines += [
        f"VIOLATION orbit-injectivity {word_text(tokens, u)} {word_text(tokens, v)}"
        for u, v in pairs
    ]
    return "\n".join(lines) + "\n"


def gate(expected_stdout: str, expected_code: int, stdout: str, code) -> bool:
    """An op passes only with the exact bytes and exit code."""
    return code == expected_code and stdout == expected_stdout


def mutate(workload: str, stdout: str) -> str | None:
    """A deliberately wrong output for the gate self-test, or None when this
    output has nothing to mutate: one weight changed (transfer, eval), one
    violation dropped (kirchhoff), one certificate dropped (check)."""
    lines = stdout.splitlines(keepends=True)
    if workload == "eval":
        return f"{Fraction(stdout.strip()) + 1}\n"
    if workload == "transfer":
        if len(lines) < 4:
            return None
        word, value = lines[3].rstrip("\n").split("\t")
        lines[3] = f"{word}\t{Fraction(value) + 1}\n"
        return "".join(lines)
    marked = [i for i, line in enumerate(lines) if line.startswith("VIOLATION")]
    if not marked:
        return None
    del lines[marked[len(marked) // 2]]
    return "".join(lines)
