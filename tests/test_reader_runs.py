"""The run-based header reader against the per-line reader it replaced.

textio._read_format hands each run of body lines (the lines between two
headers) to the format's handler in one call.  The oracle below is the reader
as it was before, one handler call per line, with the three parsers built on
it.  Seeded texts of every format, valid and malformed, must give the same
value or the same (line, message) from both."""

import random
from collections import Counter
from fractions import Fraction

import gen
from shiftmeasure import (
    MeasureTable,
    Morphism,
    ParseError,
    Word,
    full_shift_language,
    parse_language,
    parse_measure,
    parse_morphism,
    render_language,
    render_measure,
    render_morphism,
)
from shiftmeasure import textio
from shiftmeasure.language import factorial_closure
from shiftmeasure.textio import (
    _alphabet_header,
    _check_token,
    _count_header,
    _mass_header,
    _parse_rational,
)
from shiftmeasure.words import Alphabet


def _read_format_per_line(text, readers, body, required=False):
    headers, lines = {}, {}
    last_line = 1
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        last_line = number
        try:
            if not line.startswith("!"):
                body(number, line, headers)
                continue
            name, *fields = line.split()
            if name not in readers:
                raise ParseError(number, f"unknown header {name!r}")
            if name in headers:
                raise ParseError(number, f"duplicate {name} header")
            headers[name] = readers[name](name, fields)
            lines[name] = number
        except ParseError:  # a ValueError too: raised as it is, not wrapped a second time
            raise
        except ValueError as exc:
            raise ParseError(number, str(exc)) from None
    if required:
        for name in readers:
            if name not in headers:
                raise ParseError(last_line, f"missing {name} header")
    return headers, lines, last_line


def _parse_morphism_per_line(text):
    rules = []

    def rule(number, line, headers):
        fields = line.split()
        if len(fields) < 2 or fields[1] != "->":
            raise ValueError("expected a rule of the form '<letter> -> <letter> ...'")
        if len(fields) < 3:
            raise ValueError(f"empty image for {fields[0]!r}")
        for token in (fields[0], *fields[2:]):
            _check_token(token)
        rules.append((number, fields[0], fields[2:]))

    headers, lines, last_line = _read_format_per_line(
        text, {"!domain": _alphabet_header, "!codomain": _alphabet_header}, rule
    )
    if not rules:
        raise ParseError(last_line, "no morphism rules found")
    seen = {}
    for number, lhs, _ in rules:
        if lhs in seen:
            raise ParseError(number, f"duplicate rule for {lhs!r}")
        seen[lhs] = number
    domain = headers.get("!domain") or Alphabet(tuple(seen))
    for number, lhs, _ in rules:
        if lhs not in domain:
            raise ParseError(number, f"rule for {lhs!r} outside the declared domain")
    for token in domain:
        if token not in seen:
            raise ParseError(lines["!domain"], f"no image given for domain letter {token!r}")
    codomain = headers.get("!codomain") or Alphabet(
        tuple(dict.fromkeys(token for _, _, rhs in rules for token in rhs))
    )
    images = {}
    for number, lhs, rhs in rules:
        try:
            images[lhs] = codomain.word(rhs)
        except ValueError as exc:
            raise ParseError(number, str(exc)) from None
    return Morphism(domain, codomain, tuple(images[t] for t in domain.symbols))


def _parse_measure_per_line(text):
    weights, parsed = {}, {}

    def entry(number, line, headers):
        alphabet, depth = headers.get("!alphabet"), headers.get("!depth")
        if alphabet is None or depth is None:
            raise ValueError("!alphabet and !depth headers must precede entries")
        left, tab, right = line.partition("\t")
        if not tab:
            raise ValueError("entry needs a tab between the word and its value")
        tokens = left.split()
        if not tokens:
            raise ValueError("entry for the empty word is not allowed")
        try:
            letters = tuple([alphabet._indices[t] for t in tokens])
        except KeyError:
            alphabet.word(tokens)
        if len(letters) > depth:
            raise ValueError(f"word '{' '.join(tokens)}' is longer than the declared depth {depth}")
        if letters in weights:
            raise ValueError(f"duplicate entry for '{' '.join(tokens)}'")
        value_text = right.strip()
        if value_text not in parsed:
            parsed[value_text] = _parse_rational(value_text)
        weights[letters] = parsed[value_text]

    headers, _, _ = _read_format_per_line(
        text,
        {"!alphabet": _alphabet_header, "!depth": _count_header, "!mass": _mass_header},
        entry,
        required=True,
    )
    if not all(parsed.values()):
        weights = {u: v for u, v in weights.items() if v}
    return MeasureTable._trusted(headers["!alphabet"], headers["!depth"], weights, headers["!mass"])


def _parse_language_per_line(text):
    words = []

    def word(number, line, headers):
        if "!alphabet" not in headers:
            raise ValueError("!alphabet header must precede words")
        words.append(headers["!alphabet"].word(line.split()))

    headers, _, _ = _read_format_per_line(
        text, {"!alphabet": _alphabet_header, "!maxlen": _count_header}, word, required=True
    )
    return factorial_closure(headers["!alphabet"], words, headers["!maxlen"])


def _outcome(parse, text):
    try:
        return ("value", parse(text))
    except ParseError as exc:
        return ("error", exc.line, exc.message)


# Each edit takes (rng, header lines, body lines) and returns new lists; the
# text is the headers, then the body, unless an edit moved lines across.

def _move_header_into_body(rng, heads, body):
    if not heads:
        return heads, body
    h = heads.pop(rng.randrange(len(heads)))
    body.insert(rng.randrange(len(body) + 1), h)
    return heads, body


def _body_before_headers(rng, heads, body):
    k = rng.randint(1, 2)
    return body[:k] + heads, body[k:]


def _header_again_after_body(rng, heads, body):
    return heads, body + [rng.choice(heads) if heads else "!nope"]


def _unknown_header_after_body(rng, heads, body):
    k = rng.randint(0, len(body))
    return heads, body[:k] + ["!unknown x"] + body[k:]


def _noise_inside_run(rng, heads, body):
    for _ in range(rng.randint(1, 3)):
        body.insert(rng.randrange(len(body) + 1), rng.choice(["# note", "", "   ", "  #x y"]))
    return heads, body


def _drop_header(rng, heads, body):
    if heads:  # the last header half the time: the others must precede the body
        heads.pop(rng.choice([-1, rng.randrange(len(heads))]))
    return heads, body


def _replace_line(make):
    def edit(rng, heads, body):
        content = [i for i, line in enumerate(body) if line.strip()[:1] not in ("", "#", "!")]
        if content:
            i = rng.choice(content)
            body[i] = make(rng, body[i], body)
        return heads, body
    edit.__name__ = make.__name__
    return edit


def _unknown_token(rng, line, body):
    fields = line.split(" ")
    fields[rng.randrange(len(fields))] = rng.choice(["zz", "#x", "!y", "->"])
    return " ".join(fields)


def _duplicate_line(rng, line, body):
    return line + "\n" + line


def _bad_value(rng, line, body):
    word, _, _ = line.partition("\t")
    return f"{word}\t{rng.choice(['-1', '-2/3', '1/0', 'x', '1e3', '', '.5', '1 2'])}"


def _no_tab(rng, line, body):
    return line.replace("\t", " ")


def _too_long(rng, line, body):
    word, _, value = line.partition("\t")
    return f"{word} {word} {word}\t{value}"


def _not_a_rule(rng, line, body):
    return rng.choice([line.replace("->", "=>"), line.split("->")[0] + "->", line.split()[0]])


COMMON = [_move_header_into_body, _body_before_headers, _header_again_after_body,
          _unknown_header_after_body, _noise_inside_run, _drop_header,
          _replace_line(_unknown_token), _replace_line(_duplicate_line)]
EDITS = {
    "measure": COMMON + [_replace_line(_bad_value), _replace_line(_no_tab), _replace_line(_too_long)],
    "morphism": COMMON + [_replace_line(_not_a_rule)],
    "language": COMMON,
}


def _texts(rng, fmt):
    """A valid text of the format and its split into header and body lines."""
    alph = gen.alphabet(rng.randint(1, 3))
    if fmt == "measure":
        text = render_measure(gen.random_orbit_table(rng, alph, rng.randint(1, 3)))
    elif fmt == "morphism":
        text = render_morphism(gen.random_morphism(rng, alph, gen.alphabet(rng.randint(1, 3), 3)))
    else:
        text = render_language(full_shift_language(alph, rng.randint(1, 2)))
    lines = text.splitlines()
    return [l for l in lines if l.startswith("!")], [l for l in lines if not l.startswith("!")]


PARSERS = {
    "measure": (parse_measure, _parse_measure_per_line),
    "morphism": (parse_morphism, _parse_morphism_per_line),
    "language": (parse_language, _parse_language_per_line),
}


def test_runs_of_body_lines_read_as_single_lines_did():
    rng = random.Random(91)
    edits, outcomes, messages = Counter(), Counter(), Counter()
    for fmt, (parse, oracle) in PARSERS.items():
        for _ in range(600):
            heads, body = _texts(rng, fmt)
            for edit in rng.sample(EDITS[fmt], rng.randint(0, 3)):
                if body:
                    heads, body = edit(rng, heads, body)
                    edits[fmt, edit.__name__] += 1
            text = "\n".join(heads + body) + rng.choice(["\n", ""])
            got, expected = _outcome(parse, text), _outcome(oracle, text)
            assert got == expected, text
            outcomes[fmt, got[0]] += 1
            if got[0] == "error":
                messages[got[2].split("'")[0].split(":")[0]] += 1
    for fmt in PARSERS:
        assert outcomes[fmt, "value"] >= 60 and outcomes[fmt, "error"] >= 200, outcomes
        for edit in EDITS[fmt]:
            assert edits[fmt, edit.__name__] >= 60, (fmt, edit.__name__)
    for message in ["unknown header ", "!alphabet and !depth headers must precede entries",
                    "!alphabet header must precede words", "symbol ", "invalid symbol token",
                    "duplicate entry for ", "negative value", "not a rational value",
                    "word ", "missing !mass header", "missing !maxlen header",
                    "duplicate rule for ", "expected a rule of the form ",
                    "entry needs a tab between the word and its value"]:
        assert messages[message] >= 5, (message, messages)


def test_errors_keep_file_order_across_runs():
    """An error in a run is raised before the next header is read, and an
    error in a header before the next run is read."""
    head = "!alphabet a b\n!depth 2\n"
    cases = [
        (head + "a\t1\nz\t1\n!mass 1\nb\t1\n", 4, "symbol 'z' not in alphabet [a b]"),
        (head + "a\t1\n# c\n\nb\t1\n!bogus\nz\t1\n", 7, "unknown header '!bogus'"),
        (head + "a\t1\n!depth 3\nz\t1\n", 4, "duplicate !depth header"),
        ("a\t1\n" + head + "!mass 1\n", 1, "!alphabet and !depth headers must precede entries"),
        ("!alphabet a b\n\n# c\na\t1\n!depth 2\n", 4, "!alphabet and !depth headers must precede entries"),
        (head + "a\t1\nb\t1\n", 4, "missing !mass header"),
        (head + "!mass 1\na\t1\nb\t-1\n", 5, "negative value: '-1'"),
    ]
    for text, line, message in cases:
        for parse in PARSERS["measure"]:
            assert _outcome(parse, text) == ("error", line, message), (parse, text)
    table = parse_measure(head + "a\t1\n!mass 2\n# c\nb\t1\n\na b\t1\nb a\t0\n")
    assert table == _parse_measure_per_line(head + "a\t1\n!mass 2\nb\t1\na b\t1\n")
    assert table._weights == {(0,): Fraction(1), (1,): Fraction(1), (0, 1): Fraction(1)}
    for parse in PARSERS["language"]:
        assert _outcome(parse, "!maxlen 1\n# c\na\n!alphabet a b\n") == (
            "error", 3, "!alphabet header must precede words")


def test_each_run_is_one_handler_call(monkeypatch):
    """The body handler is called once per run of body lines, not per line."""
    calls = []
    real = textio._read_format

    def recording(text, readers, body, required=False):
        def counted(run, headers):
            calls.append([number for number, _ in run])
            return body(run, headers)
        return real(text, readers, counted, required)

    monkeypatch.setattr(textio, "_read_format", recording)
    text = "!alphabet a b\n!depth 2\na\t1\n# c\n\nb\t1\n!mass 2\na b\t1\nb a\t1\n"
    table = parse_measure(text)
    assert calls == [[3, 6], [8, 9]]
    assert table.total_mass == 2 and len(table._weights) == 4
    assert Word(table.alphabet, (0, 1)) in table.values


# parse_measure reuses the letters of an entry's prefix: an entry
# `head + " " + last` whose head is the word text of an earlier entry, spelled
# the same way, maps only its last token.  The texts below respell, reorder and
# break seeded tables so that heads are known, unknown or spelled differently.

def _respelled_measure_text(rng):
    alph = gen.alphabet(rng.randint(1, 3))
    heads, body = [], []
    for line in render_measure(gen.random_orbit_table(rng, alph, rng.randint(1, 4))).splitlines():
        (heads if line.startswith("!") else body).append(line)
    depth = int(heads[1].split()[1])
    split = [line.partition("\t")[::2] for line in body]
    if rng.random() < 0.5:  # doubled spaces inside some words
        split = [(w.replace(" ", "  ", 1) if rng.random() < 0.3 else w, v) for w, v in split]
    if rng.random() < 0.5:  # a head with a trailing space: the word text ends in one
        split = [(w + " " if rng.random() < 0.3 else w, v) for w, v in split]
    if rng.random() < 0.3:
        rng.shuffle(split)
    if rng.random() < 0.3:  # missing prefixes
        split = [p for p in split if rng.random() < 0.7]
    long_words = [i for i, (w, _) in enumerate(split) if len(w.split()) >= 2]
    if long_words and rng.random() < 0.3:  # an unknown last token after a known head
        i = rng.choice(long_words)
        split[i] = (split[i][0].rstrip().rpartition(" ")[0] + " " + rng.choice(["zz", "h", "#x"]), split[i][1])
    deepest = [i for i, (w, _) in enumerate(split) if len(w.split()) == depth]
    if deepest and rng.random() < 0.2:  # one token too many after a known head
        i = rng.choice(deepest)
        split[i] = (split[i][0] + " " + rng.choice(alph.symbols), split[i][1])
    if split and rng.random() < 0.2:  # the same word again, spelled another way
        i = rng.randrange(len(split))
        split.insert(rng.randint(i + 1, len(split)), (split[i][0].replace(" ", "  ") + " ", "1"))
    return "\n".join(heads + [f"{w}\t{v}" for w, v in split]) + "\n"


def _reused_lookups(text, symbols):
    """Index lookups when each entry whose head is an earlier entry's word
    text maps only its last token, and any other entry maps all of its tokens."""
    known, lookups = set(), 0
    for raw in text.splitlines():
        line = raw.strip()
        if line and line[0] not in "#!":
            word = line.partition("\t")[0]
            head, _, last = word.rpartition(" ")
            lookups += 1 if head in known and last in symbols else len(word.split())
            known.add(word)
    return lookups


class _CountingIndices(dict):
    """An alphabet's token-to-index map that counts its lookups."""

    lookups = 0

    def __getitem__(self, token):
        self.lookups += 1
        return super().__getitem__(token)


def test_entries_reuse_their_prefix_letters_as_single_lines_did(monkeypatch):
    maps = []

    def counting_alphabet(name, fields):
        alphabet = _alphabet_header(name, fields)
        alphabet.__dict__["_indices"] = indices = _CountingIndices(alphabet._indices)
        maps.append(indices)
        return alphabet

    monkeypatch.setattr(textio, "_alphabet_header", counting_alphabet)
    rng = random.Random(18)
    outcomes, reused = Counter(), 0
    for _ in range(1500):
        text = _respelled_measure_text(rng)
        maps.clear()
        got, expected = _outcome(parse_measure, text), _outcome(_parse_measure_per_line, text)
        assert got == expected, text
        outcomes[got[0] if got[0] == "value" else got[2].split(" ")[0]] += 1
        if got[0] == "value":
            (indices,) = maps
            assert indices.lookups == _reused_lookups(text, indices), text
            reused += indices.lookups < _reused_lookups(text, ())  # () knows no token
    assert outcomes["value"] >= 600 and reused >= 300, (outcomes, reused)
    for message in ("symbol", "word", "duplicate"):
        assert outcomes[message] >= 50, outcomes
    # A head with a trailing space is known only as spelled: "a b " is an entry,
    # so "a b  a" maps one token, but "a b" is not, so "a b b" maps all three.
    text = "!alphabet a b\n!depth 3\n!mass 1\na\t1\na b \t1\na b  a\t1\nb\t1\na b b\t1\n"
    assert _outcome(parse_measure, text) == _outcome(_parse_measure_per_line, text)
    assert maps[-1].lookups == _reused_lookups(text, {"a", "b"}) == 1 + 2 + 1 + 1 + 3
