"""Property tests of provider-file ingestion.

(a) A table written in any legal way parses back to exactly its class ->
value map: every class as a random unimodular image of its representative,
values as int or p/q tokens, comments, blank lines and agreeing duplicates,
in shuffled order.  Both coverage bounds equal a brute-force computation
over the reduced-form definition done here, and the class count that
the det bound is read from equals that definition and the listed forms.
(b) One bad line makes the parser raise a plain ValueError that names
`source:lineno` of that line; a fifth token other than `1` or `-1` is one,
in GL2 and SL2 tables alike, and so is a header after a data line or after
another header.
(c) A value token is accepted exactly when `fractions.Fraction` accepts it
and its exponent is within the str digit limit, with Fraction's value, and
refused with the parser's "bad number" text.
"""

import re
import sys
from fractions import Fraction

import pytest

from siegeleis.cyclotomic import as_cyc
from siegeleis.fourier import provider_parse
from siegeleis.lattices import (GL2, SL2, GramForm, transform,
                                _reduced_triples, _unimodular_entries_bounded,
                                reduced_class_count)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SOURCE = "table.coeffs"
UNIMODULAR = _unimodular_entries_bounded(2)


def classes_of_det(d: int, mode: str) -> list:
    """Class keys of det d > 0, straight from the definition of a reduced
    form: 0 <= 2b <= a <= c, a*c - b*b = d; an SL2 class splits in two,
    keyed (a, b, c) and (a, -b, c), when 0 < 2b < a < c."""
    out = []
    a = 1
    while 3 * a * a <= 4 * d:
        for b in range(a // 2 + 1):
            c, r = divmod(d + b * b, a)
            if r == 0 and c >= a:
                out.append(GramForm(a, b, c))
                if mode == SL2 and 0 < 2 * b < a < c:
                    out.append(GramForm(a, -b, c))
        a += 1
    return out


def brute_bounds(keys, mode: str) -> tuple[int, int]:
    """(det bound, content bound): the largest D with every class of det
    1..D present, and the largest C with every [[m,0],[0,0]], m <= C."""
    d = 1
    while all(k in keys for k in classes_of_det(d, mode)):
        d += 1
    m = 1
    while GramForm(m, 0, 0) in keys:
        m += 1
    return d - 1, m - 1


def value_token(draw, value: Fraction) -> str:
    k = draw(st.integers(1, 3))  # p/q need not be in lowest terms
    if value.denominator == 1 and draw(st.booleans()):
        return str(value.numerator)
    return f"{value.numerator * k}/{value.denominator * k}"


def form_line(draw, key, mode: str) -> str:
    """A line naming the class of `key` by a random unimodular image."""
    G = draw(st.sampled_from(UNIMODULAR))
    T = transform(key, G)
    a, b, c = T.a, T.b, T.c
    if mode == SL2:
        # a det -1 image lies in the twin proper class; orient -1 names it
        if G[0] * G[3] - G[1] * G[2] == 1:
            return f"{a} {b} {c} {{}}" + draw(st.sampled_from(["", " 1"]))
        return f"{a} {b} {c} {{}} -1"
    # GL2 ignores the sign
    return f"{a} {b} {c} {{}}" + draw(st.sampled_from(["", " 1", " -1"]))


@st.composite
def tables(draw):
    mode = draw(st.sampled_from([GL2, SL2]))
    det_full = draw(st.integers(0, 12))
    content_full = draw(st.integers(0, 5))
    keys = [GramForm(m, 0, 0) for m in range(content_full + 1)]
    for d in range(1, det_full + 1):
        keys += classes_of_det(d, mode)
    # drop some classes (never the zero form) and add a far one
    dropped = draw(st.sets(st.integers(1, max(1, len(keys) - 1)), max_size=3))
    keys = [k for i, k in enumerate(keys) if i not in dropped]
    far = draw(st.integers(det_full + 1, 40))
    keys.append(draw(st.sampled_from(classes_of_det(far, mode))))
    values = {k: Fraction(draw(st.integers(-30, 30)), draw(st.integers(1, 6)))
              for k in keys}
    lines = []
    for k in keys:
        for _ in range(draw(st.integers(1, 2))):  # agreeing duplicates
            line = form_line(draw, k, mode).format(value_token(draw, values[k]))
            if draw(st.booleans()):
                line += "  # trailing comment"
            lines.append(line)
    lines += ["", "# a comment line", "   "]
    lines = draw(st.permutations(lines))
    return mode, [f"!weight 4 level 1 group {mode}"] + lines, values


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(tables())
def test_tables_parse_back_to_their_class_map(table):
    mode, lines, values = table
    p = provider_parse(lines, source=SOURCE)
    exp = p.expansion
    assert (p.weight, p.level, exp.mode) == (4, 1, mode)
    assert exp.coeffs == {k: as_cyc(v) for k, v in values.items()}
    assert (exp.det_bound, exp.content_bound) == brute_bounds(values, mode)


@pytest.mark.parametrize("mode", [GL2, SL2])
def test_whole_dets_are_covered_and_a_gap_ends_coverage(mode):
    # det 11 holds the first class that splits under SL2, [[3,1],[1,4]]
    keys = [GramForm(0, 0, 0)]
    for d in range(1, 25):
        keys += classes_of_det(d, mode)
        lines = [f"!weight 4 level 1 group {mode}"] + [
            "{} {} {} 1 1".format(*k) for k in keys]
        assert provider_parse(lines).expansion.det_bound == d
        assert provider_parse(lines[:-1]).expansion.det_bound == d - 1


@pytest.mark.parametrize("mode", [GL2, SL2])
def test_class_count_is_the_number_of_classes_by_definition(mode):
    total = 0
    for d in range(201):
        total += len(classes_of_det(d, mode))
        assert reduced_class_count(d, mode) == total


@pytest.mark.parametrize("det_bound", [2187, 6000])
def test_class_count_is_the_number_of_listed_triples(det_bound):
    gl2 = sl2 = 0
    for _, a, b, c in _reduced_triples(det_bound):
        gl2 += 1
        sl2 += 2 if 0 < 2 * b < a < c else 1  # the twin (a, -b, c)
    assert reduced_class_count(det_bound) == gl2
    assert reduced_class_count(det_bound, GL2) == gl2
    assert reduced_class_count(det_bound, SL2) == sl2


BAD_NUMBERS = ["x", "1.2.3", "1/", "/2", "--1", "1_", "0x10", "nan", "1e", "²"]
BAD_ORIENTS = ["7", "2", "0", "+1", "01", "-2", "x"]
MUTATIONS = ["token-count", "non-number", "zero-denominator", "indefinite",
             "bad-orient", "inconsistent-duplicate", "bad-header",
             "misplaced-header"]


@st.composite
def mutated_tables(draw, kind):
    mode = draw(st.sampled_from([GL2, SL2]))
    keys = [GramForm(m, 0, 0) for m in range(3)]
    for d in range(1, 9):
        keys += classes_of_det(d, mode)
    lines = [form_line(draw, k, mode).format(i) for i, k in enumerate(keys)]
    lines = ["# header next", f"!weight 4 level 1 group {mode}"] + lines
    if kind == "bad-header":
        lines[1] = draw(st.sampled_from([
            f"!weight 4 level 1 grp {mode}", "!weight 4 level 1",
            f"!weight four level 1 group {mode}", "!weight 4 level 1 group XL2",
            f"!weight 4 level 1 group {mode} extra"]))
        return lines, 2
    if kind == "misplaced-header":
        # a second header anywhere, or the only one after a data line
        if draw(st.booleans()):
            del lines[1]
        at = draw(st.integers(2, len(lines)))
        lines.insert(at, draw(st.sampled_from([
            f"!weight 4 level 1 group {mode}", "!weight 6 level 1 group GL2",
            "!weight 4 level 1 group SL2"])))
        return lines, at + 1
    at = draw(st.integers(2, len(lines) - 1))
    toks = lines[at].split()
    if kind == "token-count":
        toks = toks[:draw(st.integers(1, 3))] if draw(st.booleans()) \
            else toks + ["1"] * (6 - len(toks))
    elif kind == "non-number":
        toks[draw(st.integers(0, len(toks) - 1))] = draw(st.sampled_from(BAD_NUMBERS))
    elif kind == "zero-denominator":
        toks[3] = "1/0"
    elif kind == "bad-orient":  # in either mode, in place of or after 1/-1
        toks[4:] = [draw(st.sampled_from(BAD_ORIENTS))]
    elif kind == "indefinite":
        toks[:3] = draw(st.sampled_from([["1", "2", "1"], ["-1", "0", "0"],
                                         ["0", "1", "0"], ["2", "0", "-3"]]))
    else:  # the same class again, under another image, with another value
        key = keys[at - 2]
        line = form_line(draw, key, mode).format(len(keys) + 1)
        other = draw(st.integers(2, len(lines)))
        lines.insert(other, line)
        return lines, max(other, at + (other <= at)) + 1
    lines[at] = " ".join(toks)
    return lines, at + 1


@pytest.mark.parametrize("kind", MUTATIONS)
@hypothesis.settings(max_examples=25, deadline=None)
@hypothesis.given(data=st.data())
def test_one_bad_line_is_named_by_source_and_line(kind, data):
    lines, lineno = data.draw(mutated_tables(kind))
    with pytest.raises(Exception) as exc:
        provider_parse(lines, source=SOURCE)
    assert type(exc.value) is ValueError
    assert str(exc.value).startswith(f"{SOURCE}:{lineno}: ")


TOKEN_CHARS = "0123456789+-/._eE" + "x٣²"


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.text(TOKEN_CHARS, min_size=1, max_size=7)
                  | st.sampled_from(["+7", "-0", "007", "1_000", "3/04", "-1/2",
                                     "1.5", "2e3", "1E-2", ".5", "٣/٣", "1/0",
                                     "0x10", "0o7", "0b1", "1__0", "1_0/2_0",
                                     "1e-999", "1e9999"]))
def test_value_tokens_are_what_fraction_reads(tok):
    line = f"0 0 0 {tok}"
    try:
        want = Fraction(tok)
        exp = re.search("[eE](.*)", tok)  # Fraction builds 10^|exp|
        if exp and abs(int(exp[1])) > sys.get_int_max_str_digits():
            raise ValueError("exponent past the str digit limit")
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError) as exc:
            provider_parse(["!weight 4 level 1 group GL2", line], source=SOURCE)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"{SOURCE}:2: bad number in {line!r}"
        return
    p = provider_parse(["!weight 4 level 1 group GL2", line], source=SOURCE)
    assert p.expansion.coeffs == {GramForm(0, 0, 0): as_cyc(want)}
