"""Property tests of the canonical CycNum form.

Every value, however it was computed, must be stored at its least conductor
as integer numerators over a positive denominator coprime to their content,
with a rational value at m = 1 and zero as m = 1, (0,), 1.  That form is
unique, so two values are equal exactly when their JSON is equal.
"""

import json
import operator
from fractions import Fraction
from math import gcd, lcm

import pytest

from siegeleis.cyclotomic import (CycNum, as_cyc, cyclotomic_polynomial,
                                  euler_phi, exact_sum)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# conductors whose pairwise lcm stays within the default cap of 120
BASES = (1, 3, 4, 5, 8, 12, 15, 20, 24)
small = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def values(draw, base):
    m = draw(st.sampled_from([d for d in range(1, base + 1)
                              if base % d == 0 and d % 4 != 2]))
    coeffs = draw(st.lists(small | st.just(Fraction(0)),
                           min_size=euler_phi(m), max_size=euler_phi(m)))
    return CycNum(m, coeffs)


@st.composite
def triples(draw):
    base = draw(st.sampled_from(BASES))
    return draw(values(base)), draw(values(base)), draw(values(base))


def assert_canonical(v: CycNum):
    assert v.d > 0
    assert len(v.n) == euler_phi(v.m) and v.m % 4 != 2
    assert gcd(v.d, *v.n) == 1
    if v.m > 1:
        assert any(v.n[1:]), "a rational value must be stored at m = 1"
    if not any(v.n):
        assert (v.m, v.n, v.d) == (1, (0,), 1)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(triples())
def test_results_are_canonical(xyz):
    x, y, z = xyz
    results = [x, y, x + y, x - y, x * y, -x, x * 0, x - x, x ** 2,
               x * y + z, (x + y) * z - x * z]
    if y:
        results += [y.inverse(), x / y, (x * y) / y]
    for v in results:
        assert_canonical(v)
    assert (x + y) * z == x * z + y * z
    if y:
        assert (x * y) / y == x and y * y.inverse() == 1


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(triples())
def test_equality_at_one_conductor_is_json_equality(xyz):
    x, y, w = xyz
    # pairs that are equal by construction and pairs that usually are not
    pairs = [(x, y), (x, (x + w) - w), (x, -(-x)), (x + y, y + x)]
    if w:
        pairs.append((x, (x * w) / w))
    for a, b in pairs:
        if a.m == b.m:
            assert (a == b) == (a.to_json() == b.to_json())
        assert CycNum.from_json(a.to_json()).to_json() == a.to_json()
    for a, b in pairs[1:]:
        assert a == b


# the conductors M that values are carried to, m = 2 (mod 4) among them;
# values(M) draws each value at a divisor of M
LIFTS = (2, 6, 8, 9, 10, 12, 14, 15, 18, 20, 21, 24, 28, 30, 36, 40, 42, 60)


def at_conductor(M: int, terms) -> list[Fraction]:
    """Power-basis coordinates at M of sum c * z^e over (e, c) in terms:
    the exponents taken mod M, then long division by Phi_M."""
    poly = [Fraction(0)] * M
    for e, c in terms:
        poly[e % M] += c
    phi_m = cyclotomic_polynomial(M)
    top = len(phi_m) - 1
    for e in range(M - 1, top - 1, -1):
        c = poly[e]
        if c:
            for j, t in enumerate(phi_m):
                poly[e - top + j] -= c * t
    return poly[:top]


def least_conductor(v: CycNum, M: int) -> int:
    """The least d | M, d != 2 (mod 4), such that every z -> z^a with
    a = 1 (mod d) fixes v, by substituting a*e for each exponent e of v
    written at M."""
    terms = [(i * (M // v.m), Fraction(c, v.d)) for i, c in enumerate(v.n)]
    here = at_conductor(M, terms)
    moved = {a for a in range(1, M + 1) if gcd(a, M) == 1
             and at_conductor(M, [(a * e, c) for e, c in terms]) != here}
    return min(d for d in range(1, M + 1) if M % d == 0 and d % 4 != 2
               and not any(a % d == 1 % d for a in moved))


@st.composite
def routes(draw):
    """(M, x, y): x drawn at a divisor d of M and y the same value reached
    at M another way: lifted by exponent substitution and built as
    CycNum(M, ...), multiplied by w and then by 1/w, or added to w and then
    to -w, with w drawn at a divisor of M."""
    M = draw(st.sampled_from(LIFTS))
    x = draw(values(M))
    w = draw(values(M))
    route = draw(st.sampled_from(["lift", "mul", "add"]))
    if route == "lift":
        d = x.m
        y = CycNum(M, at_conductor(M, [(i * (M // d), Fraction(c, x.d))
                                       for i, c in enumerate(x.n)]))
    elif route == "mul" and w:
        y = (x * w) * w.inverse()
    else:
        y = (x + w) + -w
    return M, x, y


@hypothesis.settings(max_examples=120, deadline=None)
@hypothesis.given(routes())
def test_equal_values_share_one_stored_form(mxy):
    M, x, y = mxy
    assert x == y
    assert x.to_json() == y.to_json() and hash(x) == hash(y)
    if x.is_rational():
        assert hash(x) == hash(x.as_fraction()) and x == x.as_fraction()
    for v in (x, y):
        assert M % v.m == 0
        assert v.m == least_conductor(v, M)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(triples(), st.integers(min_value=0, max_value=6))
def test_text_is_the_json_of_the_stored_form(xyz, depth):
    # the eigen, hecke and fourier outputs write a value from its stored
    # form, each coordinate reduced by its own gcd with d, as json.dumps
    # writes to_json
    pad = "\n" + "  " * depth
    for v in (*xyz, xyz[0] * xyz[1], xyz[0] + xyz[2]):
        plain = json.dumps(v.to_json(), indent=2, sort_keys=True)
        assert v.json_text(depth) == plain.replace("\n", pad)


# the rational operands of CycNum arithmetic: ints, Fractions and CycNums
# at m = 1
scalars = (st.integers(min_value=-30, max_value=30) | small
           | small.map(lambda f: CycNum(1, [f])))


def general_path(op, x, y) -> CycNum:
    """op(x, y) for op add, sub or mul: both operands made CycNums by
    as_cyc and written at their common conductor M by at_conductor, the
    coordinates combined here and canonicalised by CycNum(M, ...)."""
    x, y = as_cyc(x), as_cyc(y)
    M = lcm(x.m, y.m)
    a, b = ([(i * (M // v.m), Fraction(c, v.d)) for i, c in enumerate(v.n)]
            for v in (x, y))
    if op is operator.mul:
        terms = [(e + f, c * g) for e, c in a for f, g in b]
    else:
        sign = 1 if op is operator.add else -1
        terms = a + [(f, sign * g) for f, g in b]
    return CycNum(M, at_conductor(M, terms))


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(triples(), scalars)
def test_scalar_operands_give_the_general_paths_stored_form(xyz, s):
    x, y, _ = xyz
    # s - x and x give sums that cancel to a rational or to zero, y - x one
    # that cancels to the conductor of y, and s = 0 zero products
    for other in (s, as_cyc(s), y, s - x, y - x, x):
        for op in (operator.add, operator.sub, operator.mul):
            for a, b in ((x, other), (other, x)):
                got, want = op(a, b), general_path(op, a, b)
                assert (got.m, got.n, got.d) == (want.m, want.n, want.d)


def left_fold(terms) -> CycNum:
    """The oracle of exact_sum: sum(terms) by pairwise +, from zero."""
    total = as_cyc(0)
    for t in terms:
        total = total + t
    return total


rationals = small.map(lambda f: CycNum(1, [f]))


@st.composite
def sums(draw):
    """(values, coeffs) of equal length, up to 8 of each: values drawn at
    divisors of one base conductor and rationals of mixed denominators,
    shuffled, sometimes followed by their negatives, so that the sum
    cancels to zero."""
    base = draw(st.sampled_from(BASES))
    vals = draw(st.lists(values(base) | rationals, max_size=4))
    if draw(st.booleans()):
        vals += [-v for v in draw(st.permutations(vals))]
    coeffs = [draw(values(base) | rationals) for _ in vals]
    return vals, coeffs


def stored(v: CycNum) -> tuple:
    return v.m, v.n, v.d


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(sums())
def test_exact_sum_stores_what_the_left_fold_stores(vc):
    vals, coeffs = vc
    got = exact_sum(vals)
    assert stored(got) == stored(left_fold(vals))
    assert_canonical(got)
    got = exact_sum(vals, coeffs)
    assert stored(got) == stored(left_fold(c * v for c, v in zip(coeffs, vals)))
    assert_canonical(got)
    if len(vals) == 1:
        assert exact_sum(vals) is vals[0]


def test_exact_sum_of_nothing_one_term_and_cancelling_terms():
    z = CycNum.root_of_unity(12)
    assert stored(exact_sum([])) == stored(exact_sum([], [])) == (1, (0,), 1)
    assert exact_sum([z]) is z
    assert stored(exact_sum([z], [as_cyc(3)])) == stored(3 * z)
    # mixed denominators, reduced once: 1/4 + 1/6 - 5/12 + z - z = 0
    parts = [as_cyc(Fraction(1, 4)), as_cyc(Fraction(1, 6)), z,
             as_cyc(Fraction(-5, 12)), -z]
    assert stored(exact_sum(parts)) == (1, (0,), 1)
    assert stored(exact_sum(parts[:2])) == (1, (5,), 12)
    assert stored(exact_sum(parts[:3])) == stored(z + Fraction(5, 12))
    # rational products that leave a common denominator: 1/2 * 1/3 + 5/6
    assert stored(exact_sum([as_cyc(Fraction(1, 3)), as_cyc(Fraction(5, 6))],
                            [as_cyc(Fraction(1, 2)), as_cyc(1)])) == (1, (1,), 1)
    # a product of non-rational values that is rational: z * z^-1 + 1 = 2
    assert stored(exact_sum([z, as_cyc(1)], [z.inverse(), as_cyc(1)])) == (
        1, (2,), 1)
