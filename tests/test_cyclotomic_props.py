"""Property tests of the canonical CycNum form.

Every value, however it was computed, must be stored as integer numerators
over a positive denominator coprime to their content, with a rational value
at m = 1 and zero as m = 1, (0,), 1.  At one conductor that form is unique,
so two values there are equal exactly when their JSON is equal.
"""

from fractions import Fraction
from math import gcd

import pytest

from siegeleis.cyclotomic import CycNum, euler_phi

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
