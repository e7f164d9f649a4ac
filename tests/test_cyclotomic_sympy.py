"""CycNum add, mul, inverse and eq against sympy as an independent oracle.

Every value is handed to sympy through its public JSON form, embedded in
Q[x] / Phi_M(x) with M the common conductor (zeta_m -> x^(M/m)), and the
operation is redone there by sympy's own polynomial remainder and modular
inverse over QQ.
"""

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest

from siegeleis.cyclotomic import CycNum, as_cyc, euler_phi

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
# every conductor m > 1 that the desk's field-axioms check draws (m <= 24,
# m != 2 mod 4), so the norm inverse is checked wherever it runs there
CONDUCTORS = (3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 19, 20, 21, 23, 24)
# same-conductor pairs plus mixed pairs that meet at 12, 15, 20, 24, 60, 120
PAIRS = [(m, m) for m in CONDUCTORS] + [
    (3, 4), (3, 5), (4, 5), (4, 24), (3, 20), (5, 12), (12, 15), (20, 24),
]


@lru_cache(maxsize=None)
def modulus(M):
    return sympy.Poly(sympy.cyclotomic_poly(M, X), X, domain=sympy.QQ)


def embed(v: CycNum, M: int):
    """v as a polynomial in x = zeta_M, reduced modulo Phi_M."""
    blob = v.to_json()
    m = blob["m"]
    assert M % m == 0
    expr = sum(sympy.Rational(c) * X ** (i * (M // m))
               for i, c in enumerate(blob["coeffs"]))
    return sympy.Poly(expr, X, domain=sympy.QQ).rem(modulus(M))


def random_value(rng, m):
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(euler_phi(m))]
    if rng.random() < 0.2:
        # sparse values exercise the zero-skipping paths
        coeffs = [c if rng.random() < 0.3 else 0 for c in coeffs]
    return CycNum(m, coeffs)


@pytest.mark.parametrize("m1,m2", PAIRS, ids=[f"{a}x{b}" for a, b in PAIRS])
def test_arithmetic_matches_sympy(m1, m2):
    rng = random.Random(1000 * m1 + m2)
    M = lcm(m1, m2)
    phi = modulus(M)
    for _ in range(6):
        a, b = random_value(rng, m1), random_value(rng, m2)
        pa, pb = embed(a, M), embed(b, M)
        assert embed(a + b, M) == (pa + pb).rem(phi)
        assert embed(a - b, M) == (pa - pb).rem(phi)
        assert embed(a * b, M) == (pa * pb).rem(phi)
        assert (a == b) == (pa == pb)
        assert a == a * 1 and a == CycNum.from_json(a.to_json())
        for v, pv in ((a, pa), (b, pb)):
            if not pv.is_zero:
                inv = sympy.invert(pv, phi)
                assert embed(v.inverse(), M) == inv
                assert embed(b / v, M) == (pb * inv).rem(phi)


def test_equal_values_across_conductors_match_sympy():
    # the same number reached through different fields, and near misses
    z3, z4, z5 = (CycNum.root_of_unity(m) for m in (3, 4, 5))
    cases = [
        ((z4 * z3) / z3, z4),
        (z3 + z3 * z3, as_cyc(-1)),
        ((z4 + z5) - z5, z4),
        ((z4 + z5) - z5, z4 + Fraction(1, 10**9)),
        (CycNum.root_of_unity(12) ** 3, z4),
        (CycNum.root_of_unity(24) ** 8, z3),
        (CycNum.root_of_unity(24) ** 8, z3 * z3),
    ]
    for a, b in cases:
        M = lcm(a.m, b.m)
        assert (a == b) == (embed(a, M) == embed(b, M))
    assert cases[0][0] == cases[0][1] and cases[3][0] != cases[3][1]
