import cmath
import json
import pickle
import random
import sys
from fractions import Fraction
from functools import cache

import pytest

import siegeleis.cyclotomic as cyclotomic
from siegeleis.cyclotomic import (ConductorCapError, CycNum, as_cyc,
                                  conductor_cap, cyclotomic_polynomial,
                                  euler_phi, factorize, is_prime,
                                  is_squarefree, primes_up_to,
                                  set_conductor_cap)


def root(m, e=1):
    return CycNum.root_of_unity(m, e)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    for m in range(1, 40):
        assert len(cyclotomic_polynomial(m)) == euler_phi(m) + 1


def _divexact(num, den):
    # exact division of integer polynomials, ascending coefficients
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = num[i + len(den) - 1]
        assert c % den[-1] == 0
        q = c // den[-1]
        out[i] = q
        for j, d in enumerate(den):
            num[i + j] -= q * d
    assert all(c == 0 for c in num)
    return out


@cache
def _phi_by_division(m):
    """Phi_m as x^m - 1 divided exactly by Phi_d for each proper d | m."""
    poly = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            poly = _divexact(poly, _phi_by_division(d))
    return tuple(poly)


def test_cyclotomic_polynomial_is_the_divisor_quotient():
    # the Moebius product against dividing x^m - 1 by every Phi_d, d | m
    ms = [m for m in range(1, 401) if m % 4 != 2] + [720, 840, 2520]
    for m in ms:
        assert cyclotomic_polynomial(m) == _phi_by_division(m), m


def test_basic_relations():
    z3 = root(3)
    assert z3 + z3**2 == -1
    z4 = root(4)
    assert z4 * z4 == -1
    assert as_cyc(Fraction(1, 2)) + Fraction(1, 3) == Fraction(5, 6)


def test_inverses():
    z8 = root(8)
    assert z8.inverse() == z8**7
    assert as_cyc(Fraction(2, 3)).inverse() == Fraction(3, 2)
    # solve (1+i)x = 1 by hand: x = (1-i)/2, then confirm by multiplication
    z4 = root(4)
    inv = (1 + z4).inverse()
    assert inv == (1 - z4) / 2
    assert inv * (1 + z4) == 1
    with pytest.raises(ZeroDivisionError):
        CycNum.zero().inverse()
    with pytest.raises(ZeroDivisionError):
        (1 + z4) / 0


def test_cross_conductor():
    z6 = root(6)
    assert z6.m == 3  # stored in the odd-conductor basis
    assert z6 == 1 + root(3)
    assert z6**3 == -1 and z6**2 == root(3)
    z12 = root(12)
    assert z12**4 == root(3) and z12**3 == root(4)
    assert root(3) * root(4) == root(12, 7)
    assert (root(5) + root(7)).m == 35


def test_rational_normalization():
    z4 = root(4)
    v = z4 * z4  # -1 should collapse to a plain rational
    assert v.is_rational() and v.as_fraction() == -1
    assert (z4 - z4).is_zero()
    assert root(2) == -1 and root(2).m == 1


def test_pow():
    z5 = root(5)
    assert z5**5 == 1
    assert z5**0 == 1
    assert z5**-2 == z5**3
    assert as_cyc(3) ** 4 == 81


def test_conductor_cap():
    old = conductor_cap()
    try:
        set_conductor_cap(10)
        with pytest.raises(ConductorCapError):
            root(11)
        with pytest.raises(ConductorCapError):
            root(5) + root(8)
        set_conductor_cap(120)
        assert root(5) + root(8) is not None
        with pytest.raises(ConductorCapError):
            root(121)
    finally:
        set_conductor_cap(old)


def test_conductor_cap_at_construction(monkeypatch):
    def poisoned():
        raise AssertionError("coefficients read before the cap check")
        yield

    def no_phi(m):
        raise AssertionError(f"euler_phi({m}) called before the cap check")

    old = conductor_cap()
    set_conductor_cap(120)  # whatever SIEGELEIS_CONDUCTOR_CAP set
    try:
        # neither phi(m) nor a single coefficient is touched for an
        # oversized m, so even m = 10^6 + 3 (phi ~ 10^6) costs nothing
        monkeypatch.setattr(cyclotomic, "euler_phi", no_phi)
        for m in (121, 242, 1000, 10**6 + 3, 10**100):
            with pytest.raises(ConductorCapError):
                CycNum(m, poisoned())
            with pytest.raises(ConductorCapError):
                CycNum.from_json({"m": str(m), "coeffs": poisoned()})
        monkeypatch.undo()
        # m = 2 (mod 4) is checked as m/2, the conductor it is stored at
        assert CycNum(238, [3] + [0] * 95) == 3
        assert CycNum.from_json(root(119, 2).to_json()) == root(119, 2)
        with pytest.raises(ValueError):
            CycNum(0, [])
    finally:
        set_conductor_cap(old)


def test_json_round_trip():
    vals = [root(12, 5) / 3 + Fraction(1, 7), as_cyc(-2), CycNum.zero()]
    for v in vals:
        blob = json.dumps(v.to_json())
        assert CycNum.from_json(json.loads(blob)) == v


def test_rational_hash_is_the_fraction_hash():
    # Python's numeric hash of n/d, computed from the stored (n, d): the
    # sign, denominators divisible by the hash prime P (hash_info.inf) and
    # -1, which is written as -2
    P = sys.hash_info.modulus
    rng = random.Random(20)
    nums = [0, 1, 2, P - 1, P + 1, 2 * P + 3, 10**40 + 1]
    dens = [1, 2, 3, 7, P, 3 * P, P * P, P + 2, 10**30 + 7]
    values = [Fraction(s * n, d) for s in (1, -1) for n in nums for d in dens]
    values += [Fraction(rng.choice((1, -1)) * rng.randint(0, 10**rng.randint(1, 40)),
                        rng.randint(1, 10**rng.randint(1, 40)))
               for _ in range(2000)]
    values.append(Fraction(-(P + 2), 2))  # hashes to -1 before the rule
    assert hash(values[-1]) == -2
    for f in values:
        assert hash(as_cyc(f)) == hash(f), f
        assert hash(CycNum(4, [f, 0])) == hash(f), f  # stored at conductor 1


def random_cyc(rng, base_m):
    divisors = [d for d in range(1, base_m + 1) if base_m % d == 0 and d % 4 != 2]
    m = rng.choice(divisors)
    coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
              for _ in range(euler_phi(m))]
    return CycNum(m, coeffs)


def test_field_axioms_randomized():
    # associativity, distributivity, a * a^-1 = 1 over 10^4 random elements;
    # each triple shares a base conductor <= 24 so mixed-m lifts stay in cap
    rng = random.Random(20260810)
    drawn = 0
    while drawn < 10**4:
        base = rng.choice([m for m in range(1, 25) if m % 4 != 2])
        a, b, c = (random_cyc(rng, base) for _ in range(3))
        drawn += 3
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == 1


def test_numerical_embedding_sanity():
    # zeta_m -> exp(2 pi i / m) agrees with exact arithmetic to 1e-9 relative
    rng = random.Random(11)
    for _ in range(300):
        base = rng.choice([m for m in range(1, 25) if m % 4 != 2])
        a = random_cyc(rng, base)
        b = random_cyc(rng, base)
        exact = (a * b + a - b).approx()
        floaty = a.approx() * b.approx() + a.approx() - b.approx()
        scale = max(abs(exact), abs(floaty), 1.0)
        assert abs(exact - floaty) / scale < 1e-9
    for m, e in [(7, 3), (9, 2), (16, 5), (120, 7)]:
        assert abs(root(m, e).approx() - cmath.exp(2j * cmath.pi * e / m)) < 1e-9
    # coordinates past the float range over a denominator as large
    big = 10**400
    x = CycNum(4, [Fraction(big + 1, big), Fraction(-3 * big, big + 7)])
    assert x.d > 10**700
    assert abs(x.approx() - (1 - 3j)) < 1e-9


def test_small_helpers():
    assert factorize(60) == {2: 2, 3: 1, 5: 1}
    assert euler_phi(1) == 1 and euler_phi(12) == 4
    assert is_squarefree(30) and not is_squarefree(12)
    assert primes_up_to(1) == [] and primes_up_to(13) == [2, 3, 5, 7, 11, 13]
    with pytest.raises(ValueError):
        factorize(0)


def test_is_prime_agrees_with_trial_division_below_its_bound():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(-3, 20000) if is_prime(n)] == [
        n for n in range(-3, 20000) if trial(n)]
    # Carmichael numbers, and strong pseudoprimes to the prime bases up to
    # 7 and up to 23: only the later bases expose the last two
    for n in (561, 41041, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(2**61 - 1) and not is_prime(2**67 - 1)
    # the least strong pseudoprime to the bases 2 to 37 is the bound itself
    p, q = 399165290221, 798330580441
    assert is_prime(p) and is_prime(q)
    assert p * q == cyclotomic.PRIMALITY_BOUND
    for n in (p * q, 2**89 - 1):
        with pytest.raises(ValueError, match="too large to test"):
            is_prime(n)


def test_factorize_trial_divides_only_up_to_its_bound(monkeypatch):
    bound, m61 = cyclotomic.TRIAL_BOUND, 2**61 - 1
    # largest prime below the bound, and the least prime above it
    below, above = 999983, 1000003
    assert factorize(below * below * 6) == {2: 1, 3: 1, below: 2}
    assert factorize(above * 10) == {2: 1, 5: 1, above: 1}  # under bound^2
    tested = []
    real = cyclotomic.is_prime
    monkeypatch.setattr(cyclotomic, "is_prime",
                        lambda n: tested.append(n) or real(n))
    assert factorize(2 * m61) == {2: 1, m61: 1}
    assert tested == [m61]  # only a cofactor past bound^2 is tested
    for n in (above * above, above * 1000033, 2**67 - 1, 2**89 - 1):
        with pytest.raises(ValueError, match=f"no prime factor up to {bound}"):
            factorize(3 * n)
    tested.clear()
    for n in (2310, 9699690, 6469693230, below * 7):
        factorize(n)
    assert tested == []


def test_immutability_and_repr():
    v = root(4) / 2
    with pytest.raises(AttributeError):
        v.m = 8
    assert "z4" in repr(v)
    assert repr(as_cyc(Fraction(-3, 7))) == "-3/7"


def test_rational_repr_is_the_fraction_str():
    # a rational prints from its stored (n, d) as its Fraction would
    rng = random.Random(3)
    values = [CycNum.zero(), CycNum.one(), -CycNum.one(), as_cyc(-12)]
    for _ in range(300):
        a, b = rng.randint(-10**6, 10**6), rng.choice([1, 1, rng.randint(1, 10**4)])
        values += [as_cyc(Fraction(a, b)), as_cyc(a) / b, (root(4) * a) * (root(4) * b)]
    assert any(v.d == 1 and v.n[0] < 0 for v in values)
    assert any(v.d > 1 and v.n[0] < 0 for v in values)
    for v in values:
        assert v.m == 1
        assert repr(v) == str(v.as_fraction())


def _repr_by_fractions(v):
    """repr's text built from a Fraction per coordinate: 0 is skipped, a
    coordinate +-1 writes z^i bare, the rest c*z^i, and '+ -' reads '- '."""
    parts = []
    for i, a in enumerate(Fraction(x, v.d) for x in v.n):
        if not a:
            continue
        if i == 0:
            parts.append(str(a))
        else:
            z = f"z{v.m}" if i == 1 else f"z{v.m}^{i}"
            parts.append(z if a == 1 else f"-{z}" if a == -1 else f"{a}*{z}")
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def test_repr_is_the_fraction_text():
    assert repr(root(4) / 2) == "1/2*z4"
    assert repr(1 - root(5)) == "1 - z5"
    assert repr(-root(5, 4)) == "1 + z5 + z5^2 + z5^3"
    assert repr(root(12, 5) * Fraction(-2, 5) + 1) == "1 + 2/5*z12 - 2/5*z12^3"
    rng = random.Random(52)
    huge = 10**30
    old = conductor_cap()
    set_conductor_cap(720)
    try:
        values = [CycNum.zero(), CycNum.one()]
        for m in (1, 3, 4, 5, 12, 20, 24, 60, 240, 720):
            for _ in range(20):
                den = rng.choice([1, rng.randint(2, 10**4), huge + rng.randint(1, 99)])
                coords = []
                for _ in range(euler_phi(m)):
                    kind = rng.randrange(4)
                    coords.append(0 if kind == 0 else rng.choice([1, -1]) if kind == 1
                                  else Fraction(rng.randint(-9, 9), den) if kind == 2
                                  else Fraction(rng.randint(-huge, huge), den))
                values.append(CycNum(m, coords))
        assert {v.m for v in values} >= {1, 3, 4, 5, 12, 20, 24, 60, 240, 720}
        texts = [t for v in values if v.m > 1 for t in v.coord_texts()[1:]]
        assert {"0", "1", "-1"} <= set(texts)
        assert any(abs(a) > huge // 10 for v in values for a in v.n)
        for v in values:
            assert repr(v) == _repr_by_fractions(v)
    finally:
        set_conductor_cap(old)


@pytest.mark.parametrize("value,m", [
    (CycNum.one(), 1),
    (as_cyc(Fraction(-7, 3)), 1),
    (root(4) / 3 - 1, 4),
    (root(12, 5) * Fraction(2, 5) + root(3), 12),
    (root(20, 3) - root(4) * Fraction(1, 7), 20),
], ids=["one", "rational", "m4", "m12", "m20"])
def test_pickle_round_trip(value, m):
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is CycNum and back.m == value.m == m
    assert back == value and back.to_json() == value.to_json()


@pytest.mark.parametrize("q", [2, 3, 5, 11, 1000003])
def test_a_huge_power_is_refused_as_its_formed_value_would_be(monkeypatch,
                                                              q):
    # refuse_huge_power counts the digits of (q + 1) q^e from logarithms
    # from e (bits of q - 1) >= 4 limit on, and there refuses as
    # check_printable of the formed value does, with the same digits named
    # as a floor ("at least", where check_printable says "up to"); below
    # that point it leaves the value to check_printable, even one past the
    # limit
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 640)
    start = -(-4 * 640 // (q.bit_length() - 1))
    for e in range(start, start + 4):
        with pytest.raises(ValueError) as formed:
            cyclotomic.check_printable((), [(q + 1) * q ** e])
        with pytest.raises(ValueError) as counted:
            cyclotomic.refuse_huge_power(q + 1, q, e)
        assert str(counted.value) == str(formed.value).replace("up to",
                                                               "at least")
    for e in range(start - 3, start):
        cyclotomic.refuse_huge_power(q + 1, q, e)
    with pytest.raises(ValueError, match="at most 640 can be printed"):
        cyclotomic.check_printable((), [(q + 1) * q ** (start - 1)])
