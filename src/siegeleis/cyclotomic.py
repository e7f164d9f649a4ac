"""Exact arithmetic in cyclotomic-rational fields Q(zeta_m).

Elements are stored reduced modulo the m-th cyclotomic polynomial in the
power basis 1, z, ..., z^(phi(m)-1) with Fraction coordinates; m = 1 encodes
plain rationals.  Mixed-conductor arithmetic lifts both operands to the least
common multiple conductor, which keeps equality testing exact and canonical.
Conductors m = 2 (mod 4) are rewritten into the equivalent odd-conductor
field on construction so every value has a single stored form.
"""

from __future__ import annotations

import cmath
import os
from fractions import Fraction
from math import gcd

DEFAULT_CONDUCTOR_CAP = 120

_conductor_cap = int(os.environ.get("SIEGELEIS_CONDUCTOR_CAP", DEFAULT_CONDUCTOR_CAP))


class ConductorCapError(ValueError):
    """Raised when an operation would need a conductor above the configured cap."""


def conductor_cap() -> int:
    return _conductor_cap


def set_conductor_cap(cap: int) -> None:
    global _conductor_cap
    if cap < 1:
        raise ValueError("conductor cap must be positive")
    _conductor_cap = cap


def _check_cap(m: int) -> None:
    if m > _conductor_cap:
        raise ConductorCapError(
            f"conductor {m} exceeds the configured cap {_conductor_cap}"
        )


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (inputs here are desk-scale)."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


def euler_phi(n: int) -> int:
    phi = 1
    for p, e in factorize(n).items():
        phi *= (p - 1) * p ** (e - 1)
    return phi


def is_squarefree(n: int) -> bool:
    return n >= 1 and all(e == 1 for e in factorize(n).values())


def _poly_int_divexact(num: list[int], den: list[int]) -> list[int]:
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


_cyclo_cache: dict[int, tuple[int, ...]] = {}


def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, ascending degree."""
    if m in _cyclo_cache:
        return _cyclo_cache[m]
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_int_divexact(poly, list(cyclotomic_polynomial(d)))
    out = tuple(poly)
    _cyclo_cache[m] = out
    return out


_red_cache: dict[int, list[tuple[int, ...]]] = {}


def _reduction_rows(m: int) -> list[tuple[int, ...]]:
    """Row e = coordinates of z^e in the power basis, for e in range(m)."""
    if m in _red_cache:
        return _red_cache[m]
    phi = euler_phi(m)
    top = cyclotomic_polynomial(m)
    rows: list[tuple[int, ...]] = []
    cur = [0] * phi
    for e in range(m):
        if e < phi:
            row = [0] * phi
            row[e] = 1
            rows.append(tuple(row))
            if e == phi - 1:
                cur = list(row)
            continue
        # multiply previous row by z and reduce by Phi_m (monic)
        lead = cur[-1]
        nxt = [0] + cur[:-1]
        if lead:
            for j in range(phi):
                nxt[j] -= lead * top[j]
        rows.append(tuple(nxt))
        cur = nxt
    _red_cache[m] = rows
    return rows


_F0 = Fraction(0)
_F1 = Fraction(1)


def _reduce_exponents(m: int, raw: dict[int, Fraction]) -> tuple[Fraction, ...]:
    """Collapse a sparse exponent->coefficient map into power-basis coords."""
    phi = euler_phi(m)
    rows = _reduction_rows(m)
    out = [_F0] * phi
    for e, c in raw.items():
        if not c:
            continue
        row = rows[e % m]
        for j, r in enumerate(row):
            if r:
                out[j] += c * r
    return tuple(out)


class CycNum:
    """An element of Q(zeta_m), immutable."""

    __slots__ = ("m", "c")
    __hash__ = None  # cross-conductor equality makes a sound hash pointless here

    def __init__(self, m: int, coeffs):
        coeffs = tuple(Fraction(x) for x in coeffs)
        if len(coeffs) != euler_phi(m):
            raise ValueError("coefficient length must equal phi(m)")
        m, coeffs = _normalize(m, coeffs)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "c", coeffs)

    def __setattr__(self, *a):
        raise AttributeError("CycNum is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _raw(m: int, coeffs: tuple[Fraction, ...]) -> "CycNum":
        self = object.__new__(CycNum)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "c", coeffs)
        return self

    @staticmethod
    def from_rational(x) -> "CycNum":
        return CycNum._raw(1, (Fraction(x),))

    @staticmethod
    def zero() -> "CycNum":
        return _ZERO

    @staticmethod
    def one() -> "CycNum":
        return _ONE

    @staticmethod
    def root_of_unity(order: int, power: int = 1) -> "CycNum":
        """zeta_order^power, stored at its minimal conductor."""
        if order < 1:
            raise ValueError("order must be positive")
        power %= order
        g = gcd(power, order)
        order //= g
        power //= g
        if order == 1:
            return _ONE
        if order == 2:
            return CycNum.from_rational(-1)
        if order % 4 == 2:
            # zeta_{2n} = -zeta_n^{(n+1)/2} for odd n
            n = order // 2
            sign = -1 if power % 2 else 1
            e = (power * ((n + 1) // 2)) % n
            base = CycNum.root_of_unity(n, e)
            return -base if sign < 0 else base
        _check_cap(order)
        coeffs = _reduce_exponents(order, {power: _F1})
        m, coeffs = _normalize(order, coeffs)
        return CycNum._raw(m, coeffs)

    # -- predicates / accessors -------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.c)

    def is_one(self) -> bool:
        return self.m == 1 and self.c[0] == 1

    def is_rational(self) -> bool:
        return self.m == 1

    def as_fraction(self) -> Fraction:
        if self.m != 1:
            raise ValueError(f"{self!r} is not rational")
        return self.c[0]

    def approx(self) -> complex:
        """Float embedding zeta_m -> exp(2*pi*i/m); test-side sanity only."""
        z = cmath.exp(2j * cmath.pi / self.m)
        val = 0j
        for i in range(len(self.c) - 1, -1, -1):
            val = val * z + complex(self.c[i])
        return val

    # -- arithmetic --------------------------------------------------------

    def _lift(self, n: int) -> tuple[Fraction, ...]:
        """Coordinates of self inside Q(zeta_n), m | n."""
        if n == self.m:
            return self.c
        step = n // self.m
        raw = {i * step: a for i, a in enumerate(self.c) if a}
        return _reduce_exponents(n, raw)

    def __add__(self, other):
        other = as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        if self.m == other.m:
            return _norm_raw(self.m, tuple(a + b for a, b in zip(self.c, other.c)))
        n = _lcm_conductor(self.m, other.m)
        return _norm_raw(n, tuple(a + b for a, b in zip(self._lift(n), other._lift(n))))

    __radd__ = __add__

    def __neg__(self):
        return CycNum._raw(self.m, tuple(-a for a in self.c))

    def __sub__(self, other):
        other = as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        other = as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__add__(-self)

    def __mul__(self, other):
        other = as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.m == 1:
            s = other.c[0]
            if not s:
                return _ZERO
            return _norm_raw(self.m, tuple(a * s for a in self.c))
        if self.m == 1:
            s = self.c[0]
            if not s:
                return _ZERO
            return _norm_raw(other.m, tuple(a * s for a in other.c))
        n = self.m if self.m == other.m else _lcm_conductor(self.m, other.m)
        a, b = self._lift(n), other._lift(n)
        raw: dict[int, Fraction] = {}
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    k = i + j
                    raw[k] = raw.get(k, _F0) + ai * bj
        return _norm_raw(n, _reduce_exponents(n, raw))

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.m == 1:
            return CycNum._raw(1, (1 / self.c[0],))
        phi_poly = [Fraction(x) for x in cyclotomic_polynomial(self.m)]
        u = _poly_mod_inverse(list(self.c), phi_poly)
        coeffs = _reduce_exponents(self.m, {i: a for i, a in enumerate(u) if a})
        return _norm_raw(self.m, coeffs)

    def __truediv__(self, other):
        other = as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero")
        if other.m == 1:
            return _norm_raw(self.m, tuple(a / other.c[0] for a in self.c))
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__truediv__(self)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        out = _ONE
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __eq__(self, other):
        other = as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        if self.m == other.m:
            return self.c == other.c
        n = _lcm_conductor(self.m, other.m)
        return self._lift(n) == other._lift(n)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.m == 1:
            return str(self.c[0])
        parts = []
        for i, a in enumerate(self.c):
            if not a:
                continue
            if i == 0:
                parts.append(str(a))
            else:
                z = f"z{self.m}" if i == 1 else f"z{self.m}^{i}"
                parts.append(z if a == 1 else f"-{z}" if a == -1 else f"{a}*{z}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    # -- JSON --------------------------------------------------------------

    def to_json(self):
        return {"m": self.m, "coeffs": [str(a) for a in self.c]}

    @staticmethod
    def from_json(obj) -> "CycNum":
        return CycNum(int(obj["m"]), [Fraction(s) for s in obj["coeffs"]])


def _lcm_conductor(a: int, b: int) -> int:
    n = a * b // gcd(a, b)
    _check_cap(n)
    return n


def _normalize(m: int, coeffs: tuple[Fraction, ...]) -> tuple[int, tuple[Fraction, ...]]:
    while m % 4 == 2:
        # rewrite into Q(zeta_{m/2}) via zeta_m = -zeta_{m/2}^{(m/2+1)/2}
        n = m // 2
        step = (n + 1) // 2
        raw: dict[int, Fraction] = {}
        for i, a in enumerate(coeffs):
            if not a:
                continue
            e = (i * step) % n
            raw[e] = raw.get(e, _F0) + (-a if i % 2 else a)
        coeffs = _reduce_exponents(n, raw)
        m = n
    if m > 1 and not any(coeffs[1:]):
        return 1, (coeffs[0],)
    return m, coeffs


def _norm_raw(m: int, coeffs: tuple[Fraction, ...]) -> CycNum:
    m, coeffs = _normalize(m, coeffs)
    return CycNum._raw(m, coeffs)


def as_cyc(x) -> "CycNum":
    if isinstance(x, CycNum):
        return x
    if isinstance(x, (int, Fraction)):
        return CycNum._raw(1, (Fraction(x),))
    return NotImplemented


def _poly_deg(p: list[Fraction]) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i]:
            return i
    return -1


def _poly_mod_inverse(a: list[Fraction], mod: list[Fraction]) -> list[Fraction]:
    """Inverse of a modulo mod in Q[x] via extended Euclid; gcd must be 1."""
    r0, r1 = list(mod), list(a)
    s0, s1 = [_F0], [_F1]
    while _poly_deg(r1) > 0:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
    d = _poly_deg(r1)
    if d != 0:
        raise ZeroDivisionError("element is not invertible")
    inv_lead = 1 / r1[0]
    return [x * inv_lead for x in s1]


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    dn, dd = _poly_deg(num), _poly_deg(den)
    if dd < 0:
        raise ZeroDivisionError("polynomial division by zero")
    q = [_F0] * max(dn - dd + 1, 1)
    r = list(num)
    lead = den[dd]
    for i in range(dn - dd, -1, -1):
        c = r[i + dd] / lead
        if c:
            q[i] = c
            for j in range(dd + 1):
                r[i + j] -= c * den[j]
    return q, r


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [_F0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else _F0) - (b[i] if i < len(b) else _F0) for i in range(n)
    ]


_ZERO = CycNum._raw(1, (_F0,))
_ONE = CycNum._raw(1, (_F1,))
