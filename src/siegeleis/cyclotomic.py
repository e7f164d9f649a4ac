"""Exact arithmetic in cyclotomic-rational fields Q(zeta_m).

Elements are stored reduced modulo the m-th cyclotomic polynomial in the
power basis 1, z, ..., z^(phi(m)-1), as a tuple of integer numerators over
one positive integer denominator (the layout of FLINT's fmpq_poly).  The
stored form is canonical across conductors, as GAP's cyclotomics are: m is
the least conductor whose field holds the value (never 2 mod 4), the
denominator is coprime to the content of the numerators, and zero is m = 1,
numerators (0,), denominator 1.  So equality and hashing compare stored forms.
Mixed-conductor arithmetic lifts both operands to the least common multiple
conductor; a sum or product is then reduced into the least subfield that
holds it.  Inverses are fraction-free: Bareiss elimination on the integer
matrix of multiplication by the numerator.
"""

from __future__ import annotations

import cmath
import os
import sys
from fractions import Fraction
from functools import cache
from math import gcd, lcm

DEFAULT_CONDUCTOR_CAP = 120

_conductor_cap = int(os.environ.get("SIEGELEIS_CONDUCTOR_CAP", DEFAULT_CONDUCTOR_CAP))

_HASH_P, _HASH_INF = sys.hash_info.modulus, sys.hash_info.inf  # numeric hash


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
    if m % 4 == 2:
        m //= 2  # the field Q(zeta_m) is Q(zeta_{m/2})
    if m > _conductor_cap:
        raise ConductorCapError(
            f"conductor {m} exceeds the configured cap {_conductor_cap}"
        )


# the largest trial divisor of factorize (about 0.08 s of it in CPython 3.11)
TRIAL_BOUND = 10**6


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division by d <= TRIAL_BOUND.  A
    cofactor with no divisor up to the bound is prime below TRIAL_BOUND^2;
    past that it is kept only if is_prime accepts it, and otherwise n is
    refused with ValueError, so no input is trial-divided further (the
    desk and benchmark levels never reach is_prime)."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    n0, d = n, 2
    while d * d <= n and d <= TRIAL_BOUND:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if d * d <= n and not (n < PRIMALITY_BOUND and is_prime(n)):
        raise ValueError(f"cannot factor {n0}: its cofactor {n} has no prime "
                         f"factor up to {TRIAL_BOUND} and is not a prime below "
                         f"{PRIMALITY_BOUND}")
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """Positive divisors of n >= 1, ascending."""
    divs = [1]
    for p, e in factorize(n).items():
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to every base above (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017)
PRIMALITY_BOUND = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Primality of n < PRIMALITY_BOUND (about 3.2e23): trial division by
    the primes 2 to 37, then the strong probable-prime test (Miller-Rabin)
    to those bases, which no composite below the bound passes.  A larger n
    raises ValueError."""
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"{n} is too large to test for primality; "
                         f"the bound is {PRIMALITY_BOUND}")
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        # for prime n, a^d = 1 or a^(d 2^i) = -1 for some i < s
        xs = [pow(a, d << i, n) for i in range(s)]
        if xs[0] != 1 and n - 1 not in xs:
            return False
    return True


def primes_up_to(n: int) -> list[int]:
    """Primes p <= n, ascending."""
    return [p for p in range(2, n + 1) if is_prime(p)]


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


_Rows = list[tuple[tuple[int, int], ...]]
_red_cache: dict[int, tuple[int, _Rows]] = {}


def _reduction_rows(m: int) -> tuple[int, _Rows]:
    """phi(m) and, for e in range(m), row e = the nonzero (j, c) coordinates
    of z^e in the power basis."""
    if m in _red_cache:
        return _red_cache[m]
    phi = euler_phi(m)
    top = cyclotomic_polynomial(m)
    rows: _Rows = []
    cur: list[int] = []
    for e in range(m):
        if e < phi:
            cur = [0] * phi
            cur[e] = 1
        else:
            # multiply the previous row by z and reduce by Phi_m (monic)
            lead = cur[-1]
            cur = [0] + cur[:-1]
            if lead:
                for j in range(phi):
                    cur[j] -= lead * top[j]
        rows.append(tuple((j, c) for j, c in enumerate(cur) if c))
    _red_cache[m] = (phi, rows)
    return phi, rows


def _collect(m: int, terms) -> list[int]:
    """Power-basis numerators of the sum of c * z^e over (e, c) in terms."""
    phi, rows = _reduction_rows(m)
    out = [0] * phi
    for e, c in terms:
        if c:
            for j, r in rows[e % m]:
                out[j] += c * r
    return out


_new = object.__new__


class CycNum:
    """An element of Q(zeta_m), immutable: (sum n[i] z^i) / d."""

    __slots__ = ("m", "n", "d")

    def __new__(cls, m: int, coeffs):
        if m < 1:
            raise ValueError("conductor must be positive")
        _check_cap(m)
        phi = euler_phi(m)
        fracs = [Fraction(x) for x in coeffs]
        if len(fracs) != phi:
            raise ValueError("coefficient length must equal phi(m)")
        d = lcm(*(f.denominator for f in fracs))
        return _make(m, [f.numerator * (d // f.denominator) for f in fracs], d)

    def __setattr__(self, *a):
        raise AttributeError("CycNum is immutable")

    def __reduce__(self):
        # the stored form is canonical, so it is rebuilt as it is
        return _raw, (self.m, self.n, self.d)

    # -- constructors ------------------------------------------------------

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
        _check_cap(order)
        return _make(order, _collect(order, ((power, 1),)), 1)

    # -- predicates / accessors -------------------------------------------

    @property
    def c(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions, a derived view for repr and approx."""
        d = self.d
        return tuple(Fraction(a, d) for a in self.n)

    def is_zero(self) -> bool:
        return self.m == 1 and not self.n[0]

    def is_one(self) -> bool:
        return self.m == 1 and self.n[0] == 1 and self.d == 1

    def is_rational(self) -> bool:
        return self.m == 1

    def as_fraction(self) -> Fraction:
        if self.m != 1:
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.n[0], self.d)

    def approx(self) -> complex:
        """Float embedding zeta_m -> exp(2*pi*i/m); test-side sanity only."""
        z = cmath.exp(2j * cmath.pi / self.m)
        val = 0j
        for a in reversed(self.c):
            val = val * z + complex(a)
        return val

    # -- arithmetic --------------------------------------------------------

    def _lift(self, n: int):
        """Numerators of self inside Q(zeta_n), m | n, over the same d."""
        if n == self.m:
            return self.n
        step = n // self.m
        return _collect(n, ((i * step, a) for i, a in enumerate(self.n)))

    def _scale(self, sn: int, sd: int) -> "CycNum":
        """self * sn / sd, for sd > 0."""
        if not sn:
            return _ZERO
        return _make(self.m, [a * sn for a in self.n], self.d * sd)

    def __add__(self, other):
        if type(other) is not CycNum:
            other = as_cyc(other)
            if other is NotImplemented:
                return NotImplemented
        m, da, db = self.m, self.d, other.d
        if m == other.m:
            if m == 1:
                if da == db:
                    return _rational(self.n[0] + other.n[0], da)
                return _rational(self.n[0] * db + other.n[0] * da, da * db)
            a, b = self.n, other.n
        else:
            m = _lcm_conductor(m, other.m)
            a, b = self._lift(m), other._lift(m)
        if da == db:
            return _make(m, [x + y for x, y in zip(a, b)], da)
        return _make(m, [x * db + y * da for x, y in zip(a, b)], da * db)

    __radd__ = __add__

    def __neg__(self):
        if self.m == 1:
            return _raw(1, (-self.n[0],), self.d)
        return _raw(self.m, tuple(-a for a in self.n), self.d)

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
        if type(other) is not CycNum:
            other = as_cyc(other)
            if other is NotImplemented:
                return NotImplemented
        if other.m == 1:
            if self.m == 1:
                return _rational(self.n[0] * other.n[0], self.d * other.d)
            return self._scale(other.n[0], other.d)
        if self.m == 1:
            return other._scale(self.n[0], self.d)
        m = self.m if self.m == other.m else _lcm_conductor(self.m, other.m)
        a, b = self._lift(m), other._lift(m)
        phi, rows = _reduction_rows(m)
        prod = [0] * (2 * phi - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    if y:
                        prod[k] += x * y
        out = prod[:phi]
        for e in range(phi, 2 * phi - 1):
            c = prod[e]
            if c:
                for j, r in rows[e % m]:
                    out[j] += c * r
        return _make(m, out, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        m, d = self.m, self.d
        if m == 1:
            a = self.n[0]
            if not a:
                raise ZeroDivisionError("inverse of zero")
            return _raw(1, (d,), a) if a > 0 else _raw(1, (-d,), -a)
        # (num / d)^-1 = d * A^-1 e_0 = d * y / det, A = multiplication by num
        y, det = _solve_unit(m, self.n)
        if det < 0:
            det, d = -det, -d
        return _make(m, [d * a for a in y], det)

    def __truediv__(self, other):
        other = as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        if other.m == 1:
            b = other.n[0]
            if not b:
                raise ZeroDivisionError("division by zero")
            return self._scale(other.d, b) if b > 0 else self._scale(-other.d, -b)
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
        if self.m == 1:
            return _raw(1, (self.n[0] ** e,), self.d ** e)
        out = _ONE
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base if e > 1 else base
            e >>= 1
        return out

    def __eq__(self, other):
        if type(other) is not CycNum:
            other = as_cyc(other)
            if other is NotImplemented:
                return NotImplemented
        return self.m == other.m and self.d == other.d and self.n == other.n

    def __hash__(self):
        if self.m > 1:
            return hash((self.m, self.n, self.d))
        # a rational hashes as the int or Fraction it equals, by Python's
        # numeric hash of n / d
        n, d = self.n[0], self.d
        h = abs(n) * pow(d, -1, _HASH_P) % _HASH_P if d % _HASH_P else _HASH_INF
        h = h if n >= 0 else -h
        return -2 if h == -1 else h

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.m == 1:  # (n, d) is reduced with d > 0, as Fraction prints it
            return str(self.n[0]) if self.d == 1 else f"{self.n[0]}/{self.d}"
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
        d = self.d
        coeffs = []
        for a in self.n:
            g = gcd(a, d)
            coeffs.append(str(a // g) if g == d else f"{a // g}/{d // g}")
        return {"m": self.m, "coeffs": coeffs}

    @staticmethod
    def from_json(obj) -> "CycNum":
        return CycNum(int(obj["m"]), obj["coeffs"])


_set_m = CycNum.m.__set__
_set_n = CycNum.n.__set__
_set_d = CycNum.d.__set__


def _raw(m: int, n: tuple[int, ...], d: int) -> CycNum:
    # the caller guarantees the canonical form
    self = _new(CycNum)
    _set_m(self, m)
    _set_n(self, n)
    _set_d(self, d)
    return self


@cache
def _subfields(m: int) -> tuple:
    """The maximal subfields Q(zeta_s) of Q(zeta_m), s = m/p for each prime
    p | m, as (s, p, zeros, deg, trace).  zeta_s is z^p at m; zeros are the
    numerator positions that are 0 for every element of Q(zeta_s) at m
    (none for odd s = m/2: the whole field); deg = [Q(zeta_m) : Q(zeta_s)];
    and the trace down to Q(zeta_s) maps z^i to w zeta_s^u, (u, w) =
    trace[i].  For p | s the conjugates z^(i + k i s), k mod p, of z^i sum
    to p z^i if p | i, else to 0; for p not dividing s, z^i = zeta_s^u
    zeta_p^v, and zeta_p^(v t) over the units t mod p sums to p - 1 or -1."""
    phi = euler_phi(m)
    out = []
    for p in factorize(m):
        s = m // p
        lifts = [_collect(m, ((i * p, 1),)) for i in range(euler_phi(s))]
        zeros = tuple(j for j in range(phi) if not any(r[j] for r in lifts))
        if s % p:
            inv = pow(p, -1, s)
            deg, trace = p - 1, tuple((i * inv % s, -1 if i % p else p - 1)
                                      for i in range(phi))
        else:
            deg, trace = p, tuple((i // p, 0 if i % p else p) for i in range(phi))
        out.append((s, p, zeros, deg, trace))
    return tuple(out)


def _make(m: int, n, d: int) -> CycNum:
    """The canonical value of (sum n[i] z^i) / d at conductor m, for d > 0.

    x lies in Q(zeta_s) exactly when x = trace(x) / deg: the trace, written
    at s, is lifted back (_collect) and compared, and a value that passes is
    reduced again at s.  A nonzero numerator at one of the zeros rules the
    subfield out first, and for most values the first zero does."""
    if m == 1:
        return _rational(n[0], d)
    for s, p, zeros, deg, trace in _subfields(m):
        if zeros and (n[zeros[0]] or any(map(n.__getitem__, zeros))):
            continue
        y = _collect(s, ((u, w * a) for (u, w), a in zip(trace, n)))
        if _collect(m, ((i * p, b) for i, b in enumerate(y))) == [
                deg * a for a in n]:
            return _make(s, y, d * deg)
    if d != 1:
        g = gcd(d, *n)
        if g != 1:
            return _raw(m, tuple(a // g for a in n), d // g)
    return _raw(m, tuple(n), d)


def _rational(a: int, d: int) -> CycNum:
    """The canonical value of a / d, for d > 0."""
    if not a:
        return _ZERO
    if d != 1:
        g = gcd(a, d)
        if g != 1:
            a //= g
            d //= g
    return _raw(1, (a,), d)


def _solve_unit(m: int, num) -> tuple[list[int], int]:
    """(y, det) with A y = det * e_0, A the integer matrix of multiplication
    by num(z) in Q(zeta_m) and det = +-det(A): Bareiss elimination, so every
    intermediate is an integer minor."""
    top = cyclotomic_polynomial(m)
    phi = len(num)
    cols = [list(num)]
    for _ in range(phi - 1):
        # column j + 1 = z * column j, reduced by Phi_m (monic)
        prev = cols[-1]
        lead = prev[-1]
        col = [0] + prev[:-1]
        if lead:
            for j in range(phi):
                col[j] -= lead * top[j]
        cols.append(col)
    a = [[col[r] for col in cols] + [int(r == 0)] for r in range(phi)]
    prev_pivot = 1
    for k in range(phi):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, phi) if a[i][k]), None)
            if swap is None:
                raise ZeroDivisionError("element is not invertible")
            a[k], a[swap] = a[swap], a[k]
        pivot, row_k = a[k][k], a[k]
        for row in a[k + 1:]:
            f = row[k]
            for j in range(k + 1, phi + 1):
                row[j] = (row[j] * pivot - f * row_k[j]) // prev_pivot
        prev_pivot = pivot
    det = a[-1][-2]
    # back substitution on det * x, which is integral by Cramer's rule
    y = [0] * phi
    for i in range(phi - 1, -1, -1):
        row = a[i]
        s = det * row[phi] - sum(row[j] * y[j] for j in range(i + 1, phi))
        y[i] = s // row[i]
    return y, det


def _lcm_conductor(a: int, b: int) -> int:
    n = lcm(a, b)
    _check_cap(n)
    return n


def as_cyc(x) -> "CycNum":
    if isinstance(x, CycNum):
        return x
    if isinstance(x, int):
        return _raw(1, (int(x),), 1)
    if isinstance(x, Fraction):
        return _raw(1, (x.numerator,), x.denominator)
    return NotImplemented


_ZERO = _raw(1, (0,), 1)
_ONE = _raw(1, (1,), 1)
