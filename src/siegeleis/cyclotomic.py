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
holds it.  The inverse is x^-1 = N(x)^-1 * prod_{sigma != 1} sigma(x), the
product of the other Galois conjugates over the norm, formed on integer
numerators over a basis of cyclic subgroups of (Z/m)^x by doubling; x^-1
keeps the least conductor of x.  Phi_m is built with no polynomial division
as the Moebius product of the binomials x^d - 1, d | m.  Every coordinate
n[i] / d is printed by one rule, coord_texts: the JSON text and repr, and
so the csv and the error texts that print repr, write the same digits.
"""

from __future__ import annotations

import cmath
import os
import sys
from fractions import Fraction
from functools import cache
from math import gcd, lcm, log10, prod

DEFAULT_CONDUCTOR_CAP = 120

_conductor_cap = DEFAULT_CONDUCTOR_CAP

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


def _cap_from_environment() -> None:
    """Apply SIEGELEIS_CONDUCTOR_CAP, if set, by set_conductor_cap's rule."""
    text = os.environ.get("SIEGELEIS_CONDUCTOR_CAP")
    if text is not None:
        try:
            set_conductor_cap(int(text))
        except ValueError:
            raise ValueError(f"SIEGELEIS_CONDUCTOR_CAP={text!r} is not a "
                             f"positive integer") from None


_cap_from_environment()


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


@cache
def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct primes of n >= 1, ascending.  The one memo of a
    factorization: a level is factored once however many callers ask, and
    the tuple cannot be changed by any of them."""
    return tuple(sorted(factorize(n)))


def is_squarefree(n: int) -> bool:
    # n is square-free exactly when it is the product of its primes
    return n >= 1 and prod(prime_factors(n)) == n


@cache
def smallest_primitive_root(q: int) -> int:
    if not is_prime(q):
        raise ValueError(f"{q} is not prime")
    if q == 2:
        return 1
    order_factors = prime_factors(q - 1)
    for g in range(2, q):
        if all(pow(g, (q - 1) // p, q) != 1 for p in order_factors):
            return g
    raise AssertionError("no primitive root found")


@cache
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m, ascending degree, as the Moebius
    product prod_{d | m} (x^d - 1)^mu(m/d), d running over the divisors
    with m/d square-free: the inversion of x^m - 1 = prod_{d | m} Phi_d
    (Washington, Introduction to Cyclotomic Fields, Ch. 2).  Each binomial
    with mu = 1 multiplies in one pass from the top; each with mu = -1 then
    divides exactly in one pass from the bottom, by the same p[i] = p[i-d]
    - p[i], and leaves a zero remainder in the top d coefficients."""
    signed = [(m, 1)]
    for q in prime_factors(m):
        signed += [(d // q, -mu) for d, mu in signed]
    p = [1]
    for d in [d for d, mu in signed if mu == 1]:  # p *= x^d - 1
        p += [0] * d
        for i in range(len(p) - 1, -1, -1):
            p[i] = (p[i - d] if i >= d else 0) - p[i]
    for d in [d for d, mu in signed if mu == -1]:  # p /= x^d - 1
        for i in range(len(p)):
            p[i] = (p[i - d] if i >= d else 0) - p[i]
        assert not any(p[-d:])
        del p[-d:]
    return tuple(p)


_Rows = list[tuple[tuple[int, int], ...]]


@cache
def _reduction_rows(m: int) -> tuple[int, _Rows]:
    """phi(m) and, for e in range(m), row e = the nonzero (j, c) coordinates
    of z^e in the power basis."""
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


def root_sum_growth(m: int) -> int:
    """The largest absolute coordinate sum of a root of unity in Q(zeta_k),
    k | m: a value of Q(zeta_m) that is a sum of roots of unity with weights
    of absolute sum W has coordinates of absolute sum at most W times this
    (the trace down to its field, over the degree, keeps W: _subfields)."""
    return max(sum(abs(c) for _, c in row)
               for k in divisors(m) for row in _reduction_rows(k)[1])


def _height(c: CycNum) -> int:
    return max(c.d, sum(map(abs, c.n)))


def check_printable(values, factors=()) -> None:
    """Refuse, with ValueError, an output that prints `values` and integers
    of at most rho times the product of `factors` (rho the root_sum_growth
    of the values' fields), where one may pass sys.get_int_max_str_digits()
    digits, the most that str() writes.  A value c = (sum n_i z^i) / d
    prints integers of at most H(c) = max(d, sum |n_i|); a product of
    values f_j, whose denominator divides the product of the d(f_j), at
    most rho times the product of the H(f_j)."""
    limit = sys.get_int_max_str_digits()
    bound = (max([prod(factors), *map(_height, values)])
             * root_sum_growth(lcm(*{v.m for v in values})))
    # below 2^(3 limit), which is below 10^limit, no power need be formed
    if limit and bound.bit_length() > 3 * limit and bound >= 10 ** limit:
        raise _past_limit(int(log10(bound)) + 1, limit)


def refuse_huge_power(c: int, q: int, e: int) -> None:
    """Refuse, as check_printable of the integer c * q^e would (c >= 1,
    q >= 2), a power too large to form cheaply: one with e * (bits of q,
    less 1) >= 4 limit, so q^e >= 16^limit > 10^limit.  Its digits are
    counted from logarithms, so a huge e costs neither time nor memory, and
    named as a floor ("at least"): the output may print longer integers.
    A smaller power is left to check_printable of the output, once built."""
    limit = sys.get_int_max_str_digits()
    if limit and e * (q.bit_length() - 1) >= 4 * limit:
        raise _past_limit(int(log10(c) + e * log10(q)) + 1, limit, "at least")


def _past_limit(digits: int, limit: int, bound: str = "up to") -> ValueError:
    return ValueError(f"the output would print integers of {bound} {digits} "
                      f"digits; at most {limit} can be printed")


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
        d = self.d
        val = 0j
        for a in reversed(self.n):
            val = val * z + a / d  # int division rounds as float(Fraction)
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
        # the shared one is a common factor of table and basis entries
        if other is _ONE:
            return self
        if self is _ONE:
            return other
        if other.m == 1:
            if self.m == 1:
                return _rational(self.n[0] * other.n[0], self.d * other.d)
            return self._scale(other.n[0], other.d)
        if self.m == 1:
            return other._scale(self.n[0], self.d)
        m = self.m if self.m == other.m else _lcm_conductor(self.m, other.m)
        return _make(m, _mul_poly(m, self._lift(m), other._lift(m)),
                     self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        m, d = self.m, self.d
        if m == 1:
            a = self.n[0]
            if not a:
                raise ZeroDivisionError("inverse of zero")
            return _raw(1, (d,), a) if a > 0 else _raw(1, (-d,), -a)
        # (num / d)^-1 = d * c / N(num), c the product of the other conjugates
        c, norm = _norm_cofactor(m, self.n)
        if norm < 0:
            norm, d = -norm, -d
        # x and 1/x generate the same field, so m stays the least conductor
        out = [d * a for a in c]
        g = gcd(norm, *out)
        if g != 1:
            return _raw(m, tuple(a // g for a in out), norm // g)
        return _raw(m, tuple(out), norm)

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
        # each coordinate by coord_texts, the rule the JSON output prints
        parts = []
        for i, t in enumerate(self.coord_texts()):
            if t == "0":
                continue
            if i == 0:
                parts.append(t)
            else:
                z = f"z{self.m}" if i == 1 else f"z{self.m}^{i}"
                parts.append(z if t == "1" else f"-{z}" if t == "-1" else f"{t}*{z}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    # -- JSON --------------------------------------------------------------

    def coord_texts(self) -> list[str]:
        """Each coordinate n[i] / d as JSON prints it, reduced by their gcd."""
        d = self.d
        return [str(a // g) if (g := gcd(a, d)) == d else f"{a // g}/{d // g}"
                for a in self.n]

    def to_json(self):
        return {"m": self.m, "coeffs": self.coord_texts()}

    def json_text(self, depth: int) -> str:
        """The bytes of json.dumps(self.to_json(), indent=2, sort_keys=True)
        with each newline indented to `depth`, written from the stored form."""
        pad = "\n" + "  " * depth
        sep = '",' + pad + '    "'
        return (f'{{{pad}  "coeffs": [{pad}    "{sep.join(self.coord_texts())}"'
                f'{pad}  ],{pad}  "m": {self.m}{pad}}}')

    @staticmethod
    def from_json(obj) -> "CycNum":
        return CycNum(int(obj["m"]), obj["coeffs"])


def value_texts():
    """CycNum.json_text memoized by stored form and depth, so that each
    distinct value is encoded once per depth."""
    memo: dict = {}

    def value(c: CycNum, depth: int) -> str:
        key = (c.m, c.n, c.d, depth)
        return memo.get(key) or memo.setdefault(key, c.json_text(depth))
    return value


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


def exact_sum(values, coeffs=None) -> CycNum:
    """sum(values), or sum(c * v) over zip(coeffs, values), for a sequence
    of values, as the canonical value that the left fold of + (and *) from
    zero stores.  The rational terms are added as integers over the lcm of
    their denominators and reduced once (_rational); the others are folded
    onto that with +.  A lone value is returned as it is."""
    if coeffs is None:
        if len(values) == 1:
            return values[0]
        terms = values
    else:  # a rational product is kept as its (n, d), with no object
        terms = [(c.n[0] * v.n[0], c.d * v.d) if c.m == v.m == 1 else c * v
                 for c, v in zip(coeffs, values)]
    num, den, rest = 0, 1, []
    for t in terms:
        if type(t) is tuple:
            n, d = t
        elif t.m == 1:
            n, d = t.n[0], t.d
        else:
            rest.append(t)
            continue
        if d == den:
            num += n
        else:
            g = lcm(den, d)
            num = num * (g // den) + n * (g // d)
            den = g
    total = _rational(num, den)
    for t in rest:
        total = total + t
    return total


def _mul_poly(m: int, a, b) -> list[int]:
    """Power-basis numerators of a(z) * b(z) in Q(zeta_m), for numerators
    a and b at m."""
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
    return out


@cache
def _galois_generators(m: int) -> tuple[tuple[int, int], ...]:
    """(g, k) pairs, g in (Z/m)^x of order k, such that (Z/m)^x is the
    direct product of the cyclic groups <g>: per prime power p^e of m, a
    primitive root mod p^e for odd p, -1 and 5 mod 2^e, each lifted to 1
    mod the rest of m (Chinese remaindering)."""
    out = []
    for p, e in factorize(m).items():
        q = p**e
        rest = m // q
        if p == 2:  # e >= 2, as m is never 2 mod 4
            gens = [(q - 1, 2)] + ([(5, q // 4)] if e >= 3 else [])
        else:
            r = smallest_primitive_root(p)
            if e >= 2 and pow(r, p - 1, p * p) == 1:
                r += p  # a primitive root mod p^2 is one mod every p^e
            gens = [(r, (p - 1) * q // p)]
        for g, k in gens:
            # g mod q and 1 mod rest
            out.append((((g - 1) * rest * pow(rest, -1, q) + 1) % m, k))
    return tuple(out)


def _conjugate(m: int, h: int, a) -> list[int]:
    """Numerators of sigma_h(a), for sigma_h: z -> z^h."""
    return _collect(m, ((h * i, c) for i, c in enumerate(a)))


def _norm_cofactor(m: int, a) -> tuple[list[int], int]:
    """(c, N) for integer numerators a at m: c the product of sigma(a) over
    the Galois automorphisms sigma != 1 of Q(zeta_m), and N = a c the norm,
    an integer (Cohen, A Course in Computational Algebraic Number Theory,
    Ch. 4).  With (Z/m)^x the direct product of cyclic groups <g> of order k
    (_galois_generators), and w the product of a's conjugates under the
    groups taken so far, the new conjugates multiply c and w by
    f = prod_{0 < i < k} sigma_{g^i}(w), which doubling forms in O(log k)
    products.  Nothing is canonicalised on the way."""
    gens = _galois_generators(m)
    c, w = None, a
    for n, (g, k) in enumerate(gens, 1):
        # f = prod_{1 <= i <= j} sigma_{g^i}(w), from j = 1 up to k - 1
        f, j = _conjugate(m, g, w), 1
        for bit in bin(k - 1)[3:]:
            f = _mul_poly(m, f, _conjugate(m, pow(g, j, m), f))
            j *= 2
            if bit == "1":
                j += 1
                f = _mul_poly(m, f, _conjugate(m, pow(g, j, m), w))
        c = f if c is None else _mul_poly(m, c, f)
        if n == len(gens):
            return c, _mul_poly(m, w, f)[0]
        w = _mul_poly(m, w, f)


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
