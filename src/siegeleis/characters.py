"""Dirichlet characters modulo square-free N, stored as products of local
characters.

A local character at an odd prime q is labeled by an exponent j with
0 <= j < q-1: it sends the smallest primitive root mod q to zeta_{q-1}^j.
The group mod 2 is trivial, so the only local character at 2 is trivial.
The smallest-primitive-root convention makes labels deterministic across
runs and platforms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from math import gcd, lcm

from .cyclotomic import (CycNum, _check_cap, is_prime, is_squarefree,
                         prime_factors, smallest_primitive_root)

_ZERO = CycNum.zero()
_ONE = CycNum.one()


def legendre_epsilon(q: int) -> int:
    """(-1|q) for an odd prime q: +1 iff q = 1 (mod 4)."""
    if q == 2 or not is_prime(q):
        raise ValueError(f"legendre_epsilon needs an odd prime, got {q}")
    return 1 if q % 4 == 1 else -1


@dataclass(frozen=True)
class LocalCharacter:
    """Character of (Z/qZ)* sending the canonical generator to zeta_{q-1}^j."""

    q: int
    j: int

    def __post_init__(self):
        if not is_prime(self.q):
            raise ValueError(f"{self.q} is not prime")
        if not 0 <= self.j < max(self.q - 1, 1):
            raise ValueError(f"exponent {self.j} out of range for q={self.q}")

    @property
    def order(self) -> int:
        if self.q == 2:
            return 1
        return (self.q - 1) // gcd(self.q - 1, self.j)

    @property
    def is_trivial(self) -> bool:
        return self.j == 0

    @property
    def is_real(self) -> bool:
        # chi_q^2 = 1
        return self.order <= 2

    def __call__(self, n: int) -> CycNum:
        n %= self.q
        if n == 0:
            return _ZERO
        if self.j == 0:
            return _ONE
        # For n = g^t, chi(n) = zeta_{q-1}^(j t) has the order m of
        # z = n^j mod q.  The cap is checked on m before the search for the
        # s < m with z = h^s, h = g^((q-1)/m), and then chi(n) = zeta_m^s.
        q = self.q
        z = pow(n, self.j, q)
        m = q - 1
        for p in prime_factors(q - 1):
            while m % p == 0 and pow(z, m // p, q) == 1:
                m //= p
        _check_cap(m)
        h = pow(smallest_primitive_root(q), (q - 1) // m, q)
        s, x = 0, 1
        while x != z:
            x = x * h % q
            s += 1
        return CycNum.root_of_unity(m, s)


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod square-free N; one local component per prime of N."""

    modulus: int
    locals: tuple[LocalCharacter, ...]  # sorted by prime
    # eval_over values by (primes, n); CycNum is immutable, so callers may
    # share them
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @staticmethod
    def make(N: int, spec=()) -> "DirichletCharacter":
        if N < 1 or not is_squarefree(N):
            raise ValueError(f"modulus {N} is not square-free")
        primes = prime_factors(N)
        given = {}
        for q, j in spec:
            if q < 1 or N % q != 0 or not is_prime(q):
                raise ValueError(f"prime {q} does not divide the modulus {N}")
            if q in given:
                raise ValueError(f"prime {q} specified twice")
            given[q] = j
        comps = tuple(LocalCharacter(q, given.get(q, 0)) for q in primes)
        return DirichletCharacter(N, comps)

    @staticmethod
    def trivial(N: int = 1) -> "DirichletCharacter":
        return DirichletCharacter.make(N)

    @staticmethod
    def parse(N: int, text: str) -> "DirichletCharacter":
        """CLI character spec: "q1:j1,q2:j2,..." with omitted primes trivial;
        "1" for the trivial character."""
        text = text.strip()
        if text in ("", "1"):
            return DirichletCharacter.make(N)
        spec = []
        for part in text.split(","):
            q_s, _, j_s = part.partition(":")
            try:
                spec.append((int(q_s), int(j_s)))
            except ValueError:
                raise ValueError(f"bad character component {part!r}; want q:j") from None
        return DirichletCharacter.make(N, spec)

    def spec_string(self) -> str:
        parts = [f"{lc.q}:{lc.j}" for lc in self.locals if lc.j]
        return ",".join(parts) if parts else "1"

    def local(self, q: int) -> LocalCharacter:
        for lc in self.locals:
            if lc.q == q:
                return lc
        raise ValueError(f"{q} does not divide the modulus {self.modulus}")

    def __call__(self, n: int) -> CycNum:
        return self.eval_over(tuple(lc.q for lc in self.locals), n)

    def eval_over(self, primes, n: int) -> CycNum:
        """Product of the local components at the given primes, at n,
        memoized per character."""
        key = (tuple(primes), n)
        val = self._memo.get(key)
        if val is None:
            val = _ONE
            for q in key[0]:
                v = self.local(q)(n)
                if v.is_zero():
                    val = _ZERO
                    break
                val = val * v
            self._memo[key] = val
        return val

    @property
    def order(self) -> int:
        return lcm(1, *(lc.order for lc in self.locals))

    def is_real_at(self, q: int) -> bool:
        return self.local(q).is_real

    def parity(self) -> int:
        """chi(-1) as +1 or -1."""
        if self.modulus == 1:
            return 1
        v = self(self.modulus - 1)
        if v == 1:
            return 1
        if v == -1:
            return -1
        raise AssertionError("chi(-1) must be +-1")

    def valid_for_weight(self, k: int) -> bool:
        """Nonvanishing condition chi(-1) = (-1)^k."""
        return self.parity() == (-1) ** k

    def __repr__(self):
        return f"chi[{self.modulus}; {self.spec_string()}]"


def enumerate_characters(N: int, orders) -> list[DirichletCharacter]:
    """All characters mod N whose local orders lie in `orders`, deterministic
    order (lexicographic in the local exponent labels)."""
    orders = set(orders)
    primes = prime_factors(N)
    choices: list[list[int]] = []
    for q in primes:
        js = [j for j in range(max(q - 1, 1)) if LocalCharacter(q, j).order in orders]
        if not js:
            return []
        choices.append(js)
    return [DirichletCharacter.make(N, list(zip(primes, js)))
            for js in product(*choices)]
