"""Indexing of the Eisenstein basis by multiplicative partitions of the level.

A partition (N0, N1, N2) of square-free N assigns each prime of N a rank 0,
1 or 2, and is stored as the code sum r_x 3^x of its ranks r_x at the primes
of N, ascending.  The basis of the weight-k, character-chi space consists of
the partitions with chi_q^2 = 1 for every q | N1, ordered by total rank
ascending (which makes every Hecke action table upper triangular), ties
broken by (N2, N1) descending.  That tie-break is a fixed convention of this
package; it exists so JSON output and test fixtures are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod

from .characters import DirichletCharacter
from .cyclotomic import is_squarefree, prime_factors
from .jsonout import chunked


@dataclass(frozen=True)
class Partition:
    """Multiplicative partition rho = (N0, N1, N2), pairwise coprime and
    square-free with product equal to the level."""

    n0: int
    n1: int
    n2: int

    def __post_init__(self):
        # for positive parts, a square-free product says exactly that each
        # part is square-free and that the parts are pairwise coprime
        parts = (self.n0, self.n1, self.n2)
        if min(parts) >= 1 and is_squarefree(self.n0 * self.n1 * self.n2):
            return
        if min(parts) < 1 or not all(map(is_squarefree, parts)):
            raise ValueError(f"partition parts must be square-free positive: {self}")
        raise ValueError(f"partition parts must be pairwise coprime: {self}")

    @property
    def level(self) -> int:
        return self.n0 * self.n1 * self.n2

    def rank_of(self, q: int) -> int:
        if self.n0 % q == 0:
            return 0
        if self.n1 % q == 0:
            return 1
        if self.n2 % q == 0:
            return 2
        raise ValueError(f"{q} does not divide the level {self.level}")

    def sort_key(self):
        """(total rank, -N2, -N1), read off the parts: the basis order."""
        return (len(prime_factors(self.n1)) + 2 * len(prime_factors(self.n2)),
                -self.n2, -self.n1)

    def to_json(self):
        return {"N0": self.n0, "N1": self.n1, "N2": self.n2}

    @staticmethod
    def from_json(obj) -> "Partition":
        return Partition(int(obj["N0"]), int(obj["N1"]), int(obj["N2"]))

    def __iter__(self):  # the parts, so a Partition stands wherever parts do
        return iter((self.n0, self.n1, self.n2))

    def __repr__(self):
        return f"({self.n0},{self.n1},{self.n2})"


class EisSpace:
    """Ordered Eisenstein basis for (level, weight, character), stored as
    the codes of its elements alone.  A move at x from rank r to t adds
    (t - r) 3^x to a code, index_of_code finds the element of a code, and
    decode(i) reads the i-th element's ranks and parts off its code.
    ``basis`` builds a Partition per element on each access."""

    def __init__(self, level: int, weight: int, char: DirichletCharacter,
                 codes: tuple[int, ...]):
        self.level = level
        self.weight = weight
        self.char = char
        self.codes = codes
        primes = prime_factors(level)
        self.index_of_code: list[int | None] = [None] * 3 ** len(primes)
        for i, c in enumerate(codes):  # the inverse of codes; None off the basis
            self.index_of_code[c] = i
        # decode's tables: (ranks, parts) per code of the low and high primes
        h = len(primes) // 2
        self._radix, self._low, self._high = 3 ** h, *(
            [(ranks, tuple(prod(q for q, r in zip(half, ranks) if r == s)
                           for s in range(3)))
             for ranks in (t[::-1] for t in product(range(3), repeat=len(half)))]
            for half in (primes[:h], primes[h:]))

    @property
    def dimension(self) -> int:
        return len(self.codes)

    @property
    def basis(self) -> tuple[Partition, ...]:
        return tuple(Partition(*self.decode(i)[1]) for i in range(self.dimension))

    def index_of(self, p: Partition) -> int:
        """The basis index of p, found by its code; KeyError off the basis."""
        if p.level == self.level:
            i = self.index_of_code[sum(p.rank_of(q) * 3 ** x for x, q
                                       in enumerate(prime_factors(self.level)))]
            if i is not None:
                return i
        raise KeyError(p)

    def decode(self, i: int) -> tuple[tuple[int, ...], tuple[int, int, int]]:
        """The i-th element's ranks at the primes of N, ascending (the
        base-3 digits of its code), and its parts (N0, N1, N2)."""
        hi, lo = divmod(self.codes[i], self._radix)
        (r0, (a, b, c)), (r1, (d, e, f)) = self._low[lo], self._high[hi]
        return r0 + r1, (a * d, b * e, c * f)

    def descriptor(self, depth: int = 0, decoded=None) -> dict:
        """What `basis` prints, as a dict at `depth`: its basis is chunked
        JsonText of {N0, N1, N2, index}, off `decoded` or else the codes."""
        pad, inner = "\n" + "  " * (depth + 2), "\n" + "  " * (depth + 3)
        items = (f'{{{inner}"N0": {a},{inner}"N1": {b},{inner}"N2": {c},{inner}'
                 f'"index": {i}{pad}}}' for i, (_, (a, b, c)) in enumerate(
                     decoded or map(self.decode, range(self.dimension))))
        return {"level": self.level, "weight": self.weight,
                "char": self.char.spec_string(), "dimension": self.dimension,
                "basis": chunked(items, depth + 2)}

    def __repr__(self):
        return (f"EisSpace(N={self.level}, k={self.weight}, "
                f"chi={self.char.spec_string()}, dim={self.dimension})")


def enumerate_partitions(N: int, char: DirichletCharacter | None = None,
                         k: int = 4, forced: bool = False) -> EisSpace:
    """Build the ordered basis of valid partitions, as codes.

    Primes q with chi_q^2 != 1 may not sit in N1 (the rank-1 sum is not
    well-defined there), so the dimension is 3^a * 2^b with a the number of
    primes where chi_q^2 = 1 and b the rest.  A parity violation
    chi(-1) != (-1)^k means the series all vanish identically; by default
    that is an error; with forced=True the space is still built (the action
    tables remain formally defined).
    """
    if N < 1 or not is_squarefree(N):
        raise ValueError(f"level {N} is not square-free")
    if k < 4:
        raise ValueError(f"weight {k} < 4 is not supported (series diverge)")
    if char is None:
        char = DirichletCharacter.trivial(N)
    if char.modulus != N:
        raise ValueError("character modulus must equal the level")
    if not forced and not char.valid_for_weight(k):
        raise ValueError(
            f"parity violation: chi(-1) = {char.parity()} != (-1)^{k}; "
            f"the space is identically zero (use an "
            f"{('even', 'odd')[k % 2 == 0]} weight, or a character with "
            f"chi(-1) = {(-1) ** k})"
        )
    primes = prime_factors(N)
    rows = [(0, 0, 1, 1)]  # per element: code, total rank, N1, N2
    for x, q in enumerate(primes):
        rows = [(c + r * 3 ** x, t + r, a * q if r == 1 else a, b * q if r == 2 else b)
                for r in ((0, 1, 2) if char.is_real_at(q) else (0, 2))
                for c, t, a, b in rows]
    # Partition.sort_key (total rank, -N2, -N1) in base N + 1, over the code,
    # one int per row; the rows' tuples are freed before the space is built
    m, radix = N + 1, 3 ** len(primes)
    rows = sorted(((t * m + N - b) * m + N - a) * radix + c for c, t, a, b in rows)
    return EisSpace(N, k, char, tuple(key % radix for key in rows))
