"""Indexing of the Eisenstein basis by multiplicative partitions of the level.

A partition (N0, N1, N2) of square-free N assigns each prime of N a rank 0,
1 or 2.  The basis of the weight-k, character-chi space consists of the
partitions with chi_q^2 = 1 for every q | N1, ordered by total rank ascending
(which makes every Hecke action table upper triangular), ties broken by
(N2, N1) descending.  That tie-break is a fixed convention of this package;
it exists so JSON output and test fixtures are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import itemgetter

from .characters import DirichletCharacter
from .cyclotomic import is_squarefree, prime_factors


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

    def __repr__(self):
        return f"({self.n0},{self.n1},{self.n2})"


class EisSpace:
    """Ordered Eisenstein basis for (level, weight, character); rank_tuples
    holds the ranks of each basis element at the primes of N, ascending, and
    codes their mixed-radix codes sum r_x 3^x, by which index_of_code finds
    it: a move at x from rank r to t adds (t - r) 3^x to the code."""

    def __init__(self, level: int, weight: int, char: DirichletCharacter,
                 basis: tuple[Partition, ...],
                 rank_tuples: tuple[tuple[int, ...], ...],
                 codes: tuple[int, ...]):
        self.level = level
        self.weight = weight
        self.char = char
        self.basis = basis
        self.rank_tuples = rank_tuples
        self.codes = codes
        self._index = {p: i for i, p in enumerate(basis)}

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def index_of(self, p: Partition) -> int:
        return self._index[p]

    @cached_property
    def index_of_code(self) -> list[int | None]:
        """The basis index at each code, the inverse of codes; None at the
        codes of rank tuples outside the basis."""
        out: list[int | None] = [None] * 3 ** len(prime_factors(self.level))
        for i, c in enumerate(self.codes):
            out[c] = i
        return out

    def descriptor(self) -> dict:
        return {
            "level": self.level,
            "weight": self.weight,
            "char": self.char.spec_string(),
            "dimension": self.dimension,
            "basis": [
                {"index": i, **p.to_json()} for i, p in enumerate(self.basis)
            ],
        }

    def __repr__(self):
        return (
            f"EisSpace(N={self.level}, k={self.weight}, "
            f"chi={self.char.spec_string()}, dim={self.dimension})"
        )


def enumerate_partitions(N: int, char: DirichletCharacter | None = None,
                         k: int = 4, forced: bool = False) -> EisSpace:
    """Build the ordered basis of valid partitions.

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
    allowed = [(0, 1, 2) if char.is_real_at(q) else (0, 2) for q in primes]
    # the codes, enumerated in step with the rank tuples
    codes = map(sum, product(*[[r * 3 ** x for r in rs]
                               for x, rs in enumerate(allowed)]))
    rows = []  # (Partition.sort_key, partition, ranks, code), all from the ranks
    for ranks, code in zip(product(*allowed), codes):
        n = [1, 1, 1]  # N0, N1, N2
        for q, r in zip(primes, ranks):
            n[r] *= q
        rows.append(((sum(ranks), -n[2], -n[1]), Partition(*n), ranks, code))
    rows.sort(key=itemgetter(0))
    _, basis, rank_tuples, codes = zip(*rows)
    return EisSpace(N, k, char, basis, rank_tuples, codes)
