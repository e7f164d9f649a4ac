"""Exact Hecke action tables on the Eisenstein basis, the simultaneous
eigenbasis, and the relation operators that generate the space from the
corner basis vector.

Conventions.  Rows are indexed by the source basis element: the row of rho
holds the coefficients of E_rho|T in the ordered basis, so eigenvectors are
row vectors and operator words compose as left-to-right matrix products.
For a prime q dividing the level, the row of rho is supported on rho itself
and the one or two partitions obtained by moving q up one or two ranks;
every move raises ranks, so all tables are upper triangular in the basis
order.  The branch structure at q is decided by the local character: trivial,
quadratic (where the (-1|q) sign enters), or of higher order (where the
off-diagonal terms vanish).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd
from operator import itemgetter

from .characters import legendre_epsilon
from .cyclotomic import CycNum, as_cyc, is_prime
from .eisspace import EisSpace, Partition, prime_factors
from .jsonout import encoded
from .linalg import CycMatrix

_ZERO = CycNum.zero()
_ONE = CycNum.one()


@dataclass(frozen=True)
class HeckeOp:
    kind: str  # "T" (degree p), "T1" (degree p^2), or "S1"/"S2" (relations)
    p: int

    def __post_init__(self):
        if self.kind not in ("T", "T1", "S1", "S2"):
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def __str__(self):
        return f"T1({self.p}^2)" if self.kind == "T1" else f"{self.kind}({self.p})"

    def spec_string(self) -> str:
        return f"{self.kind}:{self.p}"


@dataclass
class HeckeMatrix:
    """An action table stored as sparse rows.

    ``rows[i]`` holds the nonzero entries of row i as (j, value) pairs in
    ascending j; every table has at most 3 per row.  ``mat`` is the dense
    view, built from the rows on first use and then kept.
    """

    space: EisSpace
    op: HeckeOp
    rows: tuple[tuple[tuple[int, CycNum], ...], ...]

    @cached_property
    def mat(self) -> CycMatrix:
        dense = []
        for row in self.rows:
            out = [_ZERO] * self.space.dimension
            for j, a in row:
                out[j] = a
            dense.append(out)
        return CycMatrix(dense)

    def diagonal(self, i: int) -> CycNum:
        """The entry (i, i), read off the sparse row without the dense view."""
        return next((a for j, a in self.rows[i] if j == i), _ZERO)

    def vec_mat(self, v: dict[int, CycNum]) -> dict[int, CycNum]:
        """The row vector v.M, with v and the image keyed by basis index;
        an absent index stands for 0."""
        out: dict[int, CycNum] = {}
        for i, x in v.items():
            for j, a in self.rows[i]:
                out[j] = out[j] + x * a if j in out else x * a
        return out


def _chi_over(space: EisSpace, part_value: int, n: int) -> CycNum:
    """chi restricted to the primes of part_value, evaluated at n."""
    return space.char.eval_over(prime_factors(part_value), n)


def _row_prime_to_level(space: EisSpace, rho: Partition, op: HeckeOp) -> CycNum:
    """The diagonal entry at rho for p not dividing the level."""
    p, k = op.p, space.weight
    c0, c1, c2 = rho.n0, rho.n1, rho.n2
    if op.kind == "T":
        val = (
            _chi_over(space, c0, p * p) * _chi_over(space, c1, p) * p ** (2 * k - 3)
            + _chi_over(space, c0 * c2, p) * Fraction(p ** (k - 2) * (p + 1))
            + _chi_over(space, c1, p) * _chi_over(space, c2, p * p)
        )
    else:
        val = (p + 1) * (
            _chi_over(space, c0, p * p) * p ** (2 * k - 3)
            + space.char(p) * Fraction(p ** (k - 3) * (p - 1))
            + _chi_over(space, c2, p * p)
        )
    return val


def _moved_by(space: EisSpace, p: int) -> list[int]:
    """A_p: the positions of the primes q != p of N with chi_q(p) != 1."""
    return [x for x, q in enumerate(prime_factors(space.level))
            if q != p and not space.char.local(q)(p).is_one()]


def _rows_prime_to_level(space: EisSpace, op: HeckeOp) -> tuple:
    """The diagonal rows of T(p) or T1(p^2) for p not dividing the level.

    A prime q of N with chi_q(p) = 1 contributes the factor 1 to every
    character value in the entry, wherever rho puts q, so the entry is a
    function of the ranks at the other primes of N: it is computed once
    for each of their rank patterns and shared (_local_blocks checks that
    the rows agree on this key).
    """
    moving = _moved_by(space, op.p)
    values: dict[tuple, CycNum] = {}
    rows = []
    for i, (rho, ranks) in enumerate(zip(space.basis, space.rank_tuples)):
        key = tuple(ranks[x] for x in moving)
        val = values.get(key)
        if val is None:
            val = values[key] = as_cyc(_row_prime_to_level(space, rho, op))
        rows.append(((i, val),))
    return tuple(rows)


def _row_at_level_prime(space: EisSpace, i: int, op: HeckeOp, pos: int) -> tuple:
    """Row i of T(q) or T1(q^2) for the prime q at position pos of the
    primes of the level, as (j, value) pairs in ascending j.  A move target
    is found by its rank tuple: that of row i with the rank at q raised, so
    i < up(1) < up(2) in the basis, which is sorted by total rank."""
    q, k = op.p, space.weight
    local = space.char.local(q)
    rho, ranks = space.basis[i], space.rank_tuples[i]
    rank = ranks[pos]
    c0, c1, c2 = rho.n0, rho.n1, rho.n2

    def up(to: int) -> int:
        return space.index_of_ranks[ranks[:pos] + (to,) + ranks[pos + 1:]]

    if rank == 2:
        if op.kind == "T":
            val = _chi_over(space, c0, q * q) * _chi_over(space, c1, q) * q ** (2 * k - 3)
        else:
            val = _chi_over(space, c0, q * q) * ((q + 1) * q ** (2 * k - 3))
        return ((i, val),)

    if rank == 1:
        # q | N1 forces chi_q^2 = 1 (basis validity)
        if op.kind == "T":
            pref = _chi_over(space, c0 * c2, q)
            row = ((i, pref * q ** (k - 1)),)
            if local.is_trivial:
                row += ((up(2), pref * Fraction(q ** (k - 3) * (q * q - 1))),)
            return row
        diag = (
            _chi_over(space, c0, q * q) * q ** (2 * k - 2)
            + _chi_over(space, c2, q * q) * q
        )
        row = ((i, diag),)
        if local.is_trivial:
            chi_rest = _chi_over(space, space.level // q, q)
            row += ((up(2), (chi_rest * q ** (k - 2) + _chi_over(space, c2, q * q))
                     * Fraction(q * q - 1, q)),)
        return row

    # rank 0: q | N0
    if op.kind == "T":
        pref = _chi_over(space, c1, q) * _chi_over(space, c2, q * q)
        row = ((i, pref),)
        if local.is_trivial:
            row += ((up(1), pref * Fraction(q - 1, q)),
                    (up(2), pref * Fraction(q - 1, q)))
        elif local.is_real:
            row += ((up(2), pref * Fraction(legendre_epsilon(q) * (q - 1), q * q)),)
        return row
    chi2 = _chi_over(space, c2, q * q)
    row = ((i, chi2 * (q + 1)),)
    if local.is_trivial:
        chi_rest = _chi_over(space, space.level // q, q)
        row += ((up(1), (chi_rest * q ** (k - 1) + chi2) * Fraction(q - 1, q)),
                (up(2), chi2 * Fraction(q * q - 1, q * q)))
    elif local.is_real:
        row += ((up(2), chi2 * Fraction(legendre_epsilon(q) * (q * q - 1), q * q)),)
    return row


def hecke_matrix(space: EisSpace, op: HeckeOp) -> HeckeMatrix:
    """Exact action table of T(p) or T1(p^2), rows indexed by the source
    basis element."""
    if op.kind not in ("T", "T1"):
        raise ValueError(f"{op} is a relation operator; build it with s_operator")
    if space.level % op.p:
        return HeckeMatrix(space, op, _rows_prime_to_level(space, op))
    pos = prime_factors(space.level).index(op.p)
    # the index objects of index_of_ranks, in basis order: the rows of all
    # tables then share one int object per index, as the move targets do
    return HeckeMatrix(space, op, tuple(
        _row_at_level_prime(space, i, op, pos)
        for i in space.index_of_ranks.values()
    ))


class SpaceOperators:
    """Per-space cache of constructed Hecke matrices: T and T1 built by
    hecke_matrix, S1 and S2 by s_operator, each once per space.

    Construction is pure; each cache entry is published with a single dict
    assignment, so concurrent readers never observe a half-built table.
    """

    def __init__(self, space: EisSpace):
        self.space = space
        self._cache: dict[HeckeOp, HeckeMatrix] = {}

    def matrix(self, op: HeckeOp) -> HeckeMatrix:
        hit = self._cache.get(op)
        if hit is None:
            if op.kind in ("S1", "S2"):
                hit = s_operator(self, op.p, op.kind)
            else:
                hit = hecke_matrix(self.space, op)
            self._cache[op] = hit
        return hit

    def stored(self) -> dict[HeckeOp, HeckeMatrix]:
        return dict(self._cache)

    def level_ops(self) -> list[HeckeOp]:
        return [
            HeckeOp(kind, q)
            for q in prime_factors(self.space.level)
            for kind in ("T", "T1")
        ]


# -- eigenbasis ---------------------------------------------------------------


def _coeff_a(space: EisSpace, rho: Partition, q: int) -> CycNum:
    # moves q from N0 to N1; nonzero only for trivial chi_q
    if not space.char.local(q).is_trivial:
        return _ZERO
    k = space.weight
    chi12 = _chi_over(space, rho.n1 * rho.n2, q)
    chi0 = _chi_over(space, rho.n0 // q, q)
    return -(chi12 * Fraction(q - 1, q)) / (chi0 * q ** (k - 1) - chi12)


def _coeff_b(space: EisSpace, rho: Partition, q: int) -> CycNum:
    # moves q from N0 to N2
    local = space.char.local(q)
    if not local.is_real:
        return _ZERO
    k = space.weight
    chi2_sq = _chi_over(space, rho.n2, q * q)
    chi0 = _chi_over(space, rho.n0 // q, q)
    chi0_sq = _chi_over(space, rho.n0 // q, q * q)
    if local.is_trivial:
        chi12 = _chi_over(space, rho.n1 * rho.n2, q)
        num = chi2_sq * Fraction(q - 1, q) * (chi0 * q ** (k - 3) - chi12)
        den = (chi0 * q ** (k - 1) - chi12) * (chi0_sq * q ** (2 * k - 3) - chi2_sq)
        return -(num / den)
    eps = legendre_epsilon(q)
    num = chi2_sq * Fraction(eps * (q - 1), q * q)
    return -(num / (chi0_sq * q ** (2 * k - 3) - chi2_sq))


def _coeff_c(space: EisSpace, rho: Partition, q: int) -> CycNum:
    # moves q from N1 to N2; nonzero only for trivial chi_q
    if not space.char.local(q).is_trivial:
        return _ZERO
    k = space.weight
    chi2 = _chi_over(space, rho.n2, q)
    chi01 = _chi_over(space, rho.n0 * (rho.n1 // q), q)
    return -(chi2 * Fraction(q * q - 1, q * q)) / (chi01 * q ** (k - 2) - chi2)


class TensorVector:
    """The eigenvector of a basis partition, stored as the tensor product of
    its local vectors.

    ``local[x]`` is the local vector u_q at the x-th prime q of N: a map
    rank -> value that is 1 at the rank of the partition (eigenbasis checks
    this), shared with the other vectors of its key and so read only.  The
    coefficient at a rank tuple s is the product of the u_q[s_q]; the
    factors at the partition's own ranks are 1 and left out.  ``dense()``
    and ``to_json()`` expand the vector on each call, through _expand.
    """

    __slots__ = ("space", "partition", "local")

    def __init__(self, space: EisSpace, partition: Partition,
                 local: tuple[dict[int, CycNum], ...]):
        self.space = space
        self.partition = partition
        self.local = local

    def dense(self) -> list[CycNum]:
        out = [_ZERO] * self.space.dimension
        for i, c in _expand(self, {}):
            out[i] = c
        return out

    def to_json(self, memo: _JsonMemo | None = None):
        """The nonzero coefficients in basis order; a memo shared by the
        vectors of one output computes each product and each JSON once."""
        if memo is None:
            memo = _JsonMemo(self.space)
        value, parts = memo.value, memo.partitions
        return [{"partition": parts[i], "coeff": value(c)}
                for i, c in sorted(_expand(self, memo.products),
                                   key=itemgetter(0))]


def _plain(obj):
    return obj


class _JsonMemo:
    """The JSON of the values in one output on `space`, each distinct value
    encoded once and then shared.

    `encode` maps the JSON of a value to what the output holds: the plain
    dicts by default, or a form a writer can splice in as it stands.  A
    CycNum is keyed by its canonical stored form (m, n, d), which hashes
    faster than a rational CycNum.  The values of `products` (the product
    memo of _expand) keep their objects alive, so no id is reused meanwhile.
    """

    def __init__(self, space: EisSpace, encode=_plain):
        self.space = space
        self.encode = encode
        self.products: dict = {}  # (id(prefix), id(factor)) -> (factor, product)
        self.values: dict = {}  # (m, n, d) -> encoded JSON
        self.partitions = [encode(p.to_json()) for p in space.basis]

    def value(self, c: CycNum):
        key = (c.m, c.n, c.d)
        hit = self.values.get(key)
        if hit is None:
            hit = self.values[key] = self.encode(c.to_json())
        return hit

    def partition(self, rho: Partition):
        return self.partitions[self.space.index_of(rho)]


def _expand(vec: TensorVector, products: dict) -> list[tuple[int, CycNum]]:
    """The nonzero coefficients of vec as (basis index, value) pairs.

    Each value is the product, from 1, of its local entries off the
    partition's ranks, the primes in ascending order.  A product already in
    `products` (the same prefix object times the same factor object) is
    reused, not recomputed.
    """
    space = vec.space
    ranks = space.rank_tuples[space.index_of(vec.partition)]
    terms = [(ranks, _ONE)]
    for x in range(len(ranks)):
        moves = [(t, a) for t, a in vec.local[x].items()
                 if t != ranks[x] and not a.is_zero()]
        if not moves:
            continue
        grown = []
        for s, coeff in terms:
            grown.append((s, coeff))
            for t, a in moves:
                hit = products.get((id(coeff), id(a)))
                if hit is None:
                    hit = products[id(coeff), id(a)] = (a, coeff * a)
                grown.append((s[:x] + (t,) + s[x + 1:], hit[1]))
        terms = grown
    index = space.index_of_ranks
    return [(index[s], coeff) for s, coeff in terms]


@dataclass
class EigenVectorEntry:
    partition: Partition
    vector: TensorVector
    eigenvalues: dict[HeckeOp, CycNum]


@dataclass
class EigenSystem:
    space: EisSpace
    entries: list[EigenVectorEntry]

    def to_json(self, memo: _JsonMemo | None = None):
        """The entries as JSON; eigen_json passes the memo it shares with
        the comparison rows."""
        if memo is None:
            memo = _JsonMemo(self.space)
        value = memo.value
        return [
            {
                "partition": memo.partition(e.partition),
                "vector": e.vector.to_json(memo),
                "eigenvalues": {op.spec_string(): value(lam)
                                for op, lam in e.eigenvalues.items()},
            }
            for e in self.entries
        ]


def _local_vector(space: EisSpace, rho: Partition, q: int,
                  rank: int) -> dict[int, CycNum]:
    """u_q of rho: 1 at its rank at q, then the coefficients a, b (rank 0)
    or c (rank 1) of the moves up from it, where nonzero."""
    if rank == 0:
        u = {0: _ONE, 1: _coeff_a(space, rho, q), 2: _coeff_b(space, rho, q)}
    elif rank == 1:
        u = {1: _ONE, 2: _coeff_c(space, rho, q)}
    else:
        u = {2: _ONE}
    return {t: a for t, a in u.items() if not a.is_zero()}


def eigen_vector(space: EisSpace, rho: Partition,
                 memo: dict | None = None) -> TensorVector:
    """The simultaneous eigenvector attached to rho: the tensor product over
    the primes q of N of local vectors u_q, built from the coefficients
    a, b, c of the moves out of N0 and N1.

    The character values in a, b, c at q are those of the primes in A_q, so
    u_q depends on rho only through its key (q, rank at q, ranks at A_q).
    With a memo shared between calls on one space (it holds A_q under q and
    u_q under its key), each u_q is computed once per key and shared.
    """
    ranks = space.rank_tuples[space.index_of(rho)]
    if memo is None:
        memo = {}
    local = []
    for x, q in enumerate(prime_factors(space.level)):
        at = memo.get(q)
        if at is None:
            at = memo[q] = _moved_by(space, q)
        key = (q, ranks[x], *(ranks[y] for y in at))
        u = memo.get(key)
        if u is None:
            u = memo[key] = _local_vector(space, rho, q, ranks[x])
        local.append(u)
    return TensorVector(space, rho, tuple(local))


def _verification_failed(rho: Partition, op: HeckeOp, why: str) -> RuntimeError:
    return RuntimeError(
        f"eigenvector verification failed for rho={rho}, op={op}: {why}"
    )


def _local_blocks(hm: HeckeMatrix):
    """Check that the table at p is block-diagonal over the p-fibers and
    that each block is a local block repeated over the other primes.

    A p-fiber is the set of basis indices whose ranks agree off p.  Let A_p
    be the positions of the primes q != p of N with chi_q(p) != 1.  For
    p | N, every entry (i, j) may change only the rank at p, and row i must
    have the same local row (its entries as (rank at p of j, value)) as
    every other row with the same key (ranks at A_p, rank at p).  For p not
    dividing N, every entry must be diagonal, and row i must have the same
    diagonal value as every other row with the same key (ranks at A_p).
    Returns (the position of p, or None for p not dividing N; A_p; the
    local row or diagonal value of each key).
    """
    space = hm.space
    primes = prime_factors(space.level)
    p = hm.op.p
    pos = primes.index(p) if p in primes else None
    at = [x for x, q in enumerate(primes)
          if q != p and not (space.char.eval_over((q,), p) == 1)]
    ranks = space.rank_tuples
    blocks: dict[tuple, tuple | CycNum] = {}
    for i, row in enumerate(hm.rows):
        r = ranks[i]
        at_ranks = tuple(r[x] for x in at)
        if pos is None:
            in_fiber = all(j == i for j, _ in row)
            key, local = at_ranks, hm.diagonal(i)
        else:
            rest = r[:pos] + r[pos + 1:]
            in_fiber = all(ranks[j][:pos] + ranks[j][pos + 1:] == rest
                           for j, _ in row)
            key = (at_ranks, r[pos])
            local = tuple((ranks[j][pos], a) for j, a in row)
        if not in_fiber:
            raise _verification_failed(space.basis[i], hm.op,
                                       f"an entry leaves the {p}-fiber")
        if not blocks.setdefault(key, local) == local:
            raise _verification_failed(space.basis[i], hm.op,
                                       "the table does not factor")
    return pos, at, blocks


def _is_local_eigen(blocks, key, u, lam: CycNum) -> bool:
    """Check 3 at one key: for p not dividing N (u is None) the diagonal
    value of the key is lam; for p | N, u.L_key == lam.u on the union of
    the supports.  A key or rank with no rows in the table fails."""
    if u is None:
        value = blocks.get(key)
        return value is not None and value == lam
    image: dict[int, CycNum] = {}
    for s, x in u.items():
        row = blocks.get((key, s))
        if row is None:
            return False
        for t, a in row:
            image[t] = image[t] + x * a if t in image else x * a
    return all(image.get(t, _ZERO) == lam * u.get(t, _ZERO)
               for t in image.keys() | u.keys())


def eigenbasis(ops: SpaceOperators) -> EigenSystem:
    """One verified eigenvector per basis partition, in factored form.

    The level operators T(q), T1(q^2) for q | N are constructed if absent;
    each eigenvector v is then proved to satisfy v.M = lambda.v, with lambda
    the diagonal entry at rho, against every stored table M at a prime p.
    Basis elements are indexed by their rank tuples over the primes of N,
    and v is by definition the tensor product of its local vectors u_q
    (TensorVector).  The proof has three checks, each exact:

    1. Once per table (_local_blocks): M is block-diagonal over the
       p-fibers, and rows with the same key (ranks at A_p, rank at p) have
       the same local row, so each block is a local block L_key.
    2. Once per vector: u_q[rank of rho at q] == 1 for every q, so v[rho]
       == 1 and the factors that the expansion leaves out are 1.
    3. Per vector and table: for each key in the product of the local
       supports at A_p, u_p.L_key == lambda.u_p on the union of the
       supports for p | N, and the diagonal value of the key equals lambda
       for p not dividing N.  Local vectors are shared between vectors, so
       each distinct (table, key, u_p, lambda) is checked once; the memo
       keys u_p by identity and keeps it alive, and lambda by its value.

    Why this proves every coordinate: on a p-fiber s, v restricted to s is
    prod_{q != p} u_q[s_q] times u_p, and the block of s is L_key(s), so
    (v.M)[s] = lambda.v[s] on every fiber in the support of v; elsewhere
    both sides are 0.  The proof reads only the local vectors and the
    sparse rows, and no dense vector is built; a wrong A_p makes check 1
    fail.  A verification failure is an internal error, not a data
    condition.
    """
    space = ops.space
    for op in ops.level_ops():
        ops.matrix(op)
    tables = [(op, hm, *_local_blocks(hm)) for op, hm in ops.stored().items()]
    vectors: dict = {}
    checked: dict[tuple, dict | None] = {}
    entries = []
    for i, rho in enumerate(space.basis):
        vec = eigen_vector(space, rho, vectors)
        ranks, local = space.rank_tuples[i], vec.local
        if tables and not (vec.partition == rho and len(local) == len(ranks)
                           and all(u.get(r, _ZERO) == 1
                                   for u, r in zip(local, ranks))):
            raise _verification_failed(
                rho, tables[0][0], "a local vector is not 1 at rho")
        eigs: dict[HeckeOp, CycNum] = {}
        for n, (op, hm, pos, at, blocks) in enumerate(tables):
            lam = hm.diagonal(i)
            u = None if pos is None else local[pos]
            for key in product(*(local[x] for x in at)):
                seen = (n, key, id(u), lam)
                if seen in checked:
                    continue
                if not _is_local_eigen(blocks, key, u, lam):
                    raise _verification_failed(
                        rho, op, f"wrong local eigenvector at {op.p}")
                checked[seen] = u
            eigs[op] = lam
        entries.append(EigenVectorEntry(rho, vec, eigs))
    return EigenSystem(space, entries)


# -- closed forms and comparison ----------------------------------------------


def eigenvalue_closed_form(space: EisSpace, rho: Partition, op: HeckeOp) -> CycNum:
    """The published eigenvalue tables, verbatim (including the p | N1 entry
    of the T1 table that the matrices contradict; see compare_eigenvalues)."""
    p, k = op.p, space.weight
    c0, c1, c2 = rho.n0, rho.n1, rho.n2
    N = space.level
    if N % p != 0:
        if op.kind == "T":
            return as_cyc(
                (_chi_over(space, c0 * c1, p) * p ** (k - 1) + _chi_over(space, c2, p))
                * (_chi_over(space, c0, p) * p ** (k - 2) + _chi_over(space, c1 * c2, p))
            )
        return as_cyc(
            (p + 1)
            * (
                _chi_over(space, c0, p * p) * p ** (2 * k - 3)
                + space.char(p) * Fraction(p ** (k - 3) * (p - 1))
                + _chi_over(space, c2, p * p)
            )
        )
    rank = rho.rank_of(p)
    if op.kind == "T":
        if rank == 2:
            return as_cyc(
                _chi_over(space, c0, p * p) * _chi_over(space, c1, p) * p ** (2 * k - 3)
            )
        if rank == 1:
            return as_cyc(_chi_over(space, c0 * c2, p) * p ** (k - 1))
        return as_cyc(_chi_over(space, c1, p) * _chi_over(space, c2, p * p))
    if rank == 2:
        return as_cyc(_chi_over(space, c0, p * p) * ((p + 1) * p ** (2 * k - 3)))
    if rank == 1:
        return as_cyc(
            _chi_over(space, c0, p * p) * p ** (2 * k - 3)
            + _chi_over(space, c2, p * p) * p
        )
    return as_cyc(_chi_over(space, c2, p * p) * (p + 1))


def eigenvalue_comparisons(system: EigenSystem, op_list=None) -> list[tuple]:
    """Verified eigenvalues vs the closed-form tables, per (rho, op), as
    tuples (rho, op, matrix value, closed form, match, expected mismatch).

    ``system`` comes from eigenbasis, so each value is the exactly checked
    diagonal entry of the action table; op_list defaults to the level
    operators, and an op that eigenbasis did not verify raises ValueError.
    The matrices are authoritative.  The only expected disagreement is
    T1(q^2) at partitions with q | N1, where the table entry has q^{2k-3}
    in place of the matrices' q^{2k-2}; those rows come back match=False
    with expected_mismatch=True.
    """
    space = system.space
    if op_list is None:
        op_list = SpaceOperators(space).level_ops()
    out = []
    for e in system.entries:
        for op in op_list:
            mval = e.eigenvalues.get(op)
            if mval is None:
                raise ValueError(
                    f"{op} was not verified; build its table before eigenbasis"
                )
            cval = eigenvalue_closed_form(space, e.partition, op)
            expected_mismatch = (
                op.kind == "T1"
                and space.level % op.p == 0
                and e.partition.rank_of(op.p) == 1
            )
            out.append((e.partition, op, mval, cval, bool(mval == cval),
                        expected_mismatch))
    return out


def compare_eigenvalues(system: EigenSystem, op_list=None,
                        memo: _JsonMemo | None = None) -> list[dict]:
    """The rows of eigenvalue_comparisons as JSON, their values and
    partitions from `memo` (a new plain one by default)."""
    if memo is None:
        memo = _JsonMemo(system.space)
    value, partition = memo.value, memo.partition
    return [
        {
            "partition": partition(rho),
            "op": op.spec_string(),
            "matrix_value": value(mval),
            "closed_form": value(cval),
            "match": match,
            "expected_mismatch": expected_mismatch,
        }
        for rho, op, mval, cval, match, expected_mismatch
        in eigenvalue_comparisons(system, op_list)
    ]


def eigen_json(system: EigenSystem, op_list=None) -> dict:
    """The eigenbasis and its comparison rows (keys "eigenbasis" and
    "comparison") as the `eigen` command writes them.

    One memo serves both, so each distinct value and each partition is
    encoded once (jsonout.encoded) and the same JsonText stands wherever it
    recurs; jsonout.write_json then prints the bytes of the plain
    `system.to_json()` and `compare_eigenvalues(system, op_list)`.
    """
    memo = _JsonMemo(system.space, encoded)
    return {"eigenbasis": system.to_json(memo),
            "comparison": compare_eigenvalues(system, op_list, memo)}


# -- relation operators (corner-to-basis words) --------------------------------


def s_constant(space: EisSpace, q: int) -> CycNum:
    """c(q) = q^2 / ((q-1)(chi_{N/q}(q) q^k - 1)); needs trivial chi_q."""
    k = space.weight
    chi_rest = _chi_over(space, space.level // q, q)
    return as_cyc(Fraction(q * q, q - 1)) / (chi_rest * q**k - 1)


def s_operator(ops: SpaceOperators, q: int, which: str) -> HeckeMatrix:
    """The Hecke-algebra elements S1(q), S2(q) as exact sparse tables.

    S1 moves the corner prime q into rank 1 and needs chi_q = 1; S2 moves it
    into rank 2 and needs chi_q^2 = 1 (with a separate form when chi_q is
    quadratic).  Row i combines rows i of the cached T(q), T1(q^2) and the
    identity, entry by entry.
    """
    space = ops.space
    if space.level % q != 0:
        raise ValueError(f"{q} does not divide the level {space.level}")
    local = space.char.local(q)
    k = space.weight
    if which == "S1":
        if not local.is_trivial:
            raise ValueError(f"S1({q}) requires trivial chi_{q}")
        c = s_constant(space, q)
        a, b = as_cyc(Fraction(q + 1, q)), as_cyc(Fraction(q * q - 1, q))

        def entry(t, t1, e):  # (T1 - T a - I b) c
            return ((t1 - t * a) - e * b) * c
    elif which == "S2":
        if local.is_trivial:
            c = s_constant(space, q)
            chi_rest = _chi_over(space, space.level // q, q)
            a = chi_rest * q ** (k - 1) + 1
            b = (chi_rest * q ** (k - 2) - 1) * q

            def entry(t, t1, e):  # (T a - T1 - I b) c
                return ((t * a - t1) - e * b) * c
        elif local.is_real:
            f = as_cyc(Fraction(legendre_epsilon(q) * q * q, q - 1))

            def entry(t, t1, e):  # (T - I) f
                return (t - e) * f
        else:
            raise ValueError(f"S2({q}) requires chi_{q}^2 = 1")
    else:
        raise ValueError(f"unknown relation operator {which!r}; want S1 or S2")
    T = ops.matrix(HeckeOp("T", q)).rows
    T1 = ops.matrix(HeckeOp("T1", q)).rows
    rows = []
    for i in range(space.dimension):
        t, t1 = dict(T[i]), dict(T1[i])
        row = []
        for j in sorted(t.keys() | t1.keys() | {i}):
            val = entry(t.get(j, _ZERO), t1.get(j, _ZERO),
                        _ONE if j == i else _ZERO)
            if not val.is_zero():
                row.append((j, val))
        rows.append(tuple(row))
    return HeckeMatrix(space, HeckeOp(which, q), tuple(rows))


def apply_word(ops: SpaceOperators, word, v: dict[int, CycNum]) -> dict[int, CycNum]:
    """The row vector v.M1.M2... for a word of HeckeOps, keyed by basis
    index (an absent index stands for 0)."""
    for op in word:
        v = ops.matrix(op).vec_mat(v)
    return v


def word_matrix(ops: SpaceOperators, word) -> CycMatrix:
    """The dense product of a word of HeckeOps, one unit-vector row at a
    time."""
    n = ops.space.dimension
    rows = []
    for i in range(n):
        v = apply_word(ops, word, {i: _ONE})
        rows.append([v.get(j, _ZERO) for j in range(n)])
    return CycMatrix(rows)


def _s_word_ops(space: EisSpace, n1: int, n2: int) -> list[HeckeOp]:
    """The word S1(n1)S2(n2), primes ascending, S1 factors first;
    s_operator checks the character at each prime."""
    if gcd(n1, n2) != 1 or space.level % (n1 * n2) != 0:
        raise ValueError("need coprime n1*n2 dividing the level")
    return ([HeckeOp("S1", q) for q in prime_factors(n1)]
            + [HeckeOp("S2", q) for q in prime_factors(n2)])


def s_word(ops: SpaceOperators, n1: int, n2: int) -> CycMatrix:
    """Dense product S1(n1)S2(n2), primes ascending, S1 factors first.

    The factors commute, so the order is a determinism convention only.
    Requires chi trivial on n1, chi^2 trivial on n2, and n1*n2 | N coprime.
    """
    return word_matrix(ops, _s_word_ops(ops.space, n1, n2))


def relation_defects(ops: SpaceOperators) -> list[int]:
    """For each basis partition rho, in basis order, the number of entries
    where e_corner.S1(N1)S2(N2) differs from e_rho (0 when the relation
    holds); the corner is (N,1,1)."""
    space = ops.space
    corner = space.index_of(Partition(space.level, 1, 1))
    out = []
    for i, rho in enumerate(space.basis):
        v = apply_word(ops, _s_word_ops(space, rho.n1, rho.n2), {corner: _ONE})
        out.append(sum(1 for j in v.keys() | {i}
                       if not (v.get(j, _ZERO) == (1 if j == i else 0))))
    return out
