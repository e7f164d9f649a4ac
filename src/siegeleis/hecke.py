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

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product
from json.encoder import encode_basestring_ascii as _json_str
from math import lcm
from operator import itemgetter

from .characters import legendre_epsilon
from .cyclotomic import (CycNum, _height, as_cyc, check_printable, is_prime,
                         refuse_huge_power, value_texts)
from .eisspace import EisSpace, Partition, prime_factors
from .jsonout import JsonText, chunked
from .linalg import _axpy

_ZERO = CycNum.zero()
_ONE = CycNum.one()


_KINDS = ("T", "T1", "S1", "S2")


@dataclass(frozen=True)
class HeckeOp:
    kind: str  # "T" (degree p), "T1" (degree p^2), or "S1"/"S2" (relations)
    p: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        # ops key the tables and eigenvalue maps, so the hash is read, not
        # formed per lookup; from ints, it is the same in every process
        object.__setattr__(self, "_hash", 4 * self.p + _KINDS.index(self.kind))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return f"T1({self.p}^2)" if self.kind == "T1" else f"{self.kind}({self.p})"

    def spec_string(self) -> str:
        return f"{self.kind}:{self.p}"


@dataclass
class HeckeMatrix:
    """An action table at one prime p, stored factored over the primes of N.

    Built as HeckeMatrix(space, op, local), it derives its own layout:
    ``pos``, the position of p among the primes of N (None for p not
    dividing N), and ``at``, A_p, the positions of the primes q != p of N
    with chi_q(p) != 1.  The key of a row is its ranks at ``places``: A_p,
    then p for p | N; every reader of keys uses ``key``, which reads that
    tuple off any tuple indexed like a rank tuple, and of a key's first
    basis index ``representatives``, built once.  ``local`` maps each
    key to its local row: for p | N the entries (target rank at p, value)
    in ascending rank, the target being the row with its rank at p
    replaced; for p not dividing N the diagonal value.  ``diagonal`` and
    ``vec_mat`` read the local rows; ``rows``, the only expansion (nonzero
    entries of row i as (j, value) pairs in ascending j, at most 3), is
    built on first read and kept.  The trade-off: the table factors by
    construction, and nothing checks that at run time; verify's
    hecke-triangularity check and the tests compare every expanded row with
    the per-row formulas.
    """

    space: EisSpace
    op: HeckeOp
    local: dict

    def __post_init__(self):
        p, char = self.op.p, self.space.char
        primes = prime_factors(self.space.level)
        self.pos = primes.index(p) if p in primes else None
        self.at = tuple(x for x, q in enumerate(primes)
                        if q != p and not char.local(q)(p).is_one())
        places = self.places = self.at if self.pos is None else self.at + (self.pos,)
        if len(places) > 1:
            self.key = itemgetter(*places)
        else:  # a slice of the tuple, to keep the key a tuple
            x = places[0] if places else 0
            self.key = itemgetter(slice(x, x + len(places)))

    @cached_property
    def representatives(self) -> dict:
        return _representatives(self.space, self.places)

    def _row(self, i: int) -> tuple:
        space, (ranks, _) = self.space, self.space.decode(i)
        row = self.local[self.key(ranks)]
        if self.pos is None:
            return ((i, row),)
        step = 3 ** self.pos  # a move from rank r to t adds (t - r) step
        code = space.codes[i] - ranks[self.pos] * step
        return tuple((space.index_of_code[code + t * step], a) for t, a in row)

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, CycNum], ...], ...]:
        return tuple(map(self._row, range(self.space.dimension)))

    def diagonal(self, i: int) -> CycNum:
        """The entry (i, i), read off the local row of i's key."""
        return dict(self._row(i)).get(i, _ZERO)

    def vec_mat(self, v: dict[int, CycNum]) -> dict[int, CycNum]:
        """The row vector v.M, with v and the image keyed by basis index;
        an absent index stands for 0."""
        out: dict[int, CycNum] = {}
        for i, x in v.items():
            _axpy(out, x, self._row(i))
        return out


def _chi_over(space: EisSpace, part_value: int, n: int) -> CycNum:
    """chi restricted to the primes of part_value, evaluated at n."""
    return space.char.eval_over(prime_factors(part_value), n)


def _row_prime_to_level(space: EisSpace, rho, op: HeckeOp) -> CycNum:
    """The diagonal entry at the parts rho for p not dividing the level."""
    p, k = op.p, space.weight
    c0, c1, c2 = rho
    if op.kind == "T":
        return (
            _chi_over(space, c0, p * p) * _chi_over(space, c1, p) * p ** (2 * k - 3)
            + _chi_over(space, c0 * c2, p) * Fraction(p ** (k - 2) * (p + 1))
            + _chi_over(space, c1, p) * _chi_over(space, c2, p * p)
        )
    return (p + 1) * (
        _chi_over(space, c0, p * p) * p ** (2 * k - 3)
        + space.char(p) * Fraction(p ** (k - 3) * (p - 1))
        + _chi_over(space, c2, p * p)
    )


def _representatives(space: EisSpace, places: tuple[int, ...]) -> dict:
    """Each pattern of ranks at the positions `places` that a basis element
    has, mapped to the index of its representative row: the corner's rank
    tuple (rank 0 everywhere) with the pattern put in, which is the first
    basis index with the pattern."""
    out = {}
    for key in product(range(3), repeat=len(places)):
        i = space.index_of_code[sum(r * 3 ** x for x, r in zip(places, key))]
        if i is not None:
            out[key] = i
    return out


def _row_at_level_prime(space: EisSpace, rho, rank: int, op: HeckeOp) -> tuple:
    """The local row of T(q) or T1(q^2) at the parts rho with rank `rank` at
    q: (target rank at q, value) pairs in ascending rank, the target being
    the row with its rank at q replaced, so every move raises the rank."""
    q, k = op.p, space.weight
    local = space.char.local(q)
    c0, c1, c2 = rho

    if rank == 2:
        if op.kind == "T":
            val = _chi_over(space, c0, q * q) * _chi_over(space, c1, q) * q ** (2 * k - 3)
        else:
            val = _chi_over(space, c0, q * q) * ((q + 1) * q ** (2 * k - 3))
        return ((2, val),)

    if rank == 1:
        # q | N1 forces chi_q^2 = 1 (basis validity)
        if op.kind == "T":
            pref = _chi_over(space, c0 * c2, q)
            row = ((1, pref * q ** (k - 1)),)
            if local.is_trivial:
                row += ((2, pref * Fraction(q ** (k - 3) * (q * q - 1))),)
            return row
        diag = (
            _chi_over(space, c0, q * q) * q ** (2 * k - 2)
            + _chi_over(space, c2, q * q) * q
        )
        row = ((1, diag),)
        if local.is_trivial:
            chi_rest = _chi_over(space, space.level // q, q)
            row += ((2, (chi_rest * q ** (k - 2) + _chi_over(space, c2, q * q))
                     * Fraction(q * q - 1, q)),)
        return row

    # rank 0: q | N0
    if op.kind == "T":
        pref = _chi_over(space, c1, q) * _chi_over(space, c2, q * q)
        row = ((0, pref),)
        if local.is_trivial:
            row += ((1, pref * Fraction(q - 1, q)),
                    (2, pref * Fraction(q - 1, q)))
        elif local.is_real:
            row += ((2, pref * Fraction(legendre_epsilon(q) * (q - 1), q * q)),)
        return row
    chi2 = _chi_over(space, c2, q * q)
    row = ((0, chi2 * (q + 1)),)
    if local.is_trivial:
        chi_rest = _chi_over(space, space.level // q, q)
        row += ((1, (chi_rest * q ** (k - 1) + chi2) * Fraction(q - 1, q)),
                (2, chi2 * Fraction(q * q - 1, q * q)))
    elif local.is_real:
        row += ((2, chi2 * Fraction(legendre_epsilon(q) * (q * q - 1), q * q)),)
    return row


def check_corner_printable(space: EisSpace) -> None:
    """Refuse a weight at which `eigen` would print a power too large to
    form, before any table is built: the corner (1, 1, N) is in every
    basis, and both formats print its T1(q^2) eigenvalue, a root of unity
    times (q + 1) q^(2k-3) (the rank-2 row above), at the largest prime q
    of N.  A smaller weight is left to the output's own bound (_case_rows)."""
    if space.level > 1:
        q = prime_factors(space.level)[-1]
        refuse_huge_power(q + 1, q, 2 * space.weight - 3)


def hecke_matrix(space: EisSpace, op: HeckeOp) -> HeckeMatrix:
    """Exact action table of T(p) or T1(p^2), rows indexed by the source
    basis element, stored factored (HeckeMatrix, given only local rows):
    the row formula (_row_prime_to_level, _row_at_level_prime) is evaluated
    once per key, at the parts of the key's representative row, and what
    it returns is the key's local row as stored.  A prime q of N with
    chi_q(p) = 1 contributes the factor 1 to every character value in an
    entry, wherever the row puts q, so a row depends on its key only.
    """
    if op.kind not in ("T", "T1"):
        raise ValueError(f"{op} is a relation operator; build it with s_operator")
    hm = HeckeMatrix(space, op, {})
    for key, i in hm.representatives.items():
        rho = space.decode(i)[1]
        hm.local[key] = (_row_prime_to_level(space, rho, op) if hm.pos is None
                         else _row_at_level_prime(space, rho, key[-1], op))
    return hm


class SpaceOperators:
    """Per-space cache of constructed Hecke matrices: T and T1 built by
    hecke_matrix, S1 and S2 by s_operator, each once per space."""

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
        return [HeckeOp(kind, q) for q in prime_factors(self.space.level)
                for kind in ("T", "T1")]


# -- eigenbasis ---------------------------------------------------------------


@dataclass
class EigenVectorEntry:
    partition: Partition
    local: tuple[dict[int, CycNum], ...]  # u_q at each prime q of N
    eigenvalues: dict[HeckeOp, CycNum]


class _Memo(dict):
    """A dict that builds a missing value with ``make`` and keeps it."""

    __slots__ = ("make",)

    def __init__(self, make, *args):
        super().__init__(*args)
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


@dataclass
class EigenSystem:
    """The verified eigenvectors and eigenvalues, and the tables they were
    verified against, stored per key (eigenbasis).  ``scaled[x]`` maps each
    key of T(q), q the x-th prime of N, to w_q as the proof read it: u_q
    times a nonzero constant.  ``local[x]``, built on first read, maps it to
    u_q = w_q / w_q[rank at q], a map rank -> value, 1 at the key's rank;
    it makes the only divisions of the eigen system, once per (prime, key),
    and the csv never reads it.  ``columns[op]`` maps each key of the table
    of op to its eigenvalue; ``columns`` has the keys of ``tables``, in
    order.  ``at`` reads any of these maps by basis index.  ``entries`` is a
    view as one object per basis element, built on each access.  The i-th
    eigenvector is the tensor product of the u_q at the i-th partition's
    keys; ``dense(i)`` and eigen_json expand it from integer codes (_terms,
    _codes)."""

    space: EisSpace
    tables: dict[HeckeOp, HeckeMatrix]
    scaled: tuple[dict[tuple, dict[int, CycNum]], ...]
    columns: dict[HeckeOp, dict[tuple, CycNum]]

    @cached_property
    def vector_ops(self) -> tuple[HeckeOp, ...]:
        """T(q) for each prime q of N, whose table's keys key ``local``."""
        return tuple(HeckeOp("T", q) for q in prime_factors(self.space.level))

    @cached_property
    def local(self) -> tuple[dict[tuple, dict[int, CycNum]], ...]:
        """Per prime x of N, each key of T(q) mapped to u_q: w_q, divided
        by its entry at the key's rank unless that is 1."""
        out = []
        for by_key in self.scaled:
            us = {}
            for key, w in by_key.items():
                pivot = w[key[-1]]
                if pivot.is_one():
                    us[key] = w
                else:
                    inv = pivot.inverse()
                    us[key] = {t: _ONE if t == key[-1] else a * inv
                               for t, a in w.items()}
            out.append(us)
        return tuple(out)

    @cached_property
    def _codes(self) -> tuple[tuple[tuple[itemgetter, dict], ...], _Memo]:
        """(moves, product), built once per system.  ``moves[x]`` holds the
        key getter of T(q), q the x-th prime of N, and maps each of its keys
        to the moves of its u_q as (rank-code shift (t - r) 3^x, digit times
        w_x), r the key's rank.  Digit 0 is the entry 1 at r, picked by its
        rank; the other digits number the nonzero entries off the rank of
        all of x's keys; w_x is the product of the digit counts of the
        primes below x.  So a combination code, the sum of one digit term
        per prime, names one entry per prime, and ``product`` maps it to
        the product of those entries, built on first read as the code less
        its highest nonzero digit term, times that entry (the code 0 is 1):
        a left fold from 1 in ascending prime order, the 1s left out."""
        moves, factors, weights, weight = [], [], [], 1
        for x, (op, us) in enumerate(zip(self.vector_ops, self.local)):
            table, digits = {}, [_ONE]
            for key, u in us.items():
                r, row = key[-1], [(0, 0)]
                for t, a in u.items():
                    if t != r and not a.is_zero():
                        row.append(((t - r) * 3 ** x, len(digits) * weight))
                        digits.append(a)
                table[key] = row
            moves.append((self.tables[op].key, table))
            factors.append(digits)
            weights.append(weight)
            weight *= len(digits)

        def make(code: int) -> CycNum:
            # the highest nonzero digit is at the last prime whose weight
            # is at most the code: primes sharing a weight, but for the
            # last, have digit 0 alone
            x = bisect_right(weights, code) - 1
            digit, rest = divmod(code, weights[x])
            return product[rest] * factors[x][digit]
        product = _Memo(make, {0: _ONE})
        return tuple(moves), product

    def _terms(self, i: int, ranks: tuple) -> tuple[list[int], list[int]]:
        """The nonzero coefficients of the i-th eigenvector (ranks `ranks`)
        as two parallel lists, in no particular order: their rank codes and
        their combination codes (_codes).  Each prime whose key has more
        than one move grows both lists by the terms so far, moved."""
        codes, combos = [self.space.codes[i]], [0]
        for key, table in self._codes[0]:
            moves = table[key(ranks)]
            if len(moves) > 1:
                codes = [c + s for s, _ in moves for c in codes]
                combos = [k + d for _, d in moves for k in combos]
        return codes, combos

    def at(self, i: int, ops, maps, ranks=None) -> list:
        """The i-th basis element's entry in each map of maps, read at its
        key (off `ranks`, when given) in the table of the op beside the map."""
        ranks = self.space.decode(i)[0] if ranks is None else ranks
        return [m[self.tables[op].key(ranks)] for op, m in zip(ops, maps)]

    @property
    def entries(self) -> list[EigenVectorEntry]:
        ops = list(self.columns)
        return [EigenVectorEntry(
                    rho, tuple(self.at(i, self.vector_ops, self.local)),
                    dict(zip(ops, self.at(i, ops, self.columns.values()))))
                for i, rho in enumerate(self.space.basis)]

    def dense(self, i: int) -> list[CycNum]:
        """The i-th eigenvector, as a list over the basis."""
        out = [_ZERO] * self.space.dimension
        index, product = self.space.index_of_code, self._codes[1]
        for c, k in zip(*self._terms(i, self.space.decode(i)[0])):
            out[index[c]] = product[k]
        return out


def _local_vector(space: EisSpace, rho, q: int,
                  rank: int) -> dict[int, CycNum]:
    """w_q of the parts rho: the local eigenvector u_q at q (1 at the rank
    at q, then the coefficients a, b (rank 0) or c (rank 1) of the moves up
    from it) times a common denominator of its entries, so that nothing is
    divided; u_q = w_q / w_q[rank] (eigenbasis).  a and c are 0 unless chi_q
    is trivial, and b unless chi_q is real.  With a = n_a / d_a, b = n_b /
    (d_a e) and c = n_c / d_c for trivial chi_q, and b = n_b / e for
    quadratic chi_q, w_q is {0: d_a e, 1: n_a e, 2: n_b} or {0: e, 2: n_b}
    at rank 0, {1: d_c, 2: n_c} at rank 1, and {rank: 1} otherwise.  Zero
    entries are dropped."""
    local = space.char.local(q)
    if rank == 2 or not local.is_real or rank == 1 and not local.is_trivial:
        return {rank: _ONE}
    k, (c0, c1, c2) = space.weight, rho
    if rank == 1:
        chi2 = _chi_over(space, c2, q)
        d_c = _chi_over(space, c0 * (c1 // q), q) * q ** (k - 2) - chi2
        w = {1: d_c, 2: -(chi2 * Fraction(q * q - 1, q * q))}
    else:
        chi2_sq = _chi_over(space, c2, q * q)
        e = _chi_over(space, c0 // q, q * q) * q ** (2 * k - 3) - chi2_sq
        if local.is_trivial:
            chi0, chi12 = _chi_over(space, c0 // q, q), _chi_over(space, c1 * c2, q)
            d_a = chi0 * q ** (k - 1) - chi12
            n_b = -(chi2_sq * Fraction(q - 1, q) * (chi0 * q ** (k - 3) - chi12))
            w = {0: d_a * e, 1: -(chi12 * Fraction(q - 1, q)) * e, 2: n_b}
        else:
            eps = legendre_epsilon(q)
            w = {0: e, 2: -(chi2_sq * Fraction(eps * (q - 1), q * q))}
    return {t: a for t, a in w.items() if not a.is_zero()}


def _is_local_eigen(local, key, u, lam: CycNum) -> bool:
    """Check 2 at one key (ranks at A_p) of a table's local rows: for p not
    dividing N (u is None) the diagonal value of the key is lam; for p | N,
    u.L_key == lam.u on the union of the supports, row s of L_key being the
    local row of key + (s,).  A key or rank with no local row fails."""
    if u is None:
        return key in local and local[key] == lam
    image: dict[int, CycNum] = {}
    for s, x in u.items():
        row = local.get(key + (s,))
        if row is None:
            return False
        _axpy(image, x, row)
    return all(image.get(t, _ZERO) == lam * u.get(t, _ZERO)
               for t in image.keys() | u.keys())


def eigenbasis(ops: SpaceOperators) -> EigenSystem:
    """One verified eigenvector per basis partition, in factored form, and
    one map key -> eigenvalue per stored table (EigenSystem).

    The level operators T(q), T1(q^2) for q | N are constructed if absent;
    each eigenvector v is then proved to satisfy v.M = lambda.v, with lambda
    the diagonal entry at rho, against every stored table M at a prime p.
    A basis element's ranks and parts are read off its code (EisSpace.decode),
    and v is by definition the tensor product of its local vectors u_q.
    The character values in u_q are those of the primes in A_q, so u_q
    depends on rho only through its key in the table of T(q) (ranks at
    A_q, then at q): it is built once per key, at the key's representative
    row (the table's HeckeMatrix.representatives), and stored under that
    key; nothing is mapped over the basis.  What is built and stored is w_q
    (_local_vector, EigenSystem.scaled), u_q times a common denominator of
    its entries, so the proof divides nothing.  A
    table at p is stored factored (HeckeMatrix): it moves only the rank at
    p, and its rows with the same key share one local row, so its block
    over each p-fiber is a local block L_key.  The proof has two checks,
    each exact, both on w_q:

    1. Once per (prime, key): w_q[rank at q] != 0.  Then u_q = w_q /
       w_q[rank at q] is 1 at the rank, so v[rho] == 1 for every vector
       and the factors that the expansion leaves out are 1.
    2. Per vector and table, with lambda read off the local row of rho's
       key: for each key in the product of the local supports at A_p,
       w_p.L_key == lambda.w_p on the union of the supports for p | N, and
       the diagonal value of the key equals lambda for p not dividing N.
       The equation is homogeneous in w_p, so u_p, a nonzero multiple of
       w_p (check 1) with the same support, satisfies it exactly when w_p
       does.
       The check reads only rho's key (which fixes lambda) and its local
       vectors w_q at the table's places, which rho's ranks at the places
       of those T(q) fix; so it runs once per pattern of these ranks, at its
       first basis index (_representatives), in basis order, and stores
       lambda under the table's key (EigenSystem.columns).

    Why this proves every coordinate: on a p-fiber s, v restricted to s is
    prod_{q != p} u_q[s_q] times u_p, and the block of s is L_key(s), so
    (v.M)[s] = lambda.v[s] on every fiber in the support of v; elsewhere
    both sides are 0.  The proof reads only local vectors and local rows.
    eigenbasis divides nothing: each w_q is divided by its entry at the
    rank once per (prime, key), on the first read of EigenSystem.local,
    which the csv output never makes.
    The trade-off: that a table factors holds by construction and is not
    checked here (see HeckeMatrix).  A verification failure is an internal
    error, not a data condition; it names the first failing vector in
    basis order, and at that vector check 1 before check 2 and then the
    first failing table in stored order.
    """
    space = ops.space
    for op in ops.level_ops():
        ops.matrix(op)
    tables = ops.stored()
    # (first failing index, check 1 before the tables in stored order, op,
    # why) for each failure found; the least one is raised
    failures = []
    local = []  # per prime q of N, the map key -> w_q of T(q)
    for q in prime_factors(space.level):
        hm = ops.matrix(HeckeOp("T", q))
        by_key = {}  # a key ends with the rank at q
        for key, i in hm.representatives.items():
            w = by_key[key] = _local_vector(space, space.decode(i)[1], q, key[-1])
            if w.get(key[-1], _ZERO).is_zero():
                failures.append((i, -1, next(iter(tables)),
                                 "a local vector is 0 at rho"))
        local.append(by_key)
    system = EigenSystem(space, tables, tuple(local), {})
    for t, (op, hm) in enumerate(tables.items()):
        lams = system.columns[op] = {}  # key -> lambda, its rows' diagonal
        near_ops = [system.vector_ops[x] for x in hm.places]
        near_maps = [local[x] for x in hm.places]
        # rho's ranks that fix its key and its local vectors at the places
        read = tuple(sorted({x for v in near_ops for x in tables[v].places}))
        for i in sorted(_representatives(space, read).values()):
            lam = lams.setdefault(hm.key(space.decode(i)[0]), hm.diagonal(i))
            near = system.at(i, near_ops, near_maps)
            u = None if hm.pos is None else near.pop()
            if not all(_is_local_eigen(hm.local, k, u, lam)
                       for k in product(*near)):
                failures.append((i, t, op, f"wrong local eigenvector at {op.p}"))
                break
    if failures:
        i, _, op, why = min(failures, key=itemgetter(0, 1))
        raise RuntimeError("eigenvector verification failed for "
                           f"rho={Partition(*space.decode(i)[1])}, op={op}: {why}")
    return system


# -- closed forms and comparison ----------------------------------------------


def eigenvalue_closed_form(space: EisSpace, rho, op: HeckeOp) -> CycNum:
    """The published eigenvalue tables at the parts rho, verbatim (including
    the p | N1 entry of the T1 table that the matrices contradict)."""
    p, k = op.p, space.weight
    c0, c1, c2 = rho
    if space.level % p != 0:
        if op.kind == "T":
            return (
                (_chi_over(space, c0 * c1, p) * p ** (k - 1) + _chi_over(space, c2, p))
                * (_chi_over(space, c0, p) * p ** (k - 2) + _chi_over(space, c1 * c2, p))
            )
        return (p + 1) * (
            _chi_over(space, c0, p * p) * p ** (2 * k - 3)
            + space.char(p) * Fraction(p ** (k - 3) * (p - 1))
            + _chi_over(space, c2, p * p)
        )
    rank = 0 if c0 % p == 0 else 1 if c1 % p == 0 else 2
    if op.kind == "T":
        if rank == 2:
            return (_chi_over(space, c0, p * p) * _chi_over(space, c1, p)
                    * p ** (2 * k - 3))
        if rank == 1:
            return _chi_over(space, c0 * c2, p) * p ** (k - 1)
        return _chi_over(space, c1, p) * _chi_over(space, c2, p * p)
    if rank == 2:
        return _chi_over(space, c0, p * p) * ((p + 1) * p ** (2 * k - 3))
    if rank == 1:
        return (_chi_over(space, c0, p * p) * p ** (2 * k - 3)
                + _chi_over(space, c2, p * p) * p)
    return _chi_over(space, c2, p * p) * (p + 1)


@dataclass
class Comparison:
    """The eigenvalues of one op against the closed-form tables.

    ``cases`` maps each key of the op's table to (matrix value, closed
    form, match, expected mismatch); ``key``, the table's key getter, reads
    a basis element's key off its decoded ranks.
    """

    op: HeckeOp
    key: itemgetter
    cases: dict[tuple, tuple]


def eigenvalue_comparisons(system: EigenSystem, op_list=None) -> list[Comparison]:
    """Verified eigenvalues vs the closed-form tables, one Comparison per
    op of op_list, in its order.

    ``system`` comes from eigenbasis, so each value is the exactly checked
    diagonal entry of the action table; op_list defaults to the level
    operators, and an op that eigenbasis did not verify raises ValueError.
    The matrices are authoritative.  The only expected disagreement is
    T1(q^2) at partitions with q | N1, where the table entry has q^{2k-3}
    in place of the matrices' q^{2k-2}; those rows come back match=False
    with expected_mismatch=True.  The closed form and the expected mismatch
    depend only on rho's key in the op's table (its ranks at A_p and, for
    p | N, at p), as the eigenvalue does; so each case is evaluated once
    per (op, key), at the key's representative row in the op's table.
    """
    space = system.space
    primes = prime_factors(space.level)
    if op_list is None:
        op_list = SpaceOperators(space).level_ops()
    tables = [system.tables.get(op) for op in op_list]
    for op, hm in zip(op_list, tables):  # every op before any work
        if hm is None:
            raise ValueError(f"{op} was not verified; build its table before eigenbasis")
    out = []
    for hm in tables:  # the table's own op, found by identity, keys lams
        op, lams = hm.op, system.columns[hm.op]
        cases = {}
        for key, i in hm.representatives.items():
            mval = lams[key]
            cval = eigenvalue_closed_form(space, space.decode(i)[1], op)
            cases[key] = (mval, cval, bool(mval == cval), op.kind == "T1"
                          and op.p in primes and key[-1] == 1)
        out.append(Comparison(op, hm.key, cases))
    return out


def compare_eigenvalues(system: EigenSystem, op_list=None) -> list[dict]:
    """The rows of eigenvalue_comparisons as plain JSON dicts, one per
    (rho, op), partitions outer and ops inner."""
    comparisons = eigenvalue_comparisons(system, op_list)
    space = system.space
    return [{"partition": rho.to_json(), "op": c.op.spec_string(),
             "matrix_value": mval.to_json(), "closed_form": cval.to_json(),
             "match": match, "expected_mismatch": expected}
            for i, rho in enumerate(space.basis)
            for c in comparisons
            for mval, cval, match, expected in (c.cases[c.key(space.decode(i)[0])],)]


def _text(parts, depth: int) -> str:
    """The JSON of parts (N0, N1, N2) standing at `depth`: the bytes of
    json.dumps of their Partition's to_json(), indent=2, sort_keys=True,
    with each newline indented to that depth."""
    pad = "\n" + "  " * depth
    inner = pad + "  "
    n0, n1, n2 = parts
    return f'{{{inner}"N0": {n0},{inner}"N1": {n1},{inner}"N2": {n2}{pad}}}'


def _case_rows(system: EigenSystem, op_list, vectors: bool, text, decoded):
    """The comparison lines of both `eigen` formats, after a prologue run at
    the call: eigenvalue_comparisons (an unverified op raises ValueError),
    check_printable of the cases and, with `vectors` (JSON), of the
    eigenvalues and the vector coefficients, each a product of one local
    entry per prime of system.local; then text(op, *case) per key of each
    op's cases.  Yields, per decoded basis element, its parts and the
    texts at its keys, one per op; nothing when there is no op."""
    comparisons = eigenvalue_comparisons(system, op_list)
    values = [v for c in comparisons for case in c.cases.values()
              for v in case[:2]]
    factors = []
    if vectors:
        for us in system.local:
            entries = [a for u in us.values() for a in u.values()]
            factors.append(max(map(_height, entries)))
            values += entries
        compared = {c.op for c in comparisons}  # their values are cases
        for op, lams in system.columns.items():
            if op not in compared:
                values += lams.values()
    check_printable(values, factors)
    cases = [(c.key, {key: text(c.op, *case) for key, case in c.cases.items()})
             for c in comparisons]
    return ((parts, [texts[key(ranks)] for key, texts in cases])
            for ranks, parts in (decoded if cases else ()))


def eigen_csv(system: EigenSystem, op_list=None):
    """The csv output of `eigen`, a line per (partition, op) of
    eigenvalue_comparisons, partitions outer, checked at the call
    (_case_rows), then yielded as the header line and one chunk of lines
    per partition, so that no more than one partition's text is held."""
    def tail(op, mval, cval, match, _):  # a line after its partition
        return (f"{op.spec_string()},{repr(mval).replace(' ', '')},"
                f"{repr(cval).replace(' ', '')},{str(match).lower()}")
    space = system.space
    rows = _case_rows(system, op_list, False, tail,
                      map(space.decode, range(space.dimension)))

    def chunks():
        yield "partition,op,eigenvalue,closed_form,match\n"
        for parts, tails in rows:
            head = "({};{};{}),".format(*parts)
            yield head + ("\n" + head).join(tails) + "\n"
    return chunks()


def eigen_json(system: EigenSystem, op_list=None) -> dict:
    """The `eigen` command's output: the space descriptor, the comparison
    rows and the eigenbasis entries, as the bytes of the plain tree (rows
    compare_eigenvalues(system, op_list)) written by jsonout.write_json.
    Its lists are iterators of JsonText records, each rendered for the
    depth where it stands when the writer reaches it: per basis partition
    its rows (several list items in one record) and its entry; the space
    is EisSpace.descriptor, whose basis is a stream of chunks.

    The records are read off the per-key maps and one EisSpace.decode per
    element, with no object per row, entry, vector or partition.  Each
    distinct value and partition is encoded once per depth.  Per op, a
    row's text up to its partition is built once per key of
    eigenvalue_comparisons' cases (_case_rows, which checks at the call),
    and an eigenvalue line once per key of the op's eigenvalues; a record
    reads them at its partition's keys, the ops being sorted by name once.
    Each vector is expanded to the rank codes and combination codes of its
    coefficients (EigenSystem._terms), and a vector item's text up to its
    partition is rendered once per combination code, from its product.
    """
    space = system.space
    pad, pad3, pad4, pad5 = ("\n" + "  " * d for d in (2, 3, 4, 5))
    value = value_texts()

    def head(op, mval, cval, match, expected):  # a row up to its partition
        return (f'{{{pad3}"closed_form": {value(cval, 3)}'
                f',{pad3}"expected_mismatch": {("false", "true")[expected]}'
                f',{pad3}"match": {("false", "true")[match]}'
                f',{pad3}"matrix_value": {value(mval, 3)}'
                f',{pad3}"op": {_json_str(op.spec_string())},{pad3}"partition": ')
    decoded = list(map(space.decode, range(space.dimension)))
    rows = _case_rows(system, op_list, True, head, decoded)
    part = [_text(parts, 3) for _, parts in decoded]

    def comparison_records():
        sep = "," + pad
        for (_, heads), p in zip(rows, part):
            tail = p + pad + "}"  # rows end with rho
            yield JsonText((tail + sep).join(heads) + tail)

    def eigenbasis_records():
        index, product = space.index_of_code.__getitem__, system._codes[1]
        # combination code -> a vector item up to its partition
        texts = _Memo(lambda k: f'{{{pad5}"coeff": {value(product[k], 5)}')
        ops = sorted(system.columns, key=HeckeOp.spec_string)
        lines = [{key: _json_str(op.spec_string()) + ": " + value(lam, 4)
                  for key, lam in system.columns[op].items()} for op in ops]
        item_end = [f',{pad5}"partition": {_text(parts, 5)}{pad4}}}'
                    for _, parts in decoded]
        sep = "," + pad4
        for i, ((ranks, _), p) in enumerate(zip(decoded, part)):
            codes, combos = system._terms(i, ranks)
            items = [start + item_end[j] for j, start in sorted(zip(
                map(index, codes), map(texts.__getitem__, combos)))]
            eigs = system.at(i, ops, lines, ranks)
            eig_text = (f"{{{pad4}" + sep.join(eigs) + pad3 + "}"
                        if eigs else "{}")
            yield JsonText(
                f'{{{pad3}"eigenvalues": {eig_text},{pad3}"partition": '
                f'{p},{pad3}"vector": [{pad4}{sep.join(items)}'
                f'{pad3}]{pad}}}')

    return {"comparison": comparison_records(),
            "eigenbasis": eigenbasis_records(),
            "space": space.descriptor(1, decoded)}


# -- relation operators (corner-to-basis words) --------------------------------


def s_constant(space: EisSpace, q: int) -> CycNum:
    """c(q) = q^2 / ((q-1)(chi_{N/q}(q) q^k - 1)); needs trivial chi_q."""
    k = space.weight
    chi_rest = _chi_over(space, space.level // q, q)
    return as_cyc(Fraction(q * q, q - 1)) / (chi_rest * q**k - 1)


def s_operator(ops: SpaceOperators, q: int, which: str) -> HeckeMatrix:
    """The Hecke-algebra elements S1(q), S2(q) as exact tables, stored
    factored like T(q).

    S1 moves the corner prime q into rank 1 and needs chi_q = 1; S2 moves it
    into rank 2 and needs chi_q^2 = 1.  Each is x T(q) + y T1(q^2) + z I:
    with c = s_constant and chi_rest = chi_{N/q}(q),
    S1 = c (T1 - (q+1)/q T - (q^2-1)/q I), S2 = c ((chi_rest q^(k-1) + 1) T
    - T1 - q (chi_rest q^(k-2) - 1) I) for trivial chi_q, and S2 = f (T - I)
    with f = (-1|q) q^2 / (q-1) for quadratic chi_q.  The local row of each
    key is that combination of the local rows of the cached T(q) and
    T1(q^2) at the key, zeros dropped: the table is given only these.
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
        x, y, z = c * Fraction(-(q + 1), q), c, c * Fraction(1 - q * q, q)
    elif which == "S2":
        if local.is_trivial:
            c = s_constant(space, q)
            chi_rest = _chi_over(space, space.level // q, q)
            x, y = c * (chi_rest * q ** (k - 1) + 1), -c
            z = -(c * (chi_rest * q ** (k - 2) - 1) * q)
        elif local.is_real:
            x = as_cyc(Fraction(legendre_epsilon(q) * q * q, q - 1))
            y, z = _ZERO, -x
        else:
            raise ValueError(f"S2({q}) requires chi_{q}^2 = 1")
    else:
        raise ValueError(f"unknown relation operator {which!r}; want S1 or S2")
    T, T1 = (ops.matrix(HeckeOp(kind, q)).local for kind in ("T", "T1"))
    rows = {}  # key -> local row
    for key, row in T.items():
        t, t1, rank = dict(row), dict(T1[key]), key[-1]
        out = ((s, t.get(s, _ZERO) * x + t1.get(s, _ZERO) * y
                + (z if s == rank else _ZERO))
               for s in sorted(t.keys() | t1.keys() | {rank}))
        rows[key] = tuple((s, a) for s, a in out if not a.is_zero())
    return HeckeMatrix(space, HeckeOp(which, q), rows)


def apply_word(ops: SpaceOperators, word, v: dict[int, CycNum]) -> dict[int, CycNum]:
    """The row vector v.M1.M2... for a word of HeckeOps, keyed by basis
    index (an absent index stands for 0)."""
    for op in word:
        v = ops.matrix(op).vec_mat(v)
    return v


def word_rows(ops: SpaceOperators, word):
    """The rows of a word of HeckeOps as the `hecke` command prints them:
    row i is apply_word on the unit vector e_i, yielded as the JsonText of
    its dense list at the depth of a list item under a top-level key, so
    no n x n matrix is ever held.  Each distinct value is encoded once
    (cyclotomic.value_texts), the zero cell included."""
    n = ops.space.dimension
    pad, pad3 = "\n    ", "\n      "
    value = value_texts()
    zero = value(_ZERO, 3)
    for i in range(n):
        row = [zero] * n
        for j, c in apply_word(ops, word, {i: _ONE}).items():
            row[j] = value(c, 3)
        yield JsonText("[" + pad3 + ("," + pad3).join(row) + pad + "]")


def word_json(ops: SpaceOperators, word, spec: str) -> dict:
    """The `hecke` command's output for a word of HeckeOps spelled `spec`:
    the space, the word, its basis as a stream of chunks and its rows
    (word_rows)."""
    space = ops.space
    basis = (_text(space.decode(i)[1], 2) for i in range(space.dimension))
    return {"level": space.level, "weight": space.weight,
            "char": space.char.spec_string(), "op": spec,
            "basis": chunked(basis, 2), "matrix": word_rows(ops, word)}


def check_word_printable(ops: SpaceOperators, word) -> None:
    """check_printable for the rows of a word of tables M_l, each entry a
    sum of products of one entry per table.  With D_l the lcm of M_l's
    denominators, D_1 D_2... times it is a sum of roots of unity whose
    weights' absolute sum is at most the product of the S_l, the largest
    row sums of D_l |n_i| / d; so its factor of M_l is max(D_l, S_l)."""
    factors, values = [], []
    for hm in map(ops.matrix, word):
        rows = [row if hm.pos is not None else ((0, row),)  # p not | N
                for row in hm.local.values()]
        d = lcm(*(a.d for row in rows for _, a in row))
        factors.append(max(d, *(sum(d // a.d * sum(map(abs, a.n))
                                    for _, a in row) for row in rows)))
        values += [a for row in rows for _, a in row]
    check_printable(values, factors)


def relation_defects(ops: SpaceOperators) -> list[int]:
    """For each basis partition rho, in basis order, the number of entries
    where e_corner.S1(N1)S2(N2) differs from e_rho (0 when the relation
    holds); the corner is (N,1,1), and chi must be trivial.  Then each S
    table is keyed by (rank at q,), and the corner has rank 0 at every q,
    so the image is the tensor product over q | N of w_q[rank of rho at q]:
    e_0, e_0.S1(q) or e_0.S2(q), the latter two the local rows at (0,).  A
    product of nonzero values is nonzero, so the count is the product of
    the local support sizes, less 1 if v != 0, plus 1 if v != 1, with v
    the image's entry at rho: 3 omega local vectors prove every word.
    """
    space = ops.space
    if space.char.order != 1:
        raise ValueError("relation words need the trivial character")
    local = []  # per prime q of N, w_q[r] for r = 0, 1, 2, zeros dropped
    for q in prime_factors(space.level):
        rows = (ops.matrix(HeckeOp(w, q)).local[0,] for w in ("S1", "S2"))
        local.append([{0: _ONE}] + [  # each 1 as _ONE, which products keep
            {t: _ONE if a.is_one() else a for t, a in row if not a.is_zero()}
            for row in rows])
    out = []
    for ranks, _ in map(space.decode, range(space.dimension)):
        size, v = 1, _ONE
        for w, r in zip(local, ranks):
            size *= len(w[r])
            v = v * w[r].get(r, _ZERO)
        out.append(size - (not v.is_zero()) + (not v.is_one()))
    return out


def relations_json(space: EisSpace, constants: dict, defects: list[int]) -> dict:
    """The `relations` command's output: the S constants (q -> s_constant)
    and per basis partition rho the record of e_corner.S1(N1)S2(N2) ==
    e_rho, which holds where relation_defects counts 0."""
    pad, pad3 = "\n    ", "\n      "
    identities = (JsonText(
        f'{{{pad3}"holds": {("false", "true")[bad == 0]},{pad3}"target": '
        f'{_text(parts, 3)},{pad3}"word": "S1:{parts[1]};S2:{parts[2]}"{pad}}}')
        for (_, parts), bad in zip(map(space.decode, range(space.dimension)), defects))
    return {"level": space.level, "weight": space.weight,
            "constants": {str(q): c.to_json() for q, c in constants.items()},
            "identities": identities, "all_hold": not any(defects)}
