"""Independent oracle suite tying the modules together.

run_suite executes every module invariant at a configured scale and collects
one record per check with status pass, fail, or documented-mismatch.  The
documented-mismatch status is reserved for the one known disagreement
between the eigenvalue table and the action matrices (the T1 entry at
rank-1 primes); it keeps the suite green without hiding regressions, since
the mismatch must still have exactly the expected shape on both sides.

The suite walks the spaces in scope once.  For each space it builds one
SpaceOperators holding the sweep tables (T(p), T1(p^2) for p <= prime_max)
and the level tables, runs eigenbasis on it once, hands both to the
per-space checks (enumeration, commutativity, triangularity, eigen
exactness, closed forms, eigen oracle) and drops them before the next
space, so only one space's tables are alive at a time.  A failed eigenbasis
becomes a fail record of each check that reads it.  Records come out grouped
by check, in the order of run_suite's check list.

Reports are reproducible: the same config (including the seed) produces an
identical report.  Wall-clock timings are kept out of the serialized report
for that reason and exposed separately, one total per check; building a
space's tables and eigenbasis counts towards hecke-eigen-exactness.
"""

from __future__ import annotations

import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .characters import enumerate_characters
from .cyclotomic import CycNum, _check_cap, _make, divisors, euler_phi, \
    is_prime, is_squarefree, primes_up_to
from .eisspace import EisSpace, Partition, enumerate_partitions, prime_factors
from .fourier import UOperator, apply_U, combine, constant_expansion, \
    expansion_from_function, krylov_spectral
from .hecke import EigenSystem, HeckeOp, SpaceOperators, _chi_over, \
    _row_at_level_prime, _row_prime_to_level, apply_word, eigenbasis, \
    eigenvalue_closed_form, eigenvalue_comparisons
from .lattices import GL2, GramForm, _unimodular_entries_bounded, \
    isotropic_lines, reduce_form, sublattices, transform
from .linalg import _axpy, _Span, left_null_space

_ZERO = CycNum.zero()
_ONE = CycNum.one()

PASS = "pass"
FAIL = "fail"
DOCUMENTED = "documented-mismatch"

DESK_CONFIG = {
    "N_max": 30,
    "k_set": [4, 5, 6, 7],
    "prime_max": 13,
    "char_orders": [1, 2, 4],
    "trials": 1000,
    "seed": 7,
}

QUICK_CONFIG = {
    "N_max": 6,
    "k_set": [4, 5],
    "prime_max": 5,
    "char_orders": [1, 2],
    "trials": 50,
    "seed": 7,
}

PRESETS = {"desk": DESK_CONFIG, "quick": QUICK_CONFIG}


@dataclass
class CheckRecord:
    name: str
    parameters: dict
    status: str
    details: str = ""

    def to_json(self):
        return {
            "name": self.name,
            "parameters": self.parameters,
            "status": self.status,
            "details": self.details,
        }


@dataclass
class VerificationReport:
    config: dict
    checks: list[CheckRecord] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.status != FAIL for c in self.checks)

    def counts(self) -> dict[str, int]:
        out = {PASS: 0, FAIL: 0, DOCUMENTED: 0}
        for c in self.checks:
            out[c.status] += 1
        return out

    def to_json(self):
        return {
            "config": self.config,
            "counts": self.counts(),
            "ok": self.ok,
            "checks": [c.to_json() for c in self.checks],
        }


def subgroup_count_oracle(q: int) -> int:
    """Count the index-q subgroups of Z^2 by enumerating the kernels of the
    surjections (x, y) -> a x + b y onto Z/qZ, one per (a, b) != (0, 0),
    and deduplicating them by equality.  For b != 0 the kernel mod q is the
    graph {(t, c t)}, c = -a b^-1 mod q, compared as the bytes of c t mod q
    over t = 0, ..., q - 1 (read off the progression 0, c, 2c, ...); for
    b = 0 it is {(0, t)}, no graph over t, and gets a token of its own."""
    if q > 50:
        raise ValueError("oracle is intended for primes q <= 50")
    kernels = set()
    mod_q = q.__rmod__
    for a in range(q):
        for b in range(q):
            if b:
                c = -a * pow(b, -1, q) % q
                kernels.add(bytes(map(mod_q, range(0, c * q, c))) if c
                            else bytes(q))
            elif a:
                kernels.add(None)  # the points (0, t)
    return len(kernels)


def spaces_in_scope(config) -> list[EisSpace]:
    out = []
    for N in range(1, config["N_max"] + 1):
        if not is_squarefree(N):
            continue
        for char in enumerate_characters(N, config["char_orders"]):
            for k in config["k_set"]:
                if not char.valid_for_weight(k):
                    continue
                out.append(enumerate_partitions(N, char, k))
    return out


def _expected_mismatch_values(space, rho, q):
    """The two sides of the known T1 disagreement at q | N1 of the parts rho."""
    k, (c0, _, c2) = space.weight, rho
    chi0, chi2 = _chi_over(space, c0, q * q), _chi_over(space, c2, q * q) * q
    # the matrix side has q^(2k-2) where the table has q^(2k-3)
    return chi0 * q ** (2 * k - 2) + chi2, chi0 * q ** (2 * k - 3) + chi2


def _check_config(config: dict) -> None:
    """Refuse a scale at which some check would run on nothing."""
    for name, low in (("N_max", 1), ("prime_max", 2), ("trials", 1)):
        if config[name] < low:
            raise ValueError(f"{name} must be at least {low}, got {config[name]}")
    for name, low in (("k_set", 4), ("char_orders", 1)):
        for x in config[name]:
            if x < low:
                raise ValueError(f"every {name} entry must be at least {low}, got {x}")


def run_suite(config: dict) -> VerificationReport:
    """Run every module invariant at the configured scale; see module doc.
    A config below the smallest meaningful scale raises ValueError."""
    config = dict(config)
    _check_config(config)
    rng = random.Random(config["seed"])
    # (name, check, whether it runs once per space); records and timings
    # come out in this order
    checks = [
        ("exactmath-field-axioms", _check_field_axioms, False),
        ("eisspace-enumeration", _check_eisspace, True),
        ("hecke-commutativity", _check_commutativity, True),
        ("hecke-triangularity", _check_triangularity, True),
        ("hecke-eigen-exactness", _check_eigen_exactness, True),
        ("hecke-closed-form-comparison", _check_closed_forms, True),
        ("hecke-relation-words", _check_relation_words, False),
        ("hecke-level-one-specialization", _check_level_one_specialization, False),
        ("hecke-eigen-oracle", _check_eigen_oracle, True),
        ("lattice-sublattice-counts", _check_sublattice_counts, False),
        ("lattice-reduction-invariance", _check_reduction_invariance, False),
        ("lattice-isotropy", _check_isotropy, False),
        ("fourier-operator-properties", _check_fourier_properties, False),
    ]
    records = defaultdict(list)
    timings = defaultdict(float)

    def timed(name, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        timings[name] += time.perf_counter() - t0
        return out

    # no per-space check reads rng, so the other checks draw the same stream
    for space in spaces_in_scope(config):
        run = timed("hecke-eigen-exactness", space_run, space, config)
        for name, fn, per_space in checks:
            if per_space:
                records[name] += timed(name, fn, config, run)
        del run  # before the next space's tables are built
    for name, fn, per_space in checks:
        if not per_space:
            records[name] = timed(name, fn, config, rng)
    report = VerificationReport(config=config)
    for name, _, _ in checks:
        report.checks += records[name]
        report.timings[name] = timings[name]
    return report


# -- individual check groups ---------------------------------------------------


def _random_cyc(rng, base_m: int) -> CycNum:
    # a random divisor conductor keeps mixed-m arithmetic under the cap
    m = rng.choice([d for d in range(1, base_m + 1)
                    if base_m % d == 0 and d % 4 != 2])
    # numerator and denominator of each coordinate, drawn in that order
    pairs = [(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(euler_phi(m))]
    d = lcm(*(q for _, q in pairs))
    _check_cap(m)
    return _make(m, [a * (d // q) for a, q in pairs], d)


def _check_field_axioms(config, rng):
    trials = config["trials"]
    bad = 0
    for _ in range(trials):
        base = rng.choice([m for m in range(1, 25) if m % 4 != 2])
        a = _random_cyc(rng, base)
        b = _random_cyc(rng, base)
        c = _random_cyc(rng, base)
        if not ((a + b) + c == a + (b + c)):
            bad += 1
        if not (a * (b + c) == a * b + a * c):
            bad += 1
        if not a.is_zero() and not (a * a.inverse() == 1):
            bad += 1
    status = PASS if bad == 0 else FAIL
    return [CheckRecord(
        "exactmath-field-axioms", {"trials": trials, "max_conductor": 24},
        status, f"{bad} violations",
    )]


@dataclass
class SpaceRun:
    """What the per-space checks share: one SpaceOperators holding the sweep
    tables and the level tables, and its eigenbasis (None, with the failure
    message in ``error``, when the exact verification failed)."""

    space: EisSpace
    ops: SpaceOperators
    sweep: list[HeckeOp]
    system: EigenSystem | None
    error: str = ""


def space_run(space: EisSpace, config) -> SpaceRun:
    """Build the sweep tables, T(p) and T1(p^2) for p <= prime_max in that
    order, then the level tables, then the eigenbasis verified against all
    of them."""
    ops = SpaceOperators(space)
    sweep = [HeckeOp(kind, p) for p in primes_up_to(config["prime_max"])
             for kind in ("T", "T1")]
    for op in sweep + ops.level_ops():
        ops.matrix(op)
    try:
        return SpaceRun(space, ops, sweep, eigenbasis(ops))
    except RuntimeError as exc:
        return SpaceRun(space, ops, sweep, None, str(exc))


def _space_params(space):
    return {"level": space.level, "char": space.char.spec_string(),
            "weight": space.weight}


def _check_eisspace(config, run):
    """The decoded basis against a brute-force oracle: the ordered divisor
    triples with product N, chi_q^2 = 1 at each q | N1, by Partition.sort_key."""
    space, n = run.space, run.space.level
    want = sorted((Partition(a, b, n // (a * b)) for a in divisors(n)
                   for b in divisors(n // a)
                   if all(map(space.char.is_real_at, prime_factors(b)))),
                  key=Partition.sort_key)
    ok = want == list(space.basis)  # the Partitions of the decoded parts
    return [CheckRecord(
        "eisspace-enumeration", _space_params(space),
        PASS if ok else FAIL,
        f"dimension {space.dimension}",
    )]


def _diagonal_and_off(rows):
    """The diagonal of a table, and the (row, column) positions of its
    nonzero entries off the diagonal, read off its sparse rows."""
    diag, off = [], []
    for i, row in enumerate(rows):
        d = _ZERO
        for j, a in row:
            if j == i:
                d = a
            else:
                off.append((i, j))
        diag.append(d)
    return diag, off


def _check_commutativity(config, run):
    """Every pair of sweep tables commutes, read off their sparse rows.

    When one factor D of a pair is diagonal, entry (i, l) of D.A - A.D is
    (d_i - d_l).a_il, which over a field is zero exactly when a_il = 0 or
    d_i == d_l.  It is zero on the diagonal, so such a pair is settled by
    comparing d_i with d_l at every nonzero a_il of the other factor off
    its diagonal, without a product.  Whether a table is diagonal is read
    from its rows, not assumed from its operator.  A pair with no diagonal
    factor forms both products one row at a time (_combine) and compares
    each pair of rows as maps column -> nonzero value."""
    tables = [run.ops.matrix(op).rows for op in run.sweep]
    parts = [_diagonal_and_off(rows) for rows in tables]
    bad = 0
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            (di, off_i), (dj, off_j) = parts[i], parts[j]
            if not off_i:
                ok = all(di[r] == di[l] for r, l in off_j)
            elif not off_j:
                ok = all(dj[r] == dj[l] for r, l in off_i)
            else:
                a, b = tables[i], tables[j]
                ok = all(_combine(ra, b) == _combine(rb, a)
                         for ra, rb in zip(a, b))
            if not ok:
                bad += 1
    return [CheckRecord(
        "hecke-commutativity",
        {**_space_params(run.space), "prime_max": config["prime_max"]},
        PASS if bad == 0 else FAIL,
        f"{len(tables)} operators, {bad} non-commuting pairs",
    )]


def _check_triangularity(config, run):
    """Every entry of every sweep table keeps or raises each rank, and every
    row equals the per-row formula at that row: the oracle of the factored
    tables, which evaluate the formula once per key."""
    space, primes = run.space, prime_factors(run.space.level)
    ranks, parts = zip(*map(space.decode, range(space.dimension)))
    bad, off = 0, []
    for op in run.sweep:
        rows = run.ops.matrix(op).rows
        bad += sum(1 for r_i, row in zip(ranks, rows) for j, _ in row
                   if any(b < a for a, b in zip(r_i, ranks[j])))
        if op.p in primes:
            pos = primes.index(op.p)
            # each (target rank t, value) to (basis index of the target, value)
            want = [tuple((space.index_of_code[c + (t - r[pos]) * 3 ** pos], a)
                          for t, a in _row_at_level_prime(space, rho, r[pos], op))
                    for c, r, rho in zip(space.codes, ranks, parts)]
        else:
            want = [((i, _row_prime_to_level(space, rho, op)),)
                    for i, rho in enumerate(parts)]
        if list(rows) != want:
            off.append(str(op))
    detail = f"{bad} rank-decreasing entries"
    if off:
        detail += "; rows differ from the row formula in " + ", ".join(off)
    return [CheckRecord("hecke-triangularity", _space_params(space),
                        PASS if bad == 0 and not off else FAIL, detail)]


def _check_eigen_exactness(config, run):
    space = run.space
    if run.system is None:
        status, detail = FAIL, run.error
    else:
        status, detail = PASS, f"{space.dimension} eigenvectors verified"
    return [CheckRecord(
        "hecke-eigen-exactness",
        {**_space_params(space), "operators": len(run.sweep)},
        status, detail,
    )]


def _check_closed_forms(config, run):
    space = run.space
    if run.system is None:
        return [CheckRecord("hecke-closed-form-comparison",
                            _space_params(space), FAIL, run.error)]
    out = []
    bad = 0
    matched = 0
    comparisons = eigenvalue_comparisons(run.system, run.ops.level_ops())
    for i, rho in enumerate(space.basis):  # Partitions, at the desk's scale
        for c in comparisons:
            mval, cval, match, exempt = c.cases[c.key(space.decode(i)[0])]
            if exempt:
                mwant, twant = _expected_mismatch_values(space, rho, c.op.p)
                if mval == mwant and cval == twant and not match:
                    out.append(CheckRecord(
                        "hecke-closed-form-comparison",
                        {**_space_params(space), "partition": str(rho),
                         "op": c.op.spec_string()},
                        DOCUMENTED,
                        "table q^(2k-3) vs matrix q^(2k-2), both sides "
                        "have the expected shape",
                    ))
                else:
                    bad += 1
            elif match:
                matched += 1
            else:
                bad += 1
    out.append(CheckRecord(
        "hecke-closed-form-comparison", _space_params(space),
        PASS if bad == 0 else FAIL,
        f"{matched} matches, {bad} unexpected mismatches",
    ))
    return out


def _check_relation_words(config, rng):
    # e_corner.S1(N1)S2(N2) by the chained product, entry by entry against
    # e_rho: the oracle of relation_defects, the path `relations` prints
    out = []
    for N in range(1, config["N_max"] + 1):
        if not is_squarefree(N):
            continue
        for k in [k for k in config["k_set"] if k % 2 == 0]:
            space = enumerate_partitions(N, None, k)
            ops, bad = SpaceOperators(space), 0
            for i, rho in enumerate(space.basis):
                word = ([HeckeOp("S1", q) for q in prime_factors(rho.n1)]
                        + [HeckeOp("S2", q) for q in prime_factors(rho.n2)])
                image = apply_word(ops, word, {0: _ONE})  # 0: the corner
                bad += (not image.pop(i, _ZERO).is_one()) + sum(
                    not x.is_zero() for x in image.values())
            out.append(CheckRecord(
                "hecke-relation-words",
                {"level": N, "weight": k, "char": "1"},
                PASS if bad == 0 else FAIL,
                f"{space.dimension} words checked, {bad} bad entries",
            ))
    return out


def _check_level_one_specialization(config, rng):
    # at N=1 the T(p) table entry and the closed form must both equal
    # (p^(k-1)+1)(p^(k-2)+1): all are polynomials in p of degree at most
    # 2k-3, so agreement at the first 2k-2 primes is an identity
    out = []
    for k in config["k_set"]:
        if (-1) ** k != 1:
            continue
        space = enumerate_partitions(1, None, k)
        bad, p = 0, 1
        for _ in range(2 * k - 2):
            # Bertrand's postulate: there is a prime in (p, 2p]
            p = next(n for n in range(p + 1, 2 * p + 1) if is_prime(n))
            op, want = HeckeOp("T", p), (p ** (k - 1) + 1) * (p ** (k - 2) + 1)
            bad += (_row_prime_to_level(space, (1, 1, 1), op) != want) + (
                eigenvalue_closed_form(space, (1, 1, 1), op) != want)
        out.append(CheckRecord(
            "hecke-level-one-specialization", {"weight": k},
            PASS if bad == 0 else FAIL,
            f"{bad} failures",
        ))
    return out


def _oracle_joint_eigenspaces(tables):
    """Joint row eigenspaces of ``tables``, given by their sparse rows like
    HeckeMatrix.rows, by dense refinement, independent of the closed-form
    eigenvector construction.

    Starting from the whole space, every piece is split inside itself by
    each matrix M in turn.  The piece's basis B is brought to reduced row
    echelon form with pivot columns P, W = B.M, and the restricted matrix R
    is read off as R[i][j] = W[i][P[j]].  W == R.B is checked on every
    entry, which proves the piece invariant under M instead of assuming it
    from commutativity.  Row i of B is zero before column P[i], so for an
    upper triangular M, R[i][j] = 0 whenever P[j] < P[i] and
    R[i][i] = M[P[i]][P[i]]: R is triangular up to the order of its rows,
    and its eigenvalues are its diagonal entries.  Each distinct diagonal
    entry lambda gives the piece X.B tagged with lambda, X the left null
    space of R - lambda.I.  A candidate that is not an eigenvalue has an
    empty null space, and a non-invariant piece is dropped; a missed
    eigenvalue, a non-diagonalizable R or a dropped piece can only leave
    fewer pieces than the dimension, never more, so every such failure
    reads as ``fail``.  Returns (eigenvalue tags, row basis) pairs.

    The bases are dense lists.  The rows of B, W and R.B are held as their
    nonzero entries (_combine), so the products touch nothing else, and two
    such rows are equal exactly when they agree on every entry.
    """
    n = len(tables[0])
    pieces = [((), [[_ONE if i == j else _ZERO for j in range(n)]
                     for i in range(n)])]
    for mrows in tables:
        nxt = []
        for tags, basis in pieces:
            span = _Span()
            for v in basis:
                span.insert(v)
            # B's rows as the (column, value) pairs of their nonzero entries
            b = [((piv, _ONE), *tail.items()) for piv, tail in span.rows]
            w = [_combine(row, mrows) for row in b]
            r = [[wi.get(p, _ZERO) for p, _ in span.rows] for wi in w]
            if any(wi != _combine(enumerate(ri), b) for wi, ri in zip(w, r)):
                continue
            lams = []
            for i, row in enumerate(r):
                if all(not (row[i] == lam) for lam in lams):
                    lams.append(row[i])
            for lam in lams:
                xs = left_null_space([[a - lam if i == j else a
                                       for j, a in enumerate(row)]
                                      for i, row in enumerate(r)])
                if xs:
                    nxt.append((tags + (lam,),
                                [_dense(_combine(enumerate(x), b), n) for x in xs]))
        pieces = nxt
    return pieces


def _combine(coeffs, rows) -> dict:
    """The row sum of a * rows[k] over the (k, a) pairs of coeffs, as a map
    column -> value of its nonzero entries; rows[k] lists its nonzero
    entries as (column, value) pairs."""
    out: dict = {}
    for k, a in coeffs:
        if not a.is_zero():
            _axpy(out, a, rows[k])
    return out


def _dense(row: dict, n: int) -> list:
    """The length-n list of a row held as a map column -> nonzero value."""
    out = [_ZERO] * n
    for j, a in row.items():
        out[j] = a
    return out


def _check_eigen_oracle(config, run):
    space, ops, system = run.space, run.ops, run.system
    extra = [HeckeOp("T", p) for p in primes_up_to(config["prime_max"])
             if space.level % p != 0][:1]
    op_list = ops.level_ops() + extra
    params = {**_space_params(space), "operators": len(op_list)}
    if system is None:
        return [CheckRecord("hecke-eigen-oracle", params, FAIL, run.error)]
    pieces = _oracle_joint_eigenspaces([ops.matrix(op).rows for op in op_list])
    bad = []
    if len(pieces) != space.dimension:
        bad.append(f"{len(pieces)} joint pieces for dim {space.dimension}")
    else:
        # stored forms are canonical, so equal eigenvalues hash alike
        # each basis index under the tuple of its eigenvalues for op_list
        by_tags = defaultdict(list)
        lams = [system.columns[op] for op in op_list]
        for i in range(space.dimension):
            by_tags[tuple(system.at(i, op_list, lams))].append(i)
        for tags, basis in pieces:
            if len(basis) != 1:
                bad.append("joint eigenspace not 1-dimensional")
                continue
            hits = by_tags.get(tags, [])
            if len(hits) != 1:
                bad.append(f"eigenvalue tags match {len(hits)} vectors")
                continue
            dense = system.dense(hits[0])
            v = basis[0]
            p = next(i for i, y in enumerate(dense) if not y.is_zero())
            if v[p].is_zero() or any(not (x * dense[p] == y * v[p])
                                     for x, y in zip(v, dense)):
                bad.append(f"span mismatch at {space.basis[hits[0]]}")
    return [CheckRecord(
        "hecke-eigen-oracle", params,
        PASS if not bad else FAIL,
        "; ".join(bad) if bad else f"{space.dimension} joint eigenlines",
    )]


def _check_sublattice_counts(config, rng):
    out = []
    bad = []
    for q in primes_up_to(50):
        n_list = len(sublattices(q))
        n_oracle = subgroup_count_oracle(q)
        if not (n_list == n_oracle == q + 1):
            bad.append(f"q={q}: list {n_list}, oracle {n_oracle}")
    out.append(CheckRecord(
        "lattice-sublattice-counts", {"primes": "q <= 50"},
        PASS if not bad else FAIL,
        "; ".join(bad) if bad else "all counts equal q+1",
    ))
    return out


def _check_reduction_invariance(config, rng):
    trials = config["trials"]
    # transforms are drawn uniformly from all unimodular G with |entries|
    # <= 10, and from those with det 1 for the SL2 classes
    gl2 = _unimodular_entries_bounded(10)
    sl2 = [g for g in gl2 if g[0] * g[3] - g[1] * g[2] == 1]
    bad = 0
    done = 0
    while done < trials:
        a = rng.randint(1, 50)
        c = rng.randint(1, 50)
        b = rng.randint(-50, 50)
        T = GramForm(a, b, c)
        if T.det <= 0:
            continue
        done += 1
        G = rng.choice(gl2)
        if reduce_form(transform(T, G)) != reduce_form(T):
            bad += 1
        G = rng.choice(sl2)
        if reduce_form(transform(T, G), "SL2") != reduce_form(T, "SL2"):
            bad += 1
        if reduce_form(reduce_form(T)) != reduce_form(T):
            bad += 1
    return [CheckRecord(
        "lattice-reduction-invariance",
        {"trials": trials, "entry_bound": 50, "transform_bound": 10},
        PASS if bad == 0 else FAIL, f"{bad} violations",
    )]


def _check_isotropy(config, rng):
    bad = 0
    total = 0
    for p in primes_up_to(13):
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    T = GramForm(a, b, c)
                    rep = isotropic_lines(T, p)
                    total += 1
                    det = T.det % p
                    if det == 0:
                        if rep.kind != "rank_deficient" or rep.count not in (
                            1, p + 1,
                        ) and (a or b or c):
                            bad += 1
                        continue
                    if p == 2:
                        ok = (rep.count, rep.kind) in (
                            (1, "I_type"), (3, "split_type"),
                        )
                        ok = ok and (
                            rep.kind == "split_type"
                        ) == (a % 2 == 0 and c % 2 == 0 and b % 2 == 1)
                    else:
                        legendre = pow(-T.det % p, (p - 1) // 2, p)
                        ok = (rep.count, rep.kind) in (
                            (2, "hyperbolic"), (0, "anisotropic"),
                        )
                        ok = ok and (rep.count == 2) == (legendre == 1)
                    if not ok:
                        bad += 1
    return [CheckRecord(
        "lattice-isotropy", {"primes": "p <= 13", "forms": total},
        PASS if bad == 0 else FAIL, f"{bad} misclassifications",
    )]


def _check_fourier_properties(config, rng):
    out = []
    bad = []
    # identity
    f = constant_expansion(7, 40, 40)
    if not apply_U(f, UOperator(1, 1)).agrees_with(f):
        bad.append("U(1,1) is not the identity")
    # constant eigenvalue prod (q+1)
    g = apply_U(constant_expansion(1, 144, 72), UOperator(6, 1))
    if not all(v == 12 for v in g.coeffs.values()):
        bad.append("constant eigenvalue != prod(q+1)")
    g = apply_U(constant_expansion(1, 36, 36), UOperator(1, 3))
    if not all(v == 1 for v in g.coeffs.values()):
        bad.append("U(1,P) moved the constant function")
    # linearity
    a = expansion_from_function(
        GL2, lambda key: key.det + 1 if key.rank() == 2 else 3, 36, 36
    )
    b = expansion_from_function(
        GL2, lambda key: 2 * key.a if key.rank() == 1 else 5, 36, 36
    )
    u = UOperator(2, 1)
    lhs = apply_U(combine([(Fraction(2, 3), a), (1, b)]), u)
    rhs = combine([(Fraction(2, 3), apply_U(a, u)), (1, apply_U(b, u))])
    if not lhs.agrees_with(rhs):
        bad.append("apply_U is not linear")

    # krylov reconstruction on a synthetic eigen-mixture: content^s on the
    # rank-1 stratum is an exact eigenvector of U(Q,P)
    def h_s(s):
        return expansion_from_function(
            GL2, lambda key: key.a**s if key.rank() == 1 else 0, 400, 400
        )

    h0, h1 = h_s(0), h_s(1)
    mix = combine([(3, h0), (5, h1)])
    comps = krylov_spectral(mix, [UOperator(2, 1)], sample_bound=2)
    if len(comps) != 2:
        bad.append(f"expected 2 components, got {len(comps)}")
    else:
        for comp in comps:
            lam = comp.eigenvalues[UOperator(2, 1)]
            want = h0.scale(3) if lam == 3 else h1.scale(5)
            if not (lam == 3 or lam == 6) or not comp.expansion.agrees_with(want):
                bad.append("component reconstruction failed")
        total = combine([(1, c.expansion) for c in comps])
        if not total.agrees_with(mix):
            bad.append("components do not sum to the input")
    out.append(CheckRecord(
        "fourier-operator-properties", {},
        PASS if not bad else FAIL,
        "; ".join(bad) if bad else "identity, linearity, constants, krylov",
    ))
    return out
