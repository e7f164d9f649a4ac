import gc
import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

import siegeleis.cli as cli
import siegeleis.cyclotomic as cyclotomic
import siegeleis.hecke as hecke
import siegeleis.verify as verify
from siegeleis.characters import DirichletCharacter, legendre_epsilon
from siegeleis.cyclotomic import CycNum, as_cyc, euler_phi, primes_up_to
from siegeleis.eisspace import Partition, enumerate_partitions, prime_factors
from siegeleis.hecke import (EigenSystem, HeckeMatrix, HeckeOp, SpaceOperators,
                             apply_word, compare_eigenvalues, eigen_json,
                             eigenbasis, eigenvalue_closed_form, hecke_matrix,
                             relation_defects, s_constant, s_operator)
from siegeleis.jsonout import write_json

N2K4 = enumerate_partitions(2, None, 4)


def _word_dense(ops, word):
    """The dense matrix of a word as lists of CycNum, one unit-vector row
    at a time: the test-side oracle of products and the `hecke` output."""
    n = ops.space.dimension
    rows = (apply_word(ops, word, {i: CycNum.one()}) for i in range(n))
    return [[v.get(j, CycNum.zero()) for j in range(n)] for v in rows]


def _s_word(rho):
    """The relation word S1(N1)S2(N2) of rho, primes ascending, S1 factors
    first."""
    return ([HeckeOp("S1", q) for q in prime_factors(rho.n1)]
            + [HeckeOp("S2", q) for q in prime_factors(rho.n2)])


def _vec_mat(v, rows):
    """The dense row vector v.A for the matrix A given by its rows."""
    acc = [CycNum.zero()] * len(rows[0])
    for x, row in zip(v, rows):
        if not x.is_zero():
            for j, a in enumerate(row):
                acc[j] = acc[j] + x * a
    return acc


def _coeffs(system: EigenSystem, i: int) -> dict:
    """The nonzero coefficients of the i-th eigenvector of system by
    partition, read off dense(i)."""
    return {system.space.basis[j]: c
            for j, c in enumerate(system.dense(i)) if c}


def test_worked_fixture_matrices():
    ops = SpaceOperators(N2K4)
    assert N2K4.basis == (Partition(2, 1, 1), Partition(1, 2, 1), Partition(1, 1, 2))
    T2 = _word_dense(ops, [HeckeOp("T", 2)])
    assert T2 == [[1, Fraction(1, 2), Fraction(1, 2)], [0, 8, 6], [0, 0, 32]]
    T1 = _word_dense(ops, [HeckeOp("T1", 2)])
    assert T1 == [
        [3, Fraction(9, 2), Fraction(3, 4)], [0, 66, Fraction(15, 2)], [0, 0, 96]]
    T3 = _word_dense(ops, [HeckeOp("T", 3)])
    assert T3 == [[280, 0, 0], [0, 280, 0], [0, 0, 280]]


def test_worked_fixture_eigenbasis():
    ops = SpaceOperators(N2K4)
    for p in (2, 3):
        ops.matrix(HeckeOp("T", p))
        ops.matrix(HeckeOp("T1", p))
    system = eigenbasis(ops)
    entry = {e.partition: e for e in system.entries}
    corner = _coeffs(system, N2K4.index_of(Partition(2, 1, 1)))
    assert corner[Partition(2, 1, 1)] == 1
    assert corner[Partition(1, 2, 1)] == Fraction(-1, 14)
    assert corner[Partition(1, 1, 2)] == Fraction(-1, 434)
    mid = _coeffs(system, N2K4.index_of(Partition(1, 2, 1)))
    assert mid[Partition(1, 1, 2)] == Fraction(-1, 4)
    t2 = HeckeOp("T", 2)
    t1 = HeckeOp("T1", 2)
    assert [entry[r].eigenvalues[t2] for r in N2K4.basis] == [1, 8, 32]
    assert [entry[r].eigenvalues[t1] for r in N2K4.basis] == [3, 66, 96]


def test_trivial_level_one_eigenvector():
    # level 1 has no prime: no column of local vectors, and the one vector
    # is the empty tensor product
    sp = enumerate_partitions(1, None, 4)
    system = eigenbasis(SpaceOperators(sp))
    assert system.local == ()
    (e,) = system.entries
    assert e.partition == Partition(1, 1, 1) and e.local == ()
    assert system.dense(0) == [1]
    assert _coeffs(system, 0) == {Partition(1, 1, 1): CycNum.one()}


def test_closed_form_examples():
    sp1 = enumerate_partitions(1, None, 4)
    lam = eigenvalue_closed_form(sp1, Partition(1, 1, 1), HeckeOp("T", 2))
    assert lam == 45  # (8+1)(4+1), matching 2^5 + 2^2*3 + 1
    lam = eigenvalue_closed_form(N2K4, Partition(1, 2, 1), HeckeOp("T", 2))
    assert lam == 8  # q^{k-1}
    lam = eigenvalue_closed_form(N2K4, Partition(2, 1, 1), HeckeOp("T1", 2))
    assert lam == 3  # q+1


def test_compare_eigenvalues_documents_t1_mismatch():
    ops = SpaceOperators(N2K4)
    report = compare_eigenvalues(eigenbasis(ops))
    bad = [r for r in report if not r["match"]]
    assert len(bad) == 1
    row = bad[0]
    assert row["op"] == "T1:2"
    assert row["partition"] == {"N0": 1, "N1": 2, "N2": 1}
    assert row["expected_mismatch"]
    assert CycNum.from_json(row["matrix_value"]) == 66  # q^{2k-2} + q
    assert CycNum.from_json(row["closed_form"]) == 34  # q^{2k-3} + q
    # level 1: vacuous single comparison per op, all matching
    ops1 = SpaceOperators(enumerate_partitions(1, None, 4))
    ops1.matrix(HeckeOp("T", 3))
    assert compare_eigenvalues(eigenbasis(ops1), [HeckeOp("T", 3)]) == [
        {
            "partition": {"N0": 1, "N1": 1, "N2": 1},
            "op": "T:3",
            "matrix_value": as_cyc(280).to_json(),
            "closed_form": as_cyc(280).to_json(),
            "match": True,
            "expected_mismatch": False,
        }
    ]
    # an operator that eigenbasis never verified is refused, not read off
    with pytest.raises(ValueError, match="not verified"):
        compare_eigenvalues(eigenbasis(ops), [HeckeOp("T", 3)])


def test_higher_order_character_rows_are_diagonal():
    # chi of order 4 at 5: the rank-1 slot disappears and all off-diagonal
    # terms vanish (the chi_q^2 != 1 branch is a genuinely separate case)
    chi = DirichletCharacter.make(5, [(5, 1)])
    sp = enumerate_partitions(5, chi, 5)
    assert sp.basis == (Partition(5, 1, 1), Partition(1, 1, 5))
    ops = SpaceOperators(sp)
    T = _word_dense(ops, [HeckeOp("T", 5)])
    assert T == [[1, 0], [0, 5**7]]
    T1 = _word_dense(ops, [HeckeOp("T1", 5)])
    assert T1 == [[6, 0], [0, 6 * 5**7]]
    system = eigenbasis(ops)
    for i, rho in enumerate(sp.basis):
        assert list(_coeffs(system, i)) == [rho]


def test_quadratic_character_epsilon_branch():
    # chi quadratic at 3, k = 5: epsilon(3) = -1 enters the corner rows
    chi = DirichletCharacter.make(3, [(3, 1)])
    sp = enumerate_partitions(3, chi, 5)
    ops = SpaceOperators(sp)
    i0 = sp.index_of(Partition(3, 1, 1))
    i1 = sp.index_of(Partition(1, 3, 1))
    i2 = sp.index_of(Partition(1, 1, 3))
    T = _word_dense(ops, [HeckeOp("T", 3)])
    assert T[i0][i0] == 1 and T[i0][i2] == Fraction(-2, 9)
    assert T[i0][i1].is_zero()  # the rank-1 move needs trivial chi_q
    assert T[i1][i1] == 81 and T[i1][i2].is_zero()
    assert T[i2][i2] == 3**7
    T1 = _word_dense(ops, [HeckeOp("T1", 3)])
    assert T1[i0][i0] == 4 and T1[i0][i2] == Fraction(-8, 9)
    assert T1[i0][i1].is_zero()
    assert T1[i1][i1] == 3**8 + 3
    corner = _coeffs(eigenbasis(ops), i0)
    assert corner[Partition(1, 1, 3)] == Fraction(1, 9837)


def test_character_twisted_entries():
    # chi quadratic at 5, trivial at 2: chi_5(2) = -1 twists the T(2) rows
    chi = DirichletCharacter.make(10, [(5, 2)])
    sp = enumerate_partitions(10, chi, 4)
    ops = SpaceOperators(sp)
    T2 = _word_dense(ops, [HeckeOp("T", 2)])
    src = sp.index_of(Partition(5, 2, 1))
    assert T2[src][src] == -8
    assert T2[src][sp.index_of(Partition(5, 1, 2))] == -6
    T1 = _word_dense(ops, [HeckeOp("T1", 2)])
    assert T1[src][src] == 66  # chi_5(2^2) = +1 on the diagonal
    row = compare_eigenvalues(eigenbasis(ops), [HeckeOp("T1", 2)])
    bad = [r for r in row if not r["match"]]
    assert all(r["expected_mismatch"] for r in bad)


def test_commutativity_with_characters():
    chi = DirichletCharacter.make(15, [(3, 1), (5, 1)])
    k = 4 if chi.valid_for_weight(4) else 5
    sp = enumerate_partitions(15, chi, k)
    ops = SpaceOperators(sp)
    gens = [HeckeOp(kind, p) for p in (2, 3, 5) for kind in ("T", "T1")]
    for A, B in combinations(gens, 2):
        assert _word_dense(ops, [A, B]) == _word_dense(ops, [B, A])
    eigenbasis(ops)  # exact verification against all six tables


def test_s_operator_fixture():
    ops = SpaceOperators(N2K4)
    assert s_constant(N2K4, 2) == Fraction(4, 15)
    assert s_operator(ops, 2, "S1").rows[0] == ((1, 1),)
    assert s_operator(ops, 2, "S2").rows[0] == ((2, 1),)
    assert _word_dense(ops, _s_word(Partition(2, 1, 1))) == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_s_word_full_identity_small_levels():
    for N in (2, 3, 6, 10):
        sp = enumerate_partitions(N, None, 4)
        ops = SpaceOperators(sp)
        corner = sp.index_of(Partition(N, 1, 1))
        for rho in sp.basis:
            row = _word_dense(ops, _s_word(rho))[corner]
            for j, v in enumerate(row):
                assert v == (1 if j == sp.index_of(rho) else 0), (N, rho)


def test_s_operator_character_conditions():
    chi = DirichletCharacter.make(3, [(3, 1)])
    sp = enumerate_partitions(3, chi, 5)
    ops = SpaceOperators(sp)
    with pytest.raises(ValueError):
        s_operator(ops, 3, "S1")  # S1 needs trivial chi_q
    S2 = s_operator(ops, 3, "S2")  # quadratic branch is fine
    corner = sp.index_of(Partition(3, 1, 1))
    assert S2.rows[corner] == ((2, 1),)
    chi4 = DirichletCharacter.make(5, [(5, 1)])
    sp4 = enumerate_partitions(5, chi4, 5)
    with pytest.raises(ValueError):
        s_operator(SpaceOperators(sp4), 5, "S2")  # chi_q^2 != 1
    with pytest.raises(ValueError):
        s_operator(ops, 2, "S1")  # 2 does not divide 3


def _dense_defects(ops):
    """relation_defects by the dense oracle: per basis partition, the
    entries where the corner row of its word's dense matrix differs from
    the unit vector at the partition."""
    space = ops.space
    corner = space.index_of(Partition(space.level, 1, 1))
    return [sum(1 for j, x in enumerate(_word_dense(ops, _s_word(rho))[corner])
                if x != (1 if j == i else 0))
            for i, rho in enumerate(space.basis)]


# (S table, prime, its local row at the corner's key (0,), whether a word
# fails); untampered, S1(q) and S2(q) send rank 0 to rank 1 and 2 with
# value 1
S_ROW_TAMPERS = [
    ("scaled", "S1", 3, ((1, Fraction(2)),), True),
    ("extra-target", "S2", 5, ((1, Fraction(1, 3)), (2, Fraction(1))), True),
    ("empty", "S2", 2, (), True),
    ("own-entry-removed", "S1", 5, ((2, Fraction(7)),), True),
    ("explicit-zero", "S1", 2, ((0, Fraction(0)), (1, Fraction(1))), False),
    ("explicit-zero-own", "S2", 3, ((0, Fraction(4)), (2, Fraction(0))), True),
]


@pytest.mark.parametrize("which,q,row,fails", [t[1:] for t in S_ROW_TAMPERS],
                         ids=[t[0] for t in S_ROW_TAMPERS])
def test_relation_defects_match_the_dense_word(which, q, row, fails):
    ops = SpaceOperators(enumerate_partitions(30, None, 4))
    assert relation_defects(ops) == [0] * 27
    ops.matrix(HeckeOp(which, q)).local[0,] = tuple(
        (t, as_cyc(a)) for t, a in row)
    defects = relation_defects(ops)
    assert defects == _dense_defects(ops)
    # a word fails only if it holds the tampered factor
    ranks = {rho.rank_of(q) for rho, d in zip(ops.space.basis, defects) if d}
    assert ranks == ({1 if which == "S1" else 2} if fails else set())


def test_relation_defects_at_level_one():
    assert relation_defects(SpaceOperators(enumerate_partitions(1, None, 4))) == [0]


def test_relation_defects_build_no_rational(monkeypatch):
    # the S tables' entries equal to 1 are read as the shared one, which a
    # product returns as it is: once the tables exist, the 81 words at
    # N=210 are proved without building a rational
    ops = SpaceOperators(enumerate_partitions(210, None, 4))
    for q in prime_factors(210):
        for which in ("S1", "S2"):
            ops.matrix(HeckeOp(which, q))

    def forbidden(*args):
        raise AssertionError("relation_defects built a rational")

    monkeypatch.setattr(cyclotomic, "_rational", forbidden)
    assert relation_defects(ops) == [0] * 81


def test_relation_defects_refuse_a_nontrivial_character(monkeypatch):
    def forbidden(*args):
        raise AssertionError("an S table was built")

    monkeypatch.setattr(hecke, "s_operator", forbidden)
    ops = SpaceOperators(enumerate_partitions(
        30, DirichletCharacter.parse(30, "3:1"), 5))
    with pytest.raises(ValueError, match="trivial character"):
        relation_defects(ops)
    assert ops.stored() == {}


def test_hecke_op_validation_and_cache():
    with pytest.raises(ValueError):
        HeckeOp("T", 4)
    with pytest.raises(ValueError):
        HeckeOp("T2", 3)
    ops = SpaceOperators(N2K4)
    a = ops.matrix(HeckeOp("T", 2))
    b = ops.matrix(HeckeOp("T", 2))
    assert a is b
    assert set(ops.stored()) == {HeckeOp("T", 2)}
    assert set(ops.level_ops()) == {HeckeOp("T", 2), HeckeOp("T1", 2)}


def test_hecke_op_hash_follows_equality():
    # equal ops hash alike, also through a pickle; the ops of a sweep hash
    # apart; the stored hash is not a field
    import pickle

    ops = [HeckeOp(kind, p) for p in primes_up_to(50)
           for kind in ("T", "T1", "S1", "S2")]
    assert len({hash(op) for op in ops}) == len(ops)
    for op in ops:
        twin = HeckeOp(op.kind, op.p)
        back = pickle.loads(pickle.dumps(op))
        assert twin == op == back and hash(twin) == hash(op) == hash(back)
        assert {twin: 1}[op] == 1
    assert repr(HeckeOp("T1", 3)) == "HeckeOp(kind='T1', p=3)"
    assert str(HeckeOp("T1", 3)) == "T1(3^2)"


# -- sparse rows against dense references --------------------------------------

SPARSE_SPACES = [(1, None), (6, None), (30, None), (10, "5:2"), (10, "5:1")]


def _dense_reference(space, op):
    """The table written straight into dense rows from the row formulas."""
    rows = []
    q = op.p
    index = {rho: j for j, rho in enumerate(space.basis)}
    for i, rho in enumerate(space.basis):
        if q in prime_factors(space.level):
            # the target of rank t is rho with q moved from its part at
            # rho's rank r to the part at t, built from the partition itself
            r = next(x for x, c in enumerate(rho) if c % q == 0)
            entries = {}
            for t, val in hecke._row_at_level_prime(space, rho, r, op):
                assert t >= r
                moved = list(rho)
                moved[r] //= q
                moved[t] *= q
                entries[index[Partition(*moved)]] = val
            assert i in entries
        else:
            entries = {i: hecke._row_prime_to_level(space, rho, op)}
        row = [CycNum.zero()] * space.dimension
        for j, val in entries.items():
            row[j] = as_cyc(val)
        rows.append(row)
    return rows


@pytest.mark.parametrize("level,spec", SPARSE_SPACES,
                         ids=[f"{n}-{s or 'trivial'}" for n, s in SPARSE_SPACES])
def test_sparse_rows_match_dense_view(level, spec):
    chi = DirichletCharacter.parse(level, spec or "1")
    space = enumerate_partitions(level, chi, 4 if chi.valid_for_weight(4) else 5)
    rng = random.Random(level)
    field = [CycNum.one(), CycNum.root_of_unity(space.char.order)]
    primes = [q for q in (2, 3, 5) if level % q == 0] + [7]
    for op in (HeckeOp(kind, p) for p in primes for kind in ("T", "T1")):
        hm = hecke_matrix(space, op)
        for i, row in enumerate(hm.rows):
            cols = [j for j, _ in row]
            assert len(row) <= 3 and cols == sorted(set(cols))
            assert all(j >= i and not a.is_zero() for j, a in row)
        ref = _dense_reference(space, op)
        n = space.dimension
        assert [dict(row) for row in hm.rows] == [
            {j: a for j, a in enumerate(row) if not a.is_zero()} for row in ref]
        # an int entry would still compare equal above
        assert all(type(a) is CycNum for row in hm.rows for _, a in row)
        for _ in range(3):
            dense = [rng.choice(field) * Fraction(rng.randint(-9, 9),
                                                  rng.randint(1, 9))
                     for _ in range(n)]
            image = hm.vec_mat({i: x for i, x in enumerate(dense)
                                if not x.is_zero()})
            want = _vec_mat(dense, ref)
            assert all(image.get(j, CycNum.zero()) == want[j] for j in range(n))


def _dense_s(ops, q, which):
    """S1(q), S2(q) as expressions in T(q), T1(q^2) and I, evaluated on the
    dense entries one position at a time."""
    space, k = ops.space, ops.space.weight
    mats = (_word_dense(ops, [HeckeOp("T", q)]),
            _word_dense(ops, [HeckeOp("T1", q)]),
            _word_dense(ops, []))
    chi_rest = space.char.eval_over(
        [r for r in prime_factors(space.level) if r != q], q)
    c = s_constant(space, q)
    if which == "S1":
        def f(t, t1, e):
            return (t1 - t * Fraction(q + 1, q) - e * Fraction(q * q - 1, q)) * c
    elif space.char.local(q).is_trivial:
        def f(t, t1, e):
            return (t * (chi_rest * q ** (k - 1) + 1) - t1
                    - e * ((chi_rest * q ** (k - 2) - 1) * q)) * c
    else:
        def f(t, t1, e):
            return (t - e) * Fraction(legendre_epsilon(q) * q * q, q - 1)
    n = space.dimension
    return [[as_cyc(f(*(m[i][j] for m in mats))) for j in range(n)]
            for i in range(n)]


# (level, character, weight, the S operators the character allows)
S_SPACES = [
    (6, "1", 4, [(2, "S1"), (2, "S2"), (3, "S1"), (3, "S2")]),
    (3, "3:1", 5, [(3, "S2")]),  # quadratic chi_3: the (T - I) branch
    (70, "5:1,7:2", 5, [(2, "S1"), (2, "S2")]),
]


def test_s_operator_rows_match_its_dense_product():
    for level, spec, k, wanted in S_SPACES:
        space = enumerate_partitions(
            level, DirichletCharacter.parse(level, spec), k)
        ops = SpaceOperators(space)
        n = space.dimension
        for q, which in wanted:
            hm = s_operator(ops, q, which)
            assert hm.op == HeckeOp(which, q)
            assert all(len(row) <= 3 for row in hm.rows)
            dense = _dense_s(ops, q, which)
            for i in range(n):
                row = dict(hm.rows[i])
                for j in range(n):
                    # equal values, and equal serialized forms
                    got = row.get(j, CycNum.zero())
                    assert got == dense[i][j], (level, q, which, i, j)
                    assert got.to_json() == dense[i][j].to_json()


def test_s_operators_are_cached_hecke_ops():
    ops = SpaceOperators(enumerate_partitions(6, None, 4))
    assert s_operator(ops, 2, "S1").op.spec_string() == "S1:2"
    s2 = HeckeOp("S2", 3)
    assert (str(s2), s2.spec_string()) == ("S2(3)", "S2:3")
    assert ops.matrix(s2) is ops.matrix(s2)
    assert ops.matrix(s2).rows == s_operator(ops, 3, "S2").rows
    with pytest.raises(ValueError, match="relation operator"):
        hecke_matrix(ops.space, s2)


def test_apply_word_gives_the_same_bytes_in_any_order():
    # the entry sums x, -x and i (x = zeta_12, i = zeta_4): x - x + i and
    # i + x - x pass through different conductors, and both store i at 4
    x, i = CycNum.root_of_unity(12), CycNum.root_of_unity(4)
    op = HeckeOp("T", 2)
    # the local rows at ranks 0, 1, 2 of the prime 2 all move to rank 2
    hm = HeckeMatrix(N2K4, op, {(0,): ((2, x),), (1,): ((2, -x),),
                                 (2,): ((2, i),)})

    class Ops:
        def matrix(self, o):
            return hm

    one = CycNum.one()
    for order in permutations(range(3)):
        image = apply_word(Ops(), [op], {j: one for j in order})
        assert image[2].to_json() == i.to_json()


def test_word_rows_are_the_dense_rows_each_value_encoded_once(monkeypatch):
    # T(2)T(3) at level 70 holds 24 nonzero cells of 20 values, some
    # off Q; a value is encoded once however many cells hold it, and the
    # zero cell once
    space = enumerate_partitions(
        70, DirichletCharacter.parse(70, "5:1,7:2"), 5)
    ops = SpaceOperators(space)
    word = [HeckeOp("T", 2), HeckeOp("T", 3)]
    made = []
    real = CycNum.json_text

    def counted(obj, depth):
        made.append(((obj.m, obj.n, obj.d), depth))
        return real(obj, depth)
    monkeypatch.setattr(CycNum, "json_text", counted)
    rows = list(hecke.word_rows(ops, word))
    dense = _word_dense(ops, word)
    assert all(row.text.endswith("\n    ]") for row in rows)  # at depth 2
    assert [json.loads(row.text) for row in rows] == [
        [c.to_json() for c in row] for row in dense]
    distinct = {(c.m, c.n, c.d) for row in dense for c in row}
    assert max(m for m, _, _ in distinct) > 1
    assert sorted(made) == sorted((key, 3) for key in distinct)


# -- the sparse verifier proves every coordinate -------------------------------


def _ranks(space) -> list:
    """The decoded ranks of every basis element, in basis order."""
    return [space.decode(i)[0] for i in range(space.dimension)]


def _ranks_of(space, rho) -> tuple:
    """The decoded ranks of the basis element with the parts rho."""
    return space.decode(space.index_of(Partition(*rho)))[0]


def _same_key(space, q, rho, target) -> bool:
    """Whether rho and target have the same key in the table of T(q)."""
    key = hecke_matrix(space, HeckeOp("T", q)).key
    return key(_ranks_of(space, rho)) == key(_ranks_of(space, target))


def _tampered(change, target=Partition(2, 1, 1)):
    """_local_vector with the local vectors of target's keys altered by
    change(), which gets copies of target's local vectors, one rank ->
    value dict per prime of N.  eigenbasis builds u_q once per key of T(q),
    at the key's first basis index, so every vector of a key that target
    has gets the altered u_q, and a failure names that first index."""
    real = hecke._local_vector

    def fake(space, rho, q, rank):
        if not _same_key(space, q, rho, target):
            return real(space, rho, q, rank)
        primes = prime_factors(space.level)
        ranks = _ranks_of(space, target)
        local = [dict(real(space, target, p, r)) for p, r in zip(primes, ranks)]
        change(local)
        return local[primes.index(q)]
    return fake


def _change_coeff(local):
    # w_2 of (2,1,1) is {0: 217, 1: -31/2, 2: -1/2}, so u_2 = w_2 / 217 is
    # {0: 1, 1: -1/14, 2: -1/434}
    local[0][1] = as_cyc(Fraction(-1, 13))


def _drop_coeff(local):
    # the image of u_2 without its rank-2 entry under the local block of
    # T(2) is nonzero at rank 2, where that u_2 is 0: only a check beyond
    # u_2's support sees it
    del local[0][2]


def _wrong_normalization(local):
    # (6,1,1) has rank 0 at 3, where w_3 becomes 0; the rest of w_3 is left
    # as it is, so no multiple of it is 1 there
    local[1][0] = as_cyc(0)


def _scale_vector(local):
    # still a local eigenvector, a nonzero multiple of w_q
    local[0] = {t: a * 2 for t, a in local[0].items()}


def _extra_local_coeff(local):
    # (1,6,1) has rank 1 at 2 and shares u_2 with (3,2,1), the first
    # partition of that key; an entry at rank 0 moves down, which no
    # eigenvector of the upper triangular local block does
    local[0][0] = CycNum.one()


def _off_basis_coeff(local):
    # chi_5 has order 4, so no basis element has rank 1 at 5
    local[0][1] = CycNum.one()


ZERO_AT = r"op=T\(2\): a local vector is 0 at rho"
WRONG_AT = r"op=T\({0}\): wrong local eigenvector at {0}"


@pytest.mark.parametrize("change,space,rho,want", [
    (_change_coeff, (2, "1", 4), Partition(2, 1, 1),
     r"rho=\(2,1,1\), " + WRONG_AT.format(2)),
    (_drop_coeff, (2, "1", 4), Partition(2, 1, 1),
     r"rho=\(2,1,1\), " + WRONG_AT.format(2)),
    (_extra_local_coeff, (6, "1", 4), Partition(1, 6, 1),
     r"rho=\(3,2,1\), " + WRONG_AT.format(2)),
    (_off_basis_coeff, (5, "5:1", 5), Partition(5, 1, 1),
     r"rho=\(5,1,1\), " + WRONG_AT.format(5)),
    (_wrong_normalization, (6, "1", 4), Partition(6, 1, 1),
     r"rho=\(6,1,1\), " + ZERO_AT),
], ids=["changed", "dropped", "extra-local", "off-basis", "normalization"])
def test_eigenbasis_rejects_a_wrong_vector(monkeypatch, change, space, rho, want):
    monkeypatch.setattr(hecke, "_local_vector", _tampered(change, rho))
    with pytest.raises(RuntimeError, match="verification failed for " + want):
        eigenbasis(SpaceOperators(_space(*space)))


def test_eigenbasis_normalizes_a_scaled_local_vector(monkeypatch):
    # both checks hold for every nonzero multiple of w_q, and eigenbasis
    # stores w_q / w_q[rank], so a scaled w_q gives the same eigen system
    # and the same bytes; at level 30 with chi_5 the scaled w_2 holds
    # values of chi_5
    def text(space):
        pieces = []
        write_json(eigen_json(eigenbasis(SpaceOperators(_space(*space)))),
                   pieces.append)
        return "".join(pieces)

    for space, rho in [((2, "1", 4), Partition(1, 2, 1)),
                       ((30, "5:1", 5), Partition(30, 1, 1))]:
        want = text(space)
        with monkeypatch.context() as m:
            m.setattr(hecke, "_local_vector", _tampered(_scale_vector, rho))
            assert text(space) == want


def test_eigen_json_bounds_the_eigenvalues_of_tables_it_does_not_compare():
    # at level 1 eigen_json compares no table, so the eigenvalue of T(7),
    # built before eigenbasis, is printed but stands in no comparison case;
    # at k = 2546 it has 4301 digits, and the bound must refuse it before
    # the first record
    ops = SpaceOperators(enumerate_partitions(1, None, 2546))
    ops.matrix(HeckeOp("T", 7))
    system = eigenbasis(ops)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        pieces = []
        with pytest.raises(ValueError, match="the output would print integers "
                                             "of up to 4301 digits"):
            write_json(eigen_json(system), pieces.append)
    finally:
        sys.set_int_max_str_digits(before)
    assert pieces == []


def test_expansion_gives_the_same_bytes_in_any_order():
    # the coefficient at (1,2,15) is i * zeta_3 * -i: i * zeta_3 reaches
    # conductor 12 and i * -i is rational, and every order stores zeta_3 at 3
    i, z3 = CycNum.root_of_unity(4), CycNum.root_of_unity(3)
    space = enumerate_partitions(30, None, 4)
    rho = Partition(10, 3, 1)  # ranks 0, 1, 0 at 2, 3, 5
    ops = SpaceOperators(space)
    tables = {op: ops.matrix(op) for op in [HeckeOp("T", q) for q in (2, 3, 5)]}
    # each u_q stands at rho's key in T(q) alone, where it is 1 at the rank
    local = tuple({(r,): u} for r, u in zip(
        (0, 1, 0), ({0: CycNum.one(), 1: i}, {1: CycNum.one(), 2: z3},
                    {0: CycNum.one(), 2: -i})))
    coeffs = _coeffs(EigenSystem(space, tables, local, {}),
                     space.index_of(rho))
    assert coeffs[Partition(1, 2, 15)].to_json() == z3.to_json()
    for a, b, c in permutations((i, z3, -i)):
        assert (a * b * c).to_json() == z3.to_json()
    assert len(coeffs) == 8


def test_eigenbasis_checks_a_shared_local_vector_per_object(monkeypatch):
    # two partitions share one u_q object exactly when they have the same
    # key in T(q) (ranks at A_q, then at q), and check 2 runs once per
    # object, so a wrong u_q fails at the first partition of its key
    for level, spec, k in [(30, "1", 4), (30, "5:1", 5), (70, "5:1,7:2", 5)]:
        space = _space(level, spec, k)
        ops = SpaceOperators(space)
        system = eigenbasis(ops)
        for q, us in zip(prime_factors(level), system.local, strict=True):
            assert list(us) == list(ops.matrix(HeckeOp("T", q)).local)
            assert len(set(map(id, us.values()))) == len(us)
        # chi_2 is trivial, so 2 is in no A_q: the partition with rank 1 at
        # 2 and 0 elsewhere holds every u_q, q != 2, of the corner (N,1,1),
        # so a wrong u_q at the second prime of that partition fails at the
        # corner
        ranks = _ranks(space)
        later = ranks.index((1,) + ranks[0][1:])
        with monkeypatch.context() as m:
            m.setattr(hecke, "_local_vector",
                      _tampered(_put(1, 1, 7), space.basis[later]))
            with pytest.raises(RuntimeError,
                               match=rf"rho=\({level},1,1\), op="):
                eigenbasis(SpaceOperators(space))


def _put(x, t, value):
    """A change for _tampered: the local vector at the x-th prime of N
    takes `value` at rank t."""
    def change(local):
        local[x][t] = as_cyc(value)
    return change


def _eigen_ops(level, spec, k, primes):
    """The SpaceOperators that `eigen --primes` hands to eigenbasis: the
    tables of the extra primes stored first."""
    ops = SpaceOperators(_space(level, spec, k))
    for op in [HeckeOp(kind, p) for p in primes for kind in ("T", "T1")]:
        ops.matrix(op)
    return ops


# (level, character, weight, --primes, _is_local_eigen calls per table in
# stored order, as counted before check 2 ran per rank pattern)
PATTERN_PROOFS = [
    (2310, "5:1,11:1", 4, [], [12, 12, 12, 12, 4, 4, 12, 12, 2, 2]),
    (70, "5:1,7:2", 5, [3, 11], [4, 4, 4, 4, 12, 12, 4, 4, 4, 4]),
]


@pytest.mark.parametrize("level,spec,k,primes,want", PATTERN_PROOFS,
                         ids=["2310-5:1,11:1", "70-5:1,7:2-primes-3,11"])
def test_check_2_runs_once_per_key_and_local_vectors(monkeypatch, level, spec,
                                                     k, primes, want):
    # check 2 reads a row's key and its local vectors at the table's places,
    # so it must run once per distinct pair of them, and on each key of
    # the product of the local supports at A_p
    ops = _eigen_ops(level, spec, k, primes)
    calls = Counter()
    real = hecke._is_local_eigen

    def counted(local, key, u, lam):
        calls[id(local)] += 1
        return real(local, key, u, lam)

    monkeypatch.setattr(hecke, "_is_local_eigen", counted)
    system = eigenbasis(ops)
    got, expected = [], []
    for hm in system.tables.values():
        got.append(calls[id(hm.local)])
        near = ([system.vector_ops[x] for x in hm.places],
                [system.local[x] for x in hm.places])
        pairs = {}  # (key, ids of the local vectors at the places) -> them
        for i, ranks in enumerate(_ranks(ops.space)):
            held = tuple(system.at(i, *near))
            pairs[hm.key(ranks), tuple(map(id, held))] = held
        size = 0
        for held in pairs.values():
            size += math.prod(map(len, held[:len(hm.at)]))  # those at A_p
        expected.append(size)
    assert got == expected == want


# (level, character, weight, --primes, change, a partition whose local
# vectors it changes, the failure named before check 2 ran per rank
# pattern); each u_q changed sits at some A_p.  In the last case the table
# of T(11) is first, 11 moves only 7 (A_11), but u_7 is keyed by the ranks
# at 5 and 7, so the first partition with the wrong u_7 has rank 2 at 5
WRONG_AT_A_P = [
    (2310, "5:1,11:1", 4, [], _put(2, 1, 1), Partition(15, 14, 11),
     r"rho=\(210,1,11\), " + WRONG_AT.format(2)),
    (70, "5:1,7:2", 5, [3, 11], _put(1, 1, 1), Partition(7, 2, 5),
     r"rho=\(14,1,5\), " + WRONG_AT.format(3)),
    (70, "5:1,7:2", 5, [11], _put(2, 2, 1), Partition(7, 2, 5),
     r"rho=\(14,1,5\), " + WRONG_AT.format(11)),
]


@pytest.mark.parametrize("level,spec,k,primes,change,rho,want", WRONG_AT_A_P,
                         ids=["2310-u5", "70-primes-3,11-u5", "70-primes-11-u7"])
def test_a_wrong_local_vector_at_a_p_fails_at_its_first_partition(
        monkeypatch, level, spec, k, primes, change, rho, want):
    monkeypatch.setattr(hecke, "_local_vector", _tampered(change, rho))
    with pytest.raises(RuntimeError, match="verification failed for " + want):
        eigenbasis(_eigen_ops(level, spec, k, primes))


def test_eigenvectors_are_stored_as_one_column_per_prime():
    # system.local maps, per prime q of N, each key of T(q) to its u_q, and
    # dense(i) is the tensor product of the u_q at the i-th partition's
    # keys: the coefficient at the rank tuple s is the product of u_q[s_q]
    space = _space(70, "5:1,7:2", 5)
    ops = SpaceOperators(space)
    system = eigenbasis(ops)
    primes = prime_factors(70)
    assert len(system.local) == len(primes) == 3
    keys = [ops.matrix(HeckeOp("T", q)).key for q in primes]
    for q, us in zip(primes, system.local):
        assert list(us) == list(ops.matrix(HeckeOp("T", q)).local)
    for i, ranks in enumerate(_ranks(space)):
        us = [m[key(ranks)] for key, m in zip(keys, system.local)]
        want = [math.prod((u.get(r, CycNum.zero()) for u, r in zip(us, s)),
                          start=CycNum.one())
                for s in _ranks(space)]
        assert system.dense(i) == want


def _tensor_oracle(system, i) -> list:
    """The i-th eigenvector as the plain tensor product of its normalized
    local vectors, with no memo: each w_q of the proof is divided by its
    entry at the key's rank, and the coefficient at each choice of one
    entry per prime is their product, at the rank code of the choice."""
    space = system.space
    ranks = space.decode(i)[0]
    us = []
    for op, ws in zip(system.vector_ops, system.scaled):
        key = system.tables[op].key(ranks)
        w = ws[key]
        us.append({t: a / w[key[-1]] for t, a in w.items()})
    out = [CycNum.zero()] * space.dimension
    for terms in product(*(u.items() for u in us)):
        j = space.index_of_code[sum(t * 3 ** x for x, (t, _) in enumerate(terms))]
        assert j is not None
        out[j] = math.prod((a for _, a in terms), start=CycNum.one())
    return out


@pytest.mark.parametrize("level,spec,k,primes", [
    (2310, "1", 4, []), (2310, "5:1,11:1", 4, []), (70, "5:1,7:2", 5, [3, 11]),
    (1, "1", 4, []),
], ids=["2310", "2310-5:1,11:1", "70-5:1,7:2-primes-3,11", "1"])
def test_dense_is_the_plain_tensor_product(level, spec, k, primes):
    # dense expands a vector from integer codes and shares one product per
    # combination code among all vectors; the oracle multiplies afresh
    system = eigenbasis(_eigen_ops(level, spec, k, primes))
    for i in range(system.space.dimension):
        assert system.dense(i) == _tensor_oracle(system, i)


@pytest.mark.parametrize("level,spec,k,primes", [
    (2310, "1", 4, []), (2310, "5:1,11:1", 4, []), (70, "5:1,7:2", 5, [3, 11]),
], ids=["2310", "2310-5:1,11:1", "70-5:1,7:2-primes-3,11"])
def test_the_eigen_system_holds_one_entry_per_key(level, spec, k, primes):
    # each map of the eigen system has the keys of its table, with nothing
    # spread over the basis: u_q per key of T(q), lambda per key of op's
    ops = _eigen_ops(level, spec, k, primes)
    system = eigenbasis(ops)
    assert len(system.local) == len(prime_factors(level))
    for q, us in zip(prime_factors(level), system.local):
        assert len(us) == len(ops.matrix(HeckeOp("T", q)).local)
    assert list(system.columns) == list(system.tables)
    for op, lams in system.columns.items():
        assert len(lams) == len(system.tables[op].local)


def test_local_vectors_are_computed_once_per_key(monkeypatch):
    # at the trivial character A_q is empty, so the key is (q, rank at q):
    # 3 per prime for the 243 vectors at N=2310
    calls = []
    real = hecke._local_vector

    def counted(space, rho, q, rank):
        calls.append((q, rank))
        return real(space, rho, q, rank)

    monkeypatch.setattr(hecke, "_local_vector", counted)
    system = eigenbasis(SpaceOperators(enumerate_partitions(2310, None, 4)))
    assert len(system.entries) == 243
    assert sorted(calls) == [(q, r) for q in (2, 3, 5, 7, 11) for r in range(3)]


def _plain_space(space) -> dict:
    """The plain tree that EisSpace.descriptor writes, from the Partitions."""
    return {"level": space.level, "weight": space.weight,
            "char": space.char.spec_string(), "dimension": space.dimension,
            "basis": [{"index": i, **p.to_json()}
                      for i, p in enumerate(space.basis)]}


def _plain_entry(system, i: int) -> dict:
    """The JSON of the i-th eigenbasis entry, built from dense(i), the
    eigenvalues at its keys and to_json()."""
    ops = list(system.columns)
    lams = system.at(i, ops, system.columns.values())
    return {"partition": system.space.basis[i].to_json(),
            "vector": [{"partition": p.to_json(), "coeff": c.to_json()}
                       for p, c in _coeffs(system, i).items()],
            "eigenvalues": {op.spec_string(): lam.to_json()
                            for op, lam in zip(ops, lams)}}


def test_expansion_views_agree_and_sharing_changes_no_byte():
    # dense() and the eigen_json records read one expansion; the records,
    # whose products and texts are shared between vectors, hold the JSON of
    # each vector expanded alone, at the depth of a top-level list item
    system = eigenbasis(SpaceOperators(_space(2310, "5:1,11:1")))
    records = list(eigen_json(system)["eigenbasis"])
    assert len(records) == len(system.entries) == 108
    for i, record in enumerate(records):
        assert record.text.replace("\n    ", "\n") == json.dumps(
            _plain_entry(system, i), indent=2, sort_keys=True)


def test_json_memo_keeps_one_entry_per_value(monkeypatch):
    # eigen_json encodes each distinct value and each partition once per
    # depth it stands at, however often it recurs; its records stand at
    # depth 2, so their keys' values stand at 3 and deeper
    encoded_at = []
    real = {CycNum: CycNum.json_text, Partition: hecke._text}

    def counted(obj, depth):  # a value, or a partition's parts
        plain = obj if type(obj) is CycNum else Partition(*obj)
        encoded_at.append((json.dumps(plain.to_json(), sort_keys=True), depth))
        return real[type(plain)](obj, depth)

    monkeypatch.setattr(CycNum, "json_text", counted)
    monkeypatch.setattr(hecke, "_text", counted)
    system = eigenbasis(SpaceOperators(_space(2310, "5:1,11:1")))
    pieces = []
    write_json(eigen_json(system), pieces.append)
    assert len(encoded_at) == len(set(encoded_at))
    basis = {json.dumps(p.to_json(), sort_keys=True) for p in system.space.basis}
    assert {t for t, d in encoded_at if d in (3, 5) and t in basis} == basis
    assert sum(1 for t, _ in encoded_at if t in basis) == 2 * len(basis)
    # values stand at depth 3 (rows), 4 (eigenvalues) and 5 (coefficients)
    values = {t for t, _ in encoded_at} - basis
    assert {d for t, d in encoded_at if t in values} == {3, 4, 5}
    assert len(values) < len(encoded_at) - 2 * len(basis)  # some at 2 depths


def test_text_writes_what_json_dumps_writes():
    # the direct renderer of the values and partitions the memos hold,
    # against json.dumps of their to_json at every depth eigen_json and
    # word_rows render them for
    rng = random.Random(12)
    values = [CycNum.zero(), CycNum.one(), as_cyc(-1), as_cyc(Fraction(-7, 3)),
              # d > 1: a coordinate in lowest terms, one reduced by part of
              # d, one reduced to an integer, and a zero coordinate
              CycNum(4, [Fraction(1, 6), Fraction(1, 3)]),
              CycNum(4, [Fraction(1, 2), 3]),
              CycNum(12, [Fraction(1, 5), 0, Fraction(-4, 15), 2])]
    for m in (1, 4, 12, 20, 24):
        for _ in range(25):
            values.append(CycNum(m, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                     for _ in range(euler_phi(m))]))
    assert {v.m for v in values} == {1, 4, 12, 20, 24}
    assert any(len({Fraction(a, v.d).denominator for a in v.n}) > 1
               for v in values if v.d > 1)
    partitions = enumerate_partitions(30, None, 4).basis
    assert len(partitions) == 27  # every partition of 30
    for obj in [*values, *partitions]:
        plain = json.dumps(obj.to_json(), indent=2, sort_keys=True)
        for depth in (0, 3, 4, 5):
            pad = "\n" + "  " * depth
            text = (obj.json_text(depth) if type(obj) is CycNum
                    else hecke._text(obj, depth))
            assert text == plain.replace("\n", pad)


def test_eigen_json_writes_the_plain_json():
    # the CLI's streamed records write as the plain tree, built here from
    # the entries and compare_eigenvalues; level 1 has no table at all, so
    # no comparison row and no eigenvalue
    for level, char, extra in [(55, "5:1,11:1", [3]), (2310, "1", []),
                               (1, "1", [])]:
        ops = SpaceOperators(_space(level, char))
        op_list = [HeckeOp("T", p) for p in extra] + ops.level_ops()
        for op in op_list:
            ops.matrix(op)
        system = eigenbasis(ops)
        out = eigen_json(system, op_list)
        assert sorted(out) == ["comparison", "eigenbasis", "space"]
        assert iter(out["comparison"]) is out["comparison"]  # streamed
        assert iter(out["eigenbasis"]) is out["eigenbasis"]
        pieces = []
        write_json(out, pieces.append)
        plain = {"space": _plain_space(system.space),
                 "eigenbasis": [_plain_entry(system, i) for i
                                in range(system.space.dimension)],
                 "comparison": compare_eigenvalues(system, op_list)}
        assert len(plain["comparison"]) == len(system.entries) * len(op_list)
        assert "".join(pieces) == json.dumps(plain, indent=2,
                                             sort_keys=True) + "\n"


def test_eigen_json_prints_each_rows_own_matrix_value():
    # a row's matrix value is its key's eigenvalue: a changed eigenvalue
    # shows up in every row of its key, here that of (1,1,30) at T(2),
    # rank 2 at 2, which 9 rows share, and in no other row
    system = eigenbasis(SpaceOperators(enumerate_partitions(30, None, 4)))
    space, op = system.space, HeckeOp("T", 2)
    lams, key = system.columns[op], system.tables[op].key
    at = key(_ranks(space)[-1])
    lams[at] = lams[at] + 1
    pieces = []
    write_json(eigen_json(system), pieces.append)
    doc = json.loads("".join(pieces))
    rows = doc["comparison"]
    assert rows == compare_eigenvalues(system)
    ours = [i for i, ranks in enumerate(_ranks(space)) if key(ranks) == at]
    assert len(ours) == 9 and ours[-1] == space.dimension - 1
    for i in ours:
        assert (doc["eigenbasis"][i]["eigenvalues"]["T:2"]
                == lams[at].to_json())
    changed = [r for r in rows if r["op"] == "T:2" and not r["match"]]
    assert [r["partition"] for r in changed] == [
        space.basis[i].to_json() for i in ours]
    assert changed == [r for r in rows
                       if not r["match"] and not r["expected_mismatch"]]


def test_eigen_outputs_build_no_entry_and_no_row_tuple(monkeypatch):
    # eigenbasis and the JSON and csv outputs read the eigenvalue columns:
    # no entry object is made, and when the comparison is made no tuple
    # holds both a partition and an op, as a (rho, op, ...) row would
    made = []
    real_init = hecke.EigenVectorEntry.__init__

    def counted_init(self, *args):
        made.append(args[0])
        real_init(self, *args)

    alive = []
    real_comparisons = hecke.eigenvalue_comparisons

    def counted_comparisons(*args):
        out = real_comparisons(*args)
        alive.append(sum(1 for o in gc.get_objects() if type(o) is tuple
                         and any(type(x) is Partition for x in o)
                         and any(type(x) is HeckeOp for x in o)))
        return out

    monkeypatch.setattr(hecke.EigenVectorEntry, "__init__", counted_init)
    monkeypatch.setattr(hecke, "eigenvalue_comparisons", counted_comparisons)
    ops = SpaceOperators(enumerate_partitions(2310, None, 4))
    system = eigenbasis(ops)
    pieces = []
    write_json(eigen_json(system, ops.level_ops()), pieces.append)
    chunks = list(cli.eigen_csv(system, ops.level_ops()))
    assert len(chunks) == 1 + 243  # the header, then one per partition
    lines = "".join(chunks).splitlines()
    assert len(lines) == 1 + 243 * 10 and len("".join(pieces)) > 10**6
    assert made == [] and alive == [0, 0]
    # the entry view is built on access, from the same columns
    assert len(system.entries) == len(made) == 243


def test_eigen_json_refuses_an_unverified_op_before_it_renders():
    system = eigenbasis(SpaceOperators(N2K4))
    with pytest.raises(ValueError, match="not verified"):
        eigen_json(system, [HeckeOp("T", 3)])


def test_level_tables_construct_no_partition(monkeypatch):
    space = enumerate_partitions(2310, None, 4)
    space.index_of_code  # built from the codes, before counting
    made = []
    monkeypatch.setattr(Partition, "__post_init__",
                        lambda self: made.append(self))
    ops = SpaceOperators(space)
    tables = [hecke_matrix(space, op) for op in ops.level_ops()]
    assert len(tables) == 10 and made == []


def _space(level, spec, k=4):
    return enumerate_partitions(level, DirichletCharacter.parse(level, spec), k)


def _with_table(monkeypatch, op, tamper):
    """hecke_matrix with the table of op altered by tamper(space, hm): it
    may change the local rows, given as a dict of lists of [rank, value]
    (of one-item lists [value] off the level), or set the expanded rows."""
    real = hecke.hecke_matrix

    def fake(space, o):
        hm = real(space, o)
        if o == op:
            local = {key: [list(e) for e in row] if hm.pos is not None
                     else [row] for key, row in hm.local.items()}
            copy = HeckeMatrix(space, o, local)
            tamper(space, copy)
            hm = HeckeMatrix(space, o, {
                key: tuple((t, as_cyc(a)) for t, a in row)
                if hm.pos is not None else as_cyc(row[0])
                for key, row in local.items()})
            if "rows" in vars(copy):
                hm.rows = copy.rows
        return hm
    monkeypatch.setattr(hecke, "hecke_matrix", fake)


def _shift_off_diagonal(space, hm):
    for key, row in hm.local.items():
        for entry in row:
            if entry[0] != key[-1]:
                entry[1] += 1


def _leave_fiber(space, hm):
    # (6,1,1) -> (2,3,1) moves 3, which T(2) must not do
    rows = [list(row) for row in hm.rows]
    rows[0].append((space.index_of(Partition(2, 3, 1)), CycNum.one()))
    hm.rows = tuple(tuple(row) for row in rows)


def _break_one_row(space, hm):
    # (2,3,1) has the key of the corner (rank 0 at 2), but not its row
    rows = list(hm.rows)
    i = space.index_of(Partition(2, 3, 1))
    rows[i] = ((rows[i][0][0], rows[i][0][1] + 1),) + rows[i][1:]
    hm.rows = tuple(rows)


def _wrong_diagonal(space, hm):
    # A_13 is empty at the trivial character: one diagonal value for all
    # rows, so every eigenvector still checks against the shifted table
    hm.local[()][0] += 1


WRONG_TABLES = [
    # every rank-0 and rank-1 local row at 3 shifts, and only the local
    # eigenvector check sees the wrong block
    ("local-block-trivial", 30, "1", 4, HeckeOp("T1", 3), _shift_off_diagonal,
     r"rho=\(30,1,1\), op=T1\(3\^2\): wrong local eigenvector at 3"),
    ("local-block-5:1", 30, "5:1", 5, HeckeOp("T1", 3), _shift_off_diagonal,
     r"rho=\(30,1,1\), op=T1\(3\^2\): wrong local eigenvector at 3"),
]


@pytest.mark.parametrize("level,spec,k,op,tamper,want",
                         [w[1:] for w in WRONG_TABLES],
                         ids=[w[0] for w in WRONG_TABLES])
def test_eigenbasis_rejects_a_wrong_table(monkeypatch, level, spec, k, op,
                                          tamper, want):
    _with_table(monkeypatch, op, tamper)
    ops = SpaceOperators(_space(level, spec, k))
    ops.matrix(op)
    with pytest.raises(RuntimeError,
                       match="eigenvector verification failed for " + want):
        eigenbasis(ops)


def _shift_key(key):
    """A tamper for _with_table: every entry of the local row of key
    shifts by 1."""
    def tamper(space, hm):
        for entry in hm.local[key]:
            entry[1] += 1
    return tamper


def _normalize_wrong_and_change(local):
    _put(0, 0, 0)(local)
    _put(2, 1, Fraction(-1, 13))(local)


# (vectors changed, tables changed, tables built first in this order, the
# message); each case is wrong for two (rho, op) pairs or more, and the
# message names the smallest basis index that fails, and at it check 1 before
# check 2, then the first failing table in stored order.  At level 30 the
# basis starts (30,1,1), (6,5,1), (10,3,1), (15,2,1); at level 10 with chi_5
# of order 4 it starts (10,1,1), (5,2,1), (2,1,5), and T(2) and T1(2^2) are
# keyed by (rank at 5, rank at 2)
T2, T1_2 = HeckeOp("T", 2), HeckeOp("T1", 2)
FIRST_FAILURES = [
    ("vectors-later-table-first",
     [(_put(2, 1, Fraction(-1, 13)), Partition(30, 1, 1)),
      (_put(0, 2, Fraction(-1, 13)), Partition(15, 2, 1))], [], [],
     r"rho=\(30,1,1\), op=T\(5\): wrong local eigenvector at 5"),
    ("normalization-before-table",
     [(_normalize_wrong_and_change, Partition(30, 1, 1))], [], [],
     r"rho=\(30,1,1\), op=T\(2\): a local vector is 0 at rho"),
    # (10,3,1) has the key of (30,1,1) at 2, whose w_2 it alters
    ("table-before-later-normalization",
     [(_put(0, 1, 0), Partition(15, 2, 1)),
      (_put(0, 1, Fraction(-1, 13)), Partition(10, 3, 1))], [], [],
     r"rho=\(30,1,1\), op=T\(2\): wrong local eigenvector at 2"),
    ("tables-smallest-index",
     [], [(T2, _shift_key((2, 0))), (T1_2, _shift_key((0, 0)))], [T2, T1_2],
     r"rho=\(10,1,1\), op=T1\(2\^2\): wrong local eigenvector at 2"),
    ("tables-tie-level-order",
     [], [(T2, _shift_key((0, 0))), (T1_2, _shift_key((0, 0)))], [T2, T1_2],
     r"rho=\(10,1,1\), op=T\(2\): wrong local eigenvector at 2"),
    ("tables-tie-stored-order",
     [], [(T2, _shift_key((0, 0))), (T1_2, _shift_key((0, 0)))], [T1_2, T2],
     r"rho=\(10,1,1\), op=T1\(2\^2\): wrong local eigenvector at 2"),
    ("tables-smallest-index-stored-second",
     [], [(T2, _shift_key((0, 0))), (T1_2, _shift_key((2, 0)))], [T1_2, T2],
     r"rho=\(10,1,1\), op=T\(2\): wrong local eigenvector at 2"),
]


@pytest.mark.parametrize("vectors,tables,built,want",
                         [f[1:] for f in FIRST_FAILURES],
                         ids=[f[0] for f in FIRST_FAILURES])
def test_eigenbasis_names_the_first_failure(monkeypatch, vectors, tables,
                                            built, want):
    for change, rho in vectors:
        monkeypatch.setattr(hecke, "_local_vector", _tampered(change, rho))
    for op, tamper in tables:
        _with_table(monkeypatch, op, tamper)
    ops = SpaceOperators(_space(10, "5:1", 5) if tables else _space(30, "1"))
    for op in built:
        ops.matrix(op)
    with pytest.raises(RuntimeError,
                       match="eigenvector verification failed for " + want):
        eigenbasis(ops)


def test_eigenbasis_checks_each_character_pattern_off_the_level(monkeypatch):
    # chi_5(3) = -1, so T(3) at level 10 has one diagonal value per rank at
    # 5; a wrong value for rank 2 still factors, and the corner vector,
    # supported on ranks 0 and 2 at 5, must see it
    def shift_rank_2(space, hm):
        assert hm.at == (1,)
        hm.local[2,][0] += 1

    _with_table(monkeypatch, HeckeOp("T", 3), shift_rank_2)
    ops = SpaceOperators(_space(10, "5:2"))
    ops.matrix(HeckeOp("T", 3))
    with pytest.raises(RuntimeError, match=r"rho=\(10,1,1\), op=T\(3\): "
                                           r"wrong local eigenvector at 3"):
        eigenbasis(ops)


# tables that eigenbasis, which reads only the local rows, accepts; the
# row-formula oracle of verify's hecke-triangularity check names them
ORACLE_TABLES = [
    ("leave-fiber", 6, HeckeOp("T", 2), _leave_fiber),
    ("one-row", 6, HeckeOp("T", 2), _break_one_row),
    ("diagonal-T13", 30, HeckeOp("T", 13), _wrong_diagonal),
]


@pytest.mark.parametrize("level,op,tamper", [w[1:] for w in ORACLE_TABLES],
                         ids=[w[0] for w in ORACLE_TABLES])
def test_row_formula_oracle_rejects_a_wrong_table(monkeypatch, level, op,
                                                  tamper):
    _with_table(monkeypatch, op, tamper)
    config = dict(verify.DESK_CONFIG)
    run = verify.space_run(_space(level, "1"), config)
    assert run.system is not None
    (record,) = verify._check_triangularity(config, run)
    assert record.status == verify.FAIL
    assert record.details.endswith(
        f"; rows differ from the row formula in {op}")


@pytest.mark.parametrize("level,spec,k", [
    (2310, "1", 4), (2310, "5:1,11:1", 4), (1155, "5:2,7:3,11:5", 4),
    (70, "5:1,7:2", 5)], ids=["2310", "2310-5:1,11:1", "1155-3chars", "70"])
def test_row_formula_oracle_passes_the_built_tables(level, spec, k):
    # every row of the T(p), T1(p^2) tables for p <= 13, expanded from one
    # local row per key, equals the per-row formula at that row
    config = dict(verify.DESK_CONFIG)
    (record,) = verify._check_triangularity(
        config, verify.space_run(_space(level, spec, k), config))
    assert (record.status, record.details) == (
        verify.PASS, "0 rank-decreasing entries")


def test_eigen_calls_the_row_formulas_once_per_key(monkeypatch, capsys):
    # A_q is empty at the trivial character, so each of the 10 level
    # tables at N=2310 has 3 keys, one per rank at q
    calls = []
    for name in ("_row_at_level_prime", "_row_prime_to_level"):
        real = getattr(hecke, name)

        def counted(space, *args, real=real):
            calls.append(args[-1])
            return real(space, *args)
        monkeypatch.setattr(hecke, name, counted)
    assert cli.main(["eigen", "--level", "2310", "--weight", "4"]) == 0
    capsys.readouterr()
    ops = SpaceOperators(enumerate_partitions(2310, None, 4)).level_ops()
    assert sorted(calls, key=str) == sorted(
        [op for op in ops for _ in range(3)], key=str)


# N=2310 with chi_5 of order 4 and chi_11 of order 10: chi_5(p) = 1 only
# for p = 1 mod 5 (11 and 31 here), chi_11(p) = 1 only for p = 1 mod 11
CHI_2310 = ["--level", "2310", "--weight", "4", "--char", "5:1,11:1"]


def test_eigen_builds_one_representative_map_per_table(monkeypatch, capsys):
    # each table's map key -> first basis index is its `representatives`,
    # which hecke_matrix, eigenbasis (at T(q)) and eigenvalue_comparisons
    # read; eigenbasis also maps the ranks its check 2 reads, once per table
    calls = []
    real = hecke._representatives
    monkeypatch.setattr(hecke, "_representatives",
                        lambda space, places: calls.append(places)
                        or real(space, places))
    handed = {}
    assert cli.main(["eigen", *CHI_2310, "--format", "csv"],
                    stage=lambda name, value: handed.setdefault(name, value)) == 0
    capsys.readouterr()
    # 10 tables, T and T1 at 2, 3, 5, 7, 11, with places (A_p, then p)
    # (2,4,0), (2,4,1), (4,2), (2,4,3) and (4,); for each, the ranks that
    # eigenbasis reads, the places of T(q) at each of its places q, are
    # (0,2,4), (1,2,4), (2,4), (2,3,4) and (4,)
    assert Counter(calls) == Counter({
        (2, 4, 0): 2, (2, 4, 1): 2, (4, 2): 2, (2, 4, 3): 2, (4,): 4,
        (0, 2, 4): 2, (1, 2, 4): 2, (2, 4): 2, (2, 3, 4): 2})
    tables = handed["tables"].stored().values()
    assert len(tables) == 10
    assert all("representatives" in vars(hm) for hm in tables)


@pytest.mark.parametrize("op,pos,at", [
    (HeckeOp("T", 2), 0, (2, 4)),     # 2 generates (Z/5)* and (Z/11)*
    (HeckeOp("T1", 3), 1, (2, 4)),    # 3 generates (Z/5)*; 3 = 2^8 mod 11
    (HeckeOp("S2", 5), 2, (4,)),      # 5 = 2^4 mod 11
    (HeckeOp("T", 11), 4, ()),        # 11 = 1 mod 5
    (HeckeOp("T", 31), None, (4,)),   # 31 = 1 mod 5, 31 = 2^6 mod 11
], ids=str)
def test_a_table_derives_its_layout_from_the_space_and_op(op, pos, at):
    space = _space(2310, "5:1,11:1")
    hm = HeckeMatrix(space, op, {})
    places = at if pos is None else at + (pos,)
    assert (hm.pos, hm.at, hm.places) == (pos, at, places)
    assert hm.key(tuple(range(10, 15))) == tuple(10 + x for x in places)
    assert hm.representatives == hecke._representatives(space, places)
    if op.kind in ("T", "T1"):  # the built table has the same layout
        built = hecke_matrix(space, op)
        assert (built.pos, built.at, built.local.keys()) == (
            pos, at, hm.representatives.keys())


def _dense(hm: HeckeMatrix) -> list[list[CycNum]]:
    """The dense table written from the expanded rows of hm."""
    n = hm.space.dimension
    dense = [[CycNum.zero()] * n for _ in range(n)]
    for out, row in zip(dense, hm.rows):
        for j, a in row:
            out[j] = a
    return dense


def test_expanded_rows_hold_no_zero_entry_on_the_desk():
    # the products of hecke-commutativity and the oracle's W == R.B read
    # the rows as the nonzero entries of the table
    tables = 0
    for space in verify.spaces_in_scope(verify.DESK_CONFIG):
        ops = SpaceOperators(space)
        sweep = [HeckeOp(kind, p)
                 for p in primes_up_to(verify.DESK_CONFIG["prime_max"])
                 for kind in ("T", "T1")]
        for op in sweep + ops.level_ops():
            rows = ops.matrix(op).rows
            assert not any(a.is_zero() for row in rows for _, a in row), (
                space.level, space.char.spec_string(), space.weight, op)
        tables += len(ops.stored())
    assert tables > 1000


# (level, character, weight, extra primes off the level)
ORACLE_SPACES = [
    (1, "1", 4, (2, 3, 5)),
    (10, "5:2", 4, (3, 7)),
    (30, "5:1", 5, (7, 11)),
    (70, "5:1,7:2", 5, (3, 11)),
]


@pytest.mark.parametrize("level,spec,k,extra", ORACLE_SPACES,
                         ids=[f"{n}-{s}-k{k}" for n, s, k, _ in ORACLE_SPACES])
def test_verified_vectors_pass_the_dense_check(level, spec, k, extra):
    # the per-coordinate check v.M == lambda.v on the dense table written
    # from the expanded rows, which shares nothing with the factored proof
    ops = SpaceOperators(_space(level, spec, k))
    for p in extra:
        ops.matrix(HeckeOp("T", p))
        ops.matrix(HeckeOp("T1", p))
    system = eigenbasis(ops)
    stored = ops.stored()
    assert len(stored) == 2 * (len(prime_factors(level)) + len(extra))
    for i, e in enumerate(system.entries):
        dense = system.dense(i)
        assert e.eigenvalues.keys() == stored.keys()
        for op, hm in stored.items():
            lam = e.eigenvalues[op]
            image = _vec_mat(dense, _dense(hm))
            assert all(image[j] == lam * dense[j] for j in range(len(dense))), \
                (level, e.partition, op)


def test_comparison_looks_ops_up_by_identity(monkeypatch):
    # the ops of op_list are new objects equal to those that key the
    # entries; each is mapped to its key once, not compared per row
    ops = SpaceOperators(enumerate_partitions(2310, None, 4))
    system = eigenbasis(ops)
    op_list = ops.level_ops()  # equal to the stored keys, not the same
    assert not {id(op) for op in op_list} & {id(op) for op in system.tables}
    calls = []
    real = HeckeOp.__eq__

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(HeckeOp, "__eq__", counted)
    comparisons = hecke.eigenvalue_comparisons(system, op_list)
    assert [len(c.cases) for c in comparisons] == [3] * 10
    assert len(calls) <= 2 * len(op_list)


def _compared_spaces():
    """(system, ops) of every desk space with its sweep and level operators,
    and of N=70 with the character 5:1,7:2 at the good primes 3 and 11."""
    for space in verify.spaces_in_scope(verify.DESK_CONFIG):
        run = verify.space_run(space, verify.DESK_CONFIG)
        yield run.system, run.sweep + run.ops.level_ops()
    ops = SpaceOperators(enumerate_partitions(
        70, DirichletCharacter.parse(70, "5:1,7:2"), 5))
    op_list = ops.level_ops() + [HeckeOp(kind, p) for p in (3, 11)
                                 for kind in ("T", "T1")]
    for op in op_list:
        ops.matrix(op)
    yield eigenbasis(ops), op_list


def test_closed_forms_once_per_key_equal_the_per_row_formula():
    # eigenvalue_comparisons evaluates each closed form once per (op, key);
    # every row must still hold the formula evaluated at that row
    rows = 0
    for system, op_list in _compared_spaces():
        space = system.space
        got = hecke.eigenvalue_comparisons(system, op_list)
        assert [c.op for c in got] == op_list
        for c in got:
            op = c.op
            assert c.cases.keys() == system.columns[op].keys()
            for rho, ranks in zip(space.basis, _ranks(space)):
                mval, cval, match, expected = c.cases[c.key(ranks)]
                assert mval is system.columns[op][c.key(ranks)]
                assert cval == eigenvalue_closed_form(space, rho, op), (
                    space, rho, op)
                assert match == (mval == cval)
                assert expected == (op.kind == "T1" and space.level % op.p == 0
                                    and rho.rank_of(op.p) == 1)
            rows += space.dimension
    assert rows > 10000
