import json
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, product

import pytest

from siegeleis import hecke, verify
from siegeleis.characters import DirichletCharacter
from siegeleis.cli import main
from siegeleis.cyclotomic import CycNum, as_cyc
from siegeleis.eisspace import EisSpace, Partition, enumerate_partitions
from siegeleis.hecke import HeckeMatrix, HeckeOp, SpaceOperators
from siegeleis.verify import (DESK_CONFIG, PRESETS, QUICK_CONFIG,
                              run_suite, space_run, spaces_in_scope,
                              subgroup_count_oracle)

SMALL = {"N_max": 2, "k_set": [4], "prime_max": 3, "char_orders": [1],
         "trials": 10, "seed": 7}


def test_subgroup_count_oracle():
    assert subgroup_count_oracle(2) == 3
    assert subgroup_count_oracle(3) == 4
    assert subgroup_count_oracle(5) == 6
    for q in (7, 11, 13):
        assert subgroup_count_oracle(q) == q + 1


def test_reduction_invariance_draws_from_all_unimodular_matrices():
    tables = []

    class Recording(random.Random):
        def choice(self, seq):
            tables.append(seq)
            return super().choice(seq)

    (record,) = verify._check_reduction_invariance({"trials": 2},
                                                   Recording(31))
    assert record.status == "pass"
    box = list(product(range(-10, 11), repeat=4))
    gl2 = {g for g in box if g[0] * g[3] - g[1] * g[2] in (1, -1)}
    sl2 = {g for g in gl2 if g[0] * g[3] - g[1] * g[2] == 1}
    assert (len(gl2), len(sl2)) == (2024, 1012)
    # two trials, each one GL2 and one SL2 draw, from duplicate-free tables
    assert [len(t) for t in tables] == [2024, 1012] * 2
    assert [set(t) for t in tables] == [gl2, sl2] * 2


def test_small_config_report():
    report = run_suite(SMALL)
    counts = report.counts()
    assert report.ok
    assert counts["fail"] == 0
    # exactly one documented mismatch: (1,2,1) under T1(4) at level 2
    assert counts["documented-mismatch"] == 1
    doc = [c for c in report.checks if c.status == "documented-mismatch"]
    assert doc[0].parameters["partition"] == "(1,2,1)"
    assert doc[0].parameters["op"] == "T1:2"


def test_vacuous_level_one():
    report = run_suite({"N_max": 1, "k_set": [4], "prime_max": 2,
                        "char_orders": [1], "trials": 5, "seed": 1})
    assert report.ok
    assert report.counts()["documented-mismatch"] == 0


def test_report_reproducible():
    a = run_suite(SMALL)
    b = run_suite(SMALL)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
        b.to_json(), sort_keys=True
    )


def test_presets():
    assert PRESETS["desk"] is DESK_CONFIG
    assert PRESETS["quick"] is QUICK_CONFIG
    assert DESK_CONFIG["N_max"] == 30 and DESK_CONFIG["seed"] == 7


def test_the_cli_offers_every_preset(capsys):
    # the parser spells the preset names itself, so it need not load verify
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    choices = "{" + ",".join(sorted(PRESETS)) + "}"
    assert f"--preset {choices}" in capsys.readouterr().out


def test_eigen_oracle_fails_on_a_wrong_table(monkeypatch):
    # Swap the two off-diagonal entries of row 0 of T1(2^2) at level 2.
    # The table stays upper triangular with the same diagonal, so every
    # eigenvalue tag and every piece vector stays as it was; only the
    # invariance check W == R.B can see that the table is wrong.
    space = enumerate_partitions(2, None, 4)
    run = space_run(space, QUICK_CONFIG)
    assert verify._check_eigen_oracle(QUICK_CONFIG, run)[0].status == "pass"

    _swap_row_0_of_t1_2(monkeypatch)
    run = space_run(space, QUICK_CONFIG)
    rec = verify._check_eigen_oracle(QUICK_CONFIG, run)[0]
    assert rec.status == "fail"
    assert rec.details == "2 joint pieces for dim 3"


def _dense(rows) -> list[list[CycNum]]:
    """The dense lists of a table given by its expanded rows."""
    dense = [[CycNum.zero()] * len(rows) for _ in rows]
    for out, row in zip(dense, rows):
        for j, a in row:
            out[j] = a
    return dense


def _triple_loop(a, b) -> list[list[CycNum]]:
    """The product of two dense lists, every term summed from 0."""
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), CycNum.zero())
             for j in range(n)] for i in range(n)]


def _sparse(dense) -> tuple:
    """The expanded rows of a table given by dense lists: the (column,
    value) pairs of each row's nonzero entries."""
    return tuple(tuple((j, as_cyc(a)) for j, a in enumerate(row)
                       if not as_cyc(a).is_zero()) for row in dense)


def _doctor_rows(monkeypatch, op, edit):
    """Make the expanded rows of the table of ``op`` the ones ``edit``
    makes of its dense lists, edited in place; the local rows, which
    eigenbasis reads, stay right."""
    expand = HeckeMatrix.rows.func

    def doctored(hm):
        rows = expand(hm)
        if hm.op != op:
            return rows
        dense = _dense(rows)
        edit(dense)
        return _sparse(dense)

    monkeypatch.setattr(HeckeMatrix, "rows", property(doctored))


def _swap_row_0_of_t1_2(monkeypatch):
    """Swap the two off-diagonal entries of row 0 of T1(2^2)'s rows."""
    def swap(dense):
        dense[0][1], dense[0][2] = dense[0][2], dense[0][1]

    _doctor_rows(monkeypatch, HeckeOp("T1", 2), swap)


def test_commutativity_fails_on_a_wrong_table(monkeypatch):
    # At level 2 only T(2) and T1(2^2) are not scalar among the sweep
    # tables, so the swap in T1(2^2) leaves exactly one pair that does not
    # commute; a product or an equality that skipped entries would miss it.
    space = enumerate_partitions(2, None, 4)
    rec = verify._check_commutativity(QUICK_CONFIG, space_run(space, QUICK_CONFIG))[0]
    assert (rec.status, rec.details) == ("pass", "6 operators, 0 non-commuting pairs")

    _swap_row_0_of_t1_2(monkeypatch)
    rec = verify._check_commutativity(QUICK_CONFIG, space_run(space, QUICK_CONFIG))[0]
    assert (rec.status, rec.details) == ("fail", "6 operators, 1 non-commuting pairs")


def _set_diagonal_entry(dense):
    dense[4][4] = dense[4][4] + 1


def _add_off_diagonal_entry(dense):
    dense[0][8] = as_cyc(Fraction(1, 3))


def _swap_into_row_1(dense):
    nz = [j for j, a in enumerate(dense[1]) if not a.is_zero()]
    dense[1][nz[0]], dense[1][nz[-1]] = dense[1][nz[-1]], dense[1][nz[0]]


@pytest.mark.parametrize("op,edit", [
    (HeckeOp("T1", 5), _set_diagonal_entry),
    (HeckeOp("T", 5), _add_off_diagonal_entry),
    (HeckeOp("T1", 2), _swap_into_row_1),
], ids=["diagonal-entry", "off-diagonal-entry", "level-prime-swap"])
def test_commutativity_agrees_with_both_dense_products(monkeypatch, op, edit):
    # At N=6, chi = 3:1, k=5 the tables at 2 and 3 are not diagonal, T(5)
    # is diagonal with two distinct entries and T1(5^2) is scalar.  Each
    # edit makes some pair fail; the record must count exactly the pairs
    # whose two dense products, by the triple loop, differ.
    space = enumerate_partitions(6, DirichletCharacter.parse(6, "3:1"), 5)
    _doctor_rows(monkeypatch, op, edit)
    run = space_run(space, QUICK_CONFIG)
    mats = [_dense(run.ops.matrix(o).rows) for o in run.sweep]
    want = sum(1 for a, b in combinations(mats, 2)
               if not _triple_loop(a, b) == _triple_loop(b, a))
    assert want > 0
    rec = verify._check_commutativity(QUICK_CONFIG, run)[0]
    assert (rec.status, rec.details) == (
        "fail", f"6 operators, {want} non-commuting pairs")


def test_commutativity_multiplies_only_pairs_without_a_diagonal_table(
        monkeypatch):
    # at N=30 the sweep tables at 2, 3, 5 are at level primes and the six
    # at 7, 11, 13 are diagonal, so only the C(6,2) pairs of the former
    # form both products, each one row at a time
    run = space_run(enumerate_partitions(30, None, 4), DESK_CONFIG)
    product_rows = []
    real = verify._combine

    def counted(coeffs, table):
        product_rows.append(coeffs)
        return real(coeffs, table)

    monkeypatch.setattr(verify, "_combine", counted)
    rec = verify._check_commutativity(DESK_CONFIG, run)[0]
    assert (rec.status, rec.details) == (
        "pass", "12 operators, 0 non-commuting pairs")
    assert len(product_rows) == 2 * 15 * run.space.dimension


def test_run_suite_builds_each_table_and_eigenbasis_once(monkeypatch):
    # keyed by the space object: the relation-word check enumerates its own
    # trivial-character spaces and builds their level tables itself
    spaces, eigen_calls, table_calls = [], Counter(), Counter()
    real_eigenbasis, real_table = hecke.eigenbasis, hecke.hecke_matrix

    def counted_eigenbasis(ops):
        spaces.append(ops.space)  # keeps every id distinct during the run
        eigen_calls[id(ops.space)] += 1
        return real_eigenbasis(ops)

    def counted_table(space, op):
        spaces.append(space)
        table_calls[id(space), op] += 1
        return real_table(space, op)

    monkeypatch.setattr(verify, "eigenbasis", counted_eigenbasis)
    monkeypatch.setattr(hecke, "eigenbasis", counted_eigenbasis)
    monkeypatch.setattr(hecke, "hecke_matrix", counted_table)
    report = run_suite(QUICK_CONFIG)
    assert report.ok
    in_scope = spaces_in_scope(QUICK_CONFIG)
    assert len(eigen_calls) == len(in_scope) == 8
    assert set(eigen_calls.values()) == {1}
    assert set(table_calls.values()) == {1}
    for space_id in eigen_calls:
        space = next(s for s in spaces if id(s) == space_id)
        built = {op for sid, op in table_calls if sid == space_id}
        want = {HeckeOp(kind, p) for p in (2, 3, 5) for kind in ("T", "T1")}
        assert built == want | set(SpaceOperators(space).level_ops())


def test_failed_eigenbasis_is_reported_not_raised(monkeypatch):
    real = hecke._local_vector

    def wrong(space, rho, q, rank):
        u = real(space, rho, q, rank)
        if space.level == 2 and tuple(rho) == (2, 1, 1):
            # w_2 is {0: 217, 1: -31/2, 2: -1/2}, u_2 = w_2 / 217
            u = {**u, 1: as_cyc(Fraction(-1, 13))}
        return u

    monkeypatch.setattr(hecke, "_local_vector", wrong)
    report = run_suite(QUICK_CONFIG)  # no exception escapes
    assert not report.ok
    for name in ("hecke-eigen-exactness", "hecke-closed-form-comparison",
                 "hecke-eigen-oracle"):
        failed = [c for c in report.checks
                  if c.name == name and c.status == "fail"]
        assert [c.parameters["level"] for c in failed] == [2]
        assert failed[0].details.startswith(
            "eigenvector verification failed for rho=(2,1,1)")
    assert {c.name for c in report.checks if c.status == "fail"} == {
        "hecke-eigen-exactness", "hecke-closed-form-comparison",
        "hecke-eigen-oracle"}


def test_eisspace_record_fails_when_the_tie_break_changes(monkeypatch):
    # the enumeration with its tie-break changed to -N1 before -N2 keeps the
    # elements but not their order; the brute-force oracle of the
    # eisspace-enumeration record sees it where (N2, N1) ties with two
    # primes or more: at N = 6, (1,6,1) before (2,1,3).  Total rank still
    # comes first, so every table stays upper triangular and no other
    # check fails
    real = verify.enumerate_partitions

    def swapped(N, char=None, k=4):
        space = real(N, char, k)

        def key(i):
            ranks, (_, n1, n2) = space.decode(i)
            return sum(ranks), -n1, -n2
        order = sorted(range(space.dimension), key=key)
        return EisSpace(N, k, space.char, tuple(space.codes[i] for i in order))

    monkeypatch.setattr(verify, "enumerate_partitions", swapped)
    checks = run_suite(QUICK_CONFIG).checks
    failed = {(c.name, c.parameters["level"]) for c in checks
              if c.status == "fail"}
    assert failed == {("eisspace-enumeration", 6)}
    assert sum(c.name == "eisspace-enumeration" and c.status == "pass"
               for c in checks) > 0


def test_eigen_oracle_drops_a_non_invariant_piece():
    # the eigenlines of diag(1, 2) are not invariant under the swap matrix
    pieces = verify._oracle_joint_eigenspaces(
        [_sparse([[1, 0], [0, 2]]), _sparse([[0, 1], [1, 0]])]
    )
    assert len(pieces) < 2


def test_oracle_leaves_a_jordan_block_short():
    # one eigenline for the double eigenvalue 2
    pieces = verify._oracle_joint_eigenspaces([_sparse([[2, 1], [0, 2]])])
    assert [(tags, len(basis)) for tags, basis in pieces] == [((2,), 1)]


def test_oracle_misses_eigenvalues_off_the_diagonal():
    # the eigenvalues +-1 of the swap matrix are not on its diagonal, so no
    # piece comes out; a triangular table never has that shape
    assert verify._oracle_joint_eigenspaces([_sparse([[0, 1], [1, 0]])]) == []


def _doctored_run(change):
    """The space run of N=2, k=4 after ``change`` edits copies of the
    eigenvalue maps (key -> value) and of the dense vectors of its
    eigenbasis, which the doctored system's dense(i) reads by basis index."""
    run = space_run(enumerate_partitions(2, None, 4), QUICK_CONFIG)
    system = run.system
    columns = {op: dict(lams) for op, lams in system.columns.items()}
    vectors = [system.dense(i) for i in range(system.space.dimension)]
    change(columns, vectors)
    doctored = replace(system, columns=columns)
    doctored.dense = vectors.__getitem__
    return replace(run, system=doctored)


def _bump(columns, op, rho):
    """Add 1 to the eigenvalue of op at the key of rho, in N=2, k=4.  The
    level tables there key a partition by its rank at 2, so this changes
    the eigenvalue of rho alone."""
    space = enumerate_partitions(2, None, 4)
    key = SpaceOperators(space).matrix(op).key(
        space.decode(space.index_of(rho))[0])
    columns[op][key] = columns[op][key] + 1


def _doctored_oracle(change):
    """The oracle record on the doctored run."""
    return verify._check_eigen_oracle(QUICK_CONFIG, _doctored_run(change))[0]


def test_eigen_oracle_fails_on_a_wrong_eigenvalue():
    def wrong(columns, vectors):
        _bump(columns, HeckeOp("T", 2), Partition(2, 1, 1))

    rec = _doctored_oracle(wrong)
    assert rec.status == "fail"
    assert rec.details == "eigenvalue tags match 0 vectors"


def test_eigen_oracle_fails_on_a_wrong_vector():
    def swap(columns, vectors):
        vectors[0], vectors[1] = vectors[1], vectors[0]

    rec = _doctored_oracle(swap)
    assert rec.status == "fail"
    assert sorted(rec.details.split("; ")) == [
        "span mismatch at (1,2,1)", "span mismatch at (2,1,1)"]

    def last_coefficient(columns, vectors):
        # (2,1,1) has coefficient -1/434 at (1,1,2), the last basis index;
        # the oracle reads a vector only through dense(i)
        assert vectors[0][2] == Fraction(-1, 434)
        vectors[0][2] = as_cyc(Fraction(-1, 433))

    assert _doctored_oracle(last_coefficient).details == (
        "span mismatch at (2,1,1)")


def test_closed_form_check_fails_on_a_wrong_value():
    def closed_forms(rho=None, op=None):
        def bump(columns, vectors):
            if rho is not None:
                _bump(columns, op, rho)
        recs = verify._check_closed_forms(QUICK_CONFIG, _doctored_run(bump))
        return [(r.status, r.parameters.get("op"), r.details) for r in recs]

    # the T1(2^2) row at (1,2,1) is the one documented mismatch of N=2
    documented, summary = closed_forms()
    assert documented[:2] == ("documented-mismatch", "T1:2")
    assert summary == ("pass", None, "5 matches, 0 unexpected mismatches")
    documented = [documented]
    # a wrong value where the table must match
    assert closed_forms(Partition(2, 1, 1), HeckeOp("T", 2)) == documented + [
        ("fail", None, "4 matches, 1 unexpected mismatches")]
    # the exempt row off the expected shape: no documented record
    assert closed_forms(Partition(1, 2, 1), HeckeOp("T1", 2)) == [
        ("fail", None, "5 matches, 1 unexpected mismatches")]


def test_eigen_oracle_is_independent_of_the_fast_paths(monkeypatch):
    space = enumerate_partitions(30, None, 4)
    ops = SpaceOperators(space)
    tables = [ops.matrix(op).rows for op in ops.level_ops() + [HeckeOp("T", 7)]]

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called a fast path")

    monkeypatch.setattr(hecke, "_local_vector", forbidden)
    monkeypatch.setattr(hecke, "eigenvalue_closed_form", forbidden)
    monkeypatch.setattr(verify, "eigenvalue_closed_form", forbidden)
    monkeypatch.setattr(HeckeMatrix, "vec_mat", forbidden)
    monkeypatch.setattr(HeckeMatrix, "diagonal", forbidden)
    pieces = verify._oracle_joint_eigenspaces(tables)
    assert len(pieces) == space.dimension == 27
    assert all(len(basis) == 1 for _, basis in pieces)


def test_relation_words_are_counted_by_the_chained_product(monkeypatch):
    # the record applies each word with apply_word, which shares no code
    # with relation_defects, the per-prime path that `relations` prints;
    # both count the same defects, with a wrong S table too
    real = hecke.s_operator

    def scaled(ops, q, which):  # S1(3) sends rank 0 to rank 1 times 2
        hm = real(ops, q, which)
        if (q, which) == (3, "S1"):
            hm.local[0,] = tuple((t, a * 2) for t, a in hm.local[0,])
        return hm

    def forbidden(ops):
        raise AssertionError("the record used the path it checks")

    monkeypatch.setattr(hecke, "s_operator", scaled)
    words = Counter()
    real_word = verify.apply_word

    def counted(ops, word, v):
        words[ops.space.level] += 1
        return real_word(ops, word, v)

    monkeypatch.setattr(verify, "apply_word", counted)
    with monkeypatch.context() as m:
        m.setattr(hecke, "relation_defects", forbidden)
        recs = verify._check_relation_words({"N_max": 30, "k_set": [4, 5]},
                                            None)
    assert [r.parameters["level"] for r in recs] == [
        N for N in range(1, 31) if N % 4 and N % 9 and N % 25]
    failing = 0
    for rec in recs:
        space = enumerate_partitions(rec.parameters["level"], None, 4)
        bad = sum(hecke.relation_defects(SpaceOperators(space)))
        assert words[space.level] == space.dimension
        assert rec.details == (f"{space.dimension} words checked, "
                               f"{bad} bad entries")
        assert rec.status == ("pass" if bad == 0 else "fail")
        failing += bad > 0
    assert failing == sum(1 for r in recs if r.parameters["level"] % 3 == 0)


def test_level_one_record_catches_a_wrong_good_prime_row(monkeypatch):
    # every T(p) diagonal at p not dividing N raised by 1, where the tables
    # and the triangularity oracle read the row formula: the tables stay
    # diagonal, commuting and self-consistent, and the closed-form record
    # reads only the level tables, so only the level-one record sees it
    real = hecke._row_prime_to_level

    def raised(space, rho, op):
        return real(space, rho, op) + (op.kind == "T")

    monkeypatch.setattr(hecke, "_row_prime_to_level", raised)
    monkeypatch.setattr(verify, "_row_prime_to_level", raised)
    report = run_suite(DESK_CONFIG)
    assert report.counts() == {"pass": 787, "documented-mismatch": 598,
                               "fail": 2}
    # the table entry is wrong at each of the 2k - 2 primes it is read at
    assert [(r.name, r.parameters, r.details) for r in report.checks
            if r.status == "fail"] == [
        ("hecke-level-one-specialization", {"weight": k}, f"{2 * k - 2} failures")
        for k in (4, 6)]
