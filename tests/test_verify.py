import json

from siegeleis import hecke, verify
from siegeleis.eisspace import enumerate_partitions
from siegeleis.hecke import HeckeMatrix, HeckeOp, SpaceOperators
from siegeleis.linalg import CycMatrix
from siegeleis.verify import (DESK_CONFIG, PRESETS, QUICK_CONFIG,
                              run_suite, subgroup_count_oracle)

SMALL = {"N_max": 2, "k_set": [4], "prime_max": 3, "char_orders": [1],
         "trials": 10, "seed": 7}


def test_subgroup_count_oracle():
    assert subgroup_count_oracle(2) == 3
    assert subgroup_count_oracle(3) == 4
    assert subgroup_count_oracle(5) == 6
    for q in (7, 11, 13):
        assert subgroup_count_oracle(q) == q + 1


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


def test_eigen_oracle_fails_on_a_wrong_table(monkeypatch):
    # Swap the two off-diagonal entries of row 0 of T1(2^2) at level 2.
    # The table stays upper triangular with the same diagonal, so every
    # eigenvalue tag and every piece vector stays as it was; only the
    # invariance check W == R.B can see that the table is wrong.
    space = enumerate_partitions(2, None, 4)
    assert verify._check_eigen_oracle(QUICK_CONFIG, None, [space])[0].status \
        == "pass"

    dense_view = HeckeMatrix.mat.func

    def wrong(hm):
        dense = [list(row) for row in dense_view(hm).data]
        if hm.op == HeckeOp("T1", 2):
            dense[0][1], dense[0][2] = dense[0][2], dense[0][1]
        return CycMatrix(dense)

    monkeypatch.setattr(HeckeMatrix, "mat", property(wrong))
    rec = verify._check_eigen_oracle(QUICK_CONFIG, None, [space])[0]
    assert rec.status == "fail"
    assert rec.details == "2 joint pieces for dim 3"


def test_eigen_oracle_drops_a_non_invariant_piece():
    # the eigenlines of diag(1, 2) are not invariant under the swap matrix
    pieces = verify._oracle_joint_eigenspaces(
        [CycMatrix([[1, 0], [0, 2]]), CycMatrix([[0, 1], [1, 0]])]
    )
    assert len(pieces) < 2


def test_eigen_oracle_is_independent_of_the_fast_paths(monkeypatch):
    space = enumerate_partitions(30, None, 4)
    ops = SpaceOperators(space)
    mats = [ops.matrix(op).mat for op in ops.level_ops() + [HeckeOp("T", 7)]]

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle called a fast path")

    monkeypatch.setattr(hecke, "eigen_vector", forbidden)
    monkeypatch.setattr(hecke, "eigenvalue_closed_form", forbidden)
    monkeypatch.setattr(verify, "eigenvalue_closed_form", forbidden)
    monkeypatch.setattr(HeckeMatrix, "vec_mat", forbidden)
    monkeypatch.setattr(HeckeMatrix, "diagonal", forbidden)
    pieces = verify._oracle_joint_eigenspaces(mats)
    assert len(pieces) == space.dimension == 27
    assert all(len(basis) == 1 for _, basis in pieces)
