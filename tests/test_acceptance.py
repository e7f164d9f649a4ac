"""Acceptance gate.

Each criterion below runs at its stated scale with exact (zero-tolerance)
arithmetic and prints one pass/fail line.  Criteria 1-3 and 6-7 consume the
oracle suite at the desk configuration (square-free N <= 30, weights 4..7,
local character orders {1,2,4}, primes <= 13, 1000 seeded trials); 4-5 pin
the worked fixtures directly; 8 is the data-dependent tier and is skipped
(not failed) when no provider file is shipped.
"""

import hashlib
import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from siegeleis.characters import DirichletCharacter
from siegeleis.cyclotomic import CycNum
from siegeleis.eisspace import Partition, enumerate_partitions, prime_factors
from siegeleis.hecke import (HeckeOp, SpaceOperators, apply_word,
                             compare_eigenvalues, eigenbasis, s_constant,
                             s_operator)
from siegeleis.jsonout import write_json
from siegeleis.verify import DESK_CONFIG, run_suite, spaces_in_scope

PROVIDER = Path(__file__).resolve().parent.parent / "data" / "e8_weight4_level1.coeffs"


@pytest.fixture(scope="module")
def desk():
    t0 = time.perf_counter()
    report = run_suite(DESK_CONFIG)
    report.total_elapsed = time.perf_counter() - t0
    return report


def _records(report, name):
    return [c for c in report.checks if c.name == name]


def _announce(n, label, ok, elapsed=None):
    tail = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"ACCEPTANCE {n} {label}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {n} ({label}) failed"


def test_criterion_1_commutativity_sweep(desk):
    recs = _records(desk, "hecke-commutativity")
    spaces = spaces_in_scope(DESK_CONFIG)
    elapsed = desk.timings["hecke-commutativity"]
    ok = (
        len(recs) == len(spaces) > 0
        and all(r.status == "pass" for r in recs)
        and elapsed < 120.0
    )
    _announce(1, "commutativity sweep", ok, elapsed)


def test_criterion_2_eigen_exactness(desk):
    exact = _records(desk, "hecke-eigen-exactness")
    oracle = _records(desk, "hecke-eigen-oracle")
    elapsed = desk.timings["hecke-eigen-exactness"] + desk.timings["hecke-eigen-oracle"]
    ok = (
        exact and oracle
        and all(r.status == "pass" for r in exact)
        and all(r.status == "pass" for r in oracle)
    )
    _announce(2, "eigen exactness + oracle cross-check", ok, elapsed)


def test_criterion_3_closed_form_comparison(desk):
    recs = _records(desk, "hecke-closed-form-comparison")
    fails = [r for r in recs if r.status == "fail"]
    documented = [r for r in recs if r.status == "documented-mismatch"]
    # every (rho, T1(q^2)) pair with q | N1 must appear as a documented
    # mismatch of the exact expected shape, and nothing else may disagree
    expected = sum(
        len(prime_factors(rho.n1))
        for space in spaces_in_scope(DESK_CONFIG)
        for rho in space.basis
    )
    ok = not fails and len(documented) == expected > 0
    _announce(3, "closed-form comparison with documented mismatch", ok,
              desk.timings["hecke-closed-form-comparison"])


def test_criterion_4_relation_words(desk):
    recs = _records(desk, "hecke-relation-words")
    ok = bool(recs) and all(r.status == "pass" for r in recs)
    # the specific level-2 facts: c(2) = 4/15 and both unit-vector identities
    space = enumerate_partitions(2, None, 4)
    ops = SpaceOperators(space)
    ok = ok and s_constant(space, 2) == Fraction(4, 15)
    ok = ok and s_operator(ops, 2, "S1").rows[0] == ((1, 1),)
    ok = ok and s_operator(ops, 2, "S2").rows[0] == ((2, 1),)
    _announce(4, "corner-to-basis relation words", ok,
              desk.timings["hecke-relation-words"])


def _word_dense(ops, word):
    """The dense matrix of a word, one unit-vector row at a time."""
    n = ops.space.dimension
    rows = (apply_word(ops, word, {i: CycNum.one()}) for i in range(n))
    return [[v.get(j, CycNum.zero()) for j in range(n)] for v in rows]


def test_criterion_5_worked_fixture():
    t0 = time.perf_counter()
    space = enumerate_partitions(2, None, 4)
    ops = SpaceOperators(space)
    T2 = _word_dense(ops, [HeckeOp("T", 2)])
    T1 = _word_dense(ops, [HeckeOp("T1", 2)])
    ok = T2 == [[1, Fraction(1, 2), Fraction(1, 2)], [0, 8, 6], [0, 0, 32]]
    ok = ok and T1 == [
        [3, Fraction(9, 2), Fraction(3, 4)], [0, 66, Fraction(15, 2)], [0, 0, 96]]
    system = eigenbasis(ops)
    entry = {e.partition: e for e in system.entries}
    at = space.index_of
    corner = system.dense(at(Partition(2, 1, 1)))
    ok = ok and corner[at(Partition(1, 2, 1))] == Fraction(-1, 14)
    ok = ok and corner[at(Partition(1, 1, 2))] == Fraction(-1, 434)
    mid = system.dense(at(Partition(1, 2, 1)))
    ok = ok and mid[at(Partition(1, 1, 2))] == Fraction(-1, 4)
    t2, t1 = HeckeOp("T", 2), HeckeOp("T1", 2)
    ok = ok and [entry[r].eigenvalues[t2] for r in space.basis] == [1, 8, 32]
    ok = ok and [entry[r].eigenvalues[t1] for r in space.basis] == [3, 66, 96]
    _announce(5, "worked fixture N=2 k=4", ok, time.perf_counter() - t0)


def test_criterion_6_lattice_kernel(desk):
    groups = ["lattice-sublattice-counts", "lattice-reduction-invariance",
              "lattice-isotropy"]
    elapsed = sum(desk.timings[g] for g in groups)
    ok = all(
        r.status == "pass" for g in groups for r in _records(desk, g)
    ) and all(_records(desk, g) for g in groups)
    ok = ok and DESK_CONFIG["trials"] == 1000 and elapsed < 30.0
    _announce(6, "lattice kernel (counts, reduction, isotropy)", ok, elapsed)


def test_criterion_7_fourier_properties(desk):
    recs = _records(desk, "fourier-operator-properties")
    elapsed = desk.timings["fourier-operator-properties"]
    ok = bool(recs) and all(r.status == "pass" for r in recs) and elapsed < 10.0
    _announce(7, "fourier operator properties", ok, elapsed)


def test_desk_report_bytes(desk):
    # the report as `verify --preset desk` prints it, through the CLI's
    # writer, and as json.dumps prints the same tree; the digest was
    # recorded before the checks shared one pass over the spaces
    parts = []
    write_json(desk.to_json(), parts.append)
    text = "".join(parts)
    assert text == json.dumps(desk.to_json(), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "de6a2d89a7ce05254f4986971c023c67280f4592b1a03370d8b8ad98a2c2e86d")
    assert desk.counts() == {"pass": 789, "fail": 0, "documented-mismatch": 598}


@pytest.mark.skipif(not PROVIDER.exists(),
                    reason="optional tier: no provider file present")
def test_criterion_8_fourier_pipeline():
    from siegeleis.fourier import (calibrate_normalization, combine,
                                   project_components, provider_load)
    from siegeleis.lattices import ZERO_FORM, reduce_form

    t0 = time.perf_counter()
    prov = provider_load(PROVIDER)
    comps = {rho: comp.expansion
             for rho, comp in project_components(prov, 2, 4, sample_bound=2)}
    zk = reduce_form(ZERO_FORM)
    ok = set(comps) == {Partition(2, 1, 1), Partition(1, 2, 1), Partition(1, 1, 2)}
    ok = ok and comps[Partition(2, 1, 1)].coeffs[zk] == 1
    ok = ok and comps[Partition(1, 2, 1)].coeffs[zk].is_zero()
    ok = ok and comps[Partition(1, 1, 2)].coeffs[zk].is_zero()
    total = combine([(1, e) for e in comps.values()])
    ok = ok and total.agrees_with(prov.expansion)
    rep = calibrate_normalization(prov, 2, 4, sample_bound=2)
    ok = ok and rep["primes"]["2"]["T"]["distinct_count"] == 3
    ok = ok and rep["primes"]["2"]["T1"]["distinct_count"] == 3
    _announce(8, "fourier pipeline on ingested data", ok,
              time.perf_counter() - t0)
