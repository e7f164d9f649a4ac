import json
from fractions import Fraction

import pytest

from siegeleis import linalg
from siegeleis.cyclotomic import CycNum
from siegeleis.linalg import CycMatrix, Poly, poly_gcd, poly_lcm, split_roots


def test_kernel_example():
    A = CycMatrix([[1, 1], [1, 1]])
    basis = A.kernel()
    assert len(basis) == 1
    v = basis[0]
    assert (v[0] + v[1]).is_zero() and not v[0].is_zero()
    for w in basis:
        assert all(e.is_zero() for e in A.mat_vec(w))


def test_min_poly_examples():
    D = CycMatrix.diagonal([1, 8, 32])
    assert D.min_poly() == Poly.from_roots([1, 8, 32])
    # repeated eigenvalue with a Jordan block: (x-2)^2 (x-5)
    B = CycMatrix([[2, 1, 0], [0, 2, 0], [0, 0, 5]])
    p = B.min_poly()
    assert p == Poly.from_roots([2, 2, 5])
    # the minimal polynomial annihilates the matrix exactly
    acc = CycMatrix.zeros(3, 3)
    power = CycMatrix.identity(3)
    for c in p.coeffs:
        acc = acc + power * c
        power = power @ B
    assert acc.is_zero()


def test_commutator():
    assert not CycMatrix.diagonal([1, 2]).commutes_with(CycMatrix([[0, 1], [0, 0]]))
    assert CycMatrix.diagonal([1, 2]).commutes_with(CycMatrix.diagonal([3, 4]))


def test_eigen_triangular():
    T = CycMatrix([[1, Fraction(1, 2), Fraction(1, 2)], [0, 8, 6], [0, 0, 32]])
    ed = T.eigen()
    assert ed.unsplit is None
    assert sorted(v.as_fraction() for v in ed.eigenvalues()) == [1, 8, 32]
    for lam, basis in ed.pairs:
        assert len(basis) == 1
        image = T.mat_vec(basis[0])
        assert all((x - lam * y).is_zero() for x, y in zip(image, basis[0]))


def test_eigen_unsplit_reported():
    # rotation by 90 degrees has eigenvalues +-i, invisible over Q
    R = CycMatrix([[0, -1], [1, 0]])
    ed = R.eigen()
    assert ed.pairs == [] and ed.unsplit is not None and ed.unsplit.degree == 2
    # with i in the working field the same matrix-shape splits
    i = CycNum.root_of_unity(4)
    ed2 = CycMatrix.diagonal([i, -i]).eigen()
    assert ed2.unsplit is None and len(ed2.pairs) == 2


def test_eigen_splits_past_a_zero_root():
    # x^2 - x/2: 0 is a root, and 1/2 is not a matrix entry, so only the
    # divisor search on x - 1/2 can find it
    ed = CycMatrix([[Fraction(1, 4), Fraction(1, 4)],
                    [Fraction(1, 4), Fraction(1, 4)]]).eigen()
    assert ed.eigenvalues() == [0, Fraction(1, 2)] and ed.unsplit is None


def test_eigen_jordan_dimension():
    B = CycMatrix([[2, 1], [0, 2]])
    ed = B.eigen()
    assert len(ed.pairs) == 1
    lam, basis = ed.pairs[0]
    assert lam == 2 and len(basis) == 1  # geometric multiplicity 1


def test_matrix_shapes_and_errors():
    with pytest.raises(ValueError):
        CycMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        CycMatrix([[1, 2]]) @ CycMatrix([[1, 2]])
    with pytest.raises(ValueError):
        CycMatrix([[1, 2]]).min_poly()
    with pytest.raises(ValueError):
        CycMatrix([[1, 2]]) + CycMatrix([[1], [2]])


def test_poly_arithmetic():
    p = Poly.from_roots([1, 2])
    q = Poly.from_roots([2, 3])
    assert poly_gcd(p, q) == Poly.from_roots([2])
    assert poly_lcm(p, q) == Poly.from_roots([1, 2, 3])
    quo, rem = (p * q).divmod(q)
    assert quo == p and rem.is_zero()
    assert p(2).is_zero() and p(5) == 12


def test_vec_mat_row_action():
    M = CycMatrix([[1, 2], [0, 3]])
    assert [x.as_fraction() for x in M.vec_mat([1, 1])] == [1, 5]
    assert [x.as_fraction() for x in M.mat_vec([1, 1])] == [3, 3]


def test_matrix_json_round_trip():
    M = CycMatrix([[CycNum.root_of_unity(4), Fraction(1, 2)], [0, 7]])
    blob = json.dumps(M.to_json())
    assert CycMatrix.from_json(json.loads(blob)) == M


def test_split_roots_candidate_order():
    # x^3 - 2x^2 - 15/4 x + 9/4: den 4, c0 9; candidates +-d/q run over
    # d in 1, 3, 9 and q in 1, 2, 4, so 1/2 is met before 3 and -3/2
    p = Poly.from_roots([3, Fraction(-3, 2), Fraction(1, 2)])
    found, rem = split_roots(p)
    assert [(r.as_fraction(), m) for r, m in found] == [
        (Fraction(1, 2), 1), (3, 1), (Fraction(-3, 2), 1)]
    assert rem.degree == 0
    # 0 comes first, then the extra candidates, then the divisor search
    found, _ = split_roots(Poly.from_roots([Fraction(1, 2), 3, 3]), [7, 3])
    assert [(r.as_fraction(), m) for r, m in found] == [
        (3, 2), (Fraction(1, 2), 1)]
    found, _ = split_roots(Poly.from_roots([5, 0]), [5])
    assert [(r.as_fraction(), m) for r, m in found] == [(0, 1), (5, 1)]


def test_eigen_huge_constant_term_is_not_factored(monkeypatch):
    # companion matrix of (x - 2)(x - 500000001): constant term
    # 1000000002 > 10^9 and no root among the entries
    C = CycMatrix([[0, -1000000002], [1, 500000003]])

    def refuse(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(linalg, "divisors", refuse)
    ed = C.eigen()
    assert ed.pairs == [] and ed.unsplit == ed.min_poly
    assert ed.unsplit == Poly.from_roots([2, 500000001])
    # inside the gate the same search finds both roots
    monkeypatch.undo()
    ed = CycMatrix([[0, -1000000], [1, 500002]]).eigen()
    assert ed.unsplit is None and ed.eigenvalues() == [2, 500000]
