import json
import random
from fractions import Fraction

import pytest

from siegeleis import linalg
from siegeleis.cyclotomic import CycNum, as_cyc
from siegeleis.linalg import CycMatrix, Poly, left_null_space, split_roots
from siegeleis.verify import _combine


def test_kernel_example():
    A = CycMatrix([[1, 1], [1, 1]])
    basis = left_null_space(A.data)
    assert len(basis) == 1
    v = basis[0]
    assert (v[0] + v[1]).is_zero() and not v[0].is_zero()
    for w in basis:
        assert all(e.is_zero() for e in A.vec_mat(w))


def _shifted(m, lam):
    return [[a - lam if i == j else a for j, a in enumerate(row)]
            for i, row in enumerate(m.data)]


def test_eigen_triangular():
    # the left eigenvalues of a triangular matrix are its diagonal entries
    T = CycMatrix([[1, Fraction(1, 2), Fraction(1, 2)], [0, 8, 6], [0, 0, 32]])
    for lam in (1, 8, 32):
        basis = left_null_space(_shifted(T, lam))
        assert len(basis) == 1
        image = T.vec_mat(basis[0])
        assert all((x - lam * y).is_zero() for x, y in zip(image, basis[0]))
    assert left_null_space(_shifted(T, 2)) == []


def test_eigen_jordan_dimension():
    B = CycMatrix([[2, 1], [0, 2]])
    assert len(left_null_space(_shifted(B, 2))) == 1  # geometric multiplicity 1


def test_split_roots_past_a_zero_root():
    # x^2 - x/2: 0 is a root, and only the divisor search on x - 1/2 finds
    # the other one
    found, rem = split_roots(Poly([0, Fraction(-1, 2), 1]))
    assert [(r.as_fraction(), m) for r, m in found] == [
        (0, 1), (Fraction(1, 2), 1)]
    assert rem.degree == 0


def test_matrix_shapes_and_errors():
    with pytest.raises(ValueError):
        CycMatrix([[1, 2], [3]])


def test_poly_arithmetic():
    p = Poly.from_roots([1, 2])
    q = Poly.from_roots([2, 3])
    quo, rem = (p * q).divmod(q)
    assert quo == p and rem.is_zero()
    assert p(2).is_zero() and p(5) == 12


def _random_matrix(rng, rows, cols, conductors):
    """Seeded entries: about half zero, the rest rational multiples of a
    random power of a root of unity whose order is drawn from conductors."""
    def entry():
        if rng.random() < 0.5:
            return CycNum.zero()
        m = rng.choice(conductors)
        return (CycNum.root_of_unity(m, rng.randrange(m))
                * Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return CycMatrix([[entry() for _ in range(cols)] for _ in range(rows)])


def _schoolbook(a, b):
    """The triple loop: every term, zero or not, summed from 0 in
    ascending inner index."""
    out = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = CycNum.zero()
            for k in range(a.cols):
                acc = acc + a[i, k] * b[k, j]
            row.append(acc)
        out.append(row)
    return out


def _sparse_rows(m):
    """The rows of m as the (column, value) pairs of their nonzero entries,
    the form of HeckeMatrix.rows."""
    return [[(j, a) for j, a in enumerate(row) if not a.is_zero()]
            for row in m.data]


def _assert_product(a, b):
    # the product of verify's commutativity check: one row at a time, each
    # a map column -> nonzero value
    b_rows = _sparse_rows(b)
    got = [_combine(row, b_rows) for row in _sparse_rows(a)]
    want = _schoolbook(a, b)
    assert len(got) == a.rows
    assert all(not x.is_zero() and j < b.cols for row in got
               for j, x in row.items())
    zero = CycNum.zero()
    assert [[row.get(j, zero).to_json() for j in range(b.cols)]
            for row in got] == [[x.to_json() for x in row] for row in want]


@pytest.mark.parametrize("conductors", [[1], [1, 4], [1, 4, 12], [1, 4, 20],
                                        [1, 4, 12, 20]])
def test_matmul_equals_the_triple_loop(conductors):
    rng = random.Random(len(conductors) * 100 + conductors[-1])
    for r, n, c in [(1, 1, 1), (3, 3, 3), (2, 5, 4), (5, 2, 3), (6, 6, 6)]:
        a = _random_matrix(rng, r, n, conductors)
        b = _random_matrix(rng, n, c, conductors)
        _assert_product(a, b)
        square = _random_matrix(rng, n, n, conductors)
        _assert_product(square, square)  # one matrix as both operands
    # zero rows and zero columns on either side
    a = _random_matrix(rng, 4, 4, conductors)
    holes = CycMatrix([[0 if i == 1 or j == 2 else a[i, j] for j in range(4)]
                       for i in range(4)])
    for x, y in [(holes, a), (a, holes), (holes, holes),
                 (CycMatrix([[0] * 4] * 4), a), (a, CycMatrix([[0] * 3] * 4))]:
        _assert_product(x, y)
    assert _combine(_sparse_rows(holes)[1], _sparse_rows(a)) == {}
    assert all(2 not in _combine(row, _sparse_rows(holes))
               for row in _sparse_rows(a))


def test_matrix_eq_across_entry_types():
    ints = CycMatrix([[1, 0, -2], [0, 3, 0]])
    fracs = CycMatrix([[Fraction(2, 2), Fraction(0), Fraction(-4, 2)],
                       [Fraction(0, 5), Fraction(3), Fraction(0)]])
    cycs = CycMatrix([[CycNum.one(), CycNum.zero(), CycNum(1, [-2])],
                      [CycNum(4, [0, 0]), CycNum(3, [3, 0]), CycNum.zero()]])
    assert ints == fracs == cycs and cycs == ints
    i = CycNum.root_of_unity(4)
    assert CycMatrix([[i * i, 0]]) == CycMatrix([[-1, 0]])
    for r, c in [(0, 0), (0, 1), (1, 1), (1, 2)]:
        changed = [list(row) for row in cycs.data]
        changed[r][c] = changed[r][c] + Fraction(1, 7)
        assert not CycMatrix(changed) == cycs
        assert not cycs == CycMatrix(changed)
    assert not CycMatrix([[1, 0], [0, 1]]) == CycMatrix([[1, 0, 0], [0, 1, 0]])
    assert not CycMatrix([[1, 0]]) == [[1, 0]]


def test_vec_mat_row_action():
    M = CycMatrix([[1, 2], [0, 3]])
    assert [x.as_fraction() for x in M.vec_mat([1, 1])] == [1, 5]


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


def test_split_roots_huge_constant_term_is_not_factored(monkeypatch):
    # (x - 2)(x - 500000001): constant term 1000000002 > 10^9
    p = Poly.from_roots([2, 500000001])

    def refuse(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(linalg, "divisors", refuse)
    found, rem = split_roots(p)
    assert found == [] and rem == p
    # inside the gate the same search finds both roots
    monkeypatch.undo()
    found, rem = split_roots(Poly.from_roots([2, 500000]))
    assert [(r.as_fraction(), m) for r, m in found] == [(2, 1), (500000, 1)]
    assert rem.degree == 0


def _random_triangular(rng, n, conductor):
    """Seeded upper triangular n x n matrix at one conductor whose diagonal
    repeats a few values."""
    def entry():
        if rng.random() < 0.5:
            return CycNum.zero()
        return (CycNum.root_of_unity(conductor, rng.randrange(conductor))
                * Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    diag = [entry() for _ in range(2)]
    return CycMatrix([[rng.choice(diag) if i == j else entry() if j > i else 0
                       for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("conductor", [1, 4, 12, 20])
def test_left_null_space_against_vec_mat(conductor):
    rng = random.Random(conductor)
    for n in (1, 2, 4, 6, 7):
        a = _random_triangular(rng, n, conductor)
        for i in range(n):
            rows = _shifted(a, a[i, i])
            basis = left_null_space(rows)
            shifted = CycMatrix(rows)
            for x in basis:
                assert all(e.is_zero() for e in shifted.vec_mat(x))
            # n - rank vectors, independent: their span has full rank
            assert len(basis) == n - _rank(rows) == _rank(basis)


def test_elimination_never_multiplies_a_zero_operand(monkeypatch):
    # the sparse rows of _Span keep only nonzero entries, and the kernel is
    # read off the RREF of the columns, so no product has a zero operand
    rng = random.Random(5)
    cases = [_random_matrix(rng, r, c, [1, 4, 12])
             for r, c in [(1, 1), (3, 3), (4, 6), (6, 4), (7, 7)]]
    cases += [_random_triangular(rng, 6, m) for m in (1, 20)]
    real = CycNum.__mul__
    made = []

    def checked(a, b):
        assert not (a.is_zero() or as_cyc(b).is_zero()), "multiplied a zero"
        made.append(1)
        return real(a, b)

    monkeypatch.setattr(CycNum, "__mul__", checked)
    monkeypatch.setattr(CycNum, "__rmul__", checked)
    for a in cases:
        span = linalg._Span()
        for row in a.data:
            span.insert(row)
        for i in range(min(a.rows, a.cols)):
            left_null_space(_shifted(a, a[i, i]))
        left_null_space(a.data)
    assert made  # the elimination did multiply


def test_span_insert_reports_independence():
    # a zero row and a sum of earlier rows are dependent; the count of
    # independent insertions is the rank
    rng = random.Random(6)
    for m in (1, 12):
        a = _random_matrix(rng, 4, 5, [m])
        rows = list(a.data)
        rows[1:1] = [[CycNum.zero()] * a.cols]
        rows.append([x + y for x, y in zip(rows[0], rows[-1])])
        span = linalg._Span()
        got = [span.insert(row) for row in rows]
        assert got[1] is False and got[-1] is False
        assert sum(got) == len(span.rows) == _rank(rows)


def _rank(rows):
    """Rank by fraction-free elimination on a copy."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows))
                    if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            if not f.is_zero():
                rows[i] = [p[c] * x - f * y for x, y in zip(rows[i], p)]
        rank += 1
    return rank
