import random
from fractions import Fraction
from math import lcm

import pytest

from siegeleis import linalg
from siegeleis.cyclotomic import CycNum, as_cyc, divisors
from siegeleis.linalg import deflate, left_null_space, split_roots
from siegeleis.verify import _combine


def _mat(rows):
    """A matrix as the list of its rows of CycNum entries."""
    return [[as_cyc(a) for a in row] for row in rows]


def _vec_mat(v, rows):
    """The row vector v.A for the matrix A given by its rows."""
    acc = [CycNum.zero()] * len(rows[0])
    for x, row in zip(v, rows):
        if not x.is_zero():
            for j, a in enumerate(row):
                acc[j] = acc[j] + x * a
    return acc


def test_kernel_example():
    A = _mat([[1, 1], [1, 1]])
    basis = left_null_space(A)
    assert len(basis) == 1
    v = basis[0]
    assert (v[0] + v[1]).is_zero() and not v[0].is_zero()
    for w in basis:
        assert all(e.is_zero() for e in _vec_mat(w, A))


def _shifted(m, lam):
    return [[a - lam if i == j else a for j, a in enumerate(row)]
            for i, row in enumerate(m)]


def test_eigen_triangular():
    # the left eigenvalues of a triangular matrix are its diagonal entries
    T = _mat([[1, Fraction(1, 2), Fraction(1, 2)], [0, 8, 6], [0, 0, 32]])
    for lam in (1, 8, 32):
        basis = left_null_space(_shifted(T, lam))
        assert len(basis) == 1
        image = _vec_mat(basis[0], T)
        assert all((x - lam * y).is_zero() for x, y in zip(image, basis[0]))
    assert left_null_space(_shifted(T, 2)) == []


def test_eigen_jordan_dimension():
    B = _mat([[2, 1], [0, 2]])
    assert len(left_null_space(_shifted(B, 2))) == 1  # geometric multiplicity 1


def times_x_minus(p, c):
    """Ascending coefficients of p * (x - c)."""
    zero = CycNum.zero()
    return [a - c * b for a, b in zip([zero] + p, p + [zero])]


def from_roots(roots):
    """Ascending coefficients of prod (x - r), one linear factor at a time."""
    p = [CycNum.one()]
    for r in roots:
        p = times_x_minus(p, as_cyc(r))
    return p


def test_split_roots_past_a_zero_root():
    # x^2 - x/2: 0 is a root, and only the divisor search on x - 1/2 finds
    # the other one
    found, rem = split_roots([as_cyc(c) for c in (0, Fraction(-1, 2), 1)])
    assert [(r.as_fraction(), m) for r, m in found] == [
        (0, 1), (Fraction(1, 2), 1)]
    assert len(rem) == 1


def _value(coeffs, x):
    # the sum of c * x^i, term by term
    return sum((c * x ** i for i, c in enumerate(coeffs)), CycNum.zero())


@pytest.mark.parametrize("coeffs, c", [
    ([Fraction(-3, 2), 0, 5, Fraction(1, 3), 1], Fraction(-2, 3)),
    ([7, 1], 4),
    ([Fraction(5, 2)], 3),
    ([CycNum.root_of_unity(4), Fraction(1, 2), 0, CycNum.root_of_unity(4, 3)],
     1 + CycNum.root_of_unity(4)),
])
def test_deflate_is_division_by_a_linear_factor(coeffs, c):
    coeffs, c = [as_cyc(a) for a in coeffs], as_cyc(c)
    quo, rem = deflate(coeffs, c)
    assert len(quo) == len(coeffs) - 1
    # quo * (x - c) + rem gives back the input, and rem is its value at c
    back = times_x_minus(quo, c)
    back[0] = back[0] + rem
    assert back == coeffs
    assert rem == _value(coeffs, c)


def _random_matrix(rng, rows, cols, conductors):
    """Seeded entries: about half zero, the rest rational multiples of a
    random power of a root of unity whose order is drawn from conductors."""
    def entry():
        if rng.random() < 0.5:
            return CycNum.zero()
        m = rng.choice(conductors)
        return (CycNum.root_of_unity(m, rng.randrange(m))
                * Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    return [[entry() for _ in range(cols)] for _ in range(rows)]


def _schoolbook(a, b):
    """The triple loop: every term, zero or not, summed from 0 in
    ascending inner index."""
    out = []
    for i in range(len(a)):
        row = []
        for j in range(len(b[0])):
            acc = CycNum.zero()
            for k in range(len(a[0])):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def _sparse_rows(m):
    """The rows of m as the (column, value) pairs of their nonzero entries,
    the form of HeckeMatrix.rows."""
    return [[(j, a) for j, a in enumerate(row) if not a.is_zero()]
            for row in m]


def _assert_product(a, b):
    # the product of verify's commutativity check: one row at a time, each
    # a map column -> nonzero value
    b_rows = _sparse_rows(b)
    got = [_combine(row, b_rows) for row in _sparse_rows(a)]
    want = _schoolbook(a, b)
    assert len(got) == len(a)
    assert all(not x.is_zero() and j < len(b[0]) for row in got
               for j, x in row.items())
    zero = CycNum.zero()
    assert [[row.get(j, zero).to_json() for j in range(len(b[0]))]
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
    holes = _mat([[0 if i == 1 or j == 2 else a[i][j] for j in range(4)]
                  for i in range(4)])
    for x, y in [(holes, a), (a, holes), (holes, holes),
                 (_mat([[0] * 4] * 4), a), (a, _mat([[0] * 3] * 4))]:
        _assert_product(x, y)
    assert _combine(_sparse_rows(holes)[1], _sparse_rows(a)) == {}
    assert all(2 not in _combine(row, _sparse_rows(holes))
               for row in _sparse_rows(a))


def test_split_roots_candidate_order():
    # x^3 - 2x^2 - 15/4 x + 9/4: den 4, c0 9; candidates +-d/q run over
    # d in 1, 3, 9 and q in 1, 2, 4, so 1/2 is met before 3 and -3/2
    p = from_roots([3, Fraction(-3, 2), Fraction(1, 2)])
    found, rem = split_roots(p)
    assert [(r.as_fraction(), m) for r, m in found] == [
        (Fraction(1, 2), 1), (3, 1), (Fraction(-3, 2), 1)]
    assert len(rem) == 1


def test_split_roots_huge_constant_term_is_not_factored(monkeypatch):
    # (x - 2)(x - 500000001): constant term 1000000002 > 10^9
    p = from_roots([2, 500000001])

    def refuse(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(linalg, "divisors", refuse)
    found, rem = split_roots(p)
    assert found == [] and rem == p
    # inside the gate the same search finds both roots
    monkeypatch.undo()
    found, rem = split_roots(from_roots([2, 500000]))
    assert [(r.as_fraction(), m) for r, m in found] == [(2, 1), (500000, 1)]
    assert len(rem) == 1


def _reference_split_roots(coeffs):
    """split_roots as first written: every candidate +-d/q a Fraction,
    duplicates dropped by a seen-set, and each one, root or not, tried by a
    CycNum deflation."""
    def candidates():
        yield CycNum.zero()
        if not all(c.is_rational() for c in coeffs):
            return
        den = lcm(*(c.as_fraction().denominator for c in coeffs))
        low = next(c for c in coeffs if not c.is_zero())
        c0 = abs((low.as_fraction() * den).numerator)
        if c0 > 10**9 or den > 10**6:
            return
        seen = set()
        for d in divisors(c0):
            for q in divisors(den):
                for s in (1, -1):
                    x = Fraction(s * d, q)
                    if x not in seen:
                        seen.add(x)
                        yield as_cyc(x)

    rem, found = coeffs, []
    for cand in candidates():
        mult = 0
        while len(rem) > 1:
            quo, val = deflate(rem, cand)
            if not val.is_zero():
                break
            rem, mult = quo, mult + 1
        if mult:
            found.append((cand, mult))
        if len(rem) == 1:
            break
    return found, rem


def _split_json(split):
    found, rem = split
    return [(r.to_json(), m) for r, m in found], [c.to_json() for c in rem]


def test_split_roots_matches_the_fraction_search():
    # monic rational polynomials of degree <= 5: rational roots +-d/q
    # (repeats and 0 among them, q <= 12) times a random monic factor,
    # which may split further or be left over
    rng = random.Random(20261020)
    for _ in range(150):
        n = rng.randint(0, 5)
        roots = [rng.choice([0, Fraction(rng.randint(-9, 9), rng.randint(1, 12))])
                 for _ in range(rng.randint(0, n))]
        roots += rng.sample(roots, min(len(roots), rng.randint(0, 1)))
        roots = roots[:n]
        p = [as_cyc(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
             for _ in range(n - len(roots))] + [CycNum.one()]
        for r in roots:
            p = times_x_minus(p, as_cyc(r))
        assert _split_json(split_roots(p)) == _split_json(
            _reference_split_roots(p)), p
    # x (x - 1)(x^2 + ix + 1/2): with an irrational coefficient only the
    # zero root is searched for, and the rational root 1 stays in the
    # leftover
    i = CycNum.root_of_unity(4)
    p = times_x_minus(times_x_minus([as_cyc(Fraction(1, 2)), i, CycNum.one()],
                                    CycNum.zero()), as_cyc(1))
    want = _reference_split_roots(p)
    assert _split_json(split_roots(p)) == _split_json(want)
    assert [(r.to_json(), m) for r, m in want[0]] == [(CycNum.zero().to_json(), 1)]
    assert len(want[1]) == 4


def test_split_roots_deflates_only_roots(monkeypatch):
    # x^3 - 41x^2 + 296x - 256 = (x - 1)(x - 8)(x - 32): one deflation for
    # the candidate 0, then each root is deflated until it leaves (two
    # each), but the last one empties the quotient
    calls = []

    def counted(coeffs, c):
        calls.append(c)
        return deflate(coeffs, c)

    monkeypatch.setattr(linalg, "deflate", counted)
    found, rem = split_roots([as_cyc(c) for c in (-256, 296, -41, 1)])
    assert [(r.as_fraction(), m) for r, m in found] == [(1, 1), (8, 1), (32, 1)]
    assert len(rem) == 1
    assert [c.as_fraction() for c in calls] == [0, 1, 1, 8, 8, 32]


def _random_triangular(rng, n, conductor):
    """Seeded upper triangular n x n matrix at one conductor whose diagonal
    repeats a few values."""
    def entry():
        if rng.random() < 0.5:
            return CycNum.zero()
        return (CycNum.root_of_unity(conductor, rng.randrange(conductor))
                * Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    diag = [entry() for _ in range(2)]
    return _mat([[rng.choice(diag) if i == j else entry() if j > i else 0
                  for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("conductor", [1, 4, 12, 20])
def test_left_null_space_against_vec_mat(conductor):
    rng = random.Random(conductor)
    for n in (1, 2, 4, 6, 7):
        a = _random_triangular(rng, n, conductor)
        for i in range(n):
            rows = _shifted(a, a[i][i])
            basis = left_null_space(rows)
            for x in basis:
                assert all(e.is_zero() for e in _vec_mat(x, rows))
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
        for row in a:
            span.insert(row)
        for i in range(min(len(a), len(a[0]))):
            left_null_space(_shifted(a, a[i][i]))
        left_null_space(a)
    assert made  # the elimination did multiply


def test_span_insert_reports_independence():
    # a zero row and a sum of earlier rows are dependent; the count of
    # independent insertions is the rank
    rng = random.Random(6)
    for m in (1, 12):
        a = _random_matrix(rng, 4, 5, [m])
        rows = list(a)
        rows[1:1] = [[CycNum.zero()] * len(a[0])]
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
