"""Exact linear algebra over cyclotomic-rational fields.

There is no matrix type: a matrix is the sequence of its rows of CycNum
entries, and the Hecke tables keep their own sparse rows.  Row spaces are
kept in reduced row echelon form with each row stored sparse, as its
nonzero entries, so elimination touches nothing else; an insertion reports
only whether the row was independent.  Dependencies among rows are read
off the left null space, the RREF of a matrix's columns.  A polynomial is
the list of its CycNum coefficients in ascending degree.  Its roots are
found only by trial candidates in split_roots: 0, tried by one Horner
deflation, then a bounded rational-root search whose candidates are tested
on the integer polynomial, so only roots are deflated; whatever does not
split inside the working field is returned as a leftover factor rather
than approximated.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _gcd, lcm as _int_lcm

from .cyclotomic import CycNum, as_cyc, divisors

_ZERO = CycNum.zero()
_ONE = CycNum.one()


class _Span:
    """Row space kept fully reduced (RREF), each row stored sparse.

    ``rows`` holds (pivot column, tail) per stored row, in insertion order.
    The row is 1 at its pivot; the tail maps each other column where the
    row is nonzero to its value.  Reduction, pivot scaling and the
    back-reduction of stored rows walk only these nonzero entries, and a
    pivot entry cancels by dropping it, so no zero operand and no pivot 1
    is ever multiplied."""

    def __init__(self):
        self.rows: list[tuple[int, dict[int, CycNum]]] = []

    def insert(self, v) -> bool:
        """Insert a vector; return whether it was independent of the rows."""
        w = {j: x for j, x in enumerate(v) if x is not _ZERO and not x.is_zero()}
        for piv, tail in self.rows:
            f = w.pop(piv, None)
            if f is not None:
                _axpy(w, -f, tail.items())
        if not w:
            return False
        piv = min(w)
        lead = w.pop(piv)
        if not lead.is_one():
            inv = lead.inverse()
            w = {j: x * inv for j, x in w.items()}
        # keep the stored rows reduced against the new pivot
        for _, tail2 in self.rows:
            f = tail2.pop(piv, None)
            if f is not None:
                _axpy(tail2, -f, w.items())
        self.rows.append((piv, w))
        return True


def _axpy(w: dict, a: CycNum, u) -> None:
    """w += a * u in place, for a nonzero a and u given as (column, value)
    pairs of nonzero values; an entry that cancels is removed, so w keeps
    only nonzero values."""
    for j, x in u:
        x = a * x
        y = w.get(j)
        if y is None:
            w[j] = x
        else:
            y = y + x
            if y.is_zero():
                del w[j]
            else:
                w[j] = y


def left_null_space(rows) -> list[list[CycNum]]:
    """Basis of {x : x.A = 0} for the matrix A with the given rows.

    x.A = 0 says x lies in the kernel of the matrix whose rows are the
    columns of A, so the basis is read off the RREF of A's columns with no
    dependency tracking: the Gaussian-elimination kernel of Cohen, A Course
    in Computational Algebraic Number Theory, Alg. 2.3.1.  The pivots of
    that RREF are row indices of A; each other (free) index f gives one
    vector, 1 at f and -u[f] at the pivot of each reduced row u.  Each of
    these n - rank vectors is the only one nonzero at its f, so they are
    independent."""
    n = len(rows)
    span = _Span()
    for col in zip(*rows):
        span.insert(col)
    pivots = {piv for piv, _ in span.rows}
    out = []
    for f in range(n):
        if f in pivots:
            continue
        x = [_ZERO] * n
        x[f] = _ONE
        for piv, tail in span.rows:
            a = tail.get(f)
            if a is not None:
                x[piv] = -a
        out.append(x)
    return out


def deflate(coeffs, c: CycNum) -> tuple[list[CycNum], CycNum]:
    """Divide the polynomial with ascending coefficients `coeffs` by x - c
    by Horner's rule: the quotient's coefficients and the remainder, which
    is the value at c."""
    acc = _ZERO
    out = []
    for a in reversed(coeffs):
        acc = acc * c + a
        out.append(acc)
    rem = out.pop()
    return out[::-1], rem


def _root_candidates(coeffs):
    """0, then the roots +-d/q among d | den*c0 and q | den ascending (den
    the common denominator of the rational coefficients, c0 the constant
    term with its power of x divided out).  The polynomial's denominators
    are cleared once, to integers a_i, and a pair is yielded only when
    gcd(d, q) = 1, so each value is met once, in its reduced form, and
    sum a_i d^i q^(n-i) = 0: the rational-root test runs on integers
    (Cohen, A Course in Computational Algebraic Number Theory, Ch. 3), and
    only roots become CycNums.  The divisor search is skipped past
    |den*c0| > 10^9 or den > 10^6, so huge constant terms are never
    factored."""
    yield _ZERO
    if not all(c.is_rational() for c in coeffs):
        return
    den = _int_lcm(*(c.as_fraction().denominator for c in coeffs))
    low = next(i for i, c in enumerate(coeffs) if not c.is_zero())
    ints = [(c.as_fraction() * den).numerator for c in coeffs[low:]]
    c0 = abs(ints[0])
    if c0 > 10**9 or den > 10**6:
        return
    for d in divisors(c0):
        for q in divisors(den):
            if _gcd(d, q) != 1:
                continue
            for x in (d, -d):
                acc, xp = 0, 1  # sum a_i x^i q^(n-i), Horner on q
                for a in ints:
                    acc = acc * q + a * xp
                    xp *= x
                if acc == 0:
                    yield as_cyc(Fraction(x, q))


def split_roots(coeffs) -> tuple[list[tuple[CycNum, int]], list[CycNum]]:
    """Deflate the monic polynomial with ascending coefficients `coeffs` by
    its roots among _root_candidates: 0, then only the rational roots the
    integer test found, each deflated until it leaves the quotient.

    Returns (root, multiplicity) pairs in candidate order and the leftover
    factor's coefficients, which are a single constant exactly when the
    polynomial split completely."""
    rem = coeffs
    found: list[tuple[CycNum, int]] = []
    for cand in _root_candidates(coeffs):
        mult = 0
        while len(rem) > 1:
            quo, val = deflate(rem, cand)
            if not val.is_zero():
                break
            rem = quo
            mult += 1
        if mult:
            found.append((cand, mult))
        if len(rem) == 1:
            break
    return found, rem
