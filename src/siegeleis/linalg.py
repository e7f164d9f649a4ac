"""Exact linear algebra over cyclotomic-rational fields.

Matrices are dense and carry CycNum entries; they hold output and test
oracles, while the Hecke tables keep their own sparse rows.  Row spaces are
kept in reduced row echelon form with each row stored sparse, as its
nonzero entries, so elimination touches nothing else; a tracked insertion
also reports each dependent row's expression over the rows before it.  The
left null space is read off the RREF of a matrix's columns, with no
tracking.  Polynomial roots are found only by trial candidates (0, then a
bounded rational-root search) in split_roots; whatever does not split
inside the working field is returned as a leftover factor rather than
approximated.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm as _int_lcm

from .cyclotomic import CycNum, as_cyc, divisors

_ZERO = CycNum.zero()
_ONE = CycNum.one()


class Poly:
    """Polynomial with CycNum coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [as_cyc(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @staticmethod
    def one() -> "Poly":
        return Poly([_ONE])

    @staticmethod
    def from_roots(roots) -> "Poly":
        p = Poly.one()
        for r in roots:
            p = p * Poly([-as_cyc(r), _ONE])
        return p

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly([])
        out = [_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if not b.is_zero():
                    out[i + j] = out[i + j] + a * b
        return Poly(out)

    def divmod(self, den: "Poly"):
        if den.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        r = list(self.coeffs)
        dd = den.degree
        lead_inv = den.coeffs[-1].inverse()
        q = [_ZERO] * max(len(r) - dd, 1)
        for i in range(len(r) - dd - 1, -1, -1):
            c = r[i + dd] * lead_inv
            if not c.is_zero():
                q[i] = c
                for j, d in enumerate(den.coeffs):
                    r[i + j] = r[i + j] - c * d
        return Poly(q), Poly(r)

    def __floordiv__(self, den):
        return self.divmod(den)[0]

    def __call__(self, x):
        x = as_cyc(x)
        val = _ZERO
        for c in reversed(self.coeffs):
            val = val * x + c
        return val

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c.is_zero():
                continue
            t = "1" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if i == 0:
                parts.append(f"{c!r}")
            elif c.is_one():
                parts.append(t)
            else:
                parts.append(f"({c!r})*{t}")
        return "Poly(" + " + ".join(parts) + ")"


class _Span:
    """Row space kept fully reduced (RREF), each row stored sparse.

    ``rows`` holds (pivot column, tail, combo) per stored row, in insertion
    order.  The row is 1 at its pivot; the tail maps each other column where
    the row is nonzero to its value.  With track=True, combo maps raw-vector
    index -> value over the nonzero coefficients of the row's expression in
    the raw vectors inserted so far; otherwise it is None.  Reduction, pivot
    scaling and the back-reduction of stored rows walk only these nonzero
    entries, and a pivot entry cancels by dropping it, so no zero operand
    and no pivot 1 is ever multiplied."""

    def __init__(self, track=False):
        self.rows: list[tuple[int, dict[int, CycNum],
                              dict[int, CycNum] | None]] = []
        self.track = track
        self.count = 0  # raw vectors inserted so far

    def insert(self, v):
        """Insert a raw vector; return None if independent, else coefficients
        expressing it over the previously inserted raw vectors."""
        track = self.track
        w = {j: x for j, x in enumerate(v) if x is not _ZERO and not x.is_zero()}
        combo = {self.count: _ONE} if track else None
        self.count += 1
        for piv, tail, uc in self.rows:
            f = w.pop(piv, None)
            if f is not None:
                f = -f
                _axpy(w, f, tail.items())
                if track:
                    _axpy(combo, f, uc.items())
        if not w:
            # combo is still 1 at this vector's own index, count - 1
            return [-combo[j] if j in combo else _ZERO
                    for j in range(self.count - 1)] if track else []
        piv = min(w)
        lead = w.pop(piv)
        if not lead.is_one():
            inv = lead.inverse()
            w = {j: x * inv for j, x in w.items()}
            if track:
                combo = {j: c * inv for j, c in combo.items()}
        # keep the stored rows reduced against the new pivot
        for _, tail2, uc2 in self.rows:
            f = tail2.pop(piv, None)
            if f is not None:
                f = -f
                _axpy(tail2, f, w.items())
                if track:
                    _axpy(uc2, f, combo.items())
        self.rows.append((piv, w, combo))
        return None


def _axpy(w: dict, a: CycNum, u) -> None:
    """w += a * u in place, for a nonzero a and u given as (column, value)
    pairs of nonzero values; a = 1 multiplies nothing, and an entry that
    cancels is removed, so w keeps only nonzero values."""
    one = a.is_one()
    for j, x in u:
        if not one:
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
    pivots = {piv for piv, _, _ in span.rows}
    out = []
    for f in range(n):
        if f in pivots:
            continue
        x = [_ZERO] * n
        x[f] = _ONE
        for piv, tail, _ in span.rows:
            a = tail.get(f)
            if a is not None:
                x[piv] = -a
        out.append(x)
    return out


class CycMatrix:
    """Immutable dense matrix of CycNum entries, row-major: the dense
    matrix of an operator word (hecke.word_matrix) and decoded CLI output."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_data):
        data = tuple(tuple(as_cyc(e) for e in row) for row in rows_data)
        if data and any(len(r) != len(data[0]) for r in data):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", len(data[0]) if data else 0)
        object.__setattr__(self, "data", data)

    def __setattr__(self, *a):
        raise AttributeError("CycMatrix is immutable")

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other):
        # equal row tuples have equal shapes; zero cells are mostly the
        # shared _ZERO, which the tuple comparison settles by identity
        return isinstance(other, CycMatrix) and self.data == other.data

    def vec_mat(self, v) -> list[CycNum]:
        if self.rows != len(v):
            raise ValueError("dimension mismatch")
        acc = [_ZERO] * self.cols
        for x, row in zip(v, self.data):
            x = as_cyc(x)
            if x.is_zero():
                continue
            for j, a in enumerate(row):
                if not a.is_zero():
                    acc[j] = acc[j] + x * a
        return acc

    def to_json(self):
        return [[e.to_json() for e in row] for row in self.data]

    @staticmethod
    def from_json(obj) -> "CycMatrix":
        return CycMatrix([[CycNum.from_json(e) for e in row] for row in obj])

    def __repr__(self):
        body = "\n".join("  [" + ", ".join(repr(e) for e in row) + "]" for row in self.data)
        return f"CycMatrix {self.rows}x{self.cols}\n{body}"


def _root_candidates(p: Poly):
    """0, then +-d/q for d | den*c0 and q | den ascending (den the common
    denominator of the rational polynomial p, c0 the constant term of p
    with its power of x divided out); duplicates are dropped and the
    divisor search is skipped past |den*c0| > 10^9 or den > 10^6, so huge
    constant terms are never factored."""
    yield _ZERO
    if not all(c.is_rational() for c in p.coeffs):
        return
    den = _int_lcm(*(c.as_fraction().denominator for c in p.coeffs))
    low = next(c for c in p.coeffs if not c.is_zero())
    c0 = abs((low.as_fraction() * den).numerator)
    if c0 > 10**9 or den > 10**6:
        return
    seen: set[Fraction] = set()
    for d in divisors(c0):
        for q in divisors(den):
            for s in (1, -1):
                x = Fraction(s * d, q)
                if x not in seen:
                    seen.add(x)
                    yield as_cyc(x)


def split_roots(p: Poly) -> tuple[list[tuple[CycNum, int]], Poly]:
    """Divide the monic polynomial p by its roots among _root_candidates.

    Returns (root, multiplicity) pairs in candidate order and the leftover
    factor, which has degree < 1 exactly when p split completely."""
    rem = p
    found: list[tuple[CycNum, int]] = []
    for cand in _root_candidates(p):
        if rem.degree < 1:
            break
        mult = 0
        while rem.degree >= 1 and rem(cand).is_zero():
            rem = rem // Poly([-cand, _ONE])
            mult += 1
        if mult:
            found.append((cand, mult))
    return found, rem
