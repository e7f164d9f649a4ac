"""Dense exact linear algebra over cyclotomic-rational fields.

Matrices carry CycNum entries; vectors are plain lists.  Kernel, minimal
polynomial and eigen decomposition are all exact.  Eigen decomposition splits
the minimal polynomial only by trial roots drawn from the matrix entries
(plus a bounded rational-root search, shared with the Fourier projection in
split_roots); whatever does not split inside the working field is reported as
an unsplit factor rather than approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1].is_one()

    @staticmethod
    def one() -> "Poly":
        return Poly([_ONE])

    @staticmethod
    def from_roots(roots) -> "Poly":
        p = Poly.one()
        for r in roots:
            p = p * Poly([-as_cyc(r), _ONE])
        return p

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        inv = self.coeffs[-1].inverse()
        return Poly([c * inv for c in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            [
                (self.coeffs[i] if i < len(self.coeffs) else _ZERO)
                + (other.coeffs[i] if i < len(other.coeffs) else _ZERO)
                for i in range(n)
            ]
        )

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            other = Poly([other])
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

    __rmul__ = __mul__

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

    def __mod__(self, den):
        return self.divmod(den)[1]

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


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly([])
    g = poly_gcd(a, b)
    return ((a * b) // g).monic()


# -- vectors ----------------------------------------------------------------


def vec_is_zero(a) -> bool:
    return all(x.is_zero() for x in a)


class _Span:
    """Row space kept fully reduced (RREF); optionally tracks, for every
    stored row, its expression over the raw vectors inserted so far."""

    def __init__(self, track=False):
        self.rows: list[tuple[int, list[CycNum], list[CycNum] | None]] = []
        self.track = track
        self.count = 0  # raw vectors inserted so far

    def _reduce(self, v):
        w = list(v)
        combo = [_ZERO] * self.count + [_ONE] if self.track else None
        for piv, u, uc in self.rows:
            f = w[piv]
            if f.is_zero():
                continue
            for j, x in enumerate(u):
                if not x.is_zero():
                    w[j] = w[j] - f * x
            if self.track:
                for j, x in enumerate(uc):
                    if not x.is_zero():
                        combo[j] = combo[j] - f * x
        return w, combo

    def insert(self, v):
        """Insert a raw vector; return None if independent, else coefficients
        expressing it over the previously inserted raw vectors."""
        w, combo = self._reduce(v)
        piv = next((j for j, x in enumerate(w) if not x.is_zero()), None)
        if piv is None:
            self.count += 1
            if self.track:
                return [-c for c in combo[:-1]]
            return []
        inv = w[piv].inverse()
        w = [x * inv for x in w]
        if self.track:
            combo = [c * inv for c in combo]
        # keep stored rows reduced against the new pivot
        for idx, (p2, u2, uc2) in enumerate(self.rows):
            f = u2[piv]
            if f.is_zero():
                continue
            u2 = [x - f * y for x, y in zip(u2, w)]
            if self.track:
                uc2 = uc2 + [_ZERO] * (len(combo) - len(uc2))
                uc2 = [x - f * y for x, y in zip(uc2, combo)]
            self.rows[idx] = (p2, u2, uc2)
        self.rows.append((piv, w, combo))
        self.count += 1
        return None

    def contains(self, v) -> bool:
        w, _ = self._reduce(v)
        return vec_is_zero(w)

    @property
    def rank(self) -> int:
        return len(self.rows)


class CycMatrix:
    """Immutable dense matrix of CycNum entries, row-major.

    The nonzero pattern (per row, the (column, entry) pairs of the nonzero
    entries) is computed on first use and kept; products walk it.
    """

    __slots__ = ("rows", "cols", "data", "_nonzero")

    def __init__(self, rows_data):
        data = tuple(tuple(as_cyc(e) for e in row) for row in rows_data)
        if data and any(len(r) != len(data[0]) for r in data):
            raise ValueError("ragged rows")
        _fill(self, data)

    def __setattr__(self, *a):
        raise AttributeError("CycMatrix is immutable")

    @staticmethod
    def identity(n: int) -> "CycMatrix":
        return _matrix(
            [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(r: int, c: int) -> "CycMatrix":
        return _matrix([[_ZERO] * c for _ in range(r)])

    @staticmethod
    def diagonal(entries) -> "CycMatrix":
        es = [as_cyc(e) for e in entries]
        n = len(es)
        return _matrix(
            [[es[i] if i == j else _ZERO for j in range(n)] for i in range(n)]
        )

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def _nonzeros(self) -> tuple[tuple[tuple[int, CycNum], ...], ...]:
        nz = self._nonzero
        if nz is None:
            nz = tuple(tuple((j, a) for j, a in enumerate(row) if not a.is_zero())
                       for row in self.data)
            object.__setattr__(self, "_nonzero", nz)
        return nz

    def __eq__(self, other):
        # equal row tuples have equal shapes; zero cells are mostly the
        # shared _ZERO, which the tuple comparison settles by identity
        return isinstance(other, CycMatrix) and self.data == other.data

    def __add__(self, other):
        self._same_shape(other)
        return _matrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def __sub__(self, other):
        self._same_shape(other)
        return _matrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.data, other.data)
            ]
        )

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shape mismatch")

    def __mul__(self, scalar):
        s = as_cyc(scalar)
        if s is NotImplemented:
            return NotImplemented
        return _matrix([[a * s for a in row] for row in self.data])

    __rmul__ = __mul__

    def __matmul__(self, other: "CycMatrix") -> "CycMatrix":
        """The full dense product.  Each entry sums the nonzero terms in
        ascending inner index, as the schoolbook loop does; the first term
        is stored as is, which is the value _ZERO + term gives."""
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        brows = other._nonzeros()
        out = []
        for row in self._nonzeros():
            acc = [_ZERO] * other.cols
            for j, a in row:
                for l, b in brows[j]:
                    c = acc[l]
                    acc[l] = a * b if c is _ZERO else c + a * b
            out.append(acc)
        return _matrix(out)

    def mat_vec(self, v) -> list[CycNum]:
        if self.cols != len(v):
            raise ValueError("dimension mismatch")
        v = [as_cyc(x) for x in v]
        out = []
        for row in self._nonzeros():
            s = _ZERO
            for j, a in row:
                x = v[j]
                if not x.is_zero():
                    s = s + a * x
            out.append(s)
        return out

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

    def transpose(self) -> "CycMatrix":
        return _matrix(
            [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.data for e in row)

    def commutes_with(self, other: "CycMatrix") -> bool:
        return (self @ other) == (other @ self)

    def _require_square(self):
        if self.rows != self.cols:
            raise ValueError("square matrix required")

    def kernel(self) -> list[list[CycNum]]:
        """Exact basis of the right null space {v : A v = 0}."""
        rows = [list(r) for r in self.data]
        pivots: list[tuple[int, int]] = []  # (row, col)
        r = 0
        for c in range(self.cols):
            p = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
            if p is None:
                continue
            rows[r], rows[p] = rows[p], rows[r]
            inv = rows[r][c].inverse()
            rows[r] = [x * inv for x in rows[r]]
            prow = rows[r]
            for i in range(len(rows)):
                if i == r:
                    continue
                f = rows[i][c]
                if f.is_zero():
                    continue
                ri = rows[i]
                rows[i] = [x - f * y for x, y in zip(ri, prow)]
            pivots.append((r, c))
            r += 1
            if r == len(rows):
                break
        pivot_cols = {c for _, c in pivots}
        basis = []
        for f in range(self.cols):
            if f in pivot_cols:
                continue
            v = [_ZERO] * self.cols
            v[f] = _ONE
            for i, c in pivots:
                v[c] = -rows[i][f]
            basis.append(v)
        return basis

    def min_poly(self) -> Poly:
        """Monic minimal polynomial, exact."""
        self._require_square()
        n = self.rows
        if n == 0:
            return Poly.one()
        mp = Poly.one()
        seen = _Span()
        for s in range(n):
            if mp.degree == n:
                break
            e = [_ONE if i == s else _ZERO for i in range(n)]
            if seen.contains(e):
                continue
            local = _Span(track=True)
            v = e
            krylov = []
            while True:
                dep = local.insert(v)
                if dep is not None:
                    # v = sum dep[j] * A^j e  =>  annihilator x^d - sum dep[j] x^j
                    d = len(krylov)
                    coeffs = [-c for c in dep] + [_ONE]
                    mp = poly_lcm(mp, Poly(coeffs))
                    break
                krylov.append(v)
                v = self.mat_vec(v)
            for w in krylov:
                seen.insert(w)
        return mp

    def eigen(self) -> "EigenDecomposition":
        """Exact right eigen decomposition over the working field.

        Roots of the minimal polynomial are found by split_roots, with the
        matrix entries as extra candidates; any factor that does not split
        this way is reported in ``unsplit`` instead of being guessed.
        """
        self._require_square()
        p = self.min_poly()
        found, rem = split_roots(p, [e for row in self.data for e in row])
        pairs = []
        for lam, _ in found:
            # self - lam*I, leaving the off-diagonal entries as they are
            shifted = _matrix([[a - lam if i == j else a for j, a in enumerate(row)]
                               for i, row in enumerate(self.data)])
            space = shifted.kernel()
            assert space, "minimal polynomial root without eigenvector"
            pairs.append((lam, space))
        unsplit = rem if rem.degree >= 1 else None
        return EigenDecomposition(min_poly=p, pairs=pairs, unsplit=unsplit)

    def to_json(self):
        return [[e.to_json() for e in row] for row in self.data]

    @staticmethod
    def from_json(obj) -> "CycMatrix":
        return CycMatrix([[CycNum.from_json(e) for e in row] for row in obj])

    def __repr__(self):
        body = "\n".join("  [" + ", ".join(repr(e) for e in row) + "]" for row in self.data)
        return f"CycMatrix {self.rows}x{self.cols}\n{body}"


def _fill(m: CycMatrix, data: tuple) -> None:
    object.__setattr__(m, "rows", len(data))
    object.__setattr__(m, "cols", len(data[0]) if data else 0)
    object.__setattr__(m, "data", data)
    object.__setattr__(m, "_nonzero", None)


def _matrix(rows) -> CycMatrix:
    """A CycMatrix over rectangular rows that already hold CycNum entries,
    without the per-entry as_cyc pass of the constructor."""
    m = object.__new__(CycMatrix)
    _fill(m, tuple(map(tuple, rows)))
    return m


def _root_candidates(p: Poly, extra):
    """0, then ``extra``, then +-d/q for d | den*c0 and q | den ascending
    (den the common denominator of the rational polynomial p, c0 the
    constant term of p with its power of x divided out); duplicates are
    dropped and the divisor search is skipped past |den*c0| > 10^9 or
    den > 10^6, so huge constant terms are never factored."""
    seen: list[CycNum] = []

    def fresh(xs):
        for x in xs:
            x = as_cyc(x)
            if all(not (x == y) for y in seen):
                seen.append(x)
                yield x

    yield from fresh([_ZERO, *extra])
    if not all(c.is_rational() for c in p.coeffs):
        return
    den = _int_lcm(*(c.as_fraction().denominator for c in p.coeffs))
    low = next(c for c in p.coeffs if not c.is_zero())
    c0 = abs((low.as_fraction() * den).numerator)
    if c0 > 10**9 or den > 10**6:
        return
    yield from fresh(
        Fraction(s * d, q) for d in divisors(c0) for q in divisors(den)
        for s in (1, -1)
    )


def split_roots(p: Poly, extra=()) -> tuple[list[tuple[CycNum, int]], Poly]:
    """Divide the monic polynomial p by its roots among _root_candidates.

    Returns (root, multiplicity) pairs in candidate order and the leftover
    factor, which has degree < 1 exactly when p split completely."""
    rem = p
    found: list[tuple[CycNum, int]] = []
    for cand in _root_candidates(p, extra):
        if rem.degree < 1:
            break
        mult = 0
        while rem.degree >= 1 and rem(cand).is_zero():
            rem = rem // Poly([-cand, _ONE])
            mult += 1
        if mult:
            found.append((cand, mult))
    return found, rem


@dataclass
class EigenDecomposition:
    """Roots of the minimal polynomial found in the working field, with exact
    right-eigenspace bases; ``unsplit`` is the leftover factor (None if the
    minimal polynomial split completely)."""

    min_poly: Poly
    pairs: list[tuple[CycNum, list[list[CycNum]]]]
    unsplit: Poly | None

    def eigenvalues(self) -> list[CycNum]:
        return [lam for lam, _ in self.pairs]

