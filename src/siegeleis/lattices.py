"""Binary quadratic lattice kernel: integral symmetric 2x2 Gram forms,
Gauss reduction to canonical class representatives, the reduced forms of
bounded det (listed, or only counted, from one set of (a, b) rows),
index-Q sublattice enumeration, form scaling, and the finite-field
isotropy classifier.

Gram convention: [[a, b], [b, c]] with integer b, form value a*x^2 + 2*b*x*y
+ c*y^2 (no half-integral convention).  Reduction works on positive
semi-definite forms only.  GL2(Z) classes are used for even weight; for odd
weight a class may split into two proper (SL2) classes.  Either way the class
key is one GramForm, the reduced form of its group: the GL2 key has b >= 0,
and the SL2 key is the proper reduced form, so the twin of a class that
splits is keyed (a, -b, c).

`_reduced_rows` owns the bounds of the reduced forms of det <= D: one row
(a, b, c_hi) per (a, b), with c running over [a, c_hi].
`_reduced_triples` walks the rows, and `reduced_class_count` only sums
their lengths (plus the SL2 twins), in O(D) arithmetic and no form built:
the count is how `fourier.provider_parse` checks that a table is complete
up to a det.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd, prod
from typing import NamedTuple

from .cyclotomic import is_squarefree, prime_factors

GL2 = "GL2"
SL2 = "SL2"


class GramForm(NamedTuple):
    a: int
    b: int
    c: int

    @property
    def det(self) -> int:
        return self.a * self.c - self.b * self.b

    def rank(self) -> int:
        return 2 if self.det != 0 else (1 if any(self) else 0)

    def value(self, x: int, y: int) -> int:
        return self.a * x * x + 2 * self.b * x * y + self.c * y * y

    def to_json(self):
        return {"a": self.a, "b": self.b, "c": self.c}

    @staticmethod
    def from_json(obj) -> "GramForm":
        return GramForm(int(obj["a"]), int(obj["b"]), int(obj["c"]))

    def __repr__(self):
        return f"[{self.a},{self.b};{self.c}]"


ZERO_FORM = GramForm(0, 0, 0)


def _proper_reduce(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Gauss reduction of a positive definite form to the unique proper
    (SL2) representative: -a < 2b <= a <= c, b >= 0 if 2b = a or a = c."""
    while True:
        if not (-a < 2 * b <= a):
            k = (2 * b + a - 1) // (2 * a)  # lands 2b in (-a, a]
            c = c - 2 * k * b + k * k * a
            b = b - k * a
        elif a > c:
            a, b, c = c, -b, a
        elif a == c and b < 0:
            b = -b  # swap [[0,-1],[1,0]] fixes {a=c} classes up to sign
        else:
            return a, b, c


def reduce_form(T: GramForm, group: str = GL2) -> GramForm:
    """Canonical class representative of a positive semi-definite form, and
    the key of its class.

    A positive definite form reduces to 0 <= 2b <= a <= c in GL2 mode, and
    to the proper reduced form (-a < 2b <= a <= c, b >= 0 if 2b = a or
    a = c) in SL2 mode; the two differ only in the sign of b.  A rank-1 form
    reduces to [[m,0],[0,0]] with m the minimal represented value, and the
    zero form to itself.
    """
    if group not in (GL2, SL2):
        raise ValueError(f"unknown reduction group {group!r}")
    a, b, c = T
    if 0 <= 2 * b <= a <= c and a > 0:  # already reduced (det > 0 follows)
        return T
    det = a * c - b * b
    if a < 0 or c < 0 or det < 0:
        raise ValueError(f"{T} is indefinite or negative")
    if det:
        a, b, c = _proper_reduce(a, b, c)
        return GramForm(a, abs(b) if group == GL2 else b, c)
    return GramForm(gcd(a, b, c), 0, 0)  # gcd(0, 0, 0) = 0: the zero form


@dataclass(frozen=True)
class SublatticeBasis:
    """Row basis of a finite-index sublattice of Z^2, in Hermite normal form
    [[d1, x], [0, d2]]."""

    d1: int
    x: int
    d2: int

    @property
    def rows(self):
        return ((self.d1, self.x), (0, self.d2))

    def __repr__(self):
        return f"[[{self.d1},{self.x}],[0,{self.d2}]]"


# the most index-Q sublattices that `sublattices` lists; U(Q,P) sums over
# every one of them for each class, so a larger count is refused up front
MAX_SUBLATTICES = 10**4


def sublattices(Q: int) -> list[SublatticeBasis]:
    """All index-Q sublattices of Z^2 (each contains Q*Z^2); for square-free
    Q the count is prod_{q | Q} (q + 1).  A count above MAX_SUBLATTICES
    raises ValueError before any is listed."""
    if Q < 1 or not is_squarefree(Q):
        raise ValueError(f"index {Q} is not square-free")
    count = prod(q + 1 for q in prime_factors(Q))
    if count > MAX_SUBLATTICES:
        raise ValueError(f"index {Q} has {count} sublattices, more than the "
                         f"{MAX_SUBLATTICES} allowed")
    out = []
    for d1 in sorted(d for d in range(1, Q + 1) if Q % d == 0):
        d2 = Q // d1
        for x in range(d2):
            out.append(SublatticeBasis(d1, x, d2))
    return out


def restrict_and_scale(T: GramForm, H: SublatticeBasis, P: int) -> GramForm:
    """Gram matrix P * (H T H^t) of the form restricted to the sublattice
    and scaled by P (not reduced)."""
    (d1, x), (_, d2) = H.rows
    a, b, c = T
    return GramForm(P * (a * d1 * d1 + 2 * b * d1 * x + c * x * x),
                    P * d2 * (b * d1 + c * x), P * c * d2 * d2)


HYPERBOLIC = "hyperbolic"
ANISOTROPIC = "anisotropic"
RANK_DEFICIENT = "rank_deficient"
I_TYPE = "I_type"
SPLIT_TYPE = "split_type"


@dataclass(frozen=True)
class IsotropyReport:
    count: int
    kind: str


def isotropic_lines(T: GramForm, p: int) -> IsotropyReport:
    """Count the isotropic lines of T on F_p^2 by direct enumeration of the
    p+1 lines, and classify the plane: for odd p an invertible form is a
    hyperbolic plane (2 isotropic lines) or anisotropic (none); for p = 2 it
    is the I type (1 line) or the split form [[0,1],[1,0]] (all 3 lines)."""
    count = 0
    for t in range(p):
        if T.value(1, t) % p == 0:
            count += 1
    if T.value(0, 1) % p == 0:
        count += 1
    if T.det % p == 0:
        return IsotropyReport(count, RANK_DEFICIENT)
    if p == 2:
        kind = SPLIT_TYPE if count == 3 else I_TYPE
        assert count in (1, 3)
    else:
        kind = HYPERBOLIC if count == 2 else ANISOTROPIC
        assert count in (0, 2)
    return IsotropyReport(count, kind)


def _reduced_rows(det_bound: int):
    """(a, b, c_hi) for every (a, b) with a GL2-reduced positive definite
    form (a, b, c) of det <= det_bound: the forms of the row are those with
    a <= c <= c_hi, and each row yielded is non-empty.  This is the one
    statement of the reduced-form bounds: 0 <= 2b <= a <= c, so 3a^2 <=
    4 det, and c >= a already makes det >= 3a^2/4 > 0."""
    a = 1
    while 3 * a * a <= 4 * det_bound:
        for b in range(a // 2 + 1):
            c_hi = (det_bound + b * b) // a
            if c_hi >= a:
                yield a, b, c_hi
        a += 1


def _reduced_triples(det_bound: int):
    """(det, a, b, c) for every GL2-reduced positive definite form with
    det <= det_bound, unordered."""
    for a, b, c_hi in _reduced_rows(det_bound):
        bb = b * b
        for c in range(a, c_hi + 1):
            yield a * c - bb, a, b, c


def reduced_class_count(det_bound: int, group: str = GL2) -> int:
    """The number of positive definite classes of det <= det_bound in the
    group, without listing one: the row lengths of `_reduced_rows`, and in
    SL2 the twins (a, -b, c) with c > a of each row with 0 < 2b < a.  The
    rows number about det_bound / 3, so this is O(det_bound) arithmetic."""
    n = 0
    for a, b, c_hi in _reduced_rows(det_bound):
        n += c_hi - a + 1
        if group == SL2 and 0 < 2 * b < a:
            n += c_hi - a  # the class splits unless c = a
    return n


def reduced_posdef_forms(det_bound: int):
    """All GL2-reduced positive definite forms with det <= det_bound,
    ordered by (det, a, b)."""
    return [GramForm(a, b, c) for _, a, b, c in sorted(_reduced_triples(det_bound))]


@cache
def reduced_class_keys(det_bound: int, content_bound: int, group: str = GL2):
    """Canonical keys of every class in the standard sampling domain: the
    zero form, rank-1 forms with content <= content_bound, positive definite
    classes with det <= det_bound; ordered by (det, a, b), an SL2 twin
    (a, -b, c) right after (a, b, c).  The tuple is memoized: it is the one
    copy of a domain's keys."""
    keys = [GramForm(m, 0, 0) for m in range(content_bound + 1)]
    for f in reduced_posdef_forms(det_bound):
        keys.append(f)
        if group == SL2 and 0 < 2 * f.b < f.a < f.c:
            keys.append(GramForm(f.a, -f.b, f.c))  # the class splits
    return tuple(keys)


def _unimodular_entries_bounded(bound: int):
    """All G in GL2(Z) with |entries| <= bound, as (g11, g12, g21, g22) in
    lexicographic order.  Each (g11, g12, g21) fixes the g22 that make
    g11 g22 - g12 g21 = +-1: for g11 != 0 the integral (g12 g21 +- 1) / g11,
    and for g11 = 0 every g22 once g12 g21 = +-1."""
    span = range(-bound, bound + 1)
    out = []
    for g11 in span:
        # the signs s in the order of the quotients (g12 g21 + s) / g11
        signs = (-1, 1) if g11 > 0 else (1, -1)
        for g12 in span:
            for g21 in span:
                m = g12 * g21
                if g11 == 0:
                    if m in (1, -1):
                        out.extend((0, g12, g21, g22) for g22 in span)
                    continue
                for s in signs:
                    g22, r = divmod(m + s, g11)
                    if r == 0 and -bound <= g22 <= bound:
                        out.append((g11, g12, g21, g22))
    return out


def transform(T: GramForm, G) -> GramForm:
    """G^t T G for a 2x2 integer matrix G given as (g11, g12, g21, g22)."""
    g11, g12, g21, g22 = G
    a = T.value(g11, g21)
    c = T.value(g12, g22)
    b = g11 * (T.a * g12 + T.b * g22) + g21 * (T.b * g12 + T.c * g22)
    return GramForm(a, b, c)
