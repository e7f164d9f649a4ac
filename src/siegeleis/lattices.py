"""Binary quadratic lattice kernel: integral symmetric 2x2 Gram forms,
Gauss reduction to canonical class representatives, index-Q sublattice
enumeration, form scaling, and the finite-field isotropy classifier.

Gram convention: [[a, b], [b, c]] with integer b, form value a*x^2 + 2*b*x*y
+ c*y^2 (no half-integral convention).  Reduction works on positive
semi-definite forms only.  GL2(Z) classes are used for even weight; for odd
weight the class may split into two proper (SL2) classes, distinguished here
by keeping the b >= 0 twin as the labeled representative plus a +-1
orientation bit (+1 for every class that does not split).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import gcd
from typing import NamedTuple

from .cyclotomic import is_squarefree

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


def reduce_form(T: GramForm, group: str = GL2):
    """Canonical class representative of a positive semi-definite form.

    GL2 mode returns a GramForm with 0 <= 2b <= a <= c (positive definite
    case), [[m,0],[0,0]] with m the minimal represented value (rank 1), or
    the zero form.  SL2 mode returns (GramForm, orient) where the form is the
    same b >= 0 representative and orient = -1 marks the proper class of the
    b < 0 twin when the GL2 class splits.  Either result is hashable and
    serves as the class key.
    """
    if group not in (GL2, SL2):
        raise ValueError(f"unknown reduction group {group!r}")
    a, b, c = T
    if 0 <= 2 * b <= a <= c and a > 0:  # already reduced (det > 0 follows)
        return T if group == GL2 else (T, 1)
    det = a * c - b * b
    if a < 0 or c < 0 or det < 0:
        raise ValueError(f"{T} is indefinite or negative")
    if det:
        a, b, c = _proper_reduce(a, b, c)
        out, orient = GramForm(a, abs(b), c), (-1 if b < 0 else 1)
    else:  # rank 1, or the zero form with gcd(0, 0, 0) = 0
        out, orient = GramForm(gcd(a, b, c), 0, 0), 1
    if group == GL2:
        return out
    return out, orient


def key_representative(key, group: str = GL2) -> GramForm:
    """A Gram matrix representing the class behind a canonical key."""
    if group == GL2:
        return key
    form, orient = key
    return GramForm(form.a, -form.b, form.c) if orient < 0 else form


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


def sublattices(Q: int) -> list[SublatticeBasis]:
    """All index-Q sublattices of Z^2 (each contains Q*Z^2); for square-free
    Q the count is prod_{q | Q} (q + 1)."""
    if Q < 1 or not is_squarefree(Q):
        raise ValueError(f"index {Q} is not square-free")
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


def _reduced_triples(det_bound: int):
    """(det, a, b, c) for every GL2-reduced positive definite form with
    det <= det_bound, unordered."""
    a = 1
    while 3 * a * a <= 4 * det_bound:
        for b in range(a // 2 + 1):
            bb = b * b
            for c in range(max(a, bb // a + 1), (det_bound + bb) // a + 1):
                yield a * c - bb, a, b, c
        a += 1


def reduced_posdef_forms(det_bound: int):
    """All GL2-reduced positive definite forms with det <= det_bound,
    ordered by (det, a, b)."""
    return [GramForm(a, b, c) for _, a, b, c in sorted(_reduced_triples(det_bound))]


def class_counts(det_bound: int, group: str = GL2) -> Counter:
    """Number of positive definite class keys of each det <= det_bound."""
    counts = Counter()
    for det, a, b, c in _reduced_triples(det_bound):
        counts[det] += 2 if group == SL2 and 0 < 2 * b < a < c else 1
    return counts


@cache
def reduced_class_keys(det_bound: int, content_bound: int, group: str = GL2):
    """Canonical keys of every class in the standard sampling domain: the
    zero form, rank-1 forms with content <= content_bound, positive definite
    classes with det <= det_bound; ordered by (det, a, b[, orient]).  The
    tuple is memoized: it is the one copy of a domain's keys."""
    keys = [reduce_form(GramForm(m, 0, 0), group)  # m = 0: the zero form
            for m in range(content_bound + 1)]
    for f in reduced_posdef_forms(det_bound):
        if group == GL2:
            keys.append(f)
        else:
            keys.append((f, 1))
            if 0 < 2 * f.b < f.a < f.c:
                keys.append((f, -1))  # the class genuinely splits
    return tuple(keys)


def _unimodular_entries_bounded(bound: int):
    """All G in GL2(Z) with |entries| <= bound, by brute force."""
    out = []
    for g11 in range(-bound, bound + 1):
        for g12 in range(-bound, bound + 1):
            for g21 in range(-bound, bound + 1):
                for g22 in range(-bound, bound + 1):
                    if g11 * g22 - g12 * g21 in (1, -1):
                        out.append((g11, g12, g21, g22))
    return out


def transform(T: GramForm, G) -> GramForm:
    """G^t T G for a 2x2 integer matrix G given as (g11, g12, g21, g22)."""
    g11, g12, g21, g22 = G
    a = T.value(g11, g21)
    c = T.value(g12, g22)
    b = g11 * (T.a * g12 + T.b * g22) + g21 * (T.b * g12 + T.c * g22)
    return GramForm(a, b, c)
