"""Formal Fourier expansions as class functions on reduced Gram forms, the
sublattice-sum Hecke action, provider-file ingestion, and the exact Krylov
spectral projection that splits an ingested level-1 expansion into the
eigencomponents attached to the level-N basis partitions.

An expansion stores a total coefficient table on a bounded domain: the zero
form, rank-1 classes [[m,0],[0,0]] with m <= content_bound, and positive
definite classes with det <= det_bound.  Lookups outside the bounds raise
CoverageError ("unknown"), missing keys inside the bounds are rejected at
construction time.

The sublattice-sum operator U(Q,P) maps the coefficient at a class T to the
sum of the coefficients at P * (H T H^t) over the index-Q sublattices H, so
determinant coverage shrinks by Q^2 P^2 and rank-1 content coverage by Q^2 P
per application.  U(Q,P) is implemented verbatim as its own normalization of
the Hecke algebra; its exact relation to the T(p), T1(p^2) tables is measured
by calibrate_normalization, never hard-coded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .cyclotomic import CycNum, as_cyc, is_squarefree
from .eisspace import Partition, enumerate_partitions, prime_factors
from .hecke import HeckeOp, SpaceOperators, eigenvalue_closed_form
from .lattices import (
    GL2,
    SL2,
    GramForm,
    ZERO_FORM,
    class_counts,
    key_representative,
    reduce_form,
    reduced_class_keys,
    restrict_and_scale,
    sublattices,
)
from .linalg import _Span, Poly, split_roots

_ZERO = CycNum.zero()
_ONE = CycNum.one()


class CoverageError(ValueError):
    """A lookup or operation needs coefficients beyond the stored bounds."""

    def __init__(self, message, missing_det=None):
        super().__init__(message)
        self.missing_det = missing_det


class LabelingError(ValueError):
    """Joint eigenvalue data does not determine the partition labels."""


def _key_form(key, mode: str) -> GramForm:
    """The reduced form of a class key (an SL2 key also holds the
    orientation bit)."""
    return key if mode == GL2 else key[0]


@dataclass(frozen=True)
class UOperator:
    """Sublattice-sum operator: coefficient at T of f|U(Q,P) is the sum of
    f over the index-Q sublattices with the form scaled by P."""

    Q: int
    P: int

    def __post_init__(self):
        if self.Q < 1 or self.P < 1 or not is_squarefree(self.Q * self.P):
            raise ValueError(f"U({self.Q},{self.P}) needs square-free Q*P")

    @property
    def det_factor(self) -> int:
        return (self.Q * self.P) ** 2

    @property
    def content_factor(self) -> int:
        return self.Q * self.Q * self.P

    def spec_string(self) -> str:
        return f"U:{self.Q},{self.P}"

    def __str__(self):
        return self.spec_string()


class FourierExpansion:
    """Class function on reduced Gram classes, total on a bounded domain.
    validate=False trusts the caller for CycNum values on the whole domain;
    `keys` is that domain in `reduced_class_keys` order, if already known."""

    def __init__(self, mode: str, det_bound: int, content_bound: int,
                 coeffs: dict, validate: bool = True, keys: list = None):
        if mode not in (GL2, SL2):
            raise ValueError(f"unknown group mode {mode!r}")
        if det_bound < 0 or content_bound < 0:
            raise ValueError("bounds must be nonnegative")
        self.mode = mode
        self.det_bound = det_bound
        self.content_bound = content_bound
        self.coeffs = coeffs
        self._keys = keys
        if validate:
            self.coeffs = {k: as_cyc(v) for k, v in coeffs.items()}
            for key in self.domain_keys():
                if key not in self.coeffs:
                    raise ValueError(f"missing coefficient for {key} within bounds")

    def domain_keys(self) -> list:
        if self._keys is None:
            self._keys = reduced_class_keys(self.det_bound, self.content_bound,
                                            self.mode)
        return self._keys

    def value_of_key(self, key) -> CycNum:
        a, b, c = _key_form(key, self.mode)  # c = 0: the zero form or rank 1
        if c == 0 and a > self.content_bound:
            raise CoverageError(
                f"rank-1 content {a} exceeds coverage {self.content_bound}"
            )
        if a * c - b * b > self.det_bound:
            raise CoverageError(
                f"determinant {a * c - b * b} exceeds coverage {self.det_bound}",
                missing_det=a * c - b * b,
            )
        return self.coeffs[key]

    def value(self, T: GramForm) -> CycNum:
        return self.value_of_key(reduce_form(T, self.mode))

    def scale(self, s) -> "FourierExpansion":
        s = as_cyc(s)
        return FourierExpansion(
            self.mode, self.det_bound, self.content_bound,
            {k: v * s for k, v in self.coeffs.items()}, validate=False,
        )

    def sample_vector(self, det_bound: int, content_bound: int) -> list[CycNum]:
        if det_bound > self.det_bound or content_bound > self.content_bound:
            raise CoverageError(
                f"sample domain (det<={det_bound}, content<={content_bound}) "
                f"exceeds coverage (det<={self.det_bound}, content<={self.content_bound})",
                missing_det=det_bound if det_bound > self.det_bound else None,
            )
        keys = reduced_class_keys(det_bound, content_bound, self.mode)
        return [self.coeffs[k] for k in keys]

    def agrees_with(self, other: "FourierExpansion") -> bool:
        mine, theirs = self.coeffs, other.coeffs
        return all(mine[key] == theirs[key]
                   for key in _common_domain([self, other])[2])

    def to_json(self):
        out = []
        for key in self.domain_keys():
            form = _key_form(key, self.mode)
            entry = {"form": form.to_json(), "value": self.coeffs[key].to_json()}
            if self.mode == SL2:
                entry["orient"] = key[1]
            out.append(entry)
        return {
            "group": self.mode,
            "det_bound": self.det_bound,
            "content_bound": self.content_bound,
            "coeffs": out,
        }


def _common_domain(expansions) -> tuple:
    """(det bound, content bound, keys) of the largest domain that all the
    expansions cover; one that covers exactly that domain lends its keys."""
    db = min(f.det_bound for f in expansions)
    cb = min(f.content_bound for f in expansions)
    same = [f for f in expansions if (f.det_bound, f.content_bound) == (db, cb)]
    return db, cb, (same[0].domain_keys() if same else
                    reduced_class_keys(db, cb, expansions[0].mode))


def expansion_from_function(mode: str, fn, det_bound: int, content_bound: int
                            ) -> FourierExpansion:
    keys = reduced_class_keys(det_bound, content_bound, mode)
    return FourierExpansion(
        mode, det_bound, content_bound, {k: as_cyc(fn(k)) for k in keys},
        validate=False, keys=keys,
    )


def constant_expansion(value, det_bound: int, content_bound: int,
                       mode: str = GL2) -> FourierExpansion:
    return expansion_from_function(mode, lambda k: value, det_bound, content_bound)


def combine(terms) -> FourierExpansion:
    """Exact linear combination sum(c_i * f_i) on the common domain."""
    terms = [(as_cyc(c), f) for c, f in terms]
    if not terms:
        raise ValueError("empty combination")
    mode = terms[0][1].mode
    if any(f.mode != mode for _, f in terms):
        raise ValueError("mixed group modes")
    db, cb, keys = _common_domain([f for _, f in terms])
    coeffs = {}
    for key in keys:
        total = _ZERO
        for c, f in terms:
            total = total + c * f.coeffs[key]
        coeffs[key] = total
    return FourierExpansion(mode, db, cb, coeffs, validate=False, keys=keys)


def apply_U(f: FourierExpansion, u: UOperator) -> FourierExpansion:
    """Sublattice-sum action; output coverage shrinks by the operator's
    determinant and content factors."""
    db = f.det_bound // u.det_factor
    cb = f.content_bound // u.content_factor
    subs = sublattices(u.Q)
    keys = reduced_class_keys(db, cb, f.mode)
    coeffs = {}
    for key in keys:
        T = key_representative(key, f.mode)
        total = _ZERO
        for H in subs:
            total = total + f.value(restrict_and_scale(T, H, u.P))
        coeffs[key] = total
    return FourierExpansion(f.mode, db, cb, coeffs, validate=False, keys=keys)


# -- provider files -----------------------------------------------------------


@dataclass
class CoefficientProvider:
    """Externally derived level-1 coefficient table."""

    source: str
    weight: int
    level: int
    expansion: FourierExpansion


def provider_parse(lines, source: str = "<memory>") -> CoefficientProvider:
    weight = None
    level = None
    mode = GL2
    table: dict = {}
    values: dict = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("!"):
            toks = line[1:].split()
            if (len(toks) != 6 or toks[0] != "weight" or toks[2] != "level"
                    or toks[4] != "group"):
                raise ValueError(
                    f"{source}:{lineno}: bad header; want "
                    f"'!weight k level 1 group GL2|SL2'"
                )
            try:
                weight, level = int(toks[1]), int(toks[3])
            except ValueError:
                raise ValueError(f"{source}:{lineno}: bad number in {line!r}") from None
            mode = toks[5]
            if mode not in (GL2, SL2):
                raise ValueError(f"{source}:{lineno}: unknown group {mode!r}")
            continue
        toks = line.split()
        if len(toks) not in (4, 5):
            raise ValueError(f"{source}:{lineno}: malformed line {line!r}")
        try:
            a, b, c = int(toks[0]), int(toks[1]), int(toks[2])
            val = values.get(toks[3])
            if val is None:
                try:  # int reads a subset of what Fraction reads, without a regex
                    val = as_cyc(int(toks[3]))
                except ValueError:
                    val = as_cyc(Fraction(toks[3]))
                values[toks[3]] = val
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{source}:{lineno}: bad number in {line!r}") from None
        orient = toks[4] if len(toks) == 5 else "1"
        if orient not in ("1", "-1"):
            raise ValueError(f"{source}:{lineno}: bad orientation {orient!r} "
                             f"in {line!r}; want 1 or -1")
        # an SL2 line names the class of the b < 0 twin by orient -1
        neg = mode == SL2 and orient == "-1"
        try:
            key = reduce_form(GramForm(a, -b if neg else b, c), mode)
        except ValueError:
            raise ValueError(f"{source}:{lineno}: form {GramForm(a, b, c)} "
                             f"is not psd") from None
        old = table.setdefault(key, val)
        if old is not val and not (old == val):
            raise ValueError(
                f"{source}:{lineno}: inconsistent duplicate for class {key}"
            )
    if weight is None:
        raise ValueError(f"{source}: missing '!weight ...' header line")
    zero_key = reduce_form(ZERO_FORM, mode)
    if zero_key not in table:
        raise ValueError(f"{source}: zero-form coefficient missing")

    # content bound: longest full prefix of rank-1 classes
    cb = 0
    while reduce_form(GramForm(cb + 1, 0, 0), mode) in table:
        cb += 1
    # det bound: largest D with every reduced positive definite class
    # covered.  [[1,0],[0,d]] is a reduced class of det d, so D is at most
    # the number of positive definite classes in the table, and the walk
    # stops there however large a det the file names.  A reduced key has
    # c = 0 exactly when it is the zero form or of rank 1, and a det is
    # covered when the table holds as many of its keys as there are.
    have = Counter(a * c - b * b for a, b, c in
                   (_key_form(k, mode) for k in table) if c)
    walk = min(max(have, default=0), sum(have.values()))
    full = class_counts(walk, mode)  # table keys are canonical: a subset
    db = next((d - 1 for d in range(1, walk + 1) if have[d] != full[d]), walk)
    exp = FourierExpansion(mode, db, cb, table, validate=False)
    return CoefficientProvider(source, weight, level, exp)


def provider_load(path) -> CoefficientProvider:
    with open(path, "r", encoding="utf-8") as fh:
        return provider_parse(fh, source=str(path))


# -- Krylov spectral projection ------------------------------------------------


@dataclass
class SpectralComponent:
    eigenvalues: dict[UOperator, CycNum]
    expansion: FourierExpansion


def _split_by(g: FourierExpansion, u: UOperator, sample_bound: int
              ) -> list[tuple[CycNum, FourierExpansion]]:
    """Split g into exact eigencomponents of u via a sampled Krylov space.

    The minimal monic relation among g, g|u, g|u^2, ... is detected on the
    sample domain (rank stabilization = first repeated rank); Lagrange
    projectors then rebuild the components on the largest common domain, and
    each component is re-checked to be an exact eigenvector on its full
    remaining coverage.  Insufficient coverage raises CoverageError; a
    relation that split_roots cannot split into distinct roots raises
    LabelingError."""
    krylov = [g]
    span = _Span(track=True)
    span.insert(g.sample_vector(sample_bound, sample_bound))
    rel = None
    while rel is None:
        try:
            nxt = apply_U(krylov[-1], u)
            sample = nxt.sample_vector(sample_bound, sample_bound)
        except CoverageError as exc:
            raise CoverageError(
                f"Krylov rank not stabilized for {u} within coverage; raise "
                f"determinant coverage (depth {len(krylov)}): {exc}",
                missing_det=exc.missing_det,
            ) from exc
        dep = span.insert(sample)
        if dep is None:
            krylov.append(nxt)
        else:
            rel = dep
    minpoly = Poly([-c for c in rel] + [_ONE])
    found, rem = split_roots(minpoly)
    for lam, mult in found:
        if mult > 1:
            raise LabelingError(
                f"minimal polynomial has the repeated root {lam!r}; "
                f"components are not separable"
            )
    if rem.degree >= 1:
        raise LabelingError(
            f"minimal polynomial factor {rem!r} does not split over the "
            f"working field"
        )
    roots = [lam for lam, _ in found]
    out = []
    for lam in roots:
        numer = Poly.from_roots([r for r in roots if not (r == lam)])
        denom = numer(lam)
        coeffs = [c / denom for c in numer.coeffs]
        comp = combine(list(zip(coeffs, krylov)))
        image = apply_U(comp, u)
        if not image.agrees_with(comp.scale(lam)):
            raise CoverageError(
                f"component validation failed for {u}; the sample domain "
                f"(<= {sample_bound}) is too small, raise coverage"
            )
        out.append((lam, comp))
    return out


def krylov_spectral(f: FourierExpansion, ops, sample_bound: int
                    ) -> list[SpectralComponent]:
    """Joint exact spectral decomposition of f under commuting U operators.

    Components always sum to f coefficientwise on the common domain; the
    caller is responsible for interpreting the eigenvalue tags."""
    ops = list(ops)
    _check_commuting(f, ops)
    comps = [SpectralComponent({}, f)]
    for u in ops:
        nxt = []
        for comp in comps:
            for lam, piece in _split_by(comp.expansion, u, sample_bound):
                tags = dict(comp.eigenvalues)
                tags[u] = lam
                nxt.append(SpectralComponent(tags, piece))
        comps = nxt
    total = combine([(_ONE, c.expansion) for c in comps])
    if not total.agrees_with(f):
        raise AssertionError("spectral components do not sum to the input")
    return comps


def _check_commuting(f: FourierExpansion, ops) -> None:
    for i, u in enumerate(ops):
        for v in ops[i + 1 :]:
            a = apply_U(apply_U(f, u), v)
            b = apply_U(apply_U(f, v), u)
            if not a.agrees_with(b):
                raise ValueError(f"sampled operators {u} and {v} do not commute")


# -- the level-N projection pipeline -------------------------------------------


def _rank_labels(comps: list[SpectralComponent], u: UOperator) -> dict[int, int]:
    """Map component index -> rank 0/1/2 by ascending eigenvalue of u."""
    vals = []
    for c in comps:
        lam = c.eigenvalues[u]
        if not lam.is_rational():
            raise LabelingError(
                f"eigenvalue {lam!r} of {u} is not rational; cannot order ranks"
            )
        vals.append(lam.as_fraction())
    distinct = sorted(set(vals))
    if len(distinct) != 3:
        raise LabelingError(
            f"expected 3 distinct eigenvalues of {u}, measured {len(distinct)}"
        )
    order = {v: i for i, v in enumerate(distinct)}
    return {i: order[v] for i, v in enumerate(vals)}


def project_components(provider: CoefficientProvider, N: int, k: int,
                       sample_bound: int = 2) -> list[tuple[Partition, SpectralComponent]]:
    """Split the ingested level-1 expansion into the 3^omega(N) joint
    eigencomponents and label each by its partition.

    Labels come from three independent signals that must agree: the unique
    component with nonzero zero-form coefficient is the corner (N,1,1); per
    prime, the eigenvalues of U(1,q) sorted ascending give the rank of q; and
    the U(q,1) eigenvalues must induce the same rank order.  Disagreement or
    ambiguity raises LabelingError rather than guessing."""
    if provider.weight != k:
        raise ValueError(
            f"provider weight {provider.weight} does not match k={k}"
        )
    if provider.level != 1:
        raise ValueError("the projection pipeline ingests level-1 tables")
    if N < 1 or not is_squarefree(N):
        raise ValueError(f"level {N} is not square-free")
    primes = prime_factors(N)
    ops: list[UOperator] = []
    for q in primes:
        ops.append(UOperator(1, q))
        ops.append(UOperator(q, 1))
    comps = krylov_spectral(provider.expansion, ops, sample_bound)
    expected = 3 ** len(primes)
    if len(comps) != expected:
        raise LabelingError(
            f"expected {expected} joint components for N={N}, got {len(comps)}"
        )
    # corner detection by the zero-form coefficient
    zk = reduce_form(ZERO_FORM, provider.expansion.mode)
    nonzero = [i for i, c in enumerate(comps) if not c.expansion.coeffs[zk].is_zero()]
    if len(nonzero) != 1:
        raise LabelingError(
            f"expected exactly one component with nonzero zero-form "
            f"coefficient, found {len(nonzero)}"
        )
    corner = nonzero[0]
    ranks: dict[int, dict[int, int]] = {}
    for q in primes:
        by_scaling = _rank_labels(comps, UOperator(1, q))
        by_sums = _rank_labels(comps, UOperator(q, 1))
        if by_scaling != by_sums:
            raise LabelingError(
                f"rank orders from U(1,{q}) and U({q},1) disagree"
            )
        if by_scaling[corner] != 0:
            raise LabelingError(
                f"corner component is not rank 0 at q={q}"
            )
        ranks[q] = by_scaling
    out = []
    seen = set()
    for i, comp in enumerate(comps):
        parts = [1, 1, 1]
        for q in primes:
            parts[ranks[q][i]] *= q
        rho = Partition(*parts)
        if rho in seen:
            raise LabelingError(f"two components labeled {rho}")
        seen.add(rho)
        out.append((rho, comp))
    out.sort(key=lambda t: t[0].sort_key())
    return out


def _fit_relation(measured: list[CycNum], closed: list[CycNum]) -> dict:
    """Describe measured = alpha*closed (+ beta) over the rationals if such a
    relation exists; descriptive only."""
    pairs = list(zip(measured, closed))
    for mu, lam in pairs:
        if not lam.is_zero():
            alpha = mu / lam
            if all(m == alpha * l for m, l in pairs):
                return {"type": "scalar", "factor": alpha.to_json()}
            break
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            dl = pairs[i][1] - pairs[j][1]
            if dl.is_zero():
                continue
            alpha = (pairs[i][0] - pairs[j][0]) / dl
            beta = pairs[i][0] - alpha * pairs[i][1]
            if all(m == alpha * l + beta for m, l in pairs):
                return {
                    "type": "affine",
                    "factor": alpha.to_json(),
                    "offset": beta.to_json(),
                }
    return {"type": "none"}


def calibrate_normalization(provider: CoefficientProvider, N: int, k: int,
                            sample_bound: int = 2) -> dict:
    """Measured U eigenvalues per partition next to the closed-form tables,
    with the fitted rational relation when one exists.  The report documents
    the normalization empirically; nothing here is asserted."""
    labeled = project_components(provider, N, k, sample_bound)
    space = enumerate_partitions(N, None, k, forced=(k % 2 == 1))
    ops = SpaceOperators(space)
    report = {
        "level": N,
        "weight": k,
        "sample_bound": sample_bound,
        "primes": {},
    }
    for q in prime_factors(N):
        entry = {}
        for u, hop in ((UOperator(1, q), HeckeOp("T", q)),
                       (UOperator(q, 1), HeckeOp("T1", q))):
            measured = [comp.eigenvalues[u] for _, comp in labeled]
            closed = [
                eigenvalue_closed_form(space, rho, hop) for rho, _ in labeled
            ]
            hm = ops.matrix(hop)
            diag = [hm.diagonal(space.index_of(rho)) for rho, _ in labeled]
            entry[hop.kind] = {
                "op": u.spec_string(),
                "measured": {
                    str(rho): comp.eigenvalues[u].to_json()
                    for rho, comp in labeled
                },
                "closed_form": {
                    str(rho): c.to_json()
                    for (rho, _), c in zip(labeled, closed)
                },
                "matrix_diagonal": {
                    str(rho): d.to_json()
                    for (rho, _), d in zip(labeled, diag)
                },
                "distinct_count": len(set(measured)),
                "relation_to_closed_form": _fit_relation(measured, closed),
                "relation_to_matrix": _fit_relation(measured, diag),
            }
        report["primes"][str(q)] = entry
    return report
