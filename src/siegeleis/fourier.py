"""Formal Fourier expansions as class functions on reduced Gram forms, the
sublattice-sum Hecke action, provider-file ingestion, and the exact Krylov
spectral projection that splits an ingested level-1 expansion into the
eigencomponents attached to the level-N basis partitions.

An expansion stores a total coefficient table on a bounded domain: the zero
form, rank-1 classes [[m,0],[0,0]] with m <= content_bound, and positive
definite classes with det <= det_bound.  Lookups outside the bounds raise
CoverageError ("unknown"), missing keys inside the bounds are rejected at
construction time.  A class is keyed by its reduced form in the expansion's
group (`lattices.reduce_form`), in GL2 and SL2 mode alike; an ingested
table holds it as the plain tuple (a, b, c), which hashes and compares as
that GramForm, so either finds the one entry of its class.  `to_json` prints
an SL2 key (a, -b, c) with b > 0 as the form (a, b, c) with orient -1, any
other SL2 key with orient 1, and a GL2 key with no orient.

The sublattice-sum operator U(Q,P) maps the coefficient at a class T to the
sum of the coefficients at P * (H T H^t) over the index-Q sublattices H, so
determinant coverage shrinks by Q^2 P^2 and rank-1 content coverage by Q^2 P
per application.  U(Q,P) is implemented verbatim as its own normalization of
the Hecke algebra; its exact relation to the T(p), T1(p^2) tables is measured
by calibrate_normalization, never hard-coded.
"""

from __future__ import annotations

import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .cyclotomic import (CycNum, _raw, as_cyc, check_printable, exact_sum,
                         is_squarefree, prime_factors, value_texts)
from .jsonout import chunked
from .lattices import (
    GL2,
    SL2,
    GramForm,
    ZERO_FORM,
    _proper_reduce,
    reduce_form,
    reduced_class_count,
    reduced_class_keys,
    sublattices,
)
from .linalg import _Span, left_null_space, split_roots

_ZERO = CycNum.zero()
_ONE = CycNum.one()


class CoverageError(ValueError):
    """A lookup or operation needs coefficients beyond the stored bounds."""


class LabelingError(ValueError):
    """Joint eigenvalue data does not determine the partition labels."""


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


def _exact(x) -> CycNum:
    """x as a CycNum, for an int, Fraction or CycNum; any other value (a
    float, say) raises TypeError naming its type, so no inexact or
    NotImplemented value becomes a coefficient."""
    c = as_cyc(x)
    if c is NotImplemented:
        raise TypeError(f"expected an exact value (int, Fraction or CycNum), "
                        f"got {type(x).__name__}")
    return c


class FourierExpansion:
    """Class function on reduced Gram classes, total on a bounded domain.
    validate=False trusts the caller for CycNum values on the whole domain,
    whose keys `domain_keys` reads from the memoized `reduced_class_keys`."""

    def __init__(self, mode: str, det_bound: int, content_bound: int,
                 coeffs: dict, validate: bool = True):
        if mode not in (GL2, SL2):
            raise ValueError(f"unknown group mode {mode!r}")
        if det_bound < 0 or content_bound < 0:
            raise ValueError("bounds must be nonnegative")
        self.mode = mode
        self.det_bound = det_bound
        self.content_bound = content_bound
        self.coeffs = coeffs
        if validate:
            self.coeffs = {k: _exact(v) for k, v in coeffs.items()}
            for key in self.domain_keys():
                if key not in self.coeffs:
                    raise ValueError(f"missing coefficient for {key} within bounds")

    def domain_keys(self) -> tuple:
        return reduced_class_keys(self.det_bound, self.content_bound, self.mode)

    def value(self, T: GramForm) -> CycNum:
        key = reduce_form(T, self.mode)
        a, b, c = key  # c = 0: the zero form or rank 1
        if c == 0 and a > self.content_bound:
            raise CoverageError(
                f"rank-1 content {a} exceeds coverage {self.content_bound}"
            )
        if a * c - b * b > self.det_bound:
            raise CoverageError(
                f"determinant {a * c - b * b} exceeds coverage {self.det_bound}"
            )
        return self.coeffs[key]

    def scale(self, s) -> "FourierExpansion":
        s = _exact(s)
        return FourierExpansion(
            self.mode, self.det_bound, self.content_bound,
            {k: v * s for k, v in self.coeffs.items()}, validate=False,
        )

    def sample_vector(self, det_bound: int, content_bound: int) -> list[CycNum]:
        if det_bound > self.det_bound or content_bound > self.content_bound:
            raise CoverageError(
                f"sample domain (det<={det_bound}, content<={content_bound}) "
                f"exceeds coverage (det<={self.det_bound}, content<={self.content_bound})"
            )
        return [self.coeffs[k] for k in
                reduced_class_keys(det_bound, content_bound, self.mode)]

    def agrees_with(self, other: "FourierExpansion") -> bool:
        mine, theirs = self.coeffs, other.coeffs
        return all(mine[key] == theirs[key]
                   for key in _common_domain([self, other])[2])

    def to_json(self):
        out = []
        for key in self.domain_keys():
            a, b, c = key  # an SL2 key (a, -b, c) prints (a, b, c), orient -1
            entry = {"form": {"a": a, "b": abs(b), "c": c},
                     "value": self.coeffs[key].to_json()}
            if self.mode == SL2:
                entry["orient"] = -1 if b < 0 else 1
            out.append(entry)
        return {
            "group": self.mode,
            "det_bound": self.det_bound,
            "content_bound": self.content_bound,
            "coeffs": out,
        }

    def rendered(self, depth: int) -> dict:
        """to_json() standing at `depth`, its coefficient list rendered from
        the stored forms as JsonText chunks (jsonout.chunked), a distinct
        value once: write_json writes it as the bytes of to_json() there."""
        p = "\n" + "  " * (depth + 2)  # a coefficient, a list item
        p1, p2 = p + "  ", p + "    "
        orient = ((f'"orient": 1,{p1}', f'"orient": -1,{p1}')
                  if self.mode == SL2 else ("", ""))  # a GL2 key has b >= 0
        coeffs, value = self.coeffs, value_texts()

        def items():
            for key in self.domain_keys():
                a, b, c = key
                yield (f'{{{p1}"form": {{{p2}"a": {a},{p2}"b": {abs(b)},{p2}'
                       f'"c": {c}{p1}}},{p1}{orient[b < 0]}'
                       f'"value": {value(coeffs[key], depth + 3)}{p}}}')
        return {"group": self.mode, "det_bound": self.det_bound,
                "content_bound": self.content_bound,
                "coeffs": chunked(items(), depth + 2)}


def _common_domain(expansions) -> tuple:
    """(det bound, content bound, keys) of the largest domain that all the
    expansions cover."""
    db = min(f.det_bound for f in expansions)
    cb = min(f.content_bound for f in expansions)
    return db, cb, reduced_class_keys(db, cb, expansions[0].mode)


def expansion_from_function(mode: str, fn, det_bound: int, content_bound: int
                            ) -> FourierExpansion:
    keys = reduced_class_keys(det_bound, content_bound, mode)
    return FourierExpansion(
        mode, det_bound, content_bound, {k: _exact(fn(k)) for k in keys},
        validate=False,
    )


def constant_expansion(value, det_bound: int, content_bound: int,
                       mode: str = GL2) -> FourierExpansion:
    return expansion_from_function(mode, lambda k: value, det_bound, content_bound)


def combine(terms) -> FourierExpansion:
    """Exact linear combination sum(c_i * f_i) on the common domain."""
    terms = [(_exact(c), f) for c, f in terms]
    if not terms:
        raise ValueError("empty combination")
    mode = terms[0][1].mode
    if any(f.mode != mode for _, f in terms):
        raise ValueError("mixed group modes")
    db, cb, keys = _common_domain([f for _, f in terms])
    cs, tables = [c for c, _ in terms], [f.coeffs for _, f in terms]
    coeffs = {key: exact_sum([t[key] for t in tables], cs) for key in keys}
    return FourierExpansion(mode, db, cb, coeffs, validate=False)


def apply_U(f: FourierExpansion, u: UOperator) -> FourierExpansion:
    """Sublattice-sum action; output coverage shrinks by the operator's
    determinant and content factors, so every image P * (H T H^t) of an
    output class lies inside f's coverage and its coefficient is read
    straight from the table."""
    db = f.det_bound // u.det_factor
    cb = f.content_bound // u.content_factor
    P, mode, table = u.P, f.mode, f.coeffs
    gl2 = mode == GL2
    # P * (H T H^t) = (a*ra + b*rb + c*rc, b*sb + c*sc, c*tc) for the
    # sublattice H = [[d1, x], [0, d2]] and T = [[a, b], [b, c]]
    subs = [(P * H.d1 * H.d1, 2 * P * H.d1 * H.x, P * H.x * H.x,
             P * H.d2 * H.d1, P * H.d2 * H.x, P * H.d2 * H.d2)
            for H in sublattices(u.Q)]
    coeffs = {}
    for key in reduced_class_keys(db, cb, mode):
        a, b, c = key
        images = []
        for ra, rb, rc, sb, sc, tc in subs:
            A, B, C = a * ra + b * rb + c * rc, b * sb + c * sc, c * tc
            # an image of rank <= 1 (C = 0 forces B = 0) or a reduced one is
            # its own key; any other is positive definite, as T is, and
            # keyed as reduce_form keys it.  A GramForm key hashes and
            # compares as its plain tuple.
            if C == 0 or 0 <= 2 * B <= A <= C:
                images.append(table[A, B, C])
            else:
                A, B, C = _proper_reduce(A, B, C)
                images.append(table[A, -B if B < 0 and gl2 else B, C])
        coeffs[key] = exact_sum(images)
    return FourierExpansion(mode, db, cb, coeffs, validate=False)


# -- provider files -----------------------------------------------------------


@dataclass
class CoefficientProvider:
    """Externally derived level-1 coefficient table."""

    source: str
    weight: int
    level: int
    expansion: FourierExpansion


def _quote(text: str, limit: int = 80, show=repr) -> str:
    """`show` (repr) of a provider line or token, less its comment and outer
    space; a longer one than `limit` is cut to its first `limit`, then its
    length."""
    text = text.split("#", 1)[0].strip()
    if len(text) <= limit:
        return show(text)
    return f"{show(text[:limit])}... ({len(text)} characters)"


def _header(raw: str, where: str, weight, table) -> tuple[int, int, str]:
    """(weight, level, group) of a '!weight k level 1 group GL2|SL2' line,
    `weight` and `table` being what the parse has read so far: a second
    header, then a header after a data line, then a malformed one is
    refused, in that order."""
    if weight is not None:
        raise ValueError(f"{where}: repeated header")
    if table:
        raise ValueError(f"{where}: header after the first data line")
    toks = raw.split("#", 1)[0].strip()[1:].split()
    if (len(toks) != 6 or toks[0] != "weight" or toks[2] != "level"
            or toks[4] != "group"):
        raise ValueError(f"{where}: bad header; want "
                         f"'!weight k level 1 group GL2|SL2'")
    try:
        weight, level = int(toks[1]), int(toks[3])
    except ValueError:
        raise ValueError(f"{where}: bad number in {_quote(raw)}") from None
    if toks[5] not in (GL2, SL2):
        raise ValueError(f"{where}: unknown group {_quote(toks[5])}")
    return weight, level, toks[5]


def _value(tok: str) -> CycNum:
    """The value of a provider token, built in its canonical form: an int
    over 1, or a Fraction's reduced pair (int reads a subset of what
    Fraction reads, without a regex).  Fraction builds 10^|e| for an
    exponent e whatever its size, so an |e| past the str digit limit
    (when one is set) is refused as a bad number before it is read."""
    try:
        return _raw(1, (int(tok),), 1)
    except ValueError:
        _, e, exp = tok.lower().partition("e")
        limit = sys.get_int_max_str_digits()
        if e and limit and abs(int(exp)) > limit:
            raise ValueError(f"exponent past {limit} digits") from None
        f = Fraction(tok)
        return _raw(1, (f.numerator,), f.denominator)


def provider_parse(lines, source: str = "<memory>") -> CoefficientProvider:
    """The provider of a coefficient table given as lines of text.

    The first non-comment line is the header '!weight k level 1 group
    GL2|SL2'; every other one is a data line `a b c value [orient]`, where
    `#` starts a comment and blank lines are skipped.  The form is read
    with `int`, the value as `fractions.Fraction` reads it, and an orient
    of -1 names the SL2 twin; the class key is the reduced form in the
    table's group.  The first bad line stops the parse with a ValueError
    that begins `SOURCE:LINE: `: a malformed line, a bad number or
    orientation, a form that is not psd, a duplicate that disagrees, or a
    header that is repeated, after a data line, or bad.  A table with no
    header or no zero-form coefficient is refused after the pass.

    The coverage of the expansion is read off the keys: the content bound
    is the longest run [[m,0],[0,0]], m = 1, 2, ..., and the det bound the
    largest D with every positive definite class of det <= D present.  The
    keys are distinct classes, so that holds exactly when the keys of det
    <= D number `reduced_class_count(D)`; it holds at 0, and once false it
    stays false.  [[1,0],[0,d]] is a class of det d, so D is at most the
    number of positive definite keys, and D is found by bisection: about
    log2 of that number of counts, each O(D) arithmetic, and a table
    complete up to its largest det costs one count.
    """
    weight = level = None
    mode = GL2
    sl2 = False
    table: dict = {}
    ints: dict = {}  # token -> int
    values: dict = {}  # token -> CycNum
    for lineno, raw in enumerate(lines, 1):
        toks = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if len(toks) == 4:
            A, B, C, V = toks
            orient = None
        elif len(toks) == 5:
            A, B, C, V, orient = toks
        elif not toks:
            continue
        elif toks[0][0] == "!":
            weight, level, mode = _header(raw, f"{source}:{lineno}", weight,
                                          table)
            sl2 = mode == SL2
            continue
        else:
            raise ValueError(f"{source}:{lineno}: malformed line {_quote(raw)}")
        try:  # each distinct token is parsed once
            a = ints.get(A)
            if a is None:
                a = ints[A] = int(A)
            b = ints.get(B)
            if b is None:
                b = ints[B] = int(B)
            c = ints.get(C)
            if c is None:
                c = ints[C] = int(C)
            val = values.get(V)
            if val is None:
                val = values[V] = _value(V)
        except (ValueError, ZeroDivisionError):
            if A[0] == "!":  # a header of 4 or 5 tokens: _header refuses it
                _header(raw, f"{source}:{lineno}", weight, table)
            raise ValueError(f"{source}:{lineno}: bad number in "
                             f"{_quote(raw)}") from None
        s = b
        if orient is not None and orient != "1":
            if orient != "-1":
                raise ValueError(f"{source}:{lineno}: bad orientation "
                                 f"{_quote(orient)} in {_quote(raw)}; "
                                 f"want 1 or -1")
            if sl2:  # an SL2 line names the class of the b < 0 twin by -1
                s = -b
        if (0 <= 2 * s <= a <= c and a > 0) or s == c == 0 <= a:
            key = (a, s, c)  # already reduced: its own key
        else:
            try:
                key = tuple(reduce_form(GramForm(a, s, c), mode))
            except ValueError:
                form = _quote(str(GramForm(a, b, c)), show=str)
                raise ValueError(f"{source}:{lineno}: form {form} "
                                 f"is not psd") from None
        old = table.get(key)
        if old is None:
            table[key] = val
        elif old is not val and not (old == val):
            raise ValueError(f"{source}:{lineno}: inconsistent duplicate for "
                             f"class {_quote(str(GramForm(*key)), show=str)}")
    if weight is None:
        raise ValueError(f"{source}: missing '!weight ...' header line")

    if ZERO_FORM not in table:
        raise ValueError(f"{source}: zero-form coefficient missing")
    # content bound: longest full prefix of rank-1 classes
    cb = 0
    while (cb + 1, 0, 0) in table:
        cb += 1
    # det bound: the largest D <= min(top det, positive definite keys) with
    # as many keys of det <= D as classes (see the docstring); the top is
    # probed first, then lo holds and hi fails
    dets = sorted(a * c - b * b for a, b, c in table if c)
    db = min(dets[-1], len(dets)) if dets else 0
    if bisect_right(dets, db) != reduced_class_count(db, mode):
        lo, hi = 0, db
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if bisect_right(dets, mid) == reduced_class_count(mid, mode):
                lo = mid
            else:
                hi = mid
        db = lo
    exp = FourierExpansion(mode, db, cb, table, validate=False)
    return CoefficientProvider(source, weight, level, exp)


# the most characters a provider file may hold: well above the 6 MB of the
# det <= 6000 table, and a bound on a FIFO or /dev/stdin, whose size reads 0
PROVIDER_MAX_CHARS = 16 * 2**20


def provider_load(path) -> CoefficientProvider:
    """provider_parse of the file at `path`, of which at most
    PROVIDER_MAX_CHARS + 1 characters are read: a longer one is refused
    before any line is parsed."""
    chunks, size = [], 0
    with open(path, "r", encoding="utf-8") as fh:
        # in 4 KiB reads: one read of the whole bound, or a list of every
        # line, would hold more memory while the table is built
        while size <= PROVIDER_MAX_CHARS and (
                chunk := fh.read(min(1 << 12, PROVIDER_MAX_CHARS + 1 - size))):
            chunks.append(chunk)
            size += len(chunk)
    if size > PROVIDER_MAX_CHARS:
        raise ValueError(f"{path}: a provider file holds at most "
                         f"{PROVIDER_MAX_CHARS} characters")
    return provider_parse(chain.from_iterable(_line_lists(chunks)),
                          source=str(path))


def _line_lists(chunks):
    """The lines of the text held in `chunks`, as iterating its file gives
    them but without their newlines, in a list per chunk: chained, they are
    read one at a time, and no list of every line is built."""
    head = []  # the pieces of a line that spans chunks
    for chunk in chunks:
        lines = chunk.split("\n")
        if len(lines) > 1:
            head.append(lines[0])
            lines[0] = "".join(head)
            head = []
        head.append(lines.pop())
        yield lines
    if tail := "".join(head):
        yield [tail]


# -- Krylov spectral projection ------------------------------------------------


@dataclass
class SpectralComponent:
    eigenvalues: dict[UOperator, CycNum]
    expansion: FourierExpansion


def _split_by(g: FourierExpansion, u: UOperator, sample_bound: int,
              image: FourierExpansion | None = None
              ) -> list[tuple[CycNum, FourierExpansion]]:
    """Split g into exact eigencomponents of u via a sampled Krylov space;
    `image` is g|u when the caller has it already.

    The samples of g, g|u, g|u^2, ... on the sample domain are inserted
    until the first one that depends on those before it (rank
    stabilization).  The newest sample's index is then free in the
    samples' left null space, so the last null vector is 1 there: it is
    the minimal monic relation, in ascending order (also when g samples to
    zero).  Lagrange projectors then rebuild the components on the largest
    common domain; a single root (the relation x - lam, krylov == [g]) has
    the identity projector, so its component is g itself and its image the
    g|u already built.  Each component is checked to be an exact
    eigenvector on its full remaining coverage in one pass, comp|u against
    lam * comp coefficient by coefficient, its image taken from the Krylov
    images already built.  Insufficient coverage raises CoverageError; a
    relation that split_roots cannot split into distinct roots raises
    LabelingError."""
    krylov = [g]
    samples = [g.sample_vector(sample_bound, sample_bound)]
    span = _Span()
    span.insert(samples[0])
    nxt = apply_U(g, u) if image is None else image
    while True:
        try:
            samples.append(nxt.sample_vector(sample_bound, sample_bound))
        except CoverageError as exc:
            raise CoverageError(
                f"Krylov rank not stabilized for {u} within coverage; raise "
                f"determinant coverage (depth {len(krylov)}): {exc}"
            ) from exc
        if not span.insert(samples[-1]):
            break
        krylov.append(nxt)
        nxt = apply_U(nxt, u)
    found, rem = split_roots(left_null_space(samples)[-1])
    for lam, mult in found:
        if mult > 1:
            raise LabelingError(
                f"minimal polynomial has the repeated root {lam!r}; "
                f"components are not separable"
            )
    if len(rem) > 1:
        raise LabelingError(
            f"minimal polynomial factor {rem!r} does not split over the "
            f"working field"
        )
    roots = [lam for lam, _ in found]
    out = []
    for i, lam in enumerate(roots):
        if len(roots) == 1:  # krylov == [g]: the projector is the identity
            comp, image = g, nxt
        else:
            # the Lagrange numerator prod (x - r) over the other roots, one
            # linear factor at a time, and its value prod (lam - r) at lam
            numer, denom = [_ONE], _ONE
            for r in roots[:i] + roots[i + 1:]:
                numer = [a - r * b
                         for a, b in zip([_ZERO] + numer, numer + [_ZERO])]
                denom = denom * (lam - r)
            coeffs = [c / denom for c in numer]
            comp = combine(zip(coeffs, krylov))
            # comp|u by linearity, from the images apply_U already built
            image = combine(zip(coeffs, krylov[1:] + [nxt]))
        have, want = image.coeffs, comp.coeffs
        if not all(have[k] == lam * want[k]
                   for k in _common_domain([image, comp])[2]):
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
    images = {u: apply_U(f, u) for u in ops}  # f|u once per op
    _check_commuting(images, ops)
    comps = [SpectralComponent({}, f)]
    for u in ops:
        nxt = []
        for comp in comps:
            # the first op splits f itself, whose image is known
            image = images[u] if comp.expansion is f else None
            for lam, piece in _split_by(comp.expansion, u, sample_bound, image):
                tags = dict(comp.eigenvalues)
                tags[u] = lam
                nxt.append(SpectralComponent(tags, piece))
        comps = nxt
    total = combine([(_ONE, c.expansion) for c in comps])
    if not total.agrees_with(f):
        raise AssertionError("spectral components do not sum to the input")
    return comps


def _check_commuting(images: dict, ops) -> None:
    """Check (f|u)|v = (f|v)|u for each pair of ops, from images[u] = f|u."""
    for i, u in enumerate(ops):
        for v in ops[i + 1 :]:
            a = apply_U(images[u], v)
            b = apply_U(images[v], u)
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
    from .eisspace import enumerate_partitions
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
    nonzero = [i for i, c in enumerate(comps)
               if not c.expansion.coeffs[ZERO_FORM].is_zero()]
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
    space = enumerate_partitions(N, None, k, forced=True)
    by_index = {}
    for i, comp in enumerate(comps):
        j = space.index_of_code[sum(ranks[q][i] * 3 ** x for x, q in enumerate(primes))]
        if j in by_index:
            raise LabelingError(f"two components labeled {space.basis[j]}")
        by_index[j] = comp
    return [(rho, by_index[j]) for j, rho in enumerate(space.basis)]


def _fit_relation(measured: list[CycNum], closed: list[CycNum]) -> dict:
    """Describe measured = alpha*closed (+ beta) over the rationals if such a
    relation exists, alpha as "factor" and beta as "offset"; descriptive
    only."""
    pairs = list(zip(measured, closed))
    for mu, lam in pairs:
        if not lam.is_zero():
            alpha = mu / lam
            if all(m == alpha * l for m, l in pairs):
                return {"type": "scalar", "factor": alpha}
            break
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            dl = pairs[i][1] - pairs[j][1]
            if dl.is_zero():
                continue
            alpha = (pairs[i][0] - pairs[j][0]) / dl
            beta = pairs[i][0] - alpha * pairs[i][1]
            if all(m == alpha * l + beta for m, l in pairs):
                return {"type": "affine", "factor": alpha, "offset": beta}
    return {"type": "none"}


def _to_json(tree):
    """A tree of dicts with each CycNum leaf replaced by its to_json()."""
    if type(tree) is dict:
        return {k: _to_json(v) for k, v in tree.items()}
    return tree.to_json() if type(tree) is CycNum else tree


def calibrate_normalization(provider: CoefficientProvider, N: int, k: int,
                            sample_bound: int = 2) -> dict:
    """Measured U eigenvalues per partition next to the closed-form tables,
    with the fitted rational relation when one exists.  The report documents
    the normalization empirically; nothing here is asserted.  Every value
    it holds is bounded by check_printable before any is written as JSON,
    so a report with an integer that str() cannot write raises ValueError
    first."""
    from .eisspace import enumerate_partitions
    from .hecke import HeckeOp, SpaceOperators, eigenvalue_closed_form
    labeled = project_components(provider, N, k, sample_bound)
    space = enumerate_partitions(N, None, k, forced=(k % 2 == 1))
    ops = SpaceOperators(space)
    names = [str(rho) for rho, _ in labeled]
    report = {"level": N, "weight": k, "sample_bound": sample_bound,
              "primes": {}}
    values = []  # every CycNum of the report
    for q in prime_factors(N):
        entry = {}
        for u, hop in ((UOperator(1, q), HeckeOp("T", q)),
                       (UOperator(q, 1), HeckeOp("T1", q))):
            measured = [comp.eigenvalues[u] for _, comp in labeled]
            closed = [eigenvalue_closed_form(space, rho, hop)
                      for rho, _ in labeled]
            hm = ops.matrix(hop)
            diag = [hm.diagonal(space.index_of(rho)) for rho, _ in labeled]
            fits = _fit_relation(measured, closed), _fit_relation(measured, diag)
            values += [*measured, *closed, *diag, *(
                v for fit in fits for v in fit.values() if type(v) is CycNum)]
            entry[hop.kind] = {
                "op": u.spec_string(),
                "measured": dict(zip(names, measured)),
                "closed_form": dict(zip(names, closed)),
                "matrix_diagonal": dict(zip(names, diag)),
                "distinct_count": len(set(measured)),
                "relation_to_closed_form": fits[0],
                "relation_to_matrix": fits[1],
            }
        report["primes"][str(q)] = entry
    check_printable(values)
    return _to_json(report)
