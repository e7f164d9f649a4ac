"""The flat per-class kernels of `fourier` against the slow rules they
replace, kept here as oracles.

Ingestion: every line reduced by `reduce_form`, the det bound read from a
Counter of the table's dets against a class count per det, the content
bound from the rank-1 prefix.  `apply_U`: every image built by
`restrict_and_scale` and read through `FourierExpansion.value`, which
reduces it and checks coverage.
"""

import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from siegeleis import lattices
from siegeleis.cyclotomic import as_cyc
from siegeleis.fourier import (UOperator, apply_U, expansion_from_function,
                               provider_parse)
from siegeleis.lattices import (GL2, SL2, GramForm, reduce_form,
                                reduced_class_keys,
                                reduced_posdef_forms, restrict_and_scale,
                                sublattices, transform)

PROVIDER_PATH = (Path(__file__).resolve().parent.parent / "data"
                 / "e8_weight4_level1.coeffs")


# -- ingestion -----------------------------------------------------------------


def oracle_parse(lines):
    """(table, det bound, content bound) by the rule `provider_parse` used
    before its one-pass loop."""
    mode, table = GL2, {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        if line.startswith("!"):
            mode = toks[-1]
            continue
        a, b, c = int(toks[0]), int(toks[1]), int(toks[2])
        if mode == SL2 and toks[4:] == ["-1"]:
            b = -b
        table.setdefault(reduce_form(GramForm(a, b, c), mode),
                         as_cyc(Fraction(toks[3])))
    have = Counter(f.det for f in table if f.c)
    walk = min(max(have, default=0), sum(have.values()))
    full = Counter()
    for f in reduced_posdef_forms(walk):
        full[f.det] += 2 if mode == SL2 and 0 < 2 * f.b < f.a < f.c else 1
    db = next((d - 1 for d in range(1, walk + 1) if have[d] != full[d]), walk)
    cb = 0
    while reduce_form(GramForm(cb + 1, 0, 0), mode) in table:
        cb += 1
    return table, db, cb


def table_lines(mode, det_bound, content_bound, drop=(), image=None):
    """A provider table of every class up to the bounds except `drop`; each
    class is written as its key, or as image(key) when `image` is given."""
    lines = [f"!weight 4 level 1 group {mode}"]
    for key in reduced_class_keys(det_bound, content_bound, mode):
        if key in drop:
            continue
        T = key if image is None else image(key)
        orient = " 1" if mode == SL2 else ""
        lines.append(f"{T.a} {T.b} {T.c} {T.a * 7 - T.c + 2 * T.b}/3{orient}")
    return lines


def orient_minus_one(lines):
    """Every third SL2 class named the other way: b negated, orient -1."""
    out = lines[:1]
    for i, line in enumerate(lines[1:]):
        a, b, c, value, _ = line.split()
        out.append(f"{a} {-int(b)} {c} {value} -1" if i % 3 == 0 else line)
    return out


SPLIT = GramForm(3, -1, 4)  # det 11: the twin of the first class that splits


def ingestion_inputs():
    shear = lambda T: transform(T, (1, 1, 0, 1))  # noqa: E731
    yield "e8", PROVIDER_PATH.read_text(encoding="utf-8").splitlines()
    yield "gl2-det-gap", table_lines(GL2, 20, 6, drop={GramForm(2, 1, 4)})
    yield "sl2-det-gap", table_lines(SL2, 20, 6, drop={SPLIT})
    yield "sl2-whole", table_lines(SL2, 24, 6)
    yield "gl2-not-reduced", table_lines(GL2, 30, 8, image=shear)
    yield "sl2-not-reduced", table_lines(SL2, 30, 8, image=shear)
    lines = table_lines(GL2, 12, 5)
    yield "agreeing-duplicates", lines + [
        line.replace("/3", "0/30") for line in lines[1:]]
    yield "rank-1-hole", table_lines(GL2, 12, 9,
                                     drop={GramForm(6, 0, 0)})
    yield "huge-det", table_lines(GL2, 6, 3) + ["1 0 100000 5"]
    yield "sl2-orient-minus-one", orient_minus_one(table_lines(SL2, 15, 4))


@pytest.mark.parametrize("name,lines", list(ingestion_inputs()))
def test_ingestion_matches_the_counter_oracle(name, lines):
    t0 = time.perf_counter()
    exp = provider_parse(lines).expansion
    assert time.perf_counter() - t0 < 1  # the walk stays bounded
    table, db, cb = oracle_parse(lines)
    assert exp.coeffs == table
    assert (exp.det_bound, exp.content_bound) == (db, cb)


def test_ingestion_oracle_inputs_have_the_shapes_they_name():
    got = {name: oracle_parse(lines)[1:] for name, lines in ingestion_inputs()}
    assert got["e8"] == (144, 36)
    assert got["gl2-det-gap"] == (6, 6)  # [[2,1],[1,4]] has det 7
    assert got["sl2-det-gap"] == (10, 6)
    assert got["sl2-whole"] == (24, 6)
    assert got["rank-1-hole"] == (12, 5)
    assert got["huge-det"] == (6, 3)


# -- apply_U -------------------------------------------------------------------


def oracle_apply(f, u):
    """The coefficients of f|u on its output domain, one reduced lookup per
    sublattice image."""
    keys = reduced_class_keys(f.det_bound // u.det_factor,
                              f.content_bound // u.content_factor, f.mode)
    out = {}
    for key in keys:
        total = as_cyc(0)
        for H in sublattices(u.Q):
            total = total + f.value(restrict_and_scale(key, H, u.P))
        out[key] = total
    return out


def gl2_expansion():
    return expansion_from_function(
        GL2, lambda k: Fraction(7919 * k.a + 104729 * k.b + k.c,
                                1 + k.det % 5), 400, 120)


def sl2_expansion():
    # the twins (a, +-b, c) of a split class carry different values
    return expansion_from_function(
        SL2, lambda k: Fraction(7919 * k.a + 104729 * k.b + k.c,
                                1 + k.det % 7), 400, 120)


OPS = [(1, 2), (2, 1), (3, 1), (6, 1), (2, 3)]


@pytest.mark.parametrize("make", [gl2_expansion, sl2_expansion])
@pytest.mark.parametrize("word", [[op] for op in OPS] + [[(1, 2), (2, 1)]])
def test_apply_u_matches_the_lookup_oracle(make, word):
    f = make()
    for Q, P in word:
        u = UOperator(Q, P)
        g = apply_U(f, u)
        assert g.mode == f.mode
        assert (g.det_bound, g.content_bound) == (
            f.det_bound // u.det_factor, f.content_bound // u.content_factor)
        assert g.coeffs == oracle_apply(f, u)
        f = g
    assert any(not v.is_zero() for v in f.coeffs.values())


# -- the sublattice cap --------------------------------------------------------


def test_sublattices_refuse_a_count_past_the_cap_before_listing():
    # 2^61 - 1 is prime: listing its 2^61 sublattices would never end
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=(
            f"^index {2**61 - 1} has {2**61} sublattices, more than the "
            f"{lattices.MAX_SUBLATTICES} allowed$")):
        sublattices(2**61 - 1)
    assert time.perf_counter() - t0 < 2


def test_sublattice_cap_is_the_largest_count_listed(monkeypatch):
    monkeypatch.setattr(lattices, "MAX_SUBLATTICES", 12)
    assert len(sublattices(6)) == 12  # (2 + 1)(3 + 1)
    assert len(sublattices(11)) == 12
    for Q in (13, 10):  # 14 and 18 sublattices
        with pytest.raises(ValueError, match="sublattices, more than the 12"):
            sublattices(Q)
