import random

import pytest

from siegeleis.lattices import (GL2, SL2, GramForm, ZERO_FORM,
                                isotropic_lines, reduce_form,
                                reduced_class_keys,
                                reduced_posdef_forms, restrict_and_scale,
                                sublattices, transform,
                                _unimodular_entries_bounded)
from siegeleis.verify import subgroup_count_oracle


def test_reduce_examples():
    # [[2,3],[3,6]] = G^t [[2,1],[1,2]] G with G = [[1,1],[0,1]], checked
    # by direct matrix multiplication
    G = (1, 1, 0, 1)
    assert transform(GramForm(2, 1, 2), G) == GramForm(2, 3, 6)
    assert reduce_form(GramForm(2, 3, 6)) == GramForm(2, 1, 2)
    assert reduce_form(ZERO_FORM) == ZERO_FORM
    # brute-force oracle: the minimum over all bounded unimodular images
    T = GramForm(1, 1, 1)
    images = {transform(T, G) for G in _unimodular_entries_bounded(3)}
    assert GramForm(1, 0, 0) in images
    assert reduce_form(T) == GramForm(1, 0, 0)


@pytest.mark.parametrize("bound", [0, 1, 2, 3, 4, 10])
def test_unimodular_entries_are_the_brute_force_list(bound):
    # the same matrices in the same order: the desk draws its transforms
    # from the list at bound 10 by index, so its report rests on the order
    span = range(-bound, bound + 1)
    brute = [(g11, g12, g21, g22) for g11 in span for g12 in span
             for g21 in span for g22 in span if g11 * g22 - g12 * g21 in (1, -1)]
    assert _unimodular_entries_bounded(bound) == brute
    if bound == 10:
        assert len(brute) == 2024


def test_reduce_validation():
    with pytest.raises(ValueError):
        reduce_form(GramForm(1, 2, 1))  # indefinite
    with pytest.raises(ValueError):
        reduce_form(GramForm(-1, 0, 0))
    with pytest.raises(ValueError):
        reduce_form(GramForm(1, 0, 1), "PGL2")


def test_reduce_invariance_randomized():
    rng = random.Random(7)
    gl2 = _unimodular_entries_bounded(3)
    sl2 = [g for g in gl2 if g[0] * g[3] - g[1] * g[2] == 1]
    trials = 0
    while trials < 250:
        T = GramForm(rng.randint(1, 50), rng.randint(-50, 50), rng.randint(1, 50))
        if T.det <= 0:
            continue
        trials += 1
        assert reduce_form(transform(T, rng.choice(gl2))) == reduce_form(T)
        assert reduce_form(transform(T, rng.choice(sl2)), SL2) == reduce_form(T, SL2)
        assert reduce_form(reduce_form(T)) == reduce_form(T)


def _least_reduced_image(T, group):
    """Oracle: the lexicographically least image of T under the unimodular
    matrices with entries in [-3, 3] (det 1 only for SL2) that satisfies the
    definition of a reduced form ([[m,0],[0,0]] at rank <= 1): the class
    key."""
    if group == GL2:
        mats = _unimodular_entries_bounded(3)
        reduced = lambda a, b, c: 0 < a and 0 <= 2 * b <= a <= c
    else:
        mats = [g for g in _unimodular_entries_bounded(3)
                if g[0] * g[3] - g[1] * g[2] == 1]
        reduced = lambda a, b, c: (0 < a and -a < 2 * b <= a <= c
                                   and (b >= 0 or (2 * b != a and a != c)))
    return min(S for S in (transform(T, G) for G in mats)
               if (S.b, S.c) == (0, 0) or reduced(S.a, S.b, S.c))


def test_reduce_form_matches_the_least_reduced_image():
    rng = random.Random(18)
    forms = [ZERO_FORM]
    while len(forms) < 400:
        rank = rng.choice((1, 2, 2, 2))
        if rank == 1:  # m (p x + q y)^2
            m, p, q = rng.randint(1, 3), rng.randint(-2, 2), rng.randint(-2, 2)
            T = GramForm(m * p * p, m * p * q, m * q * q)
        else:
            T = GramForm(rng.randint(1, 12), rng.randint(-12, 12), rng.randint(1, 12))
        if T.det >= 0 and T != ZERO_FORM:
            forms.append(T)
    assert {T.rank() for T in forms} == {0, 1, 2}
    assert any(T.b < 0 for T in forms) and any(T.a > T.c for T in forms)
    assert any(0 < 2 * T.b < T.a < T.c for T in forms)  # hits the early return
    flips = [g for g in _unimodular_entries_bounded(2)
             if g[0] * g[3] - g[1] * g[2] == -1]
    splits = 0
    for i, T in enumerate(forms):
        assert reduce_form(T) == _least_reduced_image(T, GL2), T
        assert reduce_form(T, SL2) == _least_reduced_image(T, SL2), T
        # the GL2 key is the SL2 key with |b|
        key = a, b, c = reduce_form(T, SL2)
        assert reduce_form(T) == GramForm(a, abs(b), c), T
        # a det -1 transform maps a proper class to its twin: it moves the
        # key of a class that splits to (a, -b, c) and fixes every other key
        twin = GramForm(a, -b, c) if 0 < 2 * abs(b) < a < c else key
        splits += twin != key
        G = flips[i % len(flips)]
        assert reduce_form(transform(T, G), SL2) == twin, (T, G)
        if T.a > 0 and 0 <= 2 * T.b <= T.a <= T.c:  # already reduced: kept
            assert reduce_form(T) is T and reduce_form(T, SL2) is T
    assert 0 < splits < len(forms)


def test_reduced_form_shape():
    for f in reduced_posdef_forms(60):
        assert 0 <= 2 * f.b <= f.a <= f.c and 1 <= f.det <= 60
    # uniqueness: reducing any reduced form is the identity
    forms = reduced_posdef_forms(60)
    assert len({(f.a, f.b, f.c) for f in forms}) == len(forms)


def test_sl2_orientation():
    # an interior form splits into two proper classes, keyed by the twins
    f = reduce_form(GramForm(3, 1, 5), SL2)
    g = reduce_form(GramForm(3, -1, 5), SL2)
    assert (f, g) == (GramForm(3, 1, 5), GramForm(3, -1, 5))
    assert reduce_form(f) == reduce_form(g) == f
    # a key represents its class: a proper image of it reduces back to it
    assert reduce_form(transform(g, (2, 1, 1, 1)), SL2) == g
    # ambiguous forms (b = 0, 2b = a, or a = c) do not split
    for amb in (GramForm(2, 0, 5), GramForm(2, 1, 5), GramForm(3, 1, 3)):
        assert reduce_form(amb, SL2) == amb
        assert reduce_form(GramForm(amb.a, -amb.b, amb.c), SL2) == amb


def test_rank_one_reduction():
    assert reduce_form(GramForm(1, 1, 1)) == GramForm(1, 0, 0)
    assert reduce_form(GramForm(4, 6, 9)) == GramForm(1, 0, 0)  # (2x+3y)^2
    assert reduce_form(GramForm(8, 12, 18)) == GramForm(2, 0, 0)  # content 2
    assert reduce_form(GramForm(0, 0, 7)) == GramForm(7, 0, 0)


def test_sublattices_examples():
    got = {s.rows for s in sublattices(2)}
    assert got == {((1, 0), (0, 2)), ((2, 0), (0, 1)), ((1, 1), (0, 2))}
    assert len(sublattices(1)) == 1
    assert len(sublattices(3)) == 4
    with pytest.raises(ValueError):
        sublattices(4)


def test_sublattice_counts_against_oracle():
    for q in (2, 3, 5, 7, 11, 13):
        assert len(sublattices(q)) == q + 1 == subgroup_count_oracle(q)
    assert len(sublattices(30)) == 3 * 4 * 6


def test_restrict_and_scale():
    I = GramForm(1, 0, 1)
    assert restrict_and_scale(I, sublattices(1)[0], 3) == GramForm(3, 0, 3)
    H = next(s for s in sublattices(2) if s.rows == ((1, 1), (0, 2)))
    assert restrict_and_scale(I, H, 1) == GramForm(2, 2, 4)
    assert restrict_and_scale(ZERO_FORM, H, 5) == ZERO_FORM
    # det(P * H T H^t) = P^2 det(H)^2 det(T)
    rng = random.Random(3)
    for _ in range(100):
        T = GramForm(rng.randint(0, 9), rng.randint(-3, 3), rng.randint(0, 9))
        for Q in (1, 2, 3, 6):
            for H in sublattices(Q):
                P = rng.randint(1, 4)
                out = restrict_and_scale(T, H, P)
                assert out.det == P * P * Q**2 * T.det  # det H = Q


def test_isotropy_paper_classification():
    r = isotropic_lines(GramForm(1, 0, -1), 5)
    assert (r.count, r.kind) == (2, "hyperbolic")
    r = isotropic_lines(GramForm(1, 0, -2), 5)  # 2 is a non-residue mod 5
    assert (r.count, r.kind) == (0, "anisotropic")
    r = isotropic_lines(GramForm(0, 1, 0), 2)
    assert (r.count, r.kind) == (3, "split_type")
    r = isotropic_lines(GramForm(1, 0, 1), 2)
    assert (r.count, r.kind) == (1, "I_type")
    r = isotropic_lines(GramForm(1, 0, 5), 5)
    assert r.kind == "rank_deficient"


def test_isotropy_brute_force_all_small_primes():
    for p in (2, 3, 5, 7, 11, 13):
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    T = GramForm(a, b, c)
                    rep = isotropic_lines(T, p)
                    assert 0 <= rep.count <= p + 1
                    if T.det % p:
                        assert rep.count in ((0, 2) if p > 2 else (1, 3))
                        if p > 2:
                            legendre = pow(-T.det % p, (p - 1) // 2, p)
                            assert (rep.count == 2) == (legendre == 1)


def test_reduced_class_keys_ordering():
    keys = reduced_class_keys(2, 2, GL2)
    assert keys[0] == ZERO_FORM
    assert keys[1] == GramForm(1, 0, 0) and keys[2] == GramForm(2, 0, 0)
    assert keys[3:] == (GramForm(1, 0, 1), GramForm(1, 0, 2))
    sl2_keys = reduced_class_keys(30, 2, SL2)
    split = [k for k in sl2_keys if k.b < 0]
    assert split and all(0 < -2 * f.b < f.a < f.c for f in split)
    # each twin (a, -b, c) comes right after (a, b, c); without the twins
    # the SL2 keys are the GL2 keys
    for f in split:
        assert sl2_keys[sl2_keys.index(f) - 1] == (f.a, -f.b, f.c)
    gl2_keys = reduced_class_keys(30, 2, GL2)
    assert tuple(k for k in sl2_keys if k.b >= 0) == gl2_keys


def test_gram_json():
    f = GramForm(2, -1, 3)
    assert GramForm.from_json(f.to_json()) == f
