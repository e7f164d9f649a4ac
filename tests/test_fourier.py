import time
from fractions import Fraction
from pathlib import Path

import pytest

from siegeleis.eisspace import Partition
from siegeleis.fourier import (CoefficientProvider, CoverageError,
                               FourierExpansion, LabelingError, UOperator,
                               apply_U, calibrate_normalization, combine,
                               constant_expansion, expansion_from_function,
                               krylov_spectral, project_components,
                               provider_load, provider_parse)
from siegeleis.hecke import HeckeMatrix
from siegeleis.lattices import GL2, SL2, GramForm, ZERO_FORM, reduce_form

PROVIDER_PATH = Path(__file__).resolve().parent.parent / "data" / "e8_weight4_level1.coeffs"


def rank1_power(s, det_bound=400, content_bound=400):
    # content^s on rank-1 classes: an exact eigenvector of every U(Q,P)
    return expansion_from_function(
        GL2, lambda key: key.a**s if key.rank() == 1 else 0,
        det_bound, content_bound,
    )


def test_u_operator_validation():
    with pytest.raises(ValueError):
        UOperator(2, 2)  # QP not square-free
    with pytest.raises(ValueError):
        UOperator(4, 1)
    with pytest.raises(ValueError):
        UOperator(0, 1)
    u = UOperator(2, 3)
    assert u.det_factor == 36 and u.content_factor == 12


def test_expansion_totality_enforced():
    with pytest.raises(ValueError):
        FourierExpansion(GL2, 1, 0, {reduce_form(ZERO_FORM): 1})
    f = FourierExpansion(GL2, 0, 0, {reduce_form(ZERO_FORM): 5})
    assert f.value(ZERO_FORM) == 5
    with pytest.raises(CoverageError):
        f.value(GramForm(1, 0, 1))
    with pytest.raises(CoverageError):
        f.value(GramForm(1, 0, 0))


def test_identity_and_scaling():
    f = constant_expansion(7, 40, 40)
    assert apply_U(f, UOperator(1, 1)).agrees_with(f)
    h = expansion_from_function(
        GL2, lambda k: k.det if k.rank() == 2 else 10 + k.a, 64, 16
    )
    hp = apply_U(h, UOperator(1, 2))
    assert hp.det_bound == 16 and hp.content_bound == 8
    for key in hp.domain_keys():
        assert hp.coeffs[key] == h.value(
            GramForm(2 * key.a, 2 * key.b, 2 * key.c))


def test_constant_eigenvalue():
    g = apply_U(constant_expansion(1, 144, 72), UOperator(6, 1))
    assert all(v == 12 for v in g.coeffs.values())
    g = apply_U(constant_expansion(1, 9, 9), UOperator(1, 3))
    assert all(v == 1 for v in g.coeffs.values())
    z = apply_U(constant_expansion(0, 40, 40), UOperator(2, 1))
    assert all(v.is_zero() for v in z.coeffs.values())


def test_linearity():
    a = expansion_from_function(GL2, lambda k: k.det + 1 if k.rank() == 2 else 3, 36, 36)
    b = expansion_from_function(GL2, lambda k: 2 * k.a if k.rank() == 1 else 5, 36, 36)
    u = UOperator(2, 1)
    lhs = apply_U(combine([(Fraction(2, 3), a), (1, b)]), u)
    rhs = combine([(Fraction(2, 3), apply_U(a, u)), (1, apply_U(b, u))])
    assert lhs.agrees_with(rhs)


def test_rank1_powers_are_eigenvectors():
    # eigenvalue P^s * sum_{e | Q} (Q/e) e^{2s}
    for (Q, P), s, lam in [
        ((2, 1), 0, 3), ((2, 1), 1, 6), ((2, 1), 2, 18),
        ((3, 1), 1, 12), ((1, 2), 1, 2), ((2, 3), 1, 18),
    ]:
        f = rank1_power(s)
        assert apply_U(f, UOperator(Q, P)).agrees_with(f.scale(lam)), (Q, P, s)


def test_krylov_trivial_eigenvector():
    comps = krylov_spectral(rank1_power(1), [UOperator(2, 1)], sample_bound=2)
    assert len(comps) == 1
    assert comps[0].eigenvalues[UOperator(2, 1)] == 6
    assert comps[0].expansion.det_bound == 400  # no coverage lost


def test_krylov_mixture_recovery():
    mix = combine([(3, rank1_power(0)), (5, rank1_power(1))])
    comps = krylov_spectral(mix, [UOperator(2, 1)], sample_bound=2)
    assert len(comps) == 2
    for comp in comps:
        lam = comp.eigenvalues[UOperator(2, 1)]
        want = rank1_power(0).scale(3) if lam == 3 else rank1_power(1).scale(5)
        assert lam == 3 or lam == 6
        assert comp.expansion.agrees_with(want)
    total = combine([(1, c.expansion) for c in comps])
    assert total.agrees_with(mix)


def test_krylov_coverage_error_names_depth_and_sample_domain():
    shallow = combine([(3, rank1_power(0, 20, 20)), (5, rank1_power(1, 20, 20)),
                       (1, expansion_from_function(
                           GL2, lambda k: k.det**2 if k.rank() == 2 else 0, 20, 20))])
    with pytest.raises(CoverageError, match=(
            r"Krylov rank not stabilized for U:2,1 .*\(depth 2\): sample "
            r"domain \(det<=2, content<=2\) exceeds coverage "
            r"\(det<=1, content<=1\)$")):
        krylov_spectral(shallow, [UOperator(2, 1)], sample_bound=2)


def test_krylov_split_of_the_zero_expansion():
    # every sample is zero, so the relation is x: one component, itself
    zero = constant_expansion(0, 400, 400)
    comps = krylov_spectral(zero, [UOperator(2, 1)], sample_bound=2)
    assert len(comps) == 1
    assert comps[0].eigenvalues == {UOperator(2, 1): 0}
    assert comps[0].expansion.agrees_with(zero)
    assert comps[0].expansion.det_bound == 400


def test_krylov_input_zero_only_on_the_sample_domain():
    # the first sample is zero but g|U(2,1) is not, so the relation has a
    # zero first coefficient; its components fail on the full coverage
    hidden = expansion_from_function(
        GL2, lambda k: k.a if k.rank() == 1 and k.a > 2 else 0, 400, 400)
    assert not any(v for v in hidden.sample_vector(2, 2))
    with pytest.raises(CoverageError, match="^component validation failed "
                                            "for U:2,1; the sample domain"):
        krylov_spectral(hidden, [UOperator(2, 1)], sample_bound=2)


def test_sl2_mode_tracks_orientation():
    f = expansion_from_function(
        SL2, lambda key: key[0].det * key[1] if key[0].rank() == 2 else 1, 144, 4
    )
    g = apply_U(f, UOperator(1, 2))  # det coverage 36 includes split classes
    split_keys = [k for k in g.domain_keys() if k[1] == -1]
    assert split_keys
    for form, orient in split_keys:
        rep = GramForm(form.a, -form.b, form.c)  # the class behind orient -1
        assert g.coeffs[(form, orient)] == f.value(
            GramForm(2 * rep.a, 2 * rep.b, 2 * rep.c))
        # scaling preserves orientation, so the +- values stay separated
        plus = g.coeffs[(form, 1)]
        minus = g.coeffs[(form, -1)]
        assert plus == -minus and not plus.is_zero()


def test_provider_parse_examples():
    p = provider_parse(["!weight 4 level 1 group GL2", "0 0 0 1"])
    assert p.expansion.det_bound == 0 and p.expansion.content_bound == 0
    lines = ["!weight 4 level 1 group GL2", "0 0 0 1", "2 3 6 11", "2 1 2 11"]
    p = provider_parse(lines)
    assert p.expansion.coeffs[reduce_form(GramForm(2, 1, 2))] == 11
    with pytest.raises(ValueError, match="inconsistent"):
        provider_parse(["!weight 4 level 1 group GL2", "0 0 0 1",
                        "2 3 6 11", "2 1 2 12"])
    with pytest.raises(ValueError, match="zero-form"):
        provider_parse(["!weight 4 level 1 group GL2", "1 0 1 3"])
    with pytest.raises(ValueError, match="header"):
        provider_parse(["0 0 0 1"])
    with pytest.raises(ValueError, match="malformed"):
        provider_parse(["!weight 4 level 1 group GL2", "0 0 0 1", "1 2"])


def test_provider_det_walk_is_bounded_by_the_class_count():
    # one class far out cannot make the parser walk every det up to it
    t0 = time.perf_counter()
    p = provider_parse(["!weight 4 level 1 group GL2", "0 0 0 1",
                        "1 0 100000 5"])
    assert time.perf_counter() - t0 < 1
    assert p.expansion.det_bound == 0
    assert p.expansion.coeffs[reduce_form(GramForm(1, 0, 100000))] == 5


def test_provider_lines_round_trip():
    f = expansion_from_function(
        GL2, lambda k: Fraction(k.det, 3) if k.rank() == 2 else 1, 12, 5
    )
    lines = ["!weight 4 level 1 group GL2"] + [
        f"{k.a} {k.b} {k.c} {f.coeffs[k].as_fraction()}"
        for k in f.domain_keys()]
    p = provider_parse(lines)
    assert p.weight == 4
    assert p.expansion.det_bound == 12 and p.expansion.content_bound == 5
    assert p.expansion.agrees_with(f)


needs_provider = pytest.mark.skipif(
    not PROVIDER_PATH.exists(), reason="no provider data file present"
)


@needs_provider
def test_projection_pipeline_on_shipped_data():
    prov = provider_load(PROVIDER_PATH)
    assert prov.weight == 4 and prov.level == 1
    comps = {rho: comp.expansion
             for rho, comp in project_components(prov, 2, 4, sample_bound=2)}
    assert set(comps) == {Partition(2, 1, 1), Partition(1, 2, 1), Partition(1, 1, 2)}
    zk = reduce_form(ZERO_FORM)
    assert comps[Partition(2, 1, 1)].coeffs[zk] == 1
    assert comps[Partition(1, 2, 1)].coeffs[zk].is_zero()
    assert comps[Partition(1, 1, 2)].coeffs[zk].is_zero()
    total = combine([(1, e) for e in comps.values()])
    assert total.agrees_with(prov.expansion)


@needs_provider
@pytest.mark.parametrize("sample_bound", [0, -1])
def test_krylov_checks_a_single_component(sample_bound):
    # on the zero form alone E8 looks like one U(1,2) eigenvector; the
    # component check on the full coverage sees the three it has
    prov = provider_load(PROVIDER_PATH)
    with pytest.raises(CoverageError, match="component validation failed"):
        krylov_spectral(prov.expansion, [UOperator(1, 2)], sample_bound)


@needs_provider
def test_projection_weight_mismatch():
    prov = provider_load(PROVIDER_PATH)
    with pytest.raises(ValueError, match="weight"):
        project_components(prov, 2, 6)


@needs_provider
def test_calibration_report_on_shipped_data():
    prov = provider_load(PROVIDER_PATH)
    rep = calibrate_normalization(prov, 2, 4)
    entry = rep["primes"]["2"]
    assert entry["T"]["distinct_count"] == 3
    assert entry["T1"]["distinct_count"] == 3
    # measured values coincide with the action-table diagonal exactly, and
    # the T1 closed-form table keeps its documented typo
    assert entry["T"]["relation_to_matrix"]["type"] == "scalar"
    assert entry["T1"]["relation_to_matrix"]["type"] == "scalar"
    assert entry["T1"]["relation_to_closed_form"]["type"] == "none"


@needs_provider
def test_calibration_builds_no_dense_view(monkeypatch):
    # the diagonal is read off the local rows; the expanded rows are the
    # only other view of a table
    def expanded(hm):
        raise AssertionError(f"rows of {hm.op} expanded")

    monkeypatch.setattr(HeckeMatrix, "rows", property(expanded))
    rep = calibrate_normalization(provider_load(PROVIDER_PATH), 2, 4)
    assert rep["primes"]["2"]["T"]["relation_to_matrix"]["type"] == "scalar"


def rank1_valuation_sequence(seq, bound=400):
    # seq(v_2(content)) on rank-1 classes; U(1,2) shifts the sequence by one
    return expansion_from_function(
        GL2, lambda key: seq((key.a & -key.a).bit_length() - 1)
        if key.rank() == 1 else 0, bound, bound,
    )


def test_krylov_repeated_root_is_a_labeling_error():
    # h = v_2(content): h|U(1,2) = h + 1 on rank 1, so the relation is (x-1)^2
    h = rank1_valuation_sequence(lambda v: v)
    with pytest.raises(LabelingError, match="repeated root"):
        krylov_spectral(h, [UOperator(1, 2)], sample_bound=2)


def test_krylov_leftover_factor_is_a_labeling_error():
    # Fibonacci in v_2(content): the relation x^2 - x - 1 has no rational root
    fib = [0, 1]
    while len(fib) < 12:
        fib.append(fib[-1] + fib[-2])
    g = rank1_valuation_sequence(fib.__getitem__)
    with pytest.raises(LabelingError, match="does not split"):
        krylov_spectral(g, [UOperator(1, 2)], sample_bound=2)
    # rational roots 2^15 and 2^16, but the constant term 2^31 is above the
    # 10^9 root-search bound, so the relation is left unsplit as well
    mix = combine([(1, rank1_power(15)), (1, rank1_power(16))])
    with pytest.raises(LabelingError, match="does not split"):
        krylov_spectral(mix, [UOperator(1, 2)], sample_bound=2)
