"""Twisting cocycles, cohomology witnesses, centralizer verdicts and twist
plans."""
import pytest

from modtwist.arith import Level, least_nonsquare
from modtwist.galmodel import QuadraticCharacter, cyclic_group, validate_model
from modtwist.projgroup import ProjMat, v_matrix
from modtwist.twists import (
    Ambient,
    CentralizerVerdict,
    Cocycle,
    ParityError,
    build_xi,
    centralizer_verdict,
    check_cocycle,
    cohomologous,
    eta,
    model_corpus,
    rho_star,
    twist_plan,
)

CORPUS = model_corpus(3)
COMPATIBLE = [m for m in CORPUS if m.det_is_epsilon()]


def test_corpus_size():
    assert len(CORPUS) >= 50
    assert len(COMPATIBLE) >= 20
    for m in CORPUS:
        assert validate_model(m) == []


def test_rho_star_example():
    # rho(s) = T = [[1,1],[0,1]] gives rho*(s) = transpose(T^-1) = [[1,0],[-1,1]]
    grp = cyclic_group(3)
    e = grp.identity
    s = grp.gens["g"]
    from modtwist.galmodel import FiniteGaloisModel

    t = ProjMat(1, 1, 0, 1, 3)
    rho = {e: ProjMat.identity(3), s: t, grp.mul(s, s): t * t}
    mm = FiniteGaloisModel(group=grp, p=3, rho=rho, chi={x: 1 for x in grp.elements})
    star = rho_star(mm)
    assert star[s] == ProjMat(1, 0, -1, 1, 3)


def test_eta_is_cocycle():
    for m in CORPUS[:40]:
        c = eta(m)
        assert check_cocycle(c)


def test_plain_and_primed_cocycles_valid_over_corpus():
    for m in CORPUS:
        for variant in ("plain", "primed"):
            xi = build_xi(m, variant)
            assert check_cocycle(xi), (m.group.name, variant)


def test_ambient_matches_compatibility():
    for m in CORPUS:
        xi = build_xi(m)
        if m.det_is_epsilon():
            assert xi.ambient is Ambient.G_NP
            assert all(g.det_class == 1 for g, _ in xi.values.values())
        else:
            assert xi.ambient is Ambient.W_NP


def test_k_char_requires_compatibility():
    m = next(m for m in CORPUS if not m.det_is_epsilon())
    k = {s: 1 for s in m.group.elements}
    with pytest.raises(ValueError):
        build_xi(m, k_char=k)


def test_k_char_sets_w_bits():
    m = next(
        mm
        for mm in COMPATIBLE
        if any(mm.epsilon(s) == -1 for s in mm.group.elements)
    )
    k = {s: m.epsilon(s) for s in m.group.elements}
    xi = build_xi(m, k_char=k)
    assert check_cocycle(xi)
    assert any(w == 1 for _, w in xi.values.values())


def test_cocycle_identity_value_trivial():
    for m in CORPUS[:40]:
        xi = build_xi(m)
        g, w = xi.values[m.group.identity]
        assert g.is_identity() and w == 0


def test_cohomologous_reflexive():
    m = COMPATIBLE[0]
    xi = build_xi(m)
    wit = cohomologous(xi, xi)
    assert wit is not None
    g, w = wit
    assert w == 0


def test_cohomologous_rejects_mismatched_ambient():
    m1 = next(m for m in CORPUS if m.det_is_epsilon())
    m2 = next(m for m in CORPUS if not m.det_is_epsilon())
    with pytest.raises(ValueError):
        cohomologous(build_xi(m1), build_xi(m2))


def test_cohomologous_witness_property():
    # whenever a witness is returned it actually transforms xi into xi'
    checked = 0
    for m in COMPATIBLE:
        xi = build_xi(m, "plain")
        xi_p = build_xi(m, "primed")
        wit = cohomologous(xi, xi_p)
        if wit is None:
            continue
        cand, _ = wit
        hv = xi.hat_v()
        for s in m.group.elements:
            tc = hv * cand * hv if m.epsilon(s) == -1 else cand
            assert xi_p.values[s][0] == cand.inverse() * xi.values[s][0] * tc
        checked += 1
    assert checked > 0


def test_primed_equivalence_matches_centralizer_verdict():
    # the plain and primed cocycles are cohomologous exactly when the
    # centralizer of the image meets the complement of PSL2
    for m in COMPATIBLE:
        verdict = centralizer_verdict(m)
        equivalent = cohomologous(build_xi(m, "plain"), build_xi(m, "primed")) is not None
        assert equivalent == (verdict is CentralizerVerdict.NONTRIVIAL_OUTSIDE_PSL2), (
            m.group.name,
            verdict,
        )


def test_centralizer_verdict_trichotomy():
    seen = {centralizer_verdict(m) for m in CORPUS}
    assert seen == {
        CentralizerVerdict.TRIVIAL,
        CentralizerVerdict.NONTRIVIAL_IN_PSL2,
        CentralizerVerdict.NONTRIVIAL_OUTSIDE_PSL2,
    }


def test_perturbation_breaks_sample(perturbation_breaks):
    for m in CORPUS[:12]:
        xi = build_xi(m)
        assert perturbation_breaks(xi)


def test_twist_plan_cyclotomic():
    level = Level(4, 3)
    m = next(
        mm for mm in COMPATIBLE if any(mm.epsilon(s) == -1 for s in mm.group.elements)
    )
    plan = twist_plan(level, m)
    assert plan.case == "cyclotomic"
    assert plan.cocycles_valid
    assert "X(4,3)_rho" in plan.curves and "X(4,3)'_rho" in plan.curves
    assert "possibly infinite" in plan.finiteness  # the excluded rational case
    doc = plan.to_jsonable()
    assert doc["level"] == {"N": 4, "p": 3}


def test_twist_plan_cyclotomic_finite():
    plan = twist_plan(Level(7, 3), COMPATIBLE[0])
    assert "finite" in plan.finiteness


def test_twist_plan_k_fields():
    level = Level(7, 3)
    m = next(
        mm for mm in COMPATIBLE if any(mm.epsilon(s) == -1 for s in mm.group.elements)
    )
    k = {s: m.epsilon(s) for s in m.group.elements}
    m.characters["k"] = QuadraticCharacter(values=k, field=-1)
    plan = twist_plan(level, m, k_fields=(-1,))
    assert any("k=-1" in name for name in plan.curves)
    assert plan.cocycles_valid


def test_twist_plan_parity_errors():
    incompatible = next(m for m in CORPUS if not m.det_is_epsilon())
    compatible = COMPATIBLE[0]
    with pytest.raises(ParityError):
        twist_plan(Level(4, 3), incompatible)  # cyclotomic needs det rho = eps
    with pytest.raises(ParityError):
        twist_plan(Level(2, 3), compatible)  # non-cyclotomic needs det rho != eps


def test_twist_plan_non_cyclotomic():
    level = Level(5, 3)
    m = next(m for m in CORPUS if not m.det_is_epsilon())
    char = {s: m.epsilon(s) * m.det_class(s) for s in m.group.elements}
    m.characters["k"] = QuadraticCharacter(values=char, field=5)
    plan = twist_plan(level, m)
    assert plan.case == "non-cyclotomic"
    assert plan.curves == ["X(5,3)_rho"]
    assert plan.field_k == 5
    assert plan.field_k_character == char
    assert plan.cocycles_valid


def test_twist_plan_non_cyclotomic_excluded_case():
    m = next(m for m in CORPUS if not m.det_is_epsilon())
    plan = twist_plan(Level(2, 3), m)
    assert "possibly infinite" in plan.finiteness


def test_twist_plan_rejects_wrong_characteristic():
    with pytest.raises(ValueError):
        twist_plan(Level(4, 5), COMPATIBLE[0])


def test_twist_value_conjugation():
    m = next(
        mm for mm in CORPUS if any(mm.epsilon(s) == -1 for s in mm.group.elements)
    )
    xi = build_xi(m)
    sigma = next(s for s in m.group.elements if m.epsilon(s) == -1)
    tau = next(s for s in m.group.elements if m.epsilon(s) == 1)
    g = ProjMat(1, 1, 0, 1, 3)
    hv = xi.hat_v()
    assert xi.twist(sigma, (g, 0)) == (hv * g * hv, 0)
    assert xi.twist(tau, (g, 0)) == (g, 0)
