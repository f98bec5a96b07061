"""Finite group containers, model validation, degree characters, oddness and
obstruction splitting checks."""
from fractions import Fraction

import pytest

from modtwist.arith import Level
from modtwist.galmodel import (
    Case,
    DegreeData,
    FiniteGaloisModel,
    FiniteGroup,
    QuadraticCharacter,
    all_homs_to_pgl2,
    all_quadratic_characters,
    classify,
    cyclic_group,
    deg_p_character,
    det_varrho,
    klein_four,
    oddness_check,
    symmetric_group,
    trivial_group,
    validate_model,
    verify_splitting,
)
from modtwist.projgroup import ProjMat


def test_group_constructors():
    assert trivial_group().order == 1
    assert cyclic_group(5).order == 5
    assert klein_four().order == 4
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24


def test_group_inverses_and_identity():
    g = symmetric_group(3)
    for x in g:
        assert g.mul(x, g.inv(x)) == g.identity
        assert g.mul(g.identity, x) == x


def test_from_table():
    table = {"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "e"}}
    g = FiniteGroup.from_table(["e", "a"], table, "e")
    assert g.order == 2
    assert g.inv("a") == "a"


def test_from_table_rejects_non_group():
    table = {"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "a"}}
    with pytest.raises(ValueError):
        FiniteGroup.from_table(["e", "a"], table, "e")


def test_extend_generator_map():
    g = cyclic_group(4)
    vals = g.extend_generator_map({"g": 1j}, lambda a, b: a * b, 1 + 0j)
    assert set(vals.values()) == {1, 1j, -1, -1j}
    assert g.is_homomorphism(vals, lambda a, b: a * b)


def test_generator_words_cover_group():
    g = symmetric_group(4)
    assert set(g.words) == set(g.elements)
    for x, word in g.words.items():
        acc = g.identity
        for w in word:
            acc = g.mul(acc, g.gens[w])
        assert acc == x


def _c2_model(p=3, eps_nontrivial=True, rho_nontrivial=True):
    g = cyclic_group(2)
    e, s = g.identity, g.gens["g"]
    rho = {
        e: ProjMat.identity(p),
        s: ProjMat(0, 1, 1, 0, p) if rho_nontrivial else ProjMat.identity(p),
    }
    chi = {e: 1, s: (2 if eps_nontrivial else 1)}
    return FiniteGaloisModel(group=g, p=p, rho=rho, chi=chi, conj=s)


def test_validate_model_accepts_good_model():
    assert validate_model(_c2_model()) == []


def test_validate_model_rejects_bad_rho():
    m = _c2_model()
    m.rho[m.group.gens["g"]] = ProjMat(1, 1, 0, 1, 3)  # order 3, not a hom
    errs = validate_model(m)
    assert errs and "homomorphism" in errs[0]


def test_validate_model_rejects_bad_chi():
    m = _c2_model()
    m.chi[m.group.gens["g"]] = 3  # not a unit mod 3
    errs = validate_model(m)
    assert errs


def test_validate_model_checks_conj():
    m = _c2_model(eps_nontrivial=False)
    # conj must have chi = -1
    errs = validate_model(m)
    assert any("chi(conj)" in e for e in errs)


def test_validate_model_checks_characters():
    m = _c2_model()
    e, s = m.group.identity, m.group.gens["g"]
    m.characters["k"] = QuadraticCharacter(values={e: 1, s: 5}, field=-1)
    errs = validate_model(m)
    assert any("k" in err for err in errs)


def test_epsilon_and_det_class():
    m = _c2_model()
    s = m.group.gens["g"]
    assert m.epsilon(s) == -1  # chi(s) = 2 is a non-square mod 3
    assert m.epsilon(m.group.identity) == 1
    assert m.det_class(s) == -1  # [[0,1],[1,0]] has det -1


def test_det_is_epsilon():
    # det rho and eps are both nontrivial on s, or one of them is
    assert _c2_model().det_is_epsilon()
    assert not _c2_model(eps_nontrivial=False).det_is_epsilon()
    assert not _c2_model(rho_nontrivial=False).det_is_epsilon()
    assert _c2_model(eps_nontrivial=False, rho_nontrivial=False).det_is_epsilon()


def test_deg_p_character():
    m = _c2_model()
    e, s = m.group.identity, m.group.gens["g"]
    char_m = {e: 1, s: -1}
    # d = 2 is a non-square mod 3 so the local character enters; d = 4 is a
    # square so it does not
    dd = DegreeData(entries=((5, 2, char_m), (7, 4, char_m)))
    degp = deg_p_character(m, dd)
    assert degp == {e: 1, s: -1}
    dd2 = DegreeData(entries=((7, 4, char_m),))
    assert deg_p_character(m, dd2) == {e: 1, s: 1}


def test_det_varrho_and_oddness():
    m = _c2_model()
    e, s = m.group.identity, m.group.gens["g"]
    degp = {e: 1, s: 1}
    dv = det_varrho(m, degp)
    assert dv == {e: 1, s: -1}
    assert oddness_check(m, degp)  # det varrho(conj) = -1
    degp_odd = {e: 1, s: -1}
    assert not oddness_check(m, degp_odd)


def test_oddness_requires_conj():
    m = _c2_model()
    m.conj = None
    with pytest.raises(ValueError):
        oddness_check(m, {x: 1 for x in m.group.elements})


def test_classify():
    assert classify(Level(4, 3)) is Case.CYCLOTOMIC
    assert classify(Level(2, 3)) is Case.NON_CYCLOTOMIC


def test_verify_splitting_coboundary():
    g = cyclic_group(2)
    e, s = g.identity, g.gens["g"]
    alpha = {e: Fraction(1), s: Fraction(2)}
    c2 = {
        (a, b): alpha[a] * alpha[b] / alpha[g.mul(a, b)]
        for a in g.elements
        for b in g.elements
    }
    assert verify_splitting(g, c2, alpha)
    # perturb one value
    bad = dict(c2)
    bad[(s, s)] *= 3
    assert not verify_splitting(g, bad, alpha)


def test_verify_splitting_with_degrees():
    g = cyclic_group(2)
    e, s = g.identity, g.gens["g"]
    alpha = {e: Fraction(1), s: Fraction(2)}
    c2 = {
        (a, b): alpha[a] * alpha[b] / alpha[g.mul(a, b)]
        for a in g.elements
        for b in g.elements
    }
    degrees_good = {e: Fraction(1), s: Fraction(4)}  # alpha^2 / deg constant 1
    assert verify_splitting(g, c2, alpha, degrees=degrees_good)
    degrees_bad = {e: Fraction(1), s: Fraction(3)}
    assert not verify_splitting(g, c2, alpha, degrees=degrees_bad)


def test_all_homs_to_pgl2_counts():
    # C2 -> PGL2(F_3): identity plus one per involution (9 involutions)
    homs = all_homs_to_pgl2(cyclic_group(2), 3)
    assert len(homs) == 1 + 9
    for f in homs:
        grp = cyclic_group(2)
        assert f[grp.identity].is_identity()


def test_all_homs_are_homomorphisms():
    g = symmetric_group(3)
    for f in all_homs_to_pgl2(g, 3):
        assert g.is_homomorphism(f, lambda a, b: a * b)


def test_all_quadratic_characters():
    assert len(all_quadratic_characters(cyclic_group(2))) == 2
    assert len(all_quadratic_characters(klein_four())) == 4
    assert len(all_quadratic_characters(symmetric_group(3))) == 2  # trivial, sign
    assert len(all_quadratic_characters(cyclic_group(3))) == 1
