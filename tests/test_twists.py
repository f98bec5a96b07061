"""Twisting cocycles, cohomology witnesses, centralizer verdicts and twist
plans, with the whole-group checks kept as reference oracles: the pair
check of the cocycle identity is the one reference for ``check_cocycle``,
on the corpus and on perturbed cochains."""
import itertools
from functools import lru_cache

import pytest

from modtwist import twists
from modtwist.arith import Level, least_nonsquare
from modtwist.galmodel import (
    FiniteGaloisModel,
    FiniteGroup,
    QuadraticCharacter,
    cyclic_group,
    validate_model,
)
from modtwist.projgroup import ProjMat, pgl2, pgl2_index, psl2, v_matrix
from modtwist.twists import (
    Ambient,
    CentralizerVerdict,
    Cocycle,
    ParityError,
    build_xi,
    centralizer_verdict,
    check_cocycle,
    cohomologous,
    model_corpus,
    _finiteness_verdict,
    _untwisted,
    rho_star,
    twist_plan,
)

CORPUS = model_corpus(3)
COMPATIBLE = [m for m in CORPUS if m.det_is_epsilon()]
CORPORA = {3: CORPUS, 5: model_corpus(5)}


@lru_cache(maxsize=None)
def _sampled_corpus(p):
    """model_corpus(p) whole at p = 3 and 5, every 7th model at p = 7."""
    return CORPORA[p] if p in CORPORA else model_corpus(p)[::7]


def reference_check_cocycle(c):
    """Exhaustive check of xi(st) = xi(s) * twist_s(xi(t)) on all |G|^2
    pairs, the twist by s being conjugation by hat(V) where eps(s) = -1."""
    grp = c.model.group
    hv = v_matrix(c.p).hat()
    for s in grp.elements:
        gs, ws = c.values[s]
        twisted = c.model.epsilon(s) == -1
        for t in grp.elements:
            gt, wt = c.values[t]
            if twisted:
                gt = hv * gt * hv
            gst, wst = c.values[grp.mul(s, t)]
            if gst != gs * gt or wst != (ws + wt) % 2:
                return False
    return True


def reference_cohomologous(c1, c2):
    """The first witness in sorted order checked on every group element."""
    grp = c1.model.group
    pool = psl2(c1.p) if c1.ambient is Ambient.G_NP else pgl2(c1.p)
    hv = v_matrix(c1.p).hat()
    for cand in sorted(pool.elements):
        ci = cand.inverse()
        ok = True
        for s in grp.elements:
            g1, w1 = c1.values[s]
            g2, w2 = c2.values[s]
            if w1 != w2:
                ok = False
                break
            tc = hv * cand * hv if c1.model.epsilon(s) == -1 else cand
            if g2 != ci * g1 * tc:
                ok = False
                break
        if ok:
            return (cand, 0)
    return None


@lru_cache(maxsize=None)
def reference_centralizer_verdict(image: frozenset, p: int) -> CentralizerVerdict:
    """The verdict from the centralizer of every value of rho, scanning all
    of PGL2 against each value."""
    cen = frozenset(g for g in pgl2(p).elements if all(g * x == x * g for x in image))
    if len(cen) == 1:
        return CentralizerVerdict.TRIVIAL
    if cen <= psl2(p).elements:
        return CentralizerVerdict.NONTRIVIAL_IN_PSL2
    return CentralizerVerdict.NONTRIVIAL_OUTSIDE_PSL2


def reference_rho_star(m, primed=False) -> dict:
    """rho*(s), the transpose of rho(s^-1) read off its entries, conjugated
    by hat(V) when primed, by group element."""
    hv = v_matrix(m.p).hat()
    out = {}
    for s in m.group.elements:
        a, b, c, d = m.rho[m.group.elements[m.group.inverse[m.group.index[s]]]].rep
        g = ProjMat(a, c, b, d, m.p)
        out[s] = hv * g * hv if primed else g
    return out


def reference_build_xi_values(m, variant, k_char=None):
    """xi(s) = rho*(s) * eta(s) by ProjMat products, eta(s) = hat(V) where
    eps(s) = -1; the w-bit 1 where chi_k(s) = -1."""
    hv = v_matrix(m.p).hat()
    return {s: (g * hv if m.epsilon(s) == -1 else g, int(k_char is not None and k_char[s] == -1))
            for s, g in reference_rho_star(m, variant == "primed").items()}


def eta(m):
    """The basic quadratic cocycle, by ProjMats: the identity where eps = +1,
    hat(V) where eps = -1, a homomorphism onto a group of order at most 2."""
    hv = v_matrix(m.p).hat()
    values = {s: (ProjMat.identity(m.p) if m.epsilon(s) == 1 else hv, 0) for s in m.group.elements}
    return Cocycle(model=m, ambient=Ambient.W_NP, values=values)


def _cocycles(m):
    """The plain and primed cocycles, and the chi_k one with k = eps where
    det rho = eps."""
    out = [build_xi(m, "plain"), build_xi(m, "primed")]
    if m.det_is_epsilon():
        out.append(build_xi(m, k_char={s: m.epsilon(s) for s in m.group.elements}))
    return out


def _with_w_flipped(c, s):
    g, w = c.values[s]
    return Cocycle(model=c.model, ambient=c.ambient, values={**c.values, s: (g, 1 - w)})


@pytest.mark.parametrize("p", [3, 5, 7])
def test_build_xi_matches_projmat_reference(p):
    # plain, primed and, where det rho = eps, chi_k = eps: the index walk of
    # rho_star and build_xi against transposes and products
    checked = 0
    for m in _sampled_corpus(p):
        kinds = [("plain", None), ("primed", None)]
        if m.det_is_epsilon():
            kinds.append(("plain", {s: m.epsilon(s) for s in m.group.elements}))
        for variant, k_char in kinds:
            want = reference_build_xi_values(m, variant, k_char)
            assert build_xi(m, variant, k_char).values == want, (m.group.name, p, variant)
            checked += 1
    assert checked > 2 * len(_sampled_corpus(p))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_check_cocycle_matches_pair_reference(p):
    checked = 0
    for m in _sampled_corpus(p):
        for c in _cocycles(m):
            assert check_cocycle(c) == reference_check_cocycle(c), (m.group.name, p)
            checked += 1
    assert checked > 2 * len(_sampled_corpus(p))


@pytest.mark.parametrize("p", [3, 5])
def test_rho_star_is_the_transpose_of_rho_at_the_inverse(p):
    # rho*(s) from the entries of rho(s^-1), and its primed variant as the
    # ProjMat product hat(V) rho*(s) hat(V), against the index walk, by
    # group number
    elems = pgl2_index(p)[0]
    for m in CORPORA[p]:
        for primed in (False, True):
            want = list(reference_rho_star(m, primed).values())
            assert [elems[k] for k in rho_star(m, primed=primed)] == want, (m.group.name, p, primed)


def test_check_cocycle_matches_pair_reference_on_perturbations(perturbations):
    # the perturbation_breaks fixture's cochains on groups of order <= 6,
    # and every single w-bit flip of the plain and chi_k cocycles
    small = [m for m in CORPUS if m.group.order <= 6]
    rejected = 0
    for m in small:
        xi = build_xi(m)
        for s in m.group.elements:
            for d in perturbations(xi, s):
                valid = check_cocycle(d)
                assert valid == reference_check_cocycle(d)
                rejected += not valid
        for c in _cocycles(m):
            for s in m.group.elements:
                d = _with_w_flipped(c, s)
                valid = check_cocycle(d)
                assert valid == reference_check_cocycle(d)
                rejected += not valid
    assert rejected > 0


@pytest.mark.parametrize("p", [3, 5])
def test_cohomologous_matches_whole_group_reference(p):
    found = 0
    for m in CORPORA[p]:
        if not m.det_is_epsilon():
            continue
        xi, xi_p = build_xi(m, "plain"), build_xi(m, "primed")
        wit = cohomologous(xi, xi_p)
        assert wit == reference_cohomologous(xi, xi_p), (m.group.name, p)
        found += wit is not None
    assert found > 0


def test_cohomologous_matches_reference_across_models():
    # pairs over one group and one rho with different chi: c2 must be
    # untwisted by c1's eps, as the reference twists by it
    pairs = 0
    for m1, m2 in itertools.combinations(CORPUS, 2):
        if (m2.group is not m1.group or m2.rho != m1.rho or m2.chi == m1.chi
                or m2.det_is_epsilon() != m1.det_is_epsilon()):
            continue
        xi, xi_p = build_xi(m1), build_xi(m2, "primed")
        assert cohomologous(xi, xi_p) == reference_cohomologous(xi, xi_p), m1.group.name
        pairs += 1
    assert pairs == 156


@pytest.mark.parametrize("p", [3, 5])
def test_centralizer_verdict_matches_image_reference(p):
    for m in CORPORA[p]:
        want = reference_centralizer_verdict(frozenset(m.rho.values()), p)
        assert centralizer_verdict(m) is want, (m.group.name, p)


def test_checks_on_generators_reject_a_group_without_generators():
    table = {"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "e"}}
    grp = FiniteGroup.from_table(["e", "a"], table, "e")
    m = FiniteGaloisModel(
        group=grp, p=3, rho={"e": ProjMat.identity(3), "a": ProjMat(0, 1, 1, 0, 3)},
        chi={"e": 1, "a": 2},
    )
    xi = build_xi(m)
    for check in (lambda: check_cocycle(xi), lambda: cohomologous(xi, xi),
                  lambda: centralizer_verdict(m)):
        with pytest.raises(ValueError, match="no generators"):
            check()


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
    t = ProjMat(1, 1, 0, 1, 3)
    rho = {e: ProjMat.identity(3), s: t, grp.mul(s, s): t * t}
    mm = FiniteGaloisModel(group=grp, p=3, rho=rho, chi={x: 1 for x in grp.elements})
    star = rho_star(mm)
    assert pgl2_index(3)[0][star[grp.index[s]]] == ProjMat(1, 0, -1, 1, 3)


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
        hv = v_matrix(xi.p).hat()
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
    assert "X(4,3)_rho" in plan.curves and "X(4,3)'_rho" in plan.curves
    assert "possibly infinite" in plan.finiteness  # the excluded rational case
    doc = plan.to_jsonable()
    assert doc["level"] == {"N": 4, "p": 3}


def test_twist_plan_cyclotomic_finite():
    plan = twist_plan(Level(7, 3), COMPATIBLE[0])
    assert "finite" in plan.finiteness


def test_twist_plan_k_fields(variant):
    level = Level(7, 3)
    m = next(
        mm for mm in COMPATIBLE if any(mm.epsilon(s) == -1 for s in mm.group.elements)
    )
    k = {s: m.epsilon(s) for s in m.group.elements}
    m = variant(m, characters={"k": QuadraticCharacter(values=k, field=-1)})
    plan = twist_plan(level, m, k_fields=(-1,))
    assert any("k=-1" in name for name in plan.curves)


def test_twist_plan_parity_errors():
    incompatible = next(m for m in CORPUS if not m.det_is_epsilon())
    compatible = COMPATIBLE[0]
    with pytest.raises(ParityError):
        twist_plan(Level(4, 3), incompatible)  # cyclotomic needs det rho = eps
    with pytest.raises(ParityError):
        twist_plan(Level(2, 3), compatible)  # non-cyclotomic needs det rho != eps


def test_twist_plan_non_cyclotomic(variant):
    level = Level(5, 3)
    m = next(m for m in CORPUS if not m.det_is_epsilon())
    char = {s: m.epsilon(s) * m.det_class(s) for s in m.group.elements}
    m = variant(m, characters={"k": QuadraticCharacter(values=char, field=5)})
    plan = twist_plan(level, m)
    assert plan.case == "non-cyclotomic"
    assert plan.curves == ["X(5,3)_rho"]
    assert plan.field_k == 5
    assert plan.field_k_character == char


def test_twist_plan_builds_no_cocycle(monkeypatch, variant):
    # the plan reports its cocycles valid as a theorem on a validated model
    # (see twist_plan): it builds none and checks none, at a cyclotomic level
    # with a chi_k curve and at a non-cyclotomic one
    def unreachable(*args, **kwargs):
        raise AssertionError("twist_plan builds or checks a cocycle")

    monkeypatch.setattr(twists, "build_xi", unreachable)
    monkeypatch.setattr(twists, "check_cocycle", unreachable)
    m = next(mm for mm in COMPATIBLE if any(mm.epsilon(s) == -1 for s in mm.group.elements))
    k = {s: m.epsilon(s) for s in m.group.elements}
    m = variant(m, characters={"k": QuadraticCharacter(values=k, field=-1)})
    cyclotomic = twist_plan(Level(7, 3), m, k_fields=(-1,))
    assert "X(7,3)_rho,k=-1" in cyclotomic.curves
    incompatible = next(m for m in CORPUS if not m.det_is_epsilon())
    non_cyclotomic = twist_plan(Level(5, 3), incompatible)
    assert non_cyclotomic.curves == ["X(5,3)_rho"]
    for plan in (cyclotomic, non_cyclotomic):
        assert plan.to_jsonable()["cocycles_valid"] is True


def test_twist_plan_non_cyclotomic_excluded_case():
    m = next(m for m in CORPUS if not m.det_is_epsilon())
    plan = twist_plan(Level(2, 3), m)
    assert "possibly infinite" in plan.finiteness


def test_twist_plan_rejects_wrong_characteristic():
    with pytest.raises(ValueError):
        twist_plan(Level(4, 5), COMPATIBLE[0])


def test_twist_value_conjugation():
    # the untwisting by a model's eps: hat(V) on the right where eps = -1,
    # the value unchanged elsewhere, w-bits untouched, as PGL2 indices
    m = next(
        mm for mm in COMPATIBLE if any(mm.epsilon(s) == -1 for s in mm.group.elements)
    )
    xi = build_xi(m, k_char={s: m.epsilon(s) for s in m.group.elements})
    hv = v_matrix(xi.p).hat()
    elems, index = pgl2_index(xi.p)
    ks, ws = _untwisted(xi, m, range(m.group.order))
    assert list(xi.values) == list(m.group.elements)
    for s, (g, w) in xi.values.items():
        i = m.group.index[s]
        assert (ks[i], ws[i]) == (index[g * hv if m.epsilon(s) == -1 else g], w), s
    assert elems[ks[m.group.index[m.group.identity]]].is_identity()
    gens = [m.group.index[s] for s in m.group.generators()]
    assert _untwisted(xi, m, gens) == ([ks[i] for i in gens], [ws[i] for i in gens])


def _parity_models(p):
    """Valid models on C2 with det rho = eps (rho trivial) and det rho != eps
    (rho(s) = [[0, d], [1, 0]] with -d a non-square, an involution in PGL2)."""
    grp = cyclic_group(2)
    s = grp.gens["g"]
    one = {x: 1 for x in grp.elements}
    ident = ProjMat.identity(p)
    compatible = FiniteGaloisModel(group=grp, p=p, rho={grp.identity: ident, s: ident}, chi=one)
    swap = ProjMat(0, -least_nonsquare(p) % p, 1, 0, p)
    incompatible = FiniteGaloisModel(group=grp, p=p, rho={grp.identity: ident, s: swap}, chi=one)
    assert not validate_model(compatible) and not validate_model(incompatible)
    assert compatible.det_is_epsilon() and not incompatible.det_is_epsilon()
    return {True: compatible, False: incompatible}


def test_twist_plan_finiteness_is_the_uncached_verdict():
    levels = [Level(N, p) for p in (3, 5, 7, 11, 13) for N in range(2, 41) if N % p]
    models = {p: _parity_models(p) for p in (3, 5, 7, 11, 13)}

    def verdicts():
        return [twist_plan(lv, models[lv.p][lv.cyclotomic]).finiteness for lv in levels]

    expected = [_finiteness_verdict.__wrapped__(lv) for lv in levels]
    _finiteness_verdict.cache_clear()
    assert verdicts() == expected
    info = _finiteness_verdict.cache_info()
    assert info.misses == len(levels) and info.currsize == len(levels)
    assert verdicts() == expected
    assert _finiteness_verdict.cache_info().hits == info.hits + len(levels)
    _finiteness_verdict.cache_clear()
    assert verdicts() == expected
