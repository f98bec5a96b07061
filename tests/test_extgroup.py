"""The extended automorphism groups W(N,p): integer generators, structure,
defining relations and the involutions extending w_N."""
import operator

import pytest

from modtwist.arith import Level, kronecker, least_nonsquare
from modtwist.extgroup import (
    IntMat,
    build_generators,
    involutions_extending_wN,
    verify_relations,
    wgroup,
)
from modtwist.projgroup import ProjMat, centralizer, in_psl2, pgl2, psl2, spanning_tree

CYCLOTOMIC_LEVELS = [(4, 3), (7, 3), (4, 5), (6, 5), (9, 5), (2, 7), (4, 7)]
NON_CYCLOTOMIC_LEVELS = [(2, 3), (5, 3), (8, 3), (2, 5), (3, 5), (3, 7), (5, 7)]
# every non-cyclotomic level with p <= 13 and N <= 40, (28, 11) among them
ALL_NON_CYCLOTOMIC_LEVELS = [
    (N, p) for p in (3, 5, 7, 11, 13) for N in range(2, 41) if kronecker(N, p) == -1
]


def test_intmat_arithmetic():
    m = IntMat(1, 2, 3, 4)
    assert m.det == -2
    n = IntMat(0, 1, 1, 0)
    assert (m * n).det == m.det * n.det
    assert m.adj() == IntMat(4, -2, -3, 1) and (m * m.adj()).entries == (-2, 0, 0, -2)
    assert m.reduce(5) == ProjMat(1, 2, 3, 4, 5)
    assert repr(m) == "IntMat(a=1, b=2, c=3, d=4)" and hash(m) == hash(IntMat(1, 2, 3, 4))
    with pytest.raises(AttributeError, match="^cannot assign to field 'a'$"):
        m.a = 0
    with pytest.raises(ValueError, match=r"^IntMat: singular matrix \(1, 2, 2, 4\)$"):
        IntMat(1, 2, 2, 4)


@pytest.mark.parametrize("N,p", CYCLOTOMIC_LEVELS)
def test_cyclotomic_structure(N, p):
    rep = wgroup(Level(N, p))
    assert rep.structure == "DirectProduct"
    assert rep.order == p * (p * p - 1)
    assert rep.v == least_nonsquare(p)
    # Z_N has determinant N and reduces to a scalar: the extra generator is
    # central over the mod-p image
    z = rep.generators["Z_N"]
    assert z.det == N
    assert z.reduce(p).is_identity()
    assert rep.image_group.elements == psl2(p).elements


@pytest.mark.parametrize("N,p", NON_CYCLOTOMIC_LEVELS)
def test_non_cyclotomic_structure(N, p):
    rep = wgroup(Level(N, p))
    assert rep.structure == "FullPGL2"
    assert rep.order == p * (p * p - 1)
    assert rep.v == pow(N, -1, p)
    v = rep.generators["V_N"]
    assert v.det == N
    assert "Z_N" not in rep.generators
    assert rep.image_group.elements == pgl2(p).elements
    assert centralizer(rep.image_group.elements, p).order == 1


@pytest.mark.parametrize("N,p", CYCLOTOMIC_LEVELS + NON_CYCLOTOMIC_LEVELS)
def test_generator_determinants(N, p):
    gens = build_generators(Level(N, p))
    assert gens["T_N"].det == 1
    assert gens["U_N"].det == 1
    extra = gens.get("Z_N") or gens.get("V_N")
    assert extra.det == N


@pytest.mark.parametrize("N,p", NON_CYCLOTOMIC_LEVELS)
def test_relations(N, p):
    assert verify_relations(Level(N, p))


@pytest.mark.parametrize("N,p", ALL_NON_CYCLOTOMIC_LEVELS)
def test_involutions_extending_wN(N, p, conjugacy_class):
    rep = involutions_extending_wN(Level(N, p))
    full = pgl2(p)
    # the involutions outside PSL2, by squaring every element: PGL2 \ PSL2
    # holds p(p - (-1|p))/2 of them
    one = ProjMat.identity(p)
    invs = {g for g in full.elements if g != one and g * g == one and g.det_class == -1}
    assert rep.involutions == invs
    assert len(invs) == p * (p - kronecker(-1, p)) // 2
    # one class under W(N,p) ~ PGL2, as the whole-group conjugation finds
    vN = build_generators(Level(N, p))["V_N"].reduce(p)
    assert rep.single_conjugacy_class == (conjugacy_class(full, vN) == invs)
    assert rep.single_conjugacy_class
    # every involution has an integer model [[aN, b], [cN, -aN]] of
    # determinant exactly N
    assert set(rep.integer_models) == invs
    for g, m in rep.integer_models.items():
        assert m.det == N
        assert m.a % N == 0 and m.c % N == 0 and m.d == -m.a
        assert m.reduce(p) == g
        assert max(abs(x) for x in m.entries) < 10**13


def reference_involutions_extending_wN(level):
    """The integer models as the word-carrying walk finds them: the spanning
    tree of PSL2 under ``ProjMat`` products by T_N, U_N and their inverses,
    the word gamma_h carried to every vertex h, and gamma^-1 V_N gamma
    reduced at each; the first h reaching an involution gives its model."""
    N, p = level.N, level.p
    gens = build_generators(level)
    steps = {}
    for name in ("T_N", "U_N"):
        steps[name] = gens[name]
        steps[name + "^-1"] = gens[name].adj()
    tree = spanning_tree(
        ProjMat.identity(p), {name: m.reduce(p) for name, m in steps.items()}, operator.mul
    )
    words, models = {}, {}
    for h, edge in tree.items():
        gamma = IntMat(1, 0, 0, 1) if edge is None else words[edge[0]] * steps[edge[1]]
        words[h] = gamma
        m = gamma.adj() * gens["V_N"] * gamma
        g = m.reduce(p)
        if g not in models:
            assert m.det == N and not in_psl2(g) and (g * g).is_identity()
            models[g] = m
    return models


@pytest.mark.parametrize("N,p", ALL_NON_CYCLOTOMIC_LEVELS)
def test_integer_models_match_the_word_carrying_walk(N, p):
    # the index walk multiplies out a word only at each first hit: the same
    # models, found in the same order
    got = involutions_extending_wN(Level(N, p)).integer_models
    assert list(got.items()) == list(reference_involutions_extending_wN(Level(N, p)).items())


@pytest.mark.parametrize("N,p", CYCLOTOMIC_LEVELS + NON_CYCLOTOMIC_LEVELS)
def test_gnp_image_is_psl2(N, p, closure):
    # the mod-p image of G(N,p) = <T_N, U_N>
    gens = build_generators(Level(N, p))
    grp = closure((gens["T_N"].reduce(p), gens["U_N"].reduce(p)))
    assert grp.elements == psl2(p).elements


def test_structure_matches_square_class():
    # DirectProduct exactly when N is a square mod p
    for N, p in CYCLOTOMIC_LEVELS:
        assert kronecker(N, p) == 1
    for N, p in NON_CYCLOTOMIC_LEVELS:
        assert kronecker(N, p) == -1


def test_wgroup_example_4_3():
    rep = wgroup(Level(4, 3))
    z = rep.generators["Z_N"]
    # z reduces to the identity projectively and squares to N times a
    # congruence-trivial matrix
    assert z.reduce(3).is_identity()
    assert z.det == 4


# the levels of acceptance 9: p <= 13 and N <= 20 prime to p
ACCEPTANCE_9_LEVELS = [(N, p) for p in (3, 5, 7, 11, 13) for N in range(2, 21) if N % p]


def test_wgroup_image_is_the_closure_of_the_reductions(closure):
    # the index walk over right tables against ProjMat products
    for N, p in ACCEPTANCE_9_LEVELS:
        rep = wgroup(Level(N, p))
        reductions = tuple(m.reduce(p) for m in rep.generators.values())
        assert rep.image_group == closure(reductions), (N, p)
