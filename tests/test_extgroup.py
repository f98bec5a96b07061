"""The extended automorphism groups W(N,p): integer generators, structure,
defining relations and the involutions extending w_N."""
import pytest

from modtwist.arith import Level, kronecker, least_nonsquare
from modtwist.extgroup import (
    IntMat,
    build_generators,
    involutions_extending_wN,
    verify_relations,
    wgroup,
)
from modtwist.projgroup import ProjMat, centralizer, closure, pgl2, psl2

CYCLOTOMIC_LEVELS = [(4, 3), (7, 3), (4, 5), (6, 5), (9, 5), (2, 7), (4, 7)]
NON_CYCLOTOMIC_LEVELS = [(2, 3), (5, 3), (8, 3), (2, 5), (3, 5), (3, 7), (5, 7)]


def test_intmat_arithmetic():
    m = IntMat(1, 2, 3, 4)
    assert m.det == -2
    n = IntMat(0, 1, 1, 0)
    assert (m * n).det == m.det * n.det
    assert m.hat() == IntMat(4, 3, 2, 1)
    assert m.reduce(5) == ProjMat(1, 2, 3, 4, 5)


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
    assert rep.central_involution_reduction is not None
    assert rep.central_involution_reduction.is_identity()
    assert rep.image_group.elements == psl2(p).elements


@pytest.mark.parametrize("N,p", NON_CYCLOTOMIC_LEVELS)
def test_non_cyclotomic_structure(N, p):
    rep = wgroup(Level(N, p))
    assert rep.structure == "FullPGL2"
    assert rep.order == p * (p * p - 1)
    assert rep.v == pow(N, -1, p)
    v = rep.generators["V_N"]
    assert v.det == N
    assert rep.central_involution is None
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


@pytest.mark.parametrize("N,p", NON_CYCLOTOMIC_LEVELS)
def test_involutions_extending_wN(N, p):
    rep = involutions_extending_wN(Level(N, p))
    assert len(rep.involutions) >= 1
    assert rep.single_conjugacy_class
    vN = build_generators(Level(N, p))["V_N"].reduce(p)
    for g in rep.involutions:
        # an involution in PGL2 extending w_N: same class as V_N modulo PSL2
        assert (g * g).is_identity()
        assert g.det_class == vN.det_class
    # each involution has an integer model [[aN, b], [cN, -aN]] of det +-N
    # (the minus sign is admissible only when -1 is a square mod p)
    for g, m in rep.integer_models.items():
        assert m.det == N or (p % 4 == 1 and m.det == -N)
        assert m.a % N == 0 and m.c % N == 0 and m.d == -m.a
        assert m.reduce(p) == g


@pytest.mark.parametrize("N,p", CYCLOTOMIC_LEVELS + NON_CYCLOTOMIC_LEVELS)
def test_gnp_image_is_psl2(N, p):
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
