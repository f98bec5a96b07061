"""Moduli states (PGL2(F_p) classes) and the actions of G(N,p), w and Galois.

The exhaustive checks in ``modtwist.moduli`` act on state indices through
right-multiplication tables.  The reference oracle here is the ProjMat form
they replaced: one ProjMat product per action and state (``act_G``,
``act_w``, ``act_galois``) and the Galois-conjugation loop.  A state's
twist bit is its determinant class: PGL2(F_p) is PSL2(F_p) and its coset
by V, one to one."""
import random

import pytest

from modtwist import moduli
from modtwist.arith import InvariantError, Level, kronecker, least_nonsquare
from modtwist.moduli import hat_table_walk, verify_galois_conjugation, verify_w_rationality
from modtwist.projgroup import (
    ProjMat,
    pgl2,
    psl2,
    t_matrix,
    v_matrix,
)


def psl2_elements(p):
    """The matrices of PSL2(F_p), in sorted order."""
    return [pgl2(p).elements[k] for k in psl2(p)]


def act_G(s, gamma):
    """Action of gamma in G(N,p) ~ PSL2 on a state: right multiplication by
    hat(gamma), a right action since hat is multiplicative."""
    if gamma.det_class != 1:
        raise ValueError("act_G: gamma must lie in PSL2")
    return s * gamma.hat()


def act_w(s, level):
    """Action of w on a state: trivial at cyclotomic levels, right
    multiplication by V with v = N^-1 mod p otherwise."""
    if level.p != s.p:
        raise ValueError("act_w: level and state characteristics differ")
    if level.cyclotomic:
        return s
    return s * v_matrix(level.p, pow(level.N, -1, level.p))


def act_galois(s, chi, v):
    """Action of a Galois element with cyclotomic character value chi:
    trivial for square chi, right multiplication by V otherwise."""
    if chi % s.p == 0:
        raise ValueError("act_galois: chi must be a unit mod p")
    if kronecker(chi, s.p) == 1:
        return s
    return s * v_matrix(s.p, v)


def reference_verify_galois_conjugation(p):
    """The ProjMat loop over every gamma in PSL2 and every state."""
    v = least_nonsquare(p)
    vv = v_matrix(p, v)
    states = sorted(pgl2(p).elements)
    for gamma in psl2_elements(p):
        gamma_sigma = vv.hat() * gamma * vv.hat()
        if gamma_sigma.det_class != 1:
            return False
        if gamma_sigma.hat() != vv * gamma.hat() * vv:
            return False
        for s in states:
            lhs = act_galois(act_G(s, gamma), v, v)
            rhs = act_G(act_galois(s, v, v), gamma_sigma)
            if lhs != rhs:
                return False
    return True


def test_all_states_count():
    # the states walked by the verify_* checks, all of PGL2, split one to one
    # onto PSL2 x {0, 1} as h * V^t, the twist bit t = (1 - det_class) // 2
    for p in (3, 5, 7):
        vv = v_matrix(p, least_nonsquare(p))
        split = {h * vv if t else h: (h, t) for h in psl2_elements(p) for t in (0, 1)}
        assert len(split) == 2 * psl2(p).order == pgl2(p).order
        assert split.keys() == set(pgl2(p).elements)
        assert all(t == (1 - g.det_class) // 2 for g, (_h, t) in split.items())


def test_act_G_identity_state_example():
    # the reference state acted on by T lands on hat(T)
    p = 5
    out = act_G(ProjMat.identity(p), t_matrix(p))
    assert out == t_matrix(p).hat()
    assert out.det_class == 1


def test_act_G_requires_psl2():
    with pytest.raises(ValueError):
        act_G(ProjMat.identity(5), v_matrix(5, 2))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_act_G_is_right_action(p):
    rng = random.Random(0)
    els = psl2_elements(p)
    states = sorted(pgl2(p).elements)
    for _ in range(30):
        s = rng.choice(states)
        g1, g2 = rng.choice(els), rng.choice(els)
        assert act_G(act_G(s, g1), g2) == act_G(s, g1 * g2)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_act_G_permutes_states(p):
    states = sorted(pgl2(p).elements)
    g = t_matrix(p)
    images = {act_G(s, g) for s in states}
    assert len(images) == len(states)
    assert set(states) == images


@pytest.mark.parametrize("p", [3, 5])
def test_act_G_preserves_twist_bit(p):
    for s in sorted(pgl2(p).elements):
        for g in psl2_elements(p):
            assert act_G(s, g).det_class == s.det_class


def test_act_w_cyclotomic_is_trivial():
    level = Level(4, 3)
    for s in sorted(pgl2(3).elements):
        assert act_w(s, level) == s
    with pytest.raises(ValueError):
        act_w(ProjMat.identity(5), level)  # a state mod 5 at a level mod 3


@pytest.mark.parametrize("N,p", [(2, 3), (5, 3), (2, 5), (3, 5), (3, 7)])
def test_act_w_non_cyclotomic_is_involution(N, p):
    level = Level(N, p)
    for s in sorted(pgl2(p).elements):
        t = act_w(s, level)
        assert t.det_class == -s.det_class
        assert act_w(t, level) == s


@pytest.mark.parametrize("p", [3, 5, 7])
def test_act_galois_square_chi_trivial(p):
    v = least_nonsquare(p)
    for s in sorted(pgl2(p).elements)[:10]:
        for chi in range(1, p):
            out = act_galois(s, chi, v)
            if kronecker(chi, p) == 1:
                assert out == s
            else:
                assert out.det_class == -s.det_class


def test_act_galois_rejects_non_unit():
    with pytest.raises(ValueError):
        act_galois(ProjMat.identity(5), 5, 2)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_verify_galois_conjugation(p):
    assert verify_galois_conjugation(p)


@pytest.mark.parametrize("N,p", [(4, 3), (2, 3), (2, 5), (6, 5), (2, 7), (4, 7)])
def test_verify_w_rationality(N, p):
    assert verify_w_rationality(Level(N, p))


@pytest.mark.parametrize("p", [3, 5])
def test_hat_table_walk_matches_right_table(p):
    # every gamma of PSL2 once, each carrying R_hat(gamma) and
    # R_hat(gamma_sigma) as ProjMat products would give them
    hv = v_matrix(p, least_nonsquare(p)).hat()
    elems, index = pgl2(p).elements, pgl2(p).index
    seen = []
    for gamma, r, r_sigma in hat_table_walk(p):
        seen.append(gamma)
        assert list(r) == [index[x * gamma.hat()] for x in elems]
        assert list(r_sigma) == [index[x * (hv * gamma * hv).hat()] for x in elems]
    assert sorted(seen) == psl2_elements(p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_indexed_actions_match_projmat_actions(p):
    # the w and Galois lookups of verify_w_rationality are the ProjMat
    # actions, at every N < 30 prime to p
    elems, index = pgl2(p).elements, pgl2(p).index
    for N in range(2, 30):
        if N % p == 0:
            continue
        level = Level(N, p)
        v = least_nonsquare(p) if level.cyclotomic else pow(N, -1, p)
        r_v = [index[x * v_matrix(p, v)] for x in elems]
        for i, s in enumerate(elems):
            assert index[act_w(s, level)] == (i if level.cyclotomic else r_v[i])
            for chi in range(1, p):
                assert index[act_galois(s, chi, v)] == (i if kronecker(chi, p) == 1 else r_v[i])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_verify_matches_projmat_reference(p):
    # w-rationality has no reference: R_V o R_V = id, true for every v, is
    # all it can check, so it is only run, at every N < 30 prime to p
    assert verify_galois_conjugation(p) is reference_verify_galois_conjugation(p) is True
    assert all(verify_w_rationality(Level(N, p)) for N in range(2, 30) if N % p)


def test_verify_galois_conjugation_checks_walk_reaches_psl2(monkeypatch):
    # a walk that misses part of PSL2 is a defect, not a verified result
    walk = moduli.hat_table_walk
    monkeypatch.setattr(moduli, "hat_table_walk", lambda p: list(walk(p))[:-1])
    with pytest.raises(InvariantError):
        verify_galois_conjugation(5)
