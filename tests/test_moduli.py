"""Moduli states (PGL2(F_p) classes) and the actions of G(N,p), w and Galois.

The exhaustive checks in ``modtwist.moduli`` act on state indices through
right-multiplication tables.  The reference oracle here is the ProjMat form
they replaced: one ProjMat product per action and state (``act_G``,
``act_w``, ``act_galois`` and the two loops), itself checked against the
split (basis, twist bit) actions."""
import random
from functools import cache

import pytest
from hypothesis import given, strategies as st

from modtwist import moduli
from modtwist.arith import InvariantError, Level, kronecker, least_nonsquare, sqrt_mod
from modtwist.moduli import hat_table_walk, verify_galois_conjugation, verify_w_rationality
from modtwist.projgroup import (
    ProjMat,
    in_psl2,
    pgl2,
    pgl2_index,
    psl2,
    right_table,
    t_matrix,
    v_matrix,
)


def act_G(s, gamma):
    """Action of gamma in G(N,p) ~ PSL2 on a state: right multiplication by
    hat(gamma), a right action since hat is multiplicative."""
    if not in_psl2(gamma):
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
    for gamma in psl2(p).elements:
        gamma_sigma = vv.hat() * gamma * vv.hat()
        if not in_psl2(gamma_sigma):
            return False
        if gamma_sigma.hat() != vv * gamma.hat() * vv:
            return False
        for s in states:
            lhs = act_galois(act_G(s, gamma), v, v)
            rhs = act_G(act_galois(s, v, v), gamma_sigma)
            if lhs != rhs:
                return False
    return True


def reference_verify_w_rationality(level):
    """The ProjMat loop over every chi and every state."""
    p = level.p
    v = least_nonsquare(p) if level.cyclotomic else pow(level.N, -1, p)
    for chi in range(1, p):
        for s in sorted(pgl2(p).elements):
            t = act_w(s, level)
            t = act_galois(t, pow(chi, -1, p), v)
            t = act_w(t, level)
            t = act_galois(t, chi, v)
            if t != s:
                return False
    return True


def gl2_tuples(p):
    """Entries (a, b, c, d) of invertible 2x2 matrices mod p."""
    entries = st.integers(min_value=0, max_value=p - 1)

    def ok(t):
        a, b, c, d = t
        return (a * d - b * c) % p != 0

    return st.tuples(entries, entries, entries, entries).filter(ok)


def nonsquares(p):
    return [x for x in range(1, p) if kronecker(x, p) == -1]


@cache
def reference_normal_form(t, p, v):
    """Reference normal form by scaling, on raw entries: if det is a
    non-square, first multiply by V^-1 = [[0, 1], [-1/v, 0]]; then scale by
    1/sqrt(det) into SL2 and make the first nonzero entry 1.  Returns
    (entries, twist_bit): the class of ``t`` is basis * V^twist_bit."""
    a, b, c, d = t
    twist = int(kronecker(a * d - b * c, p) == -1)
    if twist:
        vi = pow(v, -1, p)
        a, b, c, d = -b * vi, a, -d * vi, c
    ri = pow(sqrt_mod((a * d - b * c) % p, p), -1, p)
    a, b, c, d = (x * ri % p for x in (a, b, c, d))
    assert (a * d - b * c) % p == 1
    lead = pow(next(x for x in (a, b, c, d) if x), -1, p)
    return tuple(x * lead % p for x in (a, b, c, d)), twist


# Reference oracle: the actions on split states (basis, twist bit), as they
# were computed before a state became a plain ProjMat.  Each one multiplies
# the underlying basis * V^twist_bit by a matrix on raw entries and splits
# the product again with reference_normal_form; no ProjMat product is used.


def _mul(x, y, p):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % p, (a * f + b * h) % p, (c * e + d * g) % p, (c * f + d * h) % p)


def _v(v):
    return (0, -v, 1, 0)


def reference_act(state, m, p, v):
    basis, twist = state
    underlying = _mul(basis, _v(v), p) if twist else basis
    return reference_normal_form(_mul(underlying, m, p), p, v)


def reference_act_G(state, gamma, p, v):
    a, b, c, d = gamma
    if kronecker(a * d - b * c, p) != 1:
        raise ValueError("gamma must lie in PSL2")
    return reference_act(state, (d, c, b, a), p, v)


def reference_act_w(state, level, v):
    if level.cyclotomic:
        return state
    if v != pow(level.N, -1, level.p):
        raise ValueError("the state must carry v = N^-1 mod p")
    return reference_act(state, _v(v), level.p, v)


def reference_act_galois(state, chi, p, v):
    if chi % p == 0:
        raise ValueError("chi must be a unit mod p")
    if kronecker(chi, p) == 1:
        return state
    return reference_act(state, _v(v), p, v)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_actions_match_split_reference(p):
    # every state, every gamma, every chi and every non-square v; for w every
    # N < 30 prime to p, with the v that verify_w_rationality uses
    states = sorted(pgl2(p).elements)
    gammas = sorted(psl2(p).elements)
    for v in nonsquares(p):
        split = {s: reference_normal_form(s.rep, p, v) for s in states}
        for s in states:
            for gamma in gammas:
                assert split[act_G(s, gamma)] == reference_act_G(split[s], gamma.rep, p, v)
            for chi in range(1, p):
                assert split[act_galois(s, chi, v)] == reference_act_galois(split[s], chi, p, v)
    for N in range(2, 30):
        if N % p == 0:
            continue
        level = Level(N, p)
        v = least_nonsquare(p) if level.cyclotomic else pow(N, -1, p)
        split = {s: reference_normal_form(s.rep, p, v) for s in states}
        for s in states:
            assert split[act_w(s, level)] == reference_act_w(split[s], level, v)


def test_normal_form_square_det():
    # a scalar matrix with square det 4 mod 5 is the identity state
    m = ProjMat(2, 0, 0, 2, 5)
    assert m.is_identity()
    assert reference_normal_form(m.rep, 5, 2) == ((1, 0, 0, 1), 0)


def test_normal_form_nonsquare_det_splits_V():
    p, v = 5, 2
    assert reference_normal_form(v_matrix(p, v).rep, p, v) == ((1, 0, 0, 1), 1)


@given(st.sampled_from([3, 5, 7]), st.data())
def test_normal_form_recovers_class(p, data):
    t = data.draw(gl2_tuples(p))
    v = data.draw(st.sampled_from(nonsquares(p)))
    basis, twist = reference_normal_form(t, p, v)
    underlying = ProjMat(*basis, p) * (v_matrix(p, v) if twist else ProjMat.identity(p))
    assert underlying == ProjMat(*t, p)


@given(st.sampled_from([3, 5, 7]), st.data())
def test_normal_form_twist_bit_tracks_det_class(p, data):
    # the twist bit of a state needs no field: it is (1 - det_class) // 2
    t = data.draw(gl2_tuples(p))
    _basis, twist = reference_normal_form(t, p, least_nonsquare(p))
    assert twist == (1 - ProjMat(*t, p).det_class) // 2


@given(st.sampled_from([3, 5, 7]), st.booleans(), st.data())
def test_normal_form_matches_reference(p, square_det, data):
    # the split g -> (g or g * V, twist bit) on ProjMat classes gives the
    # reference basis
    want = 1 if square_det else -1
    t = data.draw(
        gl2_tuples(p).filter(lambda t: kronecker(t[0] * t[3] - t[1] * t[2], p) == want)
    )
    v = data.draw(st.sampled_from(nonsquares(p)))
    g = ProjMat(*t, p)
    basis = g if g.det_class == 1 else g * v_matrix(p, v)
    assert reference_normal_form(basis.rep, p, v) == (reference_normal_form(t, p, v)[0], 0)


def test_all_states_count():
    # the states walked by the verify_* checks, all of PGL2, split one to one
    # onto PSL2 x {0, 1}
    for p in (3, 5):
        v = least_nonsquare(p)
        states = sorted(pgl2(p).elements)
        assert len(states) == 2 * psl2(p).order
        splits = {reference_normal_form(s.rep, p, v) for s in states}
        bases = {reference_normal_form(h.rep, p, v)[0] for h in psl2(p).elements}
        assert splits == {(b, t) for b in bases for t in (0, 1)}
        assert len(splits) == len(states)


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
    els = sorted(psl2(p).elements)
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
        for g in sorted(psl2(p).elements):
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
    # R_hat(gamma_sigma) as right_table would build them from ProjMat products
    hv = v_matrix(p, least_nonsquare(p)).hat()
    seen = []
    for gamma, r, r_sigma in hat_table_walk(p):
        seen.append(gamma)
        assert tuple(r) == right_table(gamma.hat())
        assert tuple(r_sigma) == right_table((hv * gamma * hv).hat())
    assert sorted(seen) == sorted(psl2(p).elements)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_indexed_actions_match_projmat_actions(p):
    # the w and Galois lookups of verify_w_rationality are the ProjMat
    # actions, at every N < 30 prime to p
    elems, index = pgl2_index(p)
    for N in range(2, 30):
        if N % p == 0:
            continue
        level = Level(N, p)
        v = least_nonsquare(p) if level.cyclotomic else pow(N, -1, p)
        r_v = right_table(v_matrix(p, v))
        for i, s in enumerate(elems):
            assert index[act_w(s, level)] == (i if level.cyclotomic else r_v[i])
            for chi in range(1, p):
                assert index[act_galois(s, chi, v)] == (i if kronecker(chi, p) == 1 else r_v[i])


@pytest.mark.parametrize("p", [3, 5, 7])
def test_verify_matches_projmat_reference(p):
    assert verify_galois_conjugation(p) is reference_verify_galois_conjugation(p) is True
    for N in range(2, 30):
        if N % p:
            level = Level(N, p)
            assert verify_w_rationality(level) is reference_verify_w_rationality(level) is True


def test_verify_galois_conjugation_checks_walk_reaches_psl2(monkeypatch):
    # a walk that misses part of PSL2 is a defect, not a verified result
    walk = moduli.hat_table_walk
    monkeypatch.setattr(moduli, "hat_table_walk", lambda p: list(walk(p))[:-1])
    with pytest.raises(InvariantError):
        verify_galois_conjugation(5)
