"""Moduli-state normal forms and the actions of G(N,p), w and Galois."""
import pytest
from hypothesis import given, settings, strategies as st

from modtwist.arith import Level, kronecker, least_nonsquare, sqrt_mod
from modtwist.moduli import (
    ModuliState,
    act_G,
    act_galois,
    act_w,
    all_states,
    normal_form,
    rationality_condition,
    verify_galois_conjugation,
    verify_w_rationality,
)
from modtwist.projgroup import ProjMat, psl2, t_matrix, v_matrix


def gl2_tuples(p):
    """Entries (a, b, c, d) of invertible 2x2 matrices mod p."""
    entries = st.integers(min_value=0, max_value=p - 1)

    def ok(t):
        a, b, c, d = t
        return (a * d - b * c) % p != 0

    return st.tuples(entries, entries, entries, entries).filter(ok)


def reference_normal_form(t, p, v):
    """Reference normal form by scaling, on raw entries: if det is a
    non-square, first multiply by V^-1 = [[0, 1], [-1/v, 0]]; then scale by
    1/sqrt(det) into SL2 and make the first nonzero entry 1.  Returns
    (entries, twist_bit)."""
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


def test_normal_form_square_det():
    # a scalar matrix with square det 4 mod 5 is the identity class
    m = ProjMat(2, 0, 0, 2, 5)
    s = normal_form(m)
    assert s.twist_bit == 0
    assert s.basis.is_identity()


def test_normal_form_nonsquare_det_splits_V():
    p, v = 5, 2
    m = v_matrix(p, v)
    s = normal_form(m, v)
    assert s.twist_bit == 1
    assert s.basis.is_identity()


@given(st.sampled_from([3, 5, 7]), st.data())
def test_normal_form_recovers_class(p, data):
    t = data.draw(gl2_tuples(p))
    s = normal_form(ProjMat(*t, p))
    u = s.underlying().rep
    # same projective class: u = lambda * t
    lam = None
    for x, y in zip(u, t):
        if y % p:
            lam = (x * pow(y, -1, p)) % p
            break
    assert lam is not None and lam != 0
    assert all(x % p == (lam * y) % p for x, y in zip(u, t))


@given(st.sampled_from([3, 5, 7]), st.data())
def test_normal_form_twist_bit_tracks_det_class(p, data):
    a, b, c, d = t = data.draw(gl2_tuples(p))
    s = normal_form(ProjMat(*t, p))
    assert s.twist_bit == (0 if kronecker(a * d - b * c, p) == 1 else 1)


@given(st.sampled_from([3, 5, 7]), st.booleans(), st.data())
def test_normal_form_matches_reference(p, square_det, data):
    want = 1 if square_det else -1
    t = data.draw(
        gl2_tuples(p).filter(lambda t: kronecker(t[0] * t[3] - t[1] * t[2], p) == want)
    )
    v = data.draw(st.sampled_from([x for x in range(1, p) if kronecker(x, p) == -1]))
    s = normal_form(ProjMat(*t, p), v)
    assert (s.basis.rep, s.twist_bit) == reference_normal_form(t, p, v)


def test_moduli_state_validation():
    with pytest.raises(ValueError):
        ModuliState(basis=ProjMat.identity(5), twist_bit=2, v=2)
    with pytest.raises(ValueError):
        ModuliState(basis=ProjMat.identity(5), twist_bit=0, v=4)  # 4 is a square
    with pytest.raises(ValueError):
        # basis must be in PSL2
        ModuliState(basis=v_matrix(5, 2), twist_bit=0, v=2)


def test_act_G_identity_state_example():
    # the reference state acted on by T lands on hat(T)
    p = 5
    s = ModuliState(basis=ProjMat.identity(p), twist_bit=0, v=2)
    t = t_matrix(p)
    out = act_G(s, t)
    assert out.twist_bit == 0
    assert out.basis == t.hat()


def test_act_G_requires_psl2():
    s = ModuliState(basis=ProjMat.identity(5), twist_bit=0, v=2)
    with pytest.raises(ValueError):
        act_G(s, v_matrix(5, 2))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_act_G_is_right_action(p):
    import random

    rng = random.Random(0)
    els = sorted(psl2(p).elements)
    states = all_states(p)
    for _ in range(30):
        s = rng.choice(states)
        g1, g2 = rng.choice(els), rng.choice(els)
        assert act_G(act_G(s, g1), g2) == act_G(s, g1 * g2)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_act_G_permutes_states(p):
    states = all_states(p)
    g = t_matrix(p)
    images = {act_G(s, g) for s in states}
    assert len(images) == len(states)
    assert set(states) == images


@pytest.mark.parametrize("p", [3, 5])
def test_act_G_preserves_twist_bit(p):
    for s in all_states(p):
        for g in sorted(psl2(p).elements):
            assert act_G(s, g).twist_bit == s.twist_bit


def test_act_w_cyclotomic_is_trivial():
    level = Level(4, 3)
    for s in all_states(3):
        assert act_w(s, level) == s


@pytest.mark.parametrize("N,p", [(2, 3), (5, 3), (2, 5), (3, 5), (3, 7)])
def test_act_w_non_cyclotomic_is_involution(N, p):
    level = Level(N, p)
    v = pow(N, -1, p)
    for s in all_states(p, v):
        t = act_w(s, level)
        assert t.twist_bit == 1 - s.twist_bit
        assert act_w(t, level) == s


def test_act_w_checks_v():
    level = Level(2, 5)  # needs v = 2^-1 = 3 mod 5
    s = ModuliState(basis=ProjMat.identity(5), twist_bit=0, v=2)
    with pytest.raises(ValueError):
        act_w(s, level)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_act_galois_square_chi_trivial(p):
    for s in all_states(p)[:10]:
        for chi in range(1, p):
            out = act_galois(s, chi)
            if kronecker(chi, p) == 1:
                assert out == s
            else:
                assert out.twist_bit == 1 - s.twist_bit


def test_act_galois_rejects_non_unit():
    s = ModuliState(basis=ProjMat.identity(5), twist_bit=0, v=2)
    with pytest.raises(ValueError):
        act_galois(s, 5)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_verify_galois_conjugation(p):
    assert verify_galois_conjugation(p)


@pytest.mark.parametrize("N,p", [(4, 3), (2, 3), (2, 5), (6, 5), (2, 7), (4, 7)])
def test_verify_w_rationality(N, p):
    assert verify_w_rationality(Level(N, p))


def test_all_states_count():
    for p in (3, 5):
        states = all_states(p)
        assert len(states) == 2 * len(psl2(p).elements)
        assert len(set(states)) == len(states)


def test_rationality_condition_variants():
    from modtwist.twists import model_corpus

    p, v = 3, least_nonsquare(3)
    j = ProjMat(0, 1, 1, 0, p)
    vv = v_matrix(p, v)
    # need a model whose image is not fixed by conjugation with J, so that
    # the plain and primed conditions genuinely differ
    m = next(
        mm
        for mm in model_corpus(3)
        if any(j * g * j != g for g in mm.rho.values())
    )
    rho_e_plain = {s: j * g * j for s, g in m.rho.items()}
    rho_e_primed = {s: vv * j * g * j * vv for s, g in m.rho.items()}
    assert rationality_condition(m, rho_e_plain, "plain")
    assert rationality_condition(m, rho_e_primed, "primed")
    assert not rationality_condition(m, rho_e_primed, "plain")
    with pytest.raises(ValueError):
        rationality_condition(m, rho_e_plain, "weird")
