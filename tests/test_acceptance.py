"""Acceptance suite: twelve end-to-end criteria, each printing one
``ACCEPTANCE n: PASS``/``FAIL`` line (run with ``pytest -s`` to see them) and
enforcing an explicit time bound."""
import math
import time

from modtwist.arith import (
    Level,
    class_number_primitive,
    kronecker,
    least_nonsquare,
    psi_index,
)
from modtwist.curves import (
    al_fixed_points,
    cusps_X0,
    cusps_oracle,
    genus_AL_quotient,
    genus_X0,
    genus_XNp,
    genus_XNp_hurwitz,
    lemma_pairs,
    low_genus_XNp,
    xplus_verdict,
)
from modtwist.extgroup import (
    build_generators,
    involutions_extending_wN,
    verify_relations,
    wgroup,
)
from modtwist.galmodel import validate_model
from modtwist.moduli import verify_galois_conjugation, verify_w_rationality
from modtwist.projgroup import pgl2, psl2
from modtwist.twists import (
    CentralizerVerdict,
    build_xi,
    centralizer_verdict,
    check_cocycle,
    cohomologous,
    model_corpus,
)


def _verdict(n: int, ok: bool, elapsed: float, bound: float) -> None:
    in_time = elapsed <= bound
    status = "PASS" if (ok and in_time) else "FAIL"
    print(f"ACCEPTANCE {n}: {status} ({elapsed:.2f}s, bound {bound:.0f}s)")
    assert ok, f"criterion {n} failed"
    assert in_time, f"criterion {n} exceeded {bound}s ({elapsed:.2f}s)"


def test_acceptance_01_basic_invariants():
    """Core arithmetic anchors evaluate correctly in under 1 second."""
    t0 = time.monotonic()
    ok = (
        psi_index(20) == 36
        and kronecker(2, 3) == -1
        and least_nonsquare(7) == 3
        and class_number_primitive(-20) == 2
        and class_number_primitive(-163) == 1
        and Level(4, 3).cyclotomic
        and not Level(2, 3).cyclotomic
        and genus_X0(20) == 1
        and len(cusps_X0(20)) == 6
    )
    _verdict(1, ok, time.monotonic() - t0, 1.0)


def test_acceptance_02_genus_closed_form_vs_hurwitz():
    """Closed-form genus of X(N,p) equals the independent Riemann-Hurwitz
    bookkeeping over the j-line for all coprime N <= 60, p in {3,5,7,11,13},
    in under 30 seconds."""
    t0 = time.monotonic()
    ok = True
    for p in (3, 5, 7, 11, 13):
        for n in range(2, 61):
            if math.gcd(n, p) != 1:
                continue
            lv = Level(n, p)
            if genus_XNp(lv) != genus_XNp_hurwitz(lv):
                ok = False
    _verdict(2, ok, time.monotonic() - t0, 30.0)


def test_acceptance_03_low_genus_scan():
    """The complete list of levels with genus X(N,p) <= 1 for N <= 300 and
    p <= 13 is exactly X(2,3) (genus 0) and X(4,3) (genus 1)."""
    t0 = time.monotonic()
    rows = low_genus_XNp(300, 13)
    ok = [((lv.N, lv.p), g) for lv, g in rows] == [((2, 3), 0), ((4, 3), 1)]
    _verdict(3, ok, time.monotonic() - t0, 30.0)


def test_acceptance_04_lemma_pairs():
    """The pairs (N, p) with X_0(pN)/w_N of genus 0 and pN <= 71 are exactly
    the eight known ones."""
    t0 = time.monotonic()
    expected = {(2, 3), (4, 3), (5, 3), (8, 3), (11, 3), (2, 5), (4, 5), (3, 7)}
    ok = lemma_pairs(71) == expected
    _verdict(4, ok, time.monotonic() - t0, 30.0)


def test_acceptance_05_atkin_lehner_fixed_points():
    """Atkin-Lehner fixed-point counts at the anchor cases, including the
    cusp-fixing involution w_4 on X_0(20)."""
    t0 = time.monotonic()
    ok = (
        al_fixed_points(20, 4) == 4
        and al_fixed_points(6, 2) == 2
        and al_fixed_points(15, 15) == 4
        and genus_AL_quotient(12, 4) == 0
        and genus_AL_quotient(20, 4) == 0
    )
    # parity safety net over a sweep of valid inputs
    for m in range(2, 120):
        g = genus_X0(m)
        for q in (d for d in range(2, m + 1) if m % d == 0):
            if math.gcd(q, m // q) != 1:
                continue
            try:
                f = al_fixed_points(m, q)
            except ValueError:
                continue
            if f < 0 or (2 * g + 2 - f) % 4 != 0:
                ok = False
    _verdict(5, ok, time.monotonic() - t0, 30.0)


def test_acceptance_06_xplus_verdicts():
    """X+(N,p) verdicts over every cyclotomic level with N <= 50 and
    p in {3,5,7,11,13}: genus 0 at (4,3), genus 4 at (4,5) (with the
    Riemann-Hurwitz ramification sum 26 re-derived), genus > 1 elsewhere."""
    t0 = time.monotonic()
    ok = True
    for p in (3, 5, 7, 11, 13):
        for n in range(2, 51):
            if math.gcd(n, p) != 1 or kronecker(n, p) != 1:
                continue
            rep = xplus_verdict(Level(n, p))
            if (n, p) == (4, 3):
                ok = ok and rep.genus == 0
            elif (n, p) == (4, 5):
                ok = ok and rep.genus == 4
            else:
                ok = ok and rep.genus is None and "genus > 1" in rep.note
    # re-derive the (4,5) count: genus-4 double bookkeeping for the degree-10
    # cover of the genus-0 quotient X_0(20)/w_4: 2g - 2 = 10(2*0 - 2) + 26
    ram = 4 * (5 - 1) + 10 * (2 - 1)
    ok = ok and ram == 26 and (2 * 4 - 2) == 10 * (-2) + ram
    _verdict(6, ok, time.monotonic() - t0, 30.0)


def test_acceptance_07_w_group_structure():
    """Structure of W(N,p) for p in {3,5,7} and coprime N <= 20: order
    p(p^2-1), direct product with central involution exactly at cyclotomic
    levels, full PGL2 with trivial center and a single class of extending
    involutions otherwise, each with an integer model [[aN, b], [cN, -aN]] of
    determinant N.  Under 60 seconds."""
    t0 = time.monotonic()
    ok = True
    for p in (3, 5, 7):
        for n in range(2, 21):
            if math.gcd(n, p) != 1:
                continue
            lv = Level(n, p)
            rep = wgroup(lv)
            ok = ok and rep.order == p * (p * p - 1)
            if lv.cyclotomic:
                ok = ok and rep.structure == "DirectProduct"
                ok = ok and rep.generators["Z_N"].reduce(p).is_identity()
                ok = ok and rep.image_group == psl2(p)
            else:
                ok = ok and rep.structure == "FullPGL2"
                ok = ok and rep.image_group == tuple(range(pgl2(p).order))
                ok = ok and len(pgl2(p).centralizer(rep.image_group)) == 1
                inv = involutions_extending_wN(lv)
                ok = ok and inv.single_conjugacy_class
                ok = ok and len(inv.involutions) == p * (p - kronecker(-1, p)) // 2
                ok = ok and set(inv.integer_models) == inv.involutions
                ok = ok and all(
                    m.det == n and m.a % n == 0 and m.c % n == 0 and m.d == -m.a and m.reduce(p) == g
                    for g, m in inv.integer_models.items()
                )
    _verdict(7, ok, time.monotonic() - t0, 60.0)


def test_acceptance_08_defining_relations():
    """The defining relations of W(N,p) hold at every non-cyclotomic level
    with p in {3,5,7,11} and N <= 20, and the integer generators have the
    stated determinants."""
    t0 = time.monotonic()
    ok = True
    for p in (3, 5, 7, 11):
        for n in range(2, 21):
            if math.gcd(n, p) != 1 or kronecker(n, p) != -1:
                continue
            lv = Level(n, p)
            ok = ok and verify_relations(lv)
            gens = build_generators(lv)
            ok = ok and gens["T_N"].det == 1 and gens["U_N"].det == 1
            ok = ok and gens["V_N"].det == n
    _verdict(8, ok, time.monotonic() - t0, 60.0)


def test_acceptance_09_moduli_actions():
    """Galois conjugation and w-rationality on moduli states hold
    exhaustively for p in {3,5,7,11,13} and coprime N <= 20."""
    t0 = time.monotonic()
    ok = all(verify_galois_conjugation(p) for p in (3, 5, 7, 11, 13))
    for p in (3, 5, 7, 11, 13):
        for n in range(2, 21):
            if math.gcd(n, p) != 1:
                continue
            ok = ok and verify_w_rationality(Level(n, p))
    _verdict(9, ok, time.monotonic() - t0, 120.0)


def _valid_corpus() -> list:
    """model_corpus(3) and the valid models of model_corpus(5)."""
    return model_corpus(3) + [m for m in model_corpus(5) if not validate_model(m)]


def test_acceptance_10_cocycle_corpus(perturbation_breaks):
    """Over model_corpus(3) and the valid models of model_corpus(5), the
    plain and primed twisting cocycles (and the chi_k variants where
    available) all satisfy the twisted cocycle identity, and at p = 3
    single-value perturbations break it.  Under 60 seconds."""
    t0 = time.monotonic()
    corpus = model_corpus(3)
    wide = _valid_corpus()
    ok = len(corpus) >= 50 and len(wide) == len(corpus) + 634
    for m in wide:
        xi = build_xi(m, "plain")
        xi_p = build_xi(m, "primed")
        ok = ok and check_cocycle(xi) and check_cocycle(xi_p)
        if m.det_is_epsilon():
            k = {s: m.epsilon(s) for s in m.group.elements}
            ok = ok and check_cocycle(build_xi(m, k_char=k))
    # perturbation robustness over the small-group part of the corpus
    small = [m for m in corpus if m.group.order <= 6]
    ok = ok and len(small) >= 50
    for m in small:
        ok = ok and perturbation_breaks(build_xi(m))
    _verdict(10, ok, time.monotonic() - t0, 60.0)


def test_acceptance_11_equivalence_criterion():
    """The plain and primed cocycles are cohomologous precisely when the
    centralizer of the image of rho meets PGL2 outside PSL2, over the whole
    cyclotomic-compatible part of model_corpus(3) and of the valid models of
    model_corpus(5)."""
    t0 = time.monotonic()
    ok = True
    checked = 0
    for m in _valid_corpus():
        if not m.det_is_epsilon():
            continue
        equivalent = (
            cohomologous(build_xi(m, "plain"), build_xi(m, "primed")) is not None
        )
        expected = centralizer_verdict(m) is CentralizerVerdict.NONTRIVIAL_OUTSIDE_PSL2
        ok = ok and (equivalent == expected)
        checked += 1
    ok = ok and checked == 154 + 244
    _verdict(11, ok, time.monotonic() - t0, 60.0)


def test_acceptance_12_cusp_oracle():
    """The divisor-sum cusp formula for X_0(N) matches the P^1(Z/N) orbit
    count for every N <= 1000, in under 30 seconds."""
    t0 = time.monotonic()
    ok = all(len(cusps_X0(n)) == cusps_oracle(n) for n in range(1, 1001))
    _verdict(12, ok, time.monotonic() - t0, 30.0)
