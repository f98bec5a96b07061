"""Genus and cusp computations for X_0(N) and the twisted curves X(N,p),
Atkin-Lehner fixed points and quotient genera."""
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from modtwist import curves
from modtwist.arith import (InvariantError, Level, class_number_primitive, divisors, euler_phi, is_prime,
                            psi_index)
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
    p1_local_T,
    xplus_verdict,
)

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "goldens_curve.json"

KNOWN_GENUS_X0 = {
    1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0, 9: 0, 10: 0,
    11: 1, 12: 0, 13: 0, 14: 1, 15: 1, 16: 0, 17: 1, 18: 0, 19: 1,
    20: 1, 21: 1, 22: 2, 23: 2, 24: 1, 25: 0, 26: 2, 27: 1, 28: 2,
    29: 2, 30: 3, 31: 2, 32: 1, 33: 3, 34: 3, 35: 3, 36: 1, 37: 2,
    38: 4, 39: 3, 40: 3, 41: 3, 48: 3, 49: 1, 50: 2, 71: 6,
}


def test_genus_X0_known_values():
    for n, g in KNOWN_GENUS_X0.items():
        assert genus_X0(n) == g, n


def test_cusp_counts_anchors():
    assert len(cusps_X0(20)) == 6
    assert len(cusps_X0(9)) == 4
    assert len(cusps_X0(49)) == 8


def test_cusp_data_structure():
    cusps = cusps_X0(20)
    # per divisor n of N there are phi(gcd(n, N/n)) cusps m/n
    by_n = {}
    for c in cusps:
        by_n.setdefault(c.n, []).append(c)
    for n in divisors(20):
        h = math.gcd(n, 20 // n)
        assert len(by_n[n]) == euler_phi(h)
        for c in by_n[n]:
            assert c.h == h
            assert math.gcd(c.m, c.n) == 1
            assert c.ram_degree == 20 // (n * h)
    assert sum(c.ram_degree for c in cusps) == psi_index(20)


@given(st.integers(min_value=1, max_value=2000))
@settings(max_examples=60, deadline=None)
def test_cusp_formula_matches_orbit_oracle(n):
    assert len(cusps_X0(n)) == cusps_oracle(n)


def reference_cusps_oracle(N: int) -> int:
    """The orbit count by brute force: every pair (c, d) in (Z/N)^2, each new
    point of P^1(Z/N) keyed with all its unit multiples, then one T-walk."""
    if N == 1:
        return 1
    units = [u for u in range(1, N) if math.gcd(u, N) == 1]
    gcd_n = [math.gcd(d, N) for d in range(N)]
    point_id: dict[tuple[int, int], int] = {}
    n_points = 0
    for c in range(N):
        gc = gcd_n[c]
        for d in range(N):
            if math.gcd(gc, gcd_n[d]) != 1:
                continue
            if (c, d) in point_id:
                continue
            for u in units:
                point_id[(u * c % N, u * d % N)] = n_points
            n_points += 1
    assert n_points == psi_index(N)
    seen = [False] * n_points
    orbits = 0
    for (c, d), idx in list(point_id.items()):
        if seen[idx]:
            continue
        orbits += 1
        x, y = c, d
        while True:
            seen[point_id[(x, y)]] = True
            y = (y + x) % N
            if seen[point_id[(x, y)]]:
                break
    return orbits


def test_cusps_oracle_matches_reference():
    for n in [*range(1, 201), 512, 720, 800]:
        assert cusps_oracle(n) == reference_cusps_oracle(n), n


def _local_point(q, e, i):
    m = q**e
    return (i, 1) if i < m else (1, q * (i - m))


def test_p1_local_T_is_T_on_all_points():
    # every prime power q^e <= 1000: the table permutes the psi(q^e) indices
    # and maps the point (c : d) of each index to (c : c + d); two points
    # (c1 : d1), (c2 : d2) of P^1(Z/q^e) are equal iff c1 d2 = c2 d1
    for q in filter(is_prime, range(2, 1001)):
        for e in range(1, 11):
            m = q**e
            if m > 1000:
                break
            table = p1_local_T(q, e)
            assert sorted(table) == list(range(psi_index(m))), (q, e)
            for i, j in enumerate(table):
                c, d = _local_point(q, e, i)
                c2, d2 = _local_point(q, e, j)
                assert (c * d2 - c2 * (c + d)) % m == 0, (q, e, i)


def test_non_bijective_local_T_is_invariant_error(monkeypatch):
    monkeypatch.setattr(curves, "p1_local_T", lambda q, e: [0] * psi_index(q**e))
    with pytest.raises(InvariantError, match="not a bijection"):
        cusps_oracle(20)


def test_cusp_labels():
    labels = {c.label for c in cusps_X0(20)}
    assert labels == {"1/1", "1/2", "1/4", "1/5", "1/10", "1/20"}


GENUS_XNP_ANCHORS = {
    (2, 3): 0,
    (4, 3): 1,
    (5, 3): 3,
    (4, 5): 13,
}


def test_genus_XNp_anchors():
    for (n, p), g in GENUS_XNP_ANCHORS.items():
        lv = Level(n, p)
        assert genus_XNp(lv) == g
        assert genus_XNp_hurwitz(lv) == g


@given(
    st.integers(min_value=2, max_value=40),
    st.sampled_from([3, 5, 7, 11]),
)
@settings(max_examples=80, deadline=None)
def test_genus_closed_form_matches_hurwitz(n, p):
    if math.gcd(n, p) != 1:
        return
    lv = Level(n, p)
    assert genus_XNp(lv) == genus_XNp_hurwitz(lv)


def test_genus_XNp_monotone_in_p():
    # for fixed N the genus grows with p (degree of the cover grows)
    lv3, lv7 = Level(4, 3), Level(4, 7)
    assert genus_XNp(lv7) > genus_XNp(lv3)


AL_FIXED_ANCHORS = {
    # (M, Q) -> fixed points of w_Q on X_0(M); each value is forced by the
    # genus of the known quotient through Riemann-Hurwitz: f = 2g + 2 - 4g'
    (6, 2): 2,    # g = 0, quotient genus 0
    (6, 3): 2,    # g = 0, quotient genus 0
    (6, 6): 2,    # g = 0, quotient genus 0
    (14, 7): 4,   # g = 1, quotient genus 0
    (15, 3): 0,   # g = 1, quotient genus 1 (the quotient is an elliptic curve)
    (15, 15): 4,  # g = 1, quotient genus 0
    (20, 4): 4,   # g = 1, quotient genus 0
    (21, 3): 4,   # g = 1, quotient genus 0
    (21, 21): 4,  # g = 1, quotient genus 0
    (33, 33): 4,  # g = 3, quotient genus 1
}


def test_al_fixed_points_anchors():
    for (m, q), f in AL_FIXED_ANCHORS.items():
        assert al_fixed_points(m, q) == f, (m, q)


def test_al_fixed_points_prime_level():
    # on X_0(q) the Fricke involution: quotient genus 0 for q = 11 and 23
    assert al_fixed_points(11, 11) == 4   # g = 1
    assert al_fixed_points(23, 23) == 6   # g = 2


def test_al_fixed_points_errors():
    with pytest.raises(ValueError):
        al_fixed_points(12, 5)  # Q does not divide M
    with pytest.raises(ValueError):
        al_fixed_points(24, 2)  # Q = 2 is not an exact divisor of 24
    with pytest.raises(ValueError):
        al_fixed_points(72, 9)  # M/Q = 8 is not squarefree
    for m, q in ((5, 0), (0, 0)):
        with pytest.raises(ValueError):
            al_fixed_points(m, q)  # Q = 0 is checked before M % Q


def test_genus_AL_quotient_anchors():
    assert genus_AL_quotient(12, 4) == 0
    assert genus_AL_quotient(20, 4) == 0
    assert genus_AL_quotient(15, 15) == 0
    assert genus_AL_quotient(33, 3) == 2
    assert genus_AL_quotient(15, 3) == 1
    # quotient genus never exceeds the genus upstairs
    for m, q in [(20, 4), (33, 3), (35, 5), (49, 49), (50, 25)]:
        assert genus_AL_quotient(m, q) <= genus_X0(m)


@given(st.integers(min_value=2, max_value=150))
@settings(max_examples=60, deadline=None)
def test_al_fixed_points_parity(m):
    # for every exact divisor Q the count must fit an involution on a curve
    # of the known genus: f >= 0, f <= 2g + 2 and f == 2g + 2 mod 4
    g = genus_X0(m)
    for q in divisors(m):
        if q <= 1 or math.gcd(q, m // q) != 1:
            continue
        try:
            f = al_fixed_points(m, q)
        except ValueError:
            continue  # unsupported shape (non-squarefree M/Q)
        assert 0 <= f <= 2 * g + 2
        assert (2 * g + 2 - f) % 4 == 0


def test_lemma_pairs_complete_list():
    expected = {
        (2, 3), (4, 3), (5, 3), (8, 3), (11, 3),
        (2, 5), (4, 5), (3, 7),
    }
    assert lemma_pairs(71) == expected


def test_lemma_pairs_monotone_in_bound():
    small = lemma_pairs(22)
    assert small <= lemma_pairs(71)
    assert (2, 3) in small


def test_low_genus_scan():
    rows = low_genus_XNp(20, 13)
    found = {(lv.N, lv.p): g for lv, g in rows}
    assert found[(2, 3)] == 0
    assert found[(4, 3)] == 1
    assert all(g <= 1 for g in found.values())
    assert (4, 5) not in found  # genus 13
    # no N to scan: returns before listing the primes up to max_p
    assert low_genus_XNp(1, 10**12) == []


def test_xplus_verdict_rational_case():
    rep = xplus_verdict(Level(4, 3))
    assert rep.genus == 0


def test_xplus_verdict_genus_four_case():
    rep = xplus_verdict(Level(4, 5))
    assert rep.genus == 4


def test_xplus_verdict_generic_case():
    rep = xplus_verdict(Level(6, 5))  # 6 is a square mod 5? 6 = 1 mod 5, yes
    assert rep.genus is None
    assert "genus > 1" in rep.note


def test_xplus_verdict_requires_cyclotomic():
    with pytest.raises(ValueError):
        xplus_verdict(Level(2, 3))


def test_curve_goldens_replay():
    # every stored curve-scan answer, in-process: the (M, Q) fixed-point
    # counts with their quotient genera, the X+ verdicts, the class numbers,
    # lemma_pairs(71) and the low-genus scan (curve-scan samples only some)
    gold = json.loads(GOLDENS.read_text())
    assert len(gold["al"]) == 811
    for key, want in gold["al"].items():
        M, Q = map(int, key.split(","))
        assert [al_fixed_points(M, Q), genus_AL_quotient(M, Q)] == want, key
    assert len(gold["xplus"]) > 100
    for key, want in gold["xplus"].items():
        rep = xplus_verdict(Level(*map(int, key.split(","))))
        assert [rep.curve, rep.genus, rep.method, rep.note] == want, key
    assert all(class_number_primitive(int(D)) == h for D, h in gold["class_numbers"].items())
    assert sorted(map(list, lemma_pairs(71))) == gold["lemma_pairs_71"]
    assert [[lv.N, lv.p, g] for lv, g in low_genus_XNp(300, 13)] == gold["low_genus_300_13"]


@pytest.mark.parametrize("f", [cusps_X0, cusps_oracle], ids=lambda f: f.__name__)
@pytest.mark.parametrize("N", [0, -1, -12])
def test_cusp_counts_refuse_levels_below_one(f, N):
    with pytest.raises(ValueError, match=f"^{f.__name__}: need N > 0, got {N}$") as err:
        f(N)
    assert type(err.value) is ValueError
