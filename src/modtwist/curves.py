"""Genus and cusp bookkeeping for the modular curves X_0(N), X(N,p) and
Atkin-Lehner quotients.

X(N,p) denotes the fiber product of X_0(N) and X(p) over the j-line; its
genus admits both a closed form and an independent Riemann-Hurwitz
computation from the cusp data of X_0(N), and the two are cross-checked.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .arith import (
    InvariantError,
    Level,
    class_number_primitive,
    divisors,
    euler_phi,
    invariant,
    is_squarefree,
    kronecker,
    odd_primes_upto,
    prime_factors,
    psi_index,
    squarefree_part,
)


class CuspData(NamedTuple):
    """A cusp m/n of X_0(N): n | N, gcd(m, n) = 1, m taken mod gcd(n, N/n)."""

    n: int
    m: int
    h: int  # gcd(n, N/n); the cusps with this n are indexed by (Z/h)^*
    ram_degree: int  # ramification degree over X(1)

    @property
    def label(self) -> str:
        return f"{self.m}/{self.n}"


def cusps_X0(N: int) -> list[CuspData]:
    """The cusps of X_0(N): for each divisor n, phi(gcd(n, N/n)) cusps m/n
    with m the least positive representative of its class prime to n."""
    if N <= 0:
        raise ValueError(f"cusps_X0: need N > 0, got {N}")
    out = []
    for n in divisors(N):
        h = math.gcd(n, N // n)
        ram = N // (n * h)
        for u in range(1, h + 1):
            if math.gcd(u, h) != 1:
                continue
            # least positive m = u (mod h) with gcd(m, n) = 1
            m = u
            while math.gcd(m, n) != 1:
                m += h
            out.append(CuspData(n=n, m=m, h=h, ram_degree=ram))
    invariant(sum(c.ram_degree for c in out) == psi_index(N), f"cusps_X0({N}): degree sum != psi")
    return out


def p1_local_T(q: int, e: int) -> list[int]:
    """T = (c : d) -> (c : c + d) on P^1(Z/q^e) as a list permutation of the
    local indices: x < q^e is the point (x : 1), q^e + k (k < q^(e-1)) is
    (1 : q k).  These are the psi(q^e) points: a point with d a unit scales
    to (c/d : 1), and otherwise c is a unit and it scales to (1 : d/c)."""
    m = q**e
    table = []
    for x in range(m):
        y = (x + 1) % m
        if y % q:  # (x : x + 1) = (x / (x + 1) : 1)
            table.append(x * pow(y, -1, m) % m)
        else:  # x = -1 is a unit: (x : x + 1) = (1 : (x + 1) / x)
            table.append(m + y * pow(x, -1, m) % m // q)
    for k in range(m // q):  # (1 : 1 + q k) = (1 / (1 + q k) : 1)
        table.append(pow(1 + q * k, -1, m))
    return table


def cusps_oracle(N: int) -> int:
    """Independent cusp count for X_0(N): the number of orbits of P^1(Z/N)
    under the parabolic action T = (c : d) -> (c : c + d).

    By CRT, P^1(Z/N) is the product of the P^1(Z/q^e) over q^e || N and T
    acts coordinate by coordinate (Cremona, Algorithms for Modular Elliptic
    Curves, 2.2).  ``p1_local_T`` indexes each factor and tabulates T on it;
    a point of the product is the mixed-radix index of its coordinates, T on
    the product is tabulated from the local tables, and each T-cycle of the
    psi(N) points is walked once, counting one orbit per cycle.  The count is
    a literal orbit walk: it uses neither cycle lengths nor the divisor sum
    of ``cusps_X0``, the formula it checks."""
    if N <= 0:
        raise ValueError(f"cusps_oracle: need N > 0, got {N}")
    if N == 1:
        return 1
    # T on the product: a position and its value are mixed-radix indices,
    # the factor added last giving the most significant digit
    perm = [0]
    for q in prime_factors(N):
        e, rest = 0, N
        while rest % q == 0:
            rest //= q
            e += 1
        table = p1_local_T(q, e)
        invariant(
            sorted(table) == list(range(len(table))),
            f"cusps_oracle({N}): T on P^1(Z/{q}^{e}) is not a bijection",
        )
        stride = len(perm)
        perm = [t * stride + a for t in table for a in perm]
    invariant(len(perm) == psi_index(N), f"cusps_oracle({N}): |P^1(Z/N)| != psi(N)")
    seen = bytearray(len(perm))
    orbits = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        orbits += 1
        idx = start
        while not seen[idx]:
            seen[idx] = 1
            idx = perm[idx]
    return orbits


def _nu(N: int, D: int, square: int) -> int:
    """The number of elliptic points of X_0(N) of order 2 (D = -4, square =
    4) or of order 3 (D = -3, square = 9): none when square | N, else the
    product of 1 + (D | q) over the primes q | N."""
    if N % square == 0:
        return 0
    out = 1
    for q in prime_factors(N):
        out *= 1 + kronecker(D, q)
    return out


def genus_X0(N: int) -> int:
    """Genus of X_0(N) by the standard index/elliptic-point/cusp formula."""
    nu_inf = sum(euler_phi(math.gcd(n, N // n)) for n in divisors(N))
    nu2, nu3 = _nu(N, -4, 4), _nu(N, -3, 9)
    g = 1 + Fraction(psi_index(N), 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(nu_inf, 2)
    invariant(g.denominator == 1 and g >= 0, f"genus_X0({N}) is not a natural number")
    return int(g)


def genus_XNp(level: Level) -> int:
    """Genus of X(N, p), closed form."""
    N, p = level.N, level.p
    s = sum(euler_phi(math.gcd(n, N // n)) for n in divisors(N))
    g = 1 + Fraction(psi_index(N) * p * (p * p - 1), 24) - Fraction((p * p - 1) * s, 4)
    invariant(g.denominator == 1 and g >= 0, f"non-integral genus at ({N}, {p})")
    return int(g)


def genus_XNp_hurwitz(level: Level) -> int:
    """Independent genus computation for X(N, p): Riemann-Hurwitz over the
    j-line using the cusp data of X_0(N).

    The covering X(N,p) -> X(1) has degree d = psi(N) p (p^2-1)/2; every
    point over j = 1728 has ramification degree 2 and over j = 0 degree 3
    (the curve has no elliptic points), and every cusp of X_0(N) of
    ramification degree e contributes (p^2-1)/2 cusps of degree p*e.
    """
    N, p = level.N, level.p
    d = psi_index(N) * p * (p * p - 1) // 2
    invariant(d % 6 == 0, "covering degree must be divisible by 6")
    total = Fraction(-2 * d)
    total += Fraction(d, 2)  # over j = 1728: d/2 points with e = 2
    total += Fraction(2 * d, 3)  # over j = 0: d/3 points with e = 3
    m = (p * p - 1) // 2
    cusp_sum = 0
    for c in cusps_X0(N):
        cusp_sum += m * (p * c.ram_degree - 1)
    total += cusp_sum
    invariant(total % 2 == 0, f"genus_XNp_hurwitz({N}, {p}): odd 2g - 2")
    g = (total + 2) / 2
    invariant(g.denominator == 1 and g >= 0, f"genus_XNp_hurwitz({N}, {p}): bad genus")
    return int(g)


# ---------------------------------------------------------------------------
# Atkin-Lehner fixed points and quotients
# ---------------------------------------------------------------------------


def _order_od_cyclic_orders(Q: int) -> list[tuple[int, int]]:
    """Pairs (disc, t11) for the orders O with Z[sqrt(-Q)] <= O <= O_K such
    that O / sqrt(-Q) O is cyclic, i.e. the CM orders whose curves carry a
    cyclic self-isogeny of degree Q squaring to -Q.  Here t11 is the second
    coordinate of theta = sqrt(-Q) in the basis (1, f w0) of O, so theta is
    a scalar mod q exactly when q divides t11."""
    d = squarefree_part(Q)
    msq, m = Q // d, math.isqrt(Q // d)
    invariant(m * m == msq, f"{Q} / squarefree part is not a square")
    if d % 4 == 3:
        dk, cond = -d, 2 * m
    else:
        dk, cond = -4 * d, m
    out = []
    for f in divisors(cond):
        # O_f = Z + f O_K with Z-basis (1, f w0); express theta = m sqrt(-d)
        # and theta * f w0 in that basis and take the Smith form.  f divides
        # cond, which is 2m when dk = 1 mod 4 and m else, so m // f and
        # 2 * m // f are exact.
        if dk % 4 == 1:  # w0 = (1 + sqrt(-d)) / 2, so sqrt(-d) = 2 w0 - 1
            # theta = -m + 2m w0 = (-m, 2m/f)
            t10, t11 = -m, 2 * m // f
            # theta * f w0 = f m (sqrt(-d) - d) / 2 = (-f m (d + 1) / 2, m)
            t20, t21 = -(f * m * (d + 1)) // 2, m
        else:  # w0 = sqrt(-d)
            t10, t11 = 0, m // f
            t20, t21 = -f * m * d, 0
        # Smith form of [[t10, t11], [t20, t21]]
        g1 = math.gcd(math.gcd(t10, t11), math.gcd(t20, t21))
        det = abs(t10 * t21 - t11 * t20)
        invariant(det == Q, f"index {det} != Q = {Q} at conductor {f}")
        if g1 == 1:  # elementary divisors (1, Q) => cyclic quotient
            out.append((f * f * dk, t11))
    return out


def _al_local_factor(disc: int, t11: int, q: int) -> int:
    """Number of fixed points above the prime q | R lying over one CM point
    with order of discriminant ``disc``: the number of theta-stable lines in
    O/q, up to the extra units when disc = -3.

    If theta = sqrt(-Q) is a scalar mod q (q | t11) every one of the q + 1
    lines is stable; for disc = -3 the order's extra units then identify all
    of them (this occurs only at q = 2).  Otherwise the stable lines are
    exactly the ideal lines of O above q, counted by the Kronecker symbol.
    """
    if t11 % q == 0:
        if disc == -3:
            invariant(q == 2, f"disc -3 with a scalar theta at q = {q}")
            return 1
        return q + 1
    return 1 + kronecker(disc, q)


def al_fixed_points(M: int, Q: int) -> int:
    """Number of fixed points of the Atkin-Lehner involution w_Q on X_0(M).

    Requires Q || M, Q > 1, and R = M/Q squarefree.  Counted via CM theory:
    fixed non-cuspidal points biject with triples (E, theta, C_R) where
    theta in End(E) is a cyclic Q-isogeny with theta^2 = -Q (plus, for Q = 2
    only, theta^2 = +-2i on j = 1728), weighted by Kronecker local factors at
    the primes dividing R; for Q = 4 the involution additionally fixes the
    cusps m/n with ord_2(n) = 1.  The Q = 2 points on j = 1728 come from
    theta = 1 + i with theta^2 = 2i: one more pair (disc, t11) = (-4, 1) for
    the orders' loop, theta = 1 + 1*i being never a scalar mod q.
    """
    if Q <= 1 or M % Q != 0:
        raise ValueError(f"al_fixed_points: need Q > 1 dividing M, got ({M}, {Q})")
    R = M // Q
    if math.gcd(Q, R) != 1:
        raise ValueError(f"al_fixed_points: need Q || M, got ({M}, {Q})")
    if not is_squarefree(R):
        raise ValueError(f"al_fixed_points: M/Q = {R} not squarefree (unsupported)")
    total = 0
    for disc, t11 in _order_od_cyclic_orders(Q) + ([(-4, 1)] if Q == 2 else []):
        term = class_number_primitive(disc)
        for q in prime_factors(R):
            term *= _al_local_factor(disc, t11, q)
        total += term
    if Q == 4:
        # w_4 fixes each cusp m/n with ord_2(n) = 1; with R squarefree and
        # odd each such n has h = gcd(n, M/n) = 2, so it carries phi(2) = 1 cusp.
        for c in cusps_X0(M):
            if c.n % 4 == 2:
                total += 1
    return total


def genus_AL_quotient(M: int, Q: int) -> int:
    """Genus of X_0(M) / w_Q via Riemann-Hurwitz; errors if the fixed-point
    count is inconsistent with an involution quotient."""
    g = genus_X0(M)
    f = al_fixed_points(M, Q)
    num = 2 * g + 2 - f
    invariant(
        num % 4 == 0 and num >= 0,
        f"genus_AL_quotient({M}, {Q}): fixed points {f} incompatible with genus {g}",
    )
    return num // 4


_HYPERELLIPTIC_BOUND = 71  # beyond this, X_0(pN)/w_N always has genus > 0


def lemma_pairs(bound: int = _HYPERELLIPTIC_BOUND) -> set[tuple[int, int]]:
    """All pairs (N, p), p an odd prime, N > 1 prime to p, with p*N <= bound
    and X_0(pN)/w_N of genus 0.  Pairs with p*N > 71 cannot occur, so the
    scan is capped there."""
    out = set()
    cap = min(bound, _HYPERELLIPTIC_BOUND)
    for p in odd_primes_upto(cap):
        for N in range(2, cap // p + 1):
            if math.gcd(N, p) != 1:
                continue
            if genus_AL_quotient(p * N, N) == 0:
                out.add((N, p))
    return out


class GenusReport(NamedTuple):
    curve: str
    genus: int | None  # None means "not computed exactly"
    method: str
    note: str = ""


def low_genus_XNp(max_n: int, max_p: int) -> list[tuple[Level, int]]:
    """All levels (N, p) with N <= max_n, p <= max_p and genus X(N,p) <= 1."""
    if max_n < 2:
        return []
    out = []
    for p in odd_primes_upto(max_p):
        for N in range(2, max_n + 1):
            if math.gcd(N, p) != 1:
                continue
            level = Level(N, p)
            g = genus_XNp(level)
            if g <= 1:
                out.append((level, g))
    return out


def xplus_verdict(level: Level) -> GenusReport:
    """Genus verdict for the quotient X+(N,p) of X(N,p) by w (cyclotomic
    levels only): exact genus for the two small cases, else 'genus > 1'
    whenever X_0(pN)/w_N has positive genus."""
    if not level.cyclotomic:
        raise ValueError(f"xplus_verdict: level {level} is not cyclotomic")
    N, p = level.N, level.p
    name = f"X+({N},{p})"
    if (N, p) == (4, 3):
        # X(4,3) is elliptic, w has fixed points, and the quotient is
        # rational; consistent with X_0(12)/w_4 being rational.
        invariant(genus_XNp(level) == 1 and genus_AL_quotient(12, 4) == 0, "X+(4,3) anchor")
        return GenusReport(curve=name, genus=0, method="paper_case")
    if (N, p) == (4, 5):
        # degree-10 covering of the rational curve X_0(20)/w_4, ramified at
        # four points of degree 5 and ten of degree 2; by Riemann-Hurwitz
        # 2g - 2 = 10 * (-2) + 4 * 4 + 10 * 1 = 6, so g = 4.
        invariant(genus_AL_quotient(20, 4) == 0, "X+(4,5) anchor: X_0(20)/w_4 is not rational")
        return GenusReport(curve=name, genus=4, method="paper_case")
    q = genus_AL_quotient(p * N, N)
    if q > 0:
        return GenusReport(
            curve=name,
            genus=None,
            method="al_quotient",
            note=f"genus > 1 (X_0({p * N})/w_{N} has genus {q})",
        )
    raise InvariantError(f"unexpected genus-0 quotient at cyclotomic level {level}")
