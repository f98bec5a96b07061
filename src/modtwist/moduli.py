"""Moduli states and the actions of G(N,p), w and Galois on them.

A point of X(N,p) carries a basis of E[p] up to scalars, so a moduli state is
a PGL2(F_p) class, a ``ProjMat``: the basis change relative to a fixed
reference basis, modulo scalars.  Its twist bit, whether it lies outside
PSL2, is (1 - det_class) // 2.

Every action is one right multiplication, by hat(gamma) or by
V = [[0, -v], [1, 0]] with v a non-square mod p.  G(N,p) ~ PSL2 acts through
the hat involution; w acts trivially at cyclotomic levels (it rescales the
basis by a square root of N^-1, a scalar) and by V with v = N^-1 mod p at
non-cyclotomic levels; a Galois element sigma with non-square cyclotomic
character value acts by V as well.
"""
from __future__ import annotations

from .arith import Level, kronecker, least_nonsquare
from .projgroup import ProjMat, in_psl2, pgl2, psl2, v_matrix


def act_G(s: ProjMat, gamma: ProjMat) -> ProjMat:
    """Action of gamma in G(N,p) ~ PSL2 on a state: right multiplication by
    hat(gamma).

    Since hat is multiplicative this is a right action:
    act_G(act_G(s, g1), g2) equals act_G(s, g1 * g2).
    """
    if not in_psl2(gamma):
        raise ValueError("act_G: gamma must lie in PSL2")
    return s * gamma.hat()


def act_w(s: ProjMat, level: Level) -> ProjMat:
    """Action of the extra involution w on a state: trivial at cyclotomic
    levels, where w rescales the basis by a square root of N^-1; right
    multiplication by V with v = N^-1 mod p otherwise."""
    if level.p != s.p:
        raise ValueError("act_w: level and state characteristics differ")
    if level.cyclotomic:
        return s
    return s * v_matrix(level.p, pow(level.N, -1, level.p))


def act_galois(s: ProjMat, chi: int, v: int) -> ProjMat:
    """Action of a Galois element with cyclotomic character value chi on a
    state: trivial when chi is a square mod p, otherwise right multiplication
    by V for the non-square v."""
    if chi % s.p == 0:
        raise ValueError("act_galois: chi must be a unit mod p")
    if kronecker(chi, s.p) == 1:
        return s
    return s * v_matrix(s.p, v)


def verify_galois_conjugation(p: int) -> bool:
    """Exhaustive check of the Galois conjugation rule on G(N,p).

    For sigma outside the field cut out by the quadratic residue character,
    the conjugate of gamma is gamma_sigma = hat(V) gamma hat(V), with v the
    least non-square mod p, and the action through hat satisfies
    hat(gamma_sigma) = V hat(gamma) V; on every state, acting by gamma then
    sigma equals sigma then gamma_sigma.
    """
    v = least_nonsquare(p)
    vv = v_matrix(p, v)
    chi_ns = v  # any non-square value of the cyclotomic character
    states = sorted(pgl2(p).elements)
    for gamma in psl2(p).elements:
        gamma_sigma = vv.hat() * gamma * vv.hat()
        if not in_psl2(gamma_sigma):
            return False
        if gamma_sigma.hat() != vv * gamma.hat() * vv:
            return False
        for s in states:
            lhs = act_galois(act_G(s, gamma), chi_ns, v)
            rhs = act_G(act_galois(s, chi_ns, v), gamma_sigma)
            if lhs != rhs:
                return False
    return True


def verify_w_rationality(level: Level) -> bool:
    """Exhaustive check that w commutes with the Galois action on states:
    for every character value chi, (galois) o act_w o (galois)^-1 o act_w^-1
    is the identity on every state."""
    p = level.p
    v = least_nonsquare(p) if level.cyclotomic else pow(level.N, -1, p)
    states = sorted(pgl2(p).elements)
    for chi in range(1, p):
        for s in states:
            t = act_w(s, level)  # act_w is an involution, so this inverts w too
            t = act_galois(t, pow(chi, -1, p), v)
            t = act_w(t, level)
            t = act_galois(t, chi, v)
            if t != s:
                return False
    return True
