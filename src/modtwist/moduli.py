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

The exhaustive checks take a state as its number in ``pgl2(p)`` and an action
as a lookup in the column ``pgl2(p).right(k)``, k the class's number.
R_hat(gamma) is carried depth-first along the spanning tree of PSL2 = <T, U>,
one composition per tree edge, since hat is multiplicative and swaps T and U.
"""
from __future__ import annotations

import operator

from .arith import Level, invariant, kronecker
from .projgroup import ProjMat, pgl2, spanning_tree, t_matrix, u_matrix, v_matrix


def hat_table_walk(p: int):
    """Yield (gamma, R_hat(gamma), R_hat(gamma_sigma)) for every gamma in
    PSL2(F_p), gamma_sigma = hat(V) gamma hat(V), depth-first along the
    spanning tree of <T, U>, keeping only the current path's tables.  The
    child gamma * g has hat(gamma) hat(g) and conjugate gamma_sigma g_sigma,
    as hat(V) is an involution: one composition with a step table each."""
    full, hv = pgl2(p), v_matrix(p).hat()
    gens = {"T": t_matrix(p), "U": u_matrix(p)}
    steps = {name: (full.right(full.index[g.hat()]), full.right(full.index[(hv * g * hv).hat()]))
             for name, g in gens.items()}
    children = {}
    for y, edge in spanning_tree(ProjMat.identity(p), gens, operator.mul).items():
        if edge is not None:
            children.setdefault(edge[0], []).append((y, edge[1]))
    identity = tuple(range(full.order))
    stack = [(ProjMat.identity(p), None, identity, identity)]
    while stack:
        gamma, name, r, r_sigma = stack.pop()
        if name is not None:
            step, step_sigma = steps[name]
            r, r_sigma = [step[x] for x in r], [step_sigma[x] for x in r_sigma]
        yield gamma, r, r_sigma
        stack.extend((y, g, r, r_sigma) for y, g in children.get(gamma, ()))


def verify_galois_conjugation(p: int) -> bool:
    """Exhaustive check of the Galois conjugation rule on G(N,p).

    For sigma outside the field cut out by the quadratic residue character,
    the conjugate of gamma is gamma_sigma = hat(V) gamma hat(V), with v the
    least non-square mod p, and the action through hat satisfies
    hat(gamma_sigma) = V hat(gamma) V; on every state, acting by gamma then
    sigma equals sigma then gamma_sigma: s hat(gamma) V = s V hat(gamma_sigma).
    """
    vv = v_matrix(p)
    hv = vv.hat()
    full = pgl2(p)
    r_v = full.right(full.index[vv])
    reached = 0
    for gamma, r, r_sigma in hat_table_walk(p):
        gamma_sigma = hv * gamma * hv
        if gamma_sigma.det_class != 1:
            return False
        if gamma_sigma.hat() != vv * gamma.hat() * vv:
            return False
        if [r_v[x] for x in r] != [r_sigma[x] for x in r_v]:
            return False
        reached += 1
    invariant(reached == p * (p * p - 1) // 2,
              f"verify_galois_conjugation: the walk reached {reached} elements of PSL2(F_{p})")
    return True


def verify_w_rationality(level: Level) -> bool:
    """Exhaustive check that w commutes with the Galois action on states:
    for every character value chi, (galois) o act_w o (galois)^-1 o act_w^-1
    is the identity on every state.  Each action is the identity or R_V, v
    being ``Level.v``: N^-1 mod p at non-cyclotomic levels and the least
    non-square else."""
    p, full = level.p, pgl2(level.p)
    r_v = full.right(full.index[v_matrix(p, level.v)])
    states = tuple(range(len(r_v)))
    w = states if level.cyclotomic else r_v  # an involution, so also w^-1
    for chi in range(1, p):
        galois = states if kronecker(chi, p) == 1 else r_v
        galois_inv = states if kronecker(pow(chi, -1, p), p) == 1 else r_v
        if tuple(galois[w[galois_inv[w[s]]]] for s in states) != states:
            return False
    return True
