"""Moduli states and the actions of G(N,p), w and Galois on them.

A moduli state is a PGL2(F_p) class: the class of a basis change relative to
a fixed reference basis, modulo scalars.  With V = [[0, -v], [1, 0]] for a
fixed non-square v, V is an involution mod scalars of non-square determinant,
so PGL2 = PSL2 u PSL2 * V and every class splits uniquely as basis * V^t with
basis in PSL2 and twist bit t = 0 or 1.

Every action is right multiplication of the underlying class followed by that
split.  G(N,p) ~ PSL2 acts through the hat involution (gamma acts by right
multiplication with hat(gamma)); w acts trivially on states at cyclotomic
levels (scalar scaling) and by right multiplication with V at non-cyclotomic
levels; a Galois element sigma with non-square cyclotomic character value
acts by right multiplication with V as well.
"""
from __future__ import annotations

from dataclasses import dataclass

from .arith import Level, kronecker, least_nonsquare
from .projgroup import ProjMat, in_psl2, psl2, v_matrix


@dataclass(frozen=True)
class ModuliState:
    """The split (basis, twist_bit) of a PGL2 class: basis * V^twist_bit."""

    basis: ProjMat  # canonical class with square determinant
    twist_bit: int  # 0 or 1: whether a factor V is split off
    v: int  # the fixed non-square mod p

    def __post_init__(self) -> None:
        if self.twist_bit not in (0, 1):
            raise ValueError(f"ModuliState: twist_bit must be 0 or 1, got {self.twist_bit}")
        if not in_psl2(self.basis):
            raise ValueError("ModuliState: basis must have square determinant class")
        if kronecker(self.v, self.basis.p) != -1:
            raise ValueError(f"ModuliState: v = {self.v} is a square mod {self.basis.p}")

    @property
    def p(self) -> int:
        return self.basis.p

    def underlying(self) -> ProjMat:
        """The underlying PGL2 class basis * V^twist_bit."""
        if self.twist_bit:
            return self.basis * v_matrix(self.p, self.v)
        return self.basis


def normal_form(g: ProjMat, v: int | None = None) -> ModuliState:
    """Split the class ``g`` as basis * V^t: t = 0 and basis = g if g has
    square determinant class, otherwise t = 1 and basis = g * V (V is its own
    inverse mod scalars)."""
    if v is None:
        v = least_nonsquare(g.p)
    if in_psl2(g):
        return ModuliState(basis=g, twist_bit=0, v=v)
    return ModuliState(basis=g * v_matrix(g.p, v), twist_bit=1, v=v)


def act_G(s: ModuliState, gamma: ProjMat) -> ModuliState:
    """Action of gamma in G(N,p) ~ PSL2 on the underlying class by right
    multiplication with hat(gamma).

    Since hat is multiplicative this is a right action:
    act_G(act_G(s, g1), g2) equals act_G(s, g1 * g2).
    """
    if not in_psl2(gamma):
        raise ValueError("act_G: gamma must lie in PSL2")
    return normal_form(s.underlying() * gamma.hat(), s.v)


def act_w(s: ModuliState, level: Level) -> ModuliState:
    """Action of the extra involution w on states.

    Cyclotomic levels: w rescales the basis by a square root of N^-1, which
    is projectively trivial, so the state is unchanged.  Non-cyclotomic
    levels: w right-multiplies the underlying class by V, where v = N^-1
    mod p must be the non-square carried by the state.
    """
    if level.p != s.p:
        raise ValueError("act_w: level and state characteristics differ")
    if level.cyclotomic:
        return s
    vexp = pow(level.N, -1, level.p)
    if s.v != vexp:
        raise ValueError(f"act_w: state must carry v = N^-1 = {vexp} mod p, got {s.v}")
    return normal_form(s.underlying() * v_matrix(s.p, s.v), s.v)


def act_galois(s: ModuliState, chi: int) -> ModuliState:
    """Action of a Galois element with cyclotomic character value chi on
    states: trivial when chi is a square mod p, otherwise right
    multiplication of the underlying class by V."""
    if chi % s.p == 0:
        raise ValueError("act_galois: chi must be a unit mod p")
    if kronecker(chi, s.p) == 1:
        return s
    return normal_form(s.underlying() * v_matrix(s.p, s.v), s.v)


def all_states(p: int, v: int | None = None) -> list[ModuliState]:
    if v is None:
        v = least_nonsquare(p)
    return [
        ModuliState(basis=g, twist_bit=t, v=v)
        for g in sorted(psl2(p).elements)
        for t in (0, 1)
    ]


def verify_galois_conjugation(p: int, v: int | None = None) -> bool:
    """Exhaustive check of the Galois conjugation rule on G(N,p).

    For sigma outside the field cut out by the quadratic residue character,
    the conjugate of gamma is gamma_sigma = hat(V) gamma hat(V), and the
    action through hat satisfies hat(gamma_sigma) = V hat(gamma) V; on
    states, acting by gamma then sigma equals sigma then gamma_sigma.
    """
    if v is None:
        v = least_nonsquare(p)
    vv = v_matrix(p, v)
    chi_ns = v  # any non-square value of the cyclotomic character
    states = all_states(p, v)
    for gamma in psl2(p).elements:
        gamma_sigma = vv.hat() * gamma * vv.hat()
        if not in_psl2(gamma_sigma):
            return False
        if gamma_sigma.hat() != vv * gamma.hat() * vv:
            return False
        for s in states:
            lhs = act_galois(act_G(s, gamma), chi_ns)
            rhs = act_G(act_galois(s, chi_ns), gamma_sigma)
            if lhs != rhs:
                return False
    return True


def verify_w_rationality(level: Level) -> bool:
    """Exhaustive check that w commutes with the Galois action on states:
    for every character value chi, (galois) o act_w o (galois)^-1 o act_w^-1
    is the identity on every state."""
    p = level.p
    v = least_nonsquare(p) if level.cyclotomic else pow(level.N, -1, p)
    for chi in range(1, p):
        for s in all_states(p, v):
            t = act_w(s, level)  # act_w is an involution, so this inverts w too
            t = act_galois(t, pow(chi, -1, p))
            t = act_w(t, level)
            t = act_galois(t, chi)
            if t != s:
                return False
    return True


def rationality_condition(model, rho_e: dict, variant: str, v: int | None = None) -> bool:
    """Check the rationality criterion tying the model's projective
    representation rho to an elliptic-curve representation rho_e defined on
    the same group.

    variant "plain":  rho_e(s) = J rho(s) J with J = [[0,1],[1,0]];
    variant "primed": rho_e(s) = V J rho(s) J V.
    """
    if variant not in ("plain", "primed"):
        raise ValueError(f"rationality_condition: unknown variant {variant!r}")
    rho, p = model.rho, model.p
    if set(rho) != set(rho_e):
        raise ValueError("rationality_condition: rho and rho_e have different domains")
    if v is None:
        v = least_nonsquare(p)
    j = ProjMat(0, 1, 1, 0, p)
    vv = v_matrix(p, v)
    for key, g in rho.items():
        expect = j * g * j
        if variant == "primed":
            expect = vv * expect * vv
        if rho_e[key] != expect:
            return False
    return True
