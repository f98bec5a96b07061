"""Galois 1-cocycles attached to a finite model and the resulting twist
plans.

Given a model (group G, rho: G -> PGL2(F_p), chi), the basic cocycle is
xi(s) = rho*(s) * eta(s), where rho*(s) = transpose(rho(s^-1)), eta(s) is
trivial or hat(V) according to the quadratic residue character eps of chi,
and the Galois twist acts on values by conjugation with hat(V) exactly when
eps(s) = -1.  The primed variant conjugates rho* by hat(V) first; at
cyclotomic levels an extra quadratic character chi_k may multiply in a
formal central w-component.

Cocycle values are pairs (ProjMat, w_bit): the w_bit is the formal central
component (always 0 outside the cyclotomic chi_k construction).

Every check here runs on the generators of the model group: a cocycle is a
homomorphism into a semidirect product, decided on the Cayley-graph edges by
``FiniteGroup.is_homomorphism``; a cohomology witness is checked on the
generators, and the centralizer of the image of rho is that of the images of
the generators.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .arith import Level, invariant, least_nonsquare
from .curves import genus_XNp, xplus_verdict
from .galmodel import (
    FiniteGaloisModel,
    FiniteGroup,
    all_homs_to_pgl2,
    all_quadratic_characters,
    cyclic_group,
    klein_four,
    symmetric_group,
)
from .projgroup import ProjMat, centralizer, pgl2, psl2, v_matrix


class Ambient(Enum):
    G_NP = "G(N,p)"
    W_NP = "W(N,p)"


@dataclass
class Cocycle:
    """A 1-cochain on the model group valued in (ProjMat, w_bit) pairs."""

    model: FiniteGaloisModel
    ambient: Ambient
    values: dict  # element -> (ProjMat, int)
    v: int

    @property
    def p(self) -> int:
        return self.model.p

    # hat(V) and the sigma with eps(sigma) = -1 are read once per cocycle, on
    # its first twist: check_cocycle twists once per Cayley-graph edge
    @cached_property
    def _hv(self) -> ProjMat:
        return v_matrix(self.p, self.v).hat()

    @cached_property
    def _flips(self) -> frozenset:
        return frozenset(s for s in self.model.group.elements if self.model.epsilon(s) == -1)

    def twist(self, sigma, value):
        """The Galois twist of a value by sigma: conjugation by hat(V) when
        eps(sigma) = -1, trivial otherwise; w-bits are untouched."""
        g, w = value
        if sigma in self._flips:
            g = self._hv * g * self._hv  # hat(V) is an involution mod scalars
        return (g, w)


def check_cocycle(c: Cocycle) -> bool:
    """Whether xi(st) = xi(s) * twist_s(xi(t)) for all s, t, the w-bits
    adding mod 2.

    Precondition: eps is a homomorphism, so that the twist is an action.
    Then xi is a cocycle exactly when s -> (xi(s), w(s), s) is a
    homomorphism into the semidirect product by the twist action (Brown,
    Cohomology of Groups, IV.2), which ``FiniteGroup.is_homomorphism``
    decides on the |G|*|gens| Cayley-graph edges.  ValueError on a group
    without generators.
    """
    grp = c.model.group

    def op(x, y):
        (gs, ws, s), (gt, wt, t) = x, y
        return (gs * c.twist(s, (gt, wt))[0], (ws + wt) % 2, grp.mul(s, t))

    return grp.is_homomorphism({s: (*c.values[s], s) for s in grp.elements}, op)


def eta(m: FiniteGaloisModel, v: int | None = None) -> Cocycle:
    """The basic quadratic cocycle: identity where eps = +1, hat(V) where
    eps = -1 (a homomorphism to an order-2 subgroup, hence a cocycle)."""
    if v is None:
        v = least_nonsquare(m.p)
    hv = v_matrix(m.p, v).hat()
    one = ProjMat.identity(m.p)
    values = {s: (one if m.epsilon(s) == 1 else hv, 0) for s in m.group.elements}
    return Cocycle(model=m, ambient=Ambient.W_NP, values=values, v=v)


def rho_star(m: FiniteGaloisModel, primed: bool = False, v: int | None = None) -> dict:
    """rho*(s) = transpose(rho(s^-1)); primed variant conjugates by hat(V)."""
    if v is None:
        v = least_nonsquare(m.p)
    hv = v_matrix(m.p, v).hat()
    out = {}
    for s in m.group.elements:
        g = m.rho[m.group.inv(s)].transpose()
        if primed:
            g = hv * g * hv
        out[s] = g
    return out


def build_xi(
    m: FiniteGaloisModel,
    variant: str = "plain",
    k_char: dict | None = None,
    v: int | None = None,
) -> Cocycle:
    """The twisting cocycle xi = rho* . eta (or primed), optionally with a
    formal central w-component given by a quadratic character chi_k.

    If det(rho) agrees with eps as +-1 characters the values land in PSL2
    and the ambient is G(N,p); otherwise the ambient is W(N,p) read inside
    PGL2, and a chi_k component is not available.
    """
    if variant not in ("plain", "primed"):
        raise ValueError(f"build_xi: unknown variant {variant!r}")
    if v is None:
        v = least_nonsquare(m.p)
    star = rho_star(m, primed=(variant == "primed"), v=v)
    et = eta(m, v=v)
    cyclotomic_compatible = m.det_is_epsilon()
    if k_char is not None and not cyclotomic_compatible:
        raise ValueError("build_xi: chi_k components require det rho = eps (cyclotomic)")
    values = {}
    for s in m.group.elements:
        g = star[s] * et.values[s][0]
        w = 0
        if k_char is not None:
            if k_char[s] not in (1, -1):
                raise ValueError("build_xi: chi_k must be +-1 valued")
            w = 0 if k_char[s] == 1 else 1
        values[s] = (g, w)
    ambient = Ambient.G_NP if cyclotomic_compatible else Ambient.W_NP
    invariant(ambient is Ambient.W_NP or all(g.det_class == 1 for g, _ in values.values()),
              "build_xi: a G(N,p) cocycle must take values in PSL2")
    return Cocycle(model=m, ambient=ambient, values=values, v=v)


def cohomologous(c1: Cocycle, c2: Cocycle):
    """Search for a witness c with c2(s) = c^-1 * c1(s) * twist_s(c) for all
    s; returns the witness (ProjMat, w_bit) or None.

    The witness ranges over the ambient group, in sorted order: PSL2 for
    ambient G(N,p), PGL2 for W(N,p); the w-bits must agree, being central
    and untwisted.  Preconditions: c1 and c2 are cocycles and eps is a
    homomorphism.  Then the s where the identity holds form a subgroup, so
    each candidate is checked on the generators only.  ValueError on a group
    without generators.
    """
    if c1.model is not c2.model and c1.model.group is not c2.model.group:
        raise ValueError("cohomologous: cocycles live over different models")
    if c1.ambient != c2.ambient or c1.v != c2.v or c1.p != c2.p:
        raise ValueError("cohomologous: mismatched ambients")
    gens = c1.model.group.generators()
    pool = psl2(c1.p) if c1.ambient is Ambient.G_NP else pgl2(c1.p)
    for cand in sorted(pool.elements):
        ci = cand.inverse()
        for s in gens:
            g1, w1 = c1.values[s]
            if c2.values[s] != (ci * g1 * c1.twist(s, (cand, 0))[0], w1):
                break
        else:
            return (cand, 0)
    return None


class CentralizerVerdict(Enum):
    TRIVIAL = "Trivial"
    NONTRIVIAL_IN_PSL2 = "NontrivialInPSL2"
    NONTRIVIAL_OUTSIDE_PSL2 = "NontrivialOutsidePSL2"


def centralizer_verdict(m: FiniteGaloisModel) -> CentralizerVerdict:
    """Type of the centralizer of the image of rho inside PGL2(F_p): that of
    the images of the generators, which generate the image.  ValueError on a
    group without generators."""
    cen = centralizer((m.rho[g] for g in m.group.generators()), m.p)
    if cen.order == 1:
        return CentralizerVerdict.TRIVIAL
    if cen.elements <= psl2(m.p).elements:
        return CentralizerVerdict.NONTRIVIAL_IN_PSL2
    return CentralizerVerdict.NONTRIVIAL_OUTSIDE_PSL2


class ParityError(ValueError):
    """det rho does not have the parity required by the level's case."""


@dataclass
class TwistPlan:
    level: Level
    case: str  # "cyclotomic" | "non-cyclotomic"
    curves: list  # names of the twisted curves parametrizing the lifts
    field_k: int | None  # squarefree label of the fixed field of eps*det rho
    field_k_character: dict | None  # eps * det rho as a +-1 character
    centralizer: CentralizerVerdict
    cocycles_valid: bool
    finiteness: str

    def to_jsonable(self) -> dict:
        return {
            "level": {"N": self.level.N, "p": self.level.p},
            "case": self.case,
            "curves": list(self.curves),
            "field_k": self.field_k,
            "field_k_character": (
                {str(k): v for k, v in self.field_k_character.items()}
                if self.field_k_character is not None
                else None
            ),
            "centralizer": self.centralizer.value,
            "cocycles_valid": self.cocycles_valid,
            "finiteness": self.finiteness,
        }


def _finiteness_verdict(level: Level) -> str:
    N, p = level.N, level.p
    if level.cyclotomic:
        if (N, p) == (4, 3):
            return "possibly infinite (excluded case N=4, p=3: rational quotient curve)"
        rep = xplus_verdict(level)
        return f"finite ({rep.note or f'X+({N},{p}) has genus {rep.genus} > 1'})"
    if (N, p) == (2, 3):
        return "possibly infinite (excluded case N=2, p=3: rational curve)"
    g = genus_XNp(level)
    if g > 1:
        return f"finite (X({N},{p}) has genus {g} > 1)"
    return f"possibly infinite (X({N},{p}) has genus {g})"


def twist_plan(
    level: Level,
    m: FiniteGaloisModel,
    k_fields: tuple = (),
) -> TwistPlan:
    """Assemble the full twisting plan for a model at a level: which twisted
    curves parametrize the lifts, over which field(s), with the centralizer
    verdict and the finiteness consequence.

    The model must be valid, as ``modelfile.parse_and_validate`` ensures.
    Raises ParityError when det rho does not match the case of the level
    (cyclotomic needs det rho = eps; non-cyclotomic needs det rho != eps).
    """
    if m.p != level.p:
        raise ValueError(f"twist_plan: model characteristic {m.p} != level p {level.p}")
    N, p = level.N, level.p
    det_eq_eps = m.det_is_epsilon()
    v = least_nonsquare(p) if level.cyclotomic else pow(N, -1, p)
    if level.cyclotomic:
        if not det_eq_eps:
            raise ParityError(
                f"cyclotomic level {level} requires det rho = eps as characters"
            )
        xi = build_xi(m, "plain", v=v)
        xi_p = build_xi(m, "primed", v=v)
        valid = check_cocycle(xi) and check_cocycle(xi_p)
        curve_names = [f"X({N},{p})_rho", f"X({N},{p})'_rho"]
        for name, char in m.characters.items():
            if char.field in k_fields:
                xi_k = build_xi(m, "plain", k_char=char.values, v=v)
                valid = valid and check_cocycle(xi_k)
                curve_names.append(f"X({N},{p})_rho,k={char.field}")
                curve_names.append(f"X({N},{p})'_rho,k={char.field}")
        return TwistPlan(
            level=level,
            case="cyclotomic",
            curves=curve_names,
            field_k=None,
            field_k_character=None,
            centralizer=centralizer_verdict(m),
            cocycles_valid=valid,
            finiteness=_finiteness_verdict(level),
        )
    if det_eq_eps:
        raise ParityError(
            f"non-cyclotomic level {level} requires det rho != eps as characters"
        )
    xi = build_xi(m, "plain", v=v)
    valid = check_cocycle(xi)
    char = {s: m.epsilon(s) * m.det_class(s) for s in m.group.elements}
    field_k = None
    for name, qc in m.characters.items():
        if qc.values == char and qc.field is not None:
            field_k = qc.field
            break
    return TwistPlan(
        level=level,
        case="non-cyclotomic",
        curves=[f"X({N},{p})_rho"],
        field_k=field_k,
        field_k_character=char,
        centralizer=centralizer_verdict(m),
        cocycles_valid=valid,
        finiteness=_finiteness_verdict(level),
    )


# ---------------------------------------------------------------------------
# Model corpus for the p = 3 suites
# ---------------------------------------------------------------------------


def _chi_from_epsilon(group: FiniteGroup, eps: dict, p: int) -> dict:
    """A chi with quadratic residue character eps: send -1 to a fixed
    non-square and +1 to 1."""
    ns = least_nonsquare(p)
    return {s: (1 if eps[s] == 1 else ns) for s in group.elements}


def model_corpus(p: int = 3) -> list[FiniteGaloisModel]:
    """All models (rho, eps) with group among C2, C2 x C2, S3, S4 and rho any
    homomorphism to PGL2(F_p), eps any quadratic character."""
    out = []
    for grp in (cyclic_group(2), klein_four(), symmetric_group(3), symmetric_group(4)):
        homs = all_homs_to_pgl2(grp, p)
        chars = all_quadratic_characters(grp)
        for rho in homs:
            for eps in chars:
                m = FiniteGaloisModel(
                    group=grp,
                    p=p,
                    rho=dict(rho),
                    chi=_chi_from_epsilon(grp, eps, p),
                )
                out.append(m)
    return out

