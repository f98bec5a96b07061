"""Galois 1-cocycles attached to a finite model and the resulting twist
plans.

Given a model (group G, rho: G -> PGL2(F_p), chi), the basic cocycle is
xi(s) = rho*(s) * eta(s), where rho*(s) = transpose(rho(s^-1)), eta(s) is
trivial or hat(V), V = [[0, -v], [1, 0]] with v the least non-square mod p,
according to the quadratic residue character eps of chi, and the Galois
twist acts on values by conjugation with hat(V) exactly when eps(s) = -1.
The primed variant conjugates rho* by hat(V) first; at cyclotomic levels an
extra quadratic character chi_k may multiply in a formal central
w-component.

Cocycle values are pairs (ProjMat, w_bit): the w_bit is the formal central
component (always 0 outside the cyclotomic chi_k construction).  Inside,
rho*, eta, xi and the untwisted values are indices into the sorted PGL2(F_p)
(h * g is R_g[index(h)]), by group number: each step reads the model's
``eps`` and ``rho_ix``, derived once per model, and only these pairs read
off ProjMats.

Every check here runs on the generators of the model group.  The twist by s
is conjugation by eta(s), eta a homomorphism, so xi is a cocycle exactly when
its untwisting s -> xi(s) * eta(s) is a homomorphism, checked apart on the
PGL2 indices and the w bits, and c is a cohomology witness exactly when
c * (xi' eta)(s) = (xi eta)(s) * c (Serre, Galois Cohomology, I.5.3).  The
centralizer of the image of rho is that of the images of the generators.
"""
from __future__ import annotations

import itertools
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .arith import Level, invariant, least_nonsquare
from .curves import genus_XNp, xplus_verdict
from .galmodel import (
    Z2_RIGHT,
    FiniteGaloisModel,
    all_homs_to_pgl2,
    all_quadratic_characters,
    classify,
    cyclic_group,
    klein_four,
    symmetric_group,
)
from .projgroup import ProjMat, centralizer, inverse_table, pgl2_index, right_table, v_matrix


class Ambient(Enum):
    G_NP = "G(N,p)"
    W_NP = "W(N,p)"


class Cocycle(NamedTuple):
    """A 1-cochain on the model group valued in (ProjMat, w_bit) pairs."""

    model: FiniteGaloisModel
    ambient: Ambient
    values: dict  # element -> (ProjMat, int)

    @property
    def p(self) -> int:
        return self.model.p


@lru_cache(maxsize=None)
def _hat_v(p: int) -> ProjMat:
    return v_matrix(p).hat()


def _untwisted(c: Cocycle, m: FiniteGaloisModel, numbers) -> tuple[list, list]:
    """The index of c(s) * eta(s), and w(s), for the elements s numbered
    ``numbers``, as two lists; eta read from m's eps: R_hat(V) moves c's
    value where eps(s) = -1."""
    index = pgl2_index(c.p)[1]
    rh = right_table(_hat_v(c.p))
    elements, eps = m.group.elements, m.eps
    ks, ws = [], []
    for i in numbers:
        g, w = c.values[elements[i]]
        ks.append(rh[index[g]] if eps[i] == -1 else index[g])
        ws.append(w)
    return ks, ws


def check_cocycle(c: Cocycle) -> bool:
    """Whether xi(st) = xi(s) * twist_s(xi(t)) for all s, t, the w-bits
    adding mod 2.

    Precondition: eps is a homomorphism, so that eta is one.  Then xi is a
    cocycle exactly when its untwisting s -> (xi(s) * eta(s), w(s)) is a
    homomorphism into PGL2 x Z/2 (Serre, Galois Cohomology, I.5.3), that is
    when both factors are, which ``FiniteGroup.is_homomorphism`` decides on
    the |G|*|gens| Cayley-graph edges: the PGL2 part on indices, the w part
    on bits.  ValueError on a group without generators.
    """
    grp = c.model.group
    elems = pgl2_index(c.p)[0]
    ks, ws = _untwisted(c, c.model, range(len(grp.elements)))
    return (grp.is_homomorphism(ks, lambda k: right_table(elems[k]))
            and grp.is_homomorphism(ws, Z2_RIGHT.__getitem__))


def rho_star(m: FiniteGaloisModel, primed: bool = False) -> list[int]:
    """rho*(s) = transpose(rho(s^-1)) as PGL2(F_p) indices by group number;
    the primed variant conjugates by hat(V).  Read off m's rho_ix:
    transpose(g) = J g^-1 J with J = [[0, 1], [-1, 0]], and c g c for an
    involution c is R_c after L_c = inv R_c inv."""
    inv = inverse_table(m.p)
    rj = right_table(ProjMat(0, 1, -1, 0, m.p))
    rho = m.rho_ix
    star = [rj[inv[rj[rho[i]]]] for i in m.group.inverse]
    if primed:
        rh = right_table(_hat_v(m.p))
        star = [rh[inv[rh[inv[k]]]] for k in star]
    return star


def build_xi(
    m: FiniteGaloisModel,
    variant: str = "plain",
    k_char: dict | None = None,
) -> Cocycle:
    """The twisting cocycle xi = rho* . eta (or primed), optionally with a
    formal central w-component given by a quadratic character chi_k.

    If det(rho) agrees with eps as +-1 characters the values land in PSL2
    and the ambient is G(N,p); otherwise the ambient is W(N,p) read inside
    PGL2, and a chi_k component is not available.
    """
    if variant not in ("plain", "primed"):
        raise ValueError(f"build_xi: unknown variant {variant!r}")
    cyclotomic_compatible = m.det_is_epsilon()
    elements = m.group.elements
    if k_char is not None and not cyclotomic_compatible:
        raise ValueError("build_xi: chi_k components require det rho = eps (cyclotomic)")
    if k_char is not None and any(k_char[s] not in (1, -1) for s in elements):
        raise ValueError("build_xi: chi_k must be +-1 valued")
    elems = pgl2_index(m.p)[0]
    rh = right_table(_hat_v(m.p))  # eta(s) = hat(V) where eps(s) = -1, else 1
    star = rho_star(m, primed=(variant == "primed"))
    ws = itertools.repeat(0) if k_char is None else [int(k_char[s] == -1) for s in elements]
    values = {s: (elems[rh[k] if e == -1 else k], w) for s, k, e, w in zip(elements, star, m.eps, ws)}
    ambient = Ambient.G_NP if cyclotomic_compatible else Ambient.W_NP
    invariant(ambient is Ambient.W_NP or all(g.det_class == 1 for g, _ in values.values()),
              "build_xi: a G(N,p) cocycle must take values in PSL2")
    return Cocycle(model=m, ambient=ambient, values=values)


def cohomologous(c1: Cocycle, c2: Cocycle):
    """Search for a witness c with c2(s) = c^-1 * c1(s) * twist_s(c) for all
    s, the twist read from c1's eps; returns the witness (ProjMat, w_bit) or
    None.

    Untwisted by c1's eta, that is c * (c2 eta)(s) = (c1 eta)(s) * c with
    equal w-bits (Serre, Galois Cohomology, I.5.3): R_(c2 eta)(s)[k] =
    L_(c1 eta)(s)[k] = inv[R_((c1 eta)(s)^-1)[inv[k]]] on indices.  The
    witness ranges over the ambient group in sorted order: PSL2 for G(N,p),
    PGL2 for W(N,p).  For c1, c2 cocycles under that twist and eps a
    homomorphism, the s where this holds form a subgroup, so the candidates
    are cut down on each generator in turn.  ValueError without generators.
    """
    if c1.model is not c2.model and c1.model.group is not c2.model.group:
        raise ValueError("cohomologous: cocycles live over different models")
    if c1.ambient != c2.ambient or c1.p != c2.p:
        raise ValueError("cohomologous: mismatched ambients")
    grp = c1.model.group
    gens = [grp.index[s] for s in grp.generators()]
    (k1, w1), (k2, w2) = (_untwisted(c, c1.model, gens) for c in (c1, c2))
    if w1 != w2:
        return None
    elems, inv = pgl2_index(c1.p)[0], inverse_table(c1.p)
    cands = [k for k, g in enumerate(elems) if c1.ambient is Ambient.W_NP or g.det_class == 1]
    for a, b in zip(k1, k2):
        r, ri = right_table(elems[b]), right_table(elems[inv[a]])
        cands = [k for k in cands if r[k] == inv[ri[inv[k]]]]
    return (elems[cands[0]], 0) if cands else None


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
    if all(g.det_class == 1 for g in cen.elements):
        return CentralizerVerdict.NONTRIVIAL_IN_PSL2
    return CentralizerVerdict.NONTRIVIAL_OUTSIDE_PSL2


class ParityError(ValueError):
    """det rho does not have the parity required by the level's case."""


class TwistPlan(NamedTuple):
    level: Level
    case: str  # "cyclotomic" | "non-cyclotomic"
    curves: list  # names of the twisted curves parametrizing the lifts
    field_k: int | None  # squarefree label of the fixed field of eps*det rho
    field_k_character: dict | None  # eps * det rho as a +-1 character
    centralizer: CentralizerVerdict
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
            "cocycles_valid": True,  # a theorem on a valid model (see twist_plan), not a check
            "finiteness": self.finiteness,
        }


@lru_cache(maxsize=None)  # the verdict depends on the level alone
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

    The model must be valid, as ``modelfile.parse_and_validate`` ensures:
    ``validate_model`` has checked rho, chi and every character.  So each
    xi of the plan is a cocycle, and none is built: eta(s) in {1, hat(V)} is
    an involution, so xi(s) * eta(s) = rho*(s), a homomorphism exactly when
    rho is; so is its primed conjugate, and a chi_k part is a validated
    character (Serre, Galois Cohomology, I.5.3).
    Raises ParityError when det rho does not match the case of the level
    (cyclotomic needs det rho = eps; non-cyclotomic needs det rho != eps).
    """
    if m.p != level.p:
        raise ValueError(f"twist_plan: model characteristic {m.p} != level p {level.p}")
    N, p = level.N, level.p
    case = classify(level).value
    if m.det_is_epsilon() != level.cyclotomic:
        need = "=" if level.cyclotomic else "!="
        raise ParityError(f"{case} level {level} requires det rho {need} eps as characters")
    curves = [f"X({N},{p})_rho"]
    field_k = char = None
    if level.cyclotomic:
        curves.append(f"X({N},{p})'_rho")
        for qc in m.characters.values():
            if qc.field in k_fields:
                curves += [f"X({N},{p})_rho,k={qc.field}", f"X({N},{p})'_rho,k={qc.field}"]
    else:
        elems = pgl2_index(p)[0]
        char = {s: e * elems[k].det_class for s, k, e in zip(m.group.elements, m.rho_ix, m.eps)}
        for qc in m.characters.values():
            if qc.values == char and qc.field is not None:
                field_k = qc.field
                break
    return TwistPlan(
        level=level,
        case=case,
        curves=curves,
        field_k=field_k,
        field_k_character=char,
        centralizer=centralizer_verdict(m),
        finiteness=_finiteness_verdict(level),
    )


# ---------------------------------------------------------------------------
# Model corpus for the p = 3 suites
# ---------------------------------------------------------------------------


def model_corpus(p: int = 3) -> list[FiniteGaloisModel]:
    """All models (rho, eps) with group among C2, C2 x C2, S3, S4 and rho any
    homomorphism to PGL2(F_p), eps any quadratic character, read as the chi
    sending eps = -1 to the least non-square and +1 to 1."""
    ns = least_nonsquare(p)
    out = []
    for grp in (cyclic_group(2), klein_four(), symmetric_group(3), symmetric_group(4)):
        for rho, eps in itertools.product(all_homs_to_pgl2(grp, p), all_quadratic_characters(grp)):
            chi = {s: (1 if eps[s] == 1 else ns) for s in grp.elements}
            out.append(FiniteGaloisModel(group=grp, p=p, rho=rho, chi=chi))
    return out

