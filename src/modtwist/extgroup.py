"""Integer matrix generators of the automorphism groups G(N,p) and W(N,p).

G(N,p) is generated by T_N = [[1,1],[0,1]] and U_N = [[1,0],[nN,1]] where n is
the least positive inverse of N mod p; its mod-p image is PSL2(F_p).  W(N,p)
is the index-2 extension by the extra involution w:

* N a square mod p ("cyclotomic"): w carries the integer matrix
  Z_N = [[aN, bp], [pN, aN]] of determinant N, whose mod-p reduction is a
  scalar; W(N,p) is abstractly PSL2(F_p) x <w> and w is kept as a formal
  central generator distinguished from its (trivial) reduction.
* N a non-square mod p: w carries V_N = [[0, -1], [N, 0]] and reduction mod p
  is a faithful isomorphism W(N,p) -> PGL2(F_p).
"""
from __future__ import annotations

from dataclasses import dataclass

from .arith import Level, invariant, lift_sqrt_mod_p2
from .projgroup import MatGroup, ProjMat, closure, psl2


@dataclass(frozen=True)
class IntMat:
    """A 2x2 integer matrix with nonzero determinant."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        if self.det == 0:
            raise ValueError(f"IntMat: singular matrix {self.entries}")

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def __mul__(self, other: "IntMat") -> "IntMat":
        return IntMat(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def reduce(self, p: int) -> ProjMat:
        if self.det % p == 0:
            raise ValueError(f"IntMat: determinant {self.det} vanishes mod {p}")
        return ProjMat(self.a, self.b, self.c, self.d, p)

    def hat(self) -> "IntMat":
        return IntMat(self.d, self.c, self.b, self.a)


def build_generators(level: Level) -> dict[str, IntMat]:
    """Integer generator matrices for W(N, p) at the given level.

    Returns T_N, U_N and either Z_N (cyclotomic) or V_N (non-cyclotomic).
    """
    N, p = level.N, level.p
    ninv = pow(N, -1, p)  # least positive inverse of N mod p
    gens = {
        "T_N": IntMat(1, 1, 0, 1),
        "U_N": IntMat(1, 0, ninv * N, 1),
    }
    if level.cyclotomic:
        a, b = lift_sqrt_mod_p2(N, p)
        z = IntMat(a * N, b * p, p * N, a * N)
        invariant(z.det == N, f"Z_N determinant {z.det} != N")
        gens["Z_N"] = z
    else:
        gens["V_N"] = IntMat(0, -1, N, 0)
    return gens


@dataclass(frozen=True)
class WGroupReport:
    """Structure report for W(N, p)."""

    level: Level
    order: int  # abstract group order, always p(p^2-1)
    structure: str  # "DirectProduct" or "FullPGL2"
    v: int  # non-square used for V (non-cyclotomic: N^-1 mod p)
    generators: dict
    reduction_table: dict
    image_group: MatGroup  # closure of the mod-p reductions
    central_involution: IntMat | None  # Z_N in the cyclotomic case
    central_involution_reduction: ProjMat | None  # its (scalar) reduction


def wgroup(level: Level) -> WGroupReport:
    """Compute W(N, p) and its structure invariants."""
    N, p = level.N, level.p
    gens = build_generators(level)
    reductions = {name: m.reduce(p) for name, m in gens.items()}
    image = closure(tuple(reductions.values()))
    full_order = p * (p * p - 1)
    if level.cyclotomic:
        # Z_N reduces to a scalar, hence to the identity class: the image is
        # just PSL2 and w survives only as a formal central generator.
        zred = reductions["Z_N"]
        invariant(zred.is_identity(), "cyclotomic Z_N should reduce to a scalar")
        invariant(image.order == full_order // 2, "cyclotomic image should be PSL2")
        from .arith import least_nonsquare

        return WGroupReport(
            level=level,
            order=full_order,
            structure="DirectProduct",
            v=least_nonsquare(p),
            generators=gens,
            reduction_table=reductions,
            image_group=image,
            central_involution=gens["Z_N"],
            central_involution_reduction=zred,
        )
    # non-cyclotomic: reduction is faithful onto PGL2
    invariant(image.order == full_order, "non-cyclotomic image should be all of PGL2")
    return WGroupReport(
        level=level,
        order=full_order,
        structure="FullPGL2",
        v=pow(N, -1, p),
        generators=gens,
        reduction_table=reductions,
        image_group=image,
        central_involution=None,
        central_involution_reduction=None,
    )


def verify_relations(level: Level) -> bool:
    """Check V_N T_N = U_N^-N V_N and V_N U_N = T_N^-n V_N mod p, where n is
    the least positive inverse of N mod p (non-cyclotomic levels only)."""
    if level.cyclotomic:
        raise ValueError("verify_relations: relations involve V_N (non-cyclotomic only)")
    N, p = level.N, level.p
    ninv = pow(N, -1, p)
    gens = build_generators(level)
    t = gens["T_N"].reduce(p)
    u = gens["U_N"].reduce(p)
    v = gens["V_N"].reduce(p)
    return v * t == (u ** (-N)) * v and v * u == (t ** (-ninv)) * v


@dataclass(frozen=True)
class InvolutionReport:
    level: Level
    involutions: frozenset  # classes in PGL2 \ PSL2 squaring to 1
    single_conjugacy_class: bool
    integer_models: dict  # ProjMat -> IntMat of shape [[aN, b],[cN, -aN]]


def _integer_involution_model(N, p, g, bound):
    """Search [[aN, b], [cN, -aN]] of determinant +-N reducing to the
    projective class g mod p; b runs over the divisors of -det - a^2 N.

    Determinant -N is admissible only when -1 is a square mod p, so that
    the reduction stays in the same PGL2 \\ PSL2 coset as determinant N.
    """
    signs = (1, -1) if p % 4 == 1 else (1,)
    for a in range(-bound, bound + 1):
        for sign in signs:
            k = -sign - a * a * N  # need b * c = k for det = sign * N
            if k == 0:
                continue
            ak = abs(k)
            d = 1
            while d * d <= ak:
                if ak % d == 0:
                    for b in (d, -d, ak // d, -(ak // d)):
                        if abs(b) > bound:
                            continue
                        c = k // b
                        if abs(c) > bound:
                            continue
                        m = IntMat(a * N, b, c * N, -a * N)
                        if m.det % p != 0 and m.reduce(p) == g:
                            return m
                d += 1
    return None


def involutions_extending_wN(level: Level) -> InvolutionReport:
    """Involutions of W(N,p) outside G(N,p) in the non-cyclotomic case.

    Each is realized by an integer matrix [[aN, b], [cN, -aN]] of
    determinant +-N (the minus sign only when -1 is a square mod p), found
    by bounded search (escalating the bound on |a|, |b|, |c| up to 25 p^2).
    """
    if level.cyclotomic:
        raise ValueError("involutions_extending_wN: non-cyclotomic levels only")
    N, p = level.N, level.p
    rep = wgroup(level)
    group = rep.image_group
    psl = psl2(p)
    invs = [g for g in group.involutions() if g not in psl]
    # single conjugacy class under W(N,p) ~ PGL2
    cls = group.conjugacy_class(invs[0])
    single = frozenset(invs) == cls
    models = {}
    for g in invs:
        found = None
        for bound in (p * p, 6 * p * p, 12 * p * p, 25 * p * p):
            found = _integer_involution_model(N, p, g, bound)
            if found is not None:
                break
        invariant(
            found is not None,
            f"involutions_extending_wN: no integer model for {g} within bound {25 * p * p}",
        )
        models[g] = found
    return InvolutionReport(
        level=level,
        involutions=frozenset(invs),
        single_conjugacy_class=single,
        integer_models=models,
    )

