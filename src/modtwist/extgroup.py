"""Integer matrix generators of the automorphism groups G(N,p) and W(N,p).

G(N,p) is generated by T_N = [[1,1],[0,1]] and U_N = [[1,0],[nN,1]] where n is
the least positive inverse of N mod p; its mod-p image is PSL2(F_p).  W(N,p)
is the index-2 extension by the extra involution w:

* N a square mod p ("cyclotomic"): w carries the integer matrix
  Z_N = [[aN, bp], [pN, aN]] of determinant N, whose mod-p reduction is a
  scalar; W(N,p) is abstractly PSL2(F_p) x <w> and w is kept as a formal
  central generator distinguished from its (trivial) reduction.
* N a non-square mod p: w carries V_N = [[0, -1], [N, 0]] and reduction mod p
  is a faithful isomorphism W(N,p) -> PGL2(F_p).  The involutions extending
  w_N are the conjugates of V_N by words in T_N and U_N: integer matrices
  [[aN, b], [cN, -aN]] of determinant N, one walk of V_N's conjugation orbit
  giving each its model, so they form a single conjugacy class;
  orbit-stabilizer cross-checks its size apart from the walk.
"""
from __future__ import annotations

from typing import NamedTuple

from .arith import InvariantError, Level, ReadOnly, invariant, lift_sqrt_mod_p2
from .projgroup import ProjMat, Subgroup, pgl2, spanning_tree


class IntMat(ReadOnly):
    """A 2x2 integer matrix with nonzero determinant."""

    __slots__ = _compared = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
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
        return ProjMat(self.a, self.b, self.c, self.d, p)

    def adj(self) -> "IntMat":
        """The adjugate, det times the inverse."""
        return IntMat(self.d, -self.b, -self.c, self.a)


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


class WGroupReport(NamedTuple):
    """Structure report for W(N, p)."""

    order: int  # abstract group order, always p(p^2-1)
    structure: str  # "DirectProduct" or "FullPGL2"
    v: int  # the non-square of V, Level.v (non-cyclotomic: N^-1 mod p)
    generators: dict
    image_group: Subgroup  # of pgl2(p), generated by the mod-p reductions


def wgroup(level: Level) -> WGroupReport:
    """Compute W(N, p) and its structure invariants."""
    p = level.p
    gens = build_generators(level)
    full = pgl2(p)
    reductions = [full.index[m.reduce(p)] for m in gens.values()]
    tree = spanning_tree(full.index[full.identity], dict(enumerate(map(full.right, reductions))),
                         lambda k, r: r[k])
    image = Subgroup(sorted(tree))
    if level.cyclotomic:
        # Z_N reduces to a scalar, hence to the identity class: the image is
        # just PSL2 and w survives only as a formal central generator.
        invariant(gens["Z_N"].reduce(p).is_identity(), "cyclotomic Z_N should reduce to a scalar")
        invariant(image.order == full.order // 2, "cyclotomic image should be PSL2")
    else:
        # non-cyclotomic: reduction is faithful onto PGL2
        invariant(image.order == full.order, "non-cyclotomic image should be all of PGL2")
    return WGroupReport(
        order=full.order,
        structure="DirectProduct" if level.cyclotomic else "FullPGL2",
        v=level.v,
        generators=gens,
        image_group=image,
    )


def verify_relations(level: Level) -> bool:
    """Check V_N T_N = U_N^-N V_N and V_N U_N = T_N^-n V_N mod p, where n is
    the least positive inverse of N mod p (non-cyclotomic levels only)."""
    if level.cyclotomic:
        raise ValueError("verify_relations: relations involve V_N (non-cyclotomic only)")
    N, p = level.N, level.p
    ninv = pow(N, -1, p)
    gens = build_generators(level)
    t, u, v = gens["T_N"], gens["U_N"], gens["V_N"]
    invariant((t.a, t.c, t.d, u.a, u.b, u.d) == (1, 0, 1, 1, 0, 1),
              "verify_relations: T_N and U_N must be unitriangular")
    # [[1, b], [0, 1]]^k = [[1, kb], [0, 1]] and [[1, 0], [c, 1]]^k = [[1, 0], [kc, 1]]
    u_pow, t_pow = IntMat(1, 0, -N * u.c, 1), IntMat(1, -ninv * t.b, 0, 1)  # U_N^-N, T_N^-n
    return (v * t).reduce(p) == (u_pow * v).reduce(p) and (v * u).reduce(p) == (t_pow * v).reduce(p)


class InvolutionReport(NamedTuple):
    involutions: frozenset  # classes in PGL2 \ PSL2 squaring to 1
    single_conjugacy_class: bool
    integer_models: dict  # ProjMat -> conjugate of V_N by a word in T_N, U_N


def involutions_extending_wN(level: Level) -> InvolutionReport:
    """Involutions of W(N,p) outside G(N,p) in the non-cyclotomic case, each
    with an integer model gamma^-1 V_N gamma, gamma a word in T_N, U_N.

    V_N normalizes Gamma_0(N) (Atkin-Lehner, Math. Ann. 185, 1970), so every
    such conjugate has trace 0, determinant N and the shape
    [[aN, b], [cN, -aN]].  V's class in PGL2(F_p) is its orbit under
    conjugation by PSL2 = <T, U>, since V centralizes itself, and lies among
    the involutions outside PSL2, which is normal.  One orbit walk (Holt, Eick
    and O'Brien, Handbook of Computational Group Theory, 2005) finds it: the
    ``spanning_tree`` from V's number under the ``NumberedGroup.conj``
    permutations of T_N, U_N and their inverses, each vertex a new involution
    whose word gamma is its parent's times the edge's step.  Orbit-stabilizer,
    |PGL2(F_p)| / |C(V)| with C from ``NumberedGroup.centralizer``, counts
    every involution outside PSL2 in V's class, and the walk gives each a
    model, so ``single_conjugacy_class`` is always True.
    """
    if level.cyclotomic:
        raise ValueError("involutions_extending_wN: non-cyclotomic levels only")
    N, p = level.N, level.p
    gens, full = build_generators(level), pgl2(p)
    steps, conjs = {}, {}
    for name in ("T_N", "U_N"):
        steps.update({name: gens[name], name + "^-1": gens[name].adj()})
        perm = full.conj(full.index[gens[name].reduce(p)])
        # for s^-1 the inverse permutation, so that no table of s^-1 is cached, over sorted(perm),
        # the numbers 0..n-1 as perm holds them, so that it makes no new int objects
        conjs.update({name: perm, name + "^-1": sorted(sorted(perm), key=perm.__getitem__)})
    invs = frozenset(g for g, n in zip(full.elements, full.orders) if n == 2 and g.det_class != 1)
    v = full.index[gens["V_N"].reduce(p)]
    invariant(full.order // len(full.centralizer([v])) == len(invs),
              "involutions_extending_wN: V_N's class by orbit-stabilizer is not every involution")
    tree = spanning_tree(v, conjs, lambda x, c: c[x])  # x -> s^-1 x s
    words, models = {}, {}
    for x, edge in tree.items():
        gamma = IntMat(1, 0, 0, 1) if edge is None else words[edge[0]] * steps[edge[1]]
        words[x] = gamma
        g, m = full.elements[x], gamma.adj() * gens["V_N"] * gamma
        if not (m.det == N and g in invs and m.reduce(p) == g):  # the reprs only on failure
            raise InvariantError(
                f"involutions_extending_wN: {m} is no determinant-N model of {g} outside PSL2")
        models[g] = m
    missing = invs - models.keys()
    invariant(not missing, f"involutions_extending_wN: no integer model for {sorted(missing)}")
    return InvolutionReport(involutions=invs, single_conjugacy_class=True, integer_models=models)
