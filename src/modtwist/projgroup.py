"""Exact arithmetic in PGL2/PSL2 over a prime field.

``ProjMat`` is the one representation of a PGL2(F_p) element: the class of an
invertible 2x2 matrix modulo scalars, stored as its canonical representative
(first nonzero entry in row-major order scaled to 1) plus the square class of
the determinant, which is well defined mod scalars.  PSL2(F_p) is the subgroup
of square determinant class.  The prime p is checked where it enters (levels
and model files), not on every matrix.

``spanning_tree`` is the one breadth-first search of a Cayley graph, here and
for ``galmodel.FiniteGroup``: ``closure`` is its vertex set, and ``pgl2(p)``
is the closure of T, U and V.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .arith import invariant, kronecker, least_nonsquare


class ProjMat:
    """Class of an invertible 2x2 matrix over F_p modulo scalars.

    The canonical representative has its first nonzero row-major entry equal
    to 1.  ``det_class`` is +1 or -1, the Legendre symbol of any
    representative's determinant.
    """

    __slots__ = ("rep", "p", "det_class", "_hash")

    def __init__(self, a: int, b: int, c: int, d: int, p: int):
        a, b, c, d = a % p, b % p, c % p, d % p
        det = (a * d - b * c) % p
        if det == 0:
            raise ValueError(f"ProjMat: singular matrix {(a, b, c, d)} mod {p}")
        for x in (a, b, c, d):
            if x:
                s = pow(x, -1, p)
                break
        self.rep = (a * s % p, b * s % p, c * s % p, d * s % p)
        self.p = p
        self.det_class = kronecker(det, p)
        self._hash = hash((self.rep, p))

    @classmethod
    def identity(cls, p: int) -> "ProjMat":
        return cls(1, 0, 0, 1, p)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ProjMat) and self.rep == other.rep and self.p == other.p

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "ProjMat") -> bool:
        return self.rep < other.rep

    def __repr__(self) -> str:
        a, b, c, d = self.rep
        return f"ProjMat([[{a},{b}],[{c},{d}]] mod {self.p})"

    def __mul__(self, other: "ProjMat") -> "ProjMat":
        if self.p != other.p:
            raise ValueError("ProjMat: mixed characteristics")
        a, b, c, d = self.rep
        e, f, g, h = other.rep
        return ProjMat(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, self.p)

    def inverse(self) -> "ProjMat":
        a, b, c, d = self.rep
        return ProjMat(d, -b, -c, a, self.p)

    def __pow__(self, n: int) -> "ProjMat":
        if n < 0:
            return self.inverse() ** (-n)
        result = ProjMat.identity(self.p)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def hat(self) -> "ProjMat":
        """The involution (a, b, c, d) -> (d, c, b, a), conjugation by
        [[0, 1], [1, 0]]; it is multiplicative."""
        a, b, c, d = self.rep
        return ProjMat(d, c, b, a, self.p)

    def transpose(self) -> "ProjMat":
        a, b, c, d = self.rep
        return ProjMat(a, c, b, d, self.p)

    def is_identity(self) -> bool:
        return self.rep == (1, 0, 0, 1)


def in_psl2(g: ProjMat) -> bool:
    return g.det_class == 1


@dataclass(frozen=True)
class MatGroup:
    """A finite set of ProjMat closed under multiplication, with generators."""

    p: int
    elements: frozenset
    generators: tuple

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: ProjMat) -> bool:
        return g in self.elements

    def __iter__(self):
        return iter(sorted(self.elements))

    def involutions(self) -> list[ProjMat]:
        """The elements of order 2, sorted: by Cayley-Hamilton g^2 =
        tr(g) g - det(g), a scalar for non-scalar g exactly when tr(g) = 0."""
        return sorted(g for g in self.elements if (g.rep[0] + g.rep[3]) % self.p == 0)


def spanning_tree(identity, gens: dict, mul) -> dict:
    """Breadth-first spanning tree of the Cayley graph of ``gens`` (name ->
    element), edges x -> mul(x, g) in generator order, from the identity:
    maps each element y reached to (x, name) with y = mul(x, gens[name]), the
    identity to None, in discovery order."""
    tree = {identity: None}
    queue = [identity]
    for x in queue:
        for name, g in gens.items():
            y = mul(x, g)
            if y not in tree:
                tree[y] = (x, name)
                queue.append(y)
    return tree


def closure(gens: Iterable[ProjMat]) -> MatGroup:
    """Subgroup generated by ``gens``: the vertices of their spanning tree."""
    gens = tuple(gens)
    if not gens:
        raise ValueError("closure: need at least one generator")
    p = gens[0].p
    for g in gens:
        if g.p != p:
            raise ValueError("closure: mixed characteristics")
    tree = spanning_tree(ProjMat.identity(p), dict(enumerate(gens)), operator.mul)
    return MatGroup(p, frozenset(tree), gens)


@lru_cache(maxsize=None)
def pgl2(p: int) -> MatGroup:
    """The full group PGL2(F_p), generated by T, U and V (v the least
    non-square mod p)."""
    full = closure((t_matrix(p), u_matrix(p), v_matrix(p)))
    invariant(full.order == p * (p * p - 1), f"|PGL2(F_{p})| != p(p^2-1)")
    return full


@lru_cache(maxsize=None)
def psl2(p: int) -> MatGroup:
    """The subgroup PSL2(F_p) of classes with square determinant."""
    full = pgl2(p)
    elems = frozenset(g for g in full.elements if g.det_class == 1)
    invariant(len(elems) == p * (p * p - 1) // 2, f"|PSL2(F_{p})| != p(p^2-1)/2")
    return MatGroup(p, elems, (t_matrix(p), u_matrix(p)))


def t_matrix(p: int) -> ProjMat:
    return ProjMat(1, 1, 0, 1, p)


def u_matrix(p: int) -> ProjMat:
    return ProjMat(1, 0, 1, 1, p)


@lru_cache(maxsize=None)
def v_matrix(p: int, v: int | None = None) -> ProjMat:
    """The order-2 class V = [[0, -v], [1, 0]] with v a non-square mod p."""
    if v is None:
        v = least_nonsquare(p)
    if kronecker(v, p) != -1:
        raise ValueError(f"v_matrix: v = {v} is a square mod {p}")
    return ProjMat(0, -v, 1, 0, p)


def centralizer(s: Iterable[ProjMat], p: int) -> MatGroup:
    """Centralizer of the set ``s`` inside PGL2(F_p)."""
    s = tuple(s)
    elems = frozenset(
        g for g in pgl2(p).elements if all(g * x == x * g for x in s)
    )
    return MatGroup(p, elems, tuple(sorted(elems)))

