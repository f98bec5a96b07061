"""Exact arithmetic in PGL2/PSL2 over a prime field.

``ProjMat`` is the one representation of a PGL2(F_p) element: the class of an
invertible 2x2 matrix modulo scalars, stored as its canonical representative
(first nonzero entry in row-major order scaled to 1) plus the square class of
the determinant, which is well defined mod scalars.  PSL2(F_p) is the subgroup
of square determinant class.  The prime p is checked where it enters (levels
and model files), not on every matrix; a matrix reads the per-p
``arith.residue_tables`` where it would invert or take a symbol.

``spanning_tree`` is the one breadth-first search of a Cayley graph, here and
for ``galmodel.FiniteGroup``: ``pgl2(p)`` is the vertex set of its tree for T,
U and V, and ``extgroup.wgroup`` walks it over indices with right tables.

Sweeps over all of PGL2(F_p) move indices: ``pgl2_index(p)`` numbers the
sorted elements, and ``right_table(g)``, cached, is right multiplication by
g as a permutation of those numbers (the right regular representation), so
R_(gh) is s -> R_h[R_g[s]]: T, U and V take |G| products, and any other g,
x * gen in the spanning tree whose parents ``pgl2(p)`` keeps, the |G| lookups
R_gen[R_x[s]].  With inversion ``inverse_table(p)``, left multiplication is
L_h = inv R_(h^-1) inv, conjugation h^-1 c h is R_h[inv[R_h[inv[c]]]], and
the centralizer of x is where R_x and L_x agree.
"""
from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable

from .arith import ReadOnly, invariant, kronecker, least_nonsquare, residue_tables

# model files and ``structure`` enumerate all p^3 - p elements of PGL2(F_p):
# ``structure 3 31`` takes about 1 s and 42 MB, ``structure 2 61`` 13 s and 221 MB
MAX_P = 31


class ProjMat:
    """Class of an invertible 2x2 matrix over F_p modulo scalars.

    The canonical representative has its first nonzero row-major entry (a
    or b) equal to 1; ``det_class`` is the Legendre symbol of any
    representative's determinant, +1 or -1; both read ``residue_tables(p)``.
    Products, inverses and hats take the class in closed form (a nonzero
    symbol marks a unit, and units multiply to units) and skip the
    singularity check.  A composite modulus constructs too, with the Jacobi
    symbol as class (0 off the units); ValueError on a singular matrix or a
    leading entry that is not a unit.
    """

    __slots__ = ("rep", "p", "det_class", "_hash")

    def __init__(self, a: int, b: int, c: int, d: int, p: int):
        det = (a * d - b * c) % p
        if det == 0:
            raise ValueError(f"ProjMat: singular matrix {(a % p, b % p, c % p, d % p)} mod {p}")
        self._set(a, b, c, d, p, residue_tables(p)[1][det])

    def _set(self, a: int, b: int, c: int, d: int, p: int, det_class: int) -> None:
        """Canonical form of the nonsingular (a, b, c, d) mod p."""
        a, b, c, d = a % p, b % p, c % p, d % p
        s = residue_tables(p)[0][a or b]
        if s is None:
            raise ValueError(f"ProjMat: leading entry of {(a, b, c, d)} is not a unit mod {p}")
        self.rep = (a * s % p, b * s % p, c * s % p, d * s % p)
        self.p = p
        self.det_class = det_class
        self._hash = hash((self.rep, p))

    def _derived(self, a: int, b: int, c: int, d: int, det_class: int) -> "ProjMat":
        """(a, b, c, d) mod self.p, of known det class; 0 takes the full check."""
        if not det_class:
            return ProjMat(a, b, c, d, self.p)
        g = ProjMat.__new__(ProjMat)
        g._set(a, b, c, d, self.p, det_class)
        return g

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
        return self._derived(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h,
                             self.det_class * other.det_class)

    def inverse(self) -> "ProjMat":
        a, b, c, d = self.rep
        return self._derived(d, -b, -c, a, self.det_class)

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
        return self._derived(d, c, b, a, self.det_class)

    def is_identity(self) -> bool:
        return self.rep == (1, 0, 0, 1)


def in_psl2(g: ProjMat) -> bool:
    return g.det_class == 1


class MatGroup(ReadOnly):
    """A finite set of ProjMat closed under multiplication, with generators
    and, from ``pgl2``, each element's parent in their spanning tree."""

    __slots__ = ("p", "elements", "generators", "parents")
    _compared = __slots__[:3]  # the parents stay out of equality, hashing and repr

    def __init__(self, p: int, elements: frozenset, generators: tuple, parents: dict | None = None) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "parents", parents)

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


def spanning_tree(identity, gens: dict, mul, max_order: int | None = None) -> dict:
    """Breadth-first spanning tree of the Cayley graph of ``gens`` (name ->
    element), edges x -> mul(x, g) in generator order, from the identity:
    maps each element y reached to (x, name) with y = mul(x, gens[name]), the
    identity to None, in discovery order.  ValueError as soon as it reaches
    more than ``max_order`` elements, if given.  It calls mul(x, g) once per
    edge, x in discovery order and g in generator order."""
    tree = {identity: None}
    queue = [identity]
    for x in queue:
        for name, g in gens.items():
            y = mul(x, g)
            if y not in tree:
                tree[y] = (x, name)
                queue.append(y)
        if max_order is not None and len(tree) > max_order:
            raise ValueError(f"the generators give a group of order above {max_order}")
    return tree


@lru_cache(maxsize=None)
def pgl2(p: int) -> MatGroup:
    """The full group PGL2(F_p): the vertices of the spanning tree of T, U and
    V (v the least non-square mod p), with their parents."""
    gens = (t_matrix(p), u_matrix(p), v_matrix(p))
    tree = spanning_tree(ProjMat.identity(p), dict(enumerate(gens)), operator.mul)
    full = MatGroup(p, frozenset(tree), gens, {y: edge and edge[0] for y, edge in tree.items()})
    invariant(full.order == p * (p * p - 1), f"|PGL2(F_{p})| != p(p^2-1)")
    return full


@lru_cache(maxsize=None)
def psl2(p: int) -> MatGroup:
    """The subgroup PSL2(F_p) of classes with square determinant."""
    elems = frozenset(g for g in pgl2(p).elements if g.det_class == 1)
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


@lru_cache(maxsize=None)
def pgl2_index(p: int) -> tuple[tuple[ProjMat, ...], dict]:
    """The elements of PGL2(F_p) in sorted order, and each one's position."""
    elems = tuple(sorted(pgl2(p).elements))
    return elems, {g: i for i, g in enumerate(elems)}


@lru_cache(maxsize=None)
def right_table(g: ProjMat) -> tuple[int, ...]:
    """Right multiplication by g on the indexed PGL2(F_p): entry i is the
    index of elements[i] * g, from products for 1, T, U and V, else composed."""
    full, (elems, index) = pgl2(g.p), pgl2_index(g.p)
    x = full.parents[g]  # g = x * gen, gen = x^-1 g one of T, U and V
    if x is None or x.is_identity():
        return tuple(index[y * g] for y in elems)
    return tuple(map(right_table(x.inverse() * g).__getitem__, right_table(x)))


@lru_cache(maxsize=None)
def inverse_table(p: int) -> tuple[int, ...]:
    """Inversion on the indexed PGL2(F_p): entry i is the index of
    elements[i]^-1, the class of the adjugate (d, -b, -c, a)."""
    elems, index = pgl2_index(p)
    return tuple(index[g.inverse()] for g in elems)


@lru_cache(maxsize=None)
def order_table(p: int) -> tuple[int, ...]:
    """Orders on the indexed PGL2(F_p): entry i is the order of elements[i].
    A non-scalar class's order depends only on u = tr^2/det (Beauville,
    Finite subgroups of PGL2(K), 2010): u = 4 gives p, u = 0 gives 2, any
    other u the order of [[0, -1/u], [1, 1]], read off its powers once per u."""
    inverse = residue_tables(p)[0]
    by_u = {4 % p: p, 0: 2}
    orders = []
    for g in pgl2_index(p)[0]:
        a, b, c, d = g.rep
        u = (a + d) ** 2 * inverse[(a * d - b * c) % p] % p
        if u not in by_u:
            r = x = ProjMat(0, -inverse[u], 1, 1, p)
            by_u[u] = 1
            while not x.is_identity():
                by_u[u], x = by_u[u] + 1, x * r
        orders.append(1 if g.is_identity() else by_u[u])
    return tuple(orders)


def centralizer(s: Iterable[ProjMat], p: int) -> MatGroup:
    """Centralizer of the set ``s`` inside PGL2(F_p): the indices k with
    R_x[k] = L_x[k] = inv[R_(x^-1)[inv[k]]] for every x in ``s``, cut down one x at a time."""
    elems, index = pgl2_index(p)
    inv = inverse_table(p)
    ks = range(len(elems))
    for x in s:
        r, ri = right_table(x), right_table(elems[inv[index[x]]])
        ks = [k for k in ks if r[k] == inv[ri[inv[k]]]]
    cen = tuple(elems[k] for k in ks)
    return MatGroup(p, frozenset(cen), cen)
