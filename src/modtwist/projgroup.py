"""Exact arithmetic in PGL2/PSL2 over F_p, p an odd prime, and the one
interface of finite groups with numbered elements.

``ProjMat`` is the one representation of a PGL2(F_p) element: the class of an
invertible 2x2 matrix modulo scalars, stored as its canonical representative
(first nonzero entry in row-major order scaled to 1) plus the square class of
the determinant, which is well defined mod scalars.  A matrix reads the per-p
``arith.residue_tables`` where it would invert or take a symbol, and they are
the one check of the modulus, run once per p: any modulus other than an odd
prime is a ValueError.  Matrices enter as integers and leave as printed
entries; sweeps in between move numbers.

A ``NumberedGroup`` (``galmodel.FiniteGroup``, or ``pgl2(p)``, the sorted
classes) is read through its right regular representation, with conjugation
and centralizers written once over it.  PGL2's column for g is
``right_table(g)``, cached: |G| products for 1, T, U and V, else one step
R_(x * gen)[s] = R_gen[R_x[s]] along the spanning tree.  Its subgroups,
``psl2(p)``, centralizers and ``extgroup.wgroup``'s image, are sets of those
numbers.  ``spanning_tree`` is the one breadth-first search of a Cayley graph.
"""
from __future__ import annotations

import operator
from functools import cached_property, lru_cache

from .arith import invariant, kronecker, least_nonsquare, residue_tables

# model files and ``structure`` enumerate all p^3 - p elements of PGL2(F_p):
# ``structure 3 31`` takes about 1 s and 42 MB, ``structure 2 61`` 13 s and 221 MB
MAX_P = 31


class ProjMat:
    """Class of an invertible 2x2 matrix over F_p modulo scalars.

    The canonical representative has its first nonzero row-major entry (a
    or b) equal to 1; ``det_class`` is the Legendre symbol of any
    representative's determinant, +1 or -1; both read ``residue_tables(p)``.
    Products, inverses and hats take the class in closed form and skip the
    singularity check.  ValueError on a singular matrix, or, from the tables,
    on a p that is not an odd prime.
    """

    __slots__ = ("rep", "p", "det_class", "_hash")

    def __init__(self, a: int, b: int, c: int, d: int, p: int):
        symbols = residue_tables(p)[1]  # first: it checks p
        det = (a * d - b * c) % p
        if det == 0:
            raise ValueError(f"ProjMat: singular matrix {(a % p, b % p, c % p, d % p)} mod {p}")
        self._set(a, b, c, d, p, symbols[det])

    def _set(self, a: int, b: int, c: int, d: int, p: int, det_class: int) -> None:
        """Canonical form of the nonsingular (a, b, c, d) mod p; a or b is
        nonzero, so a unit."""
        a, b, c, d = a % p, b % p, c % p, d % p
        s = residue_tables(p)[0][a or b]
        self.rep = (a * s % p, b * s % p, c * s % p, d * s % p)
        self.p = p
        self.det_class = det_class
        self._hash = hash((self.rep, p))

    def _derived(self, a: int, b: int, c: int, d: int, det_class: int) -> "ProjMat":
        """(a, b, c, d) mod self.p, of known det class."""
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

    def hat(self) -> "ProjMat":
        """The involution (a, b, c, d) -> (d, c, b, a), conjugation by
        [[0, 1], [1, 0]]; it is multiplicative."""
        a, b, c, d = self.rep
        return self._derived(d, c, b, a, self.det_class)

    def is_identity(self) -> bool:
        return self.rep == (1, 0, 0, 1)


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


class NumberedGroup:
    """A finite group with ``elements`` numbered 0..n-1 (``index`` maps
    back), held as its right regular representation (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005): ``right(j)`` is
    the column of right multiplication by element j, entry i the number of
    elements[i] * elements[j]; ``inverse[j]`` is the number of
    elements[j]^-1, ``orders[j]`` its order, ``identity`` an element and
    ``tree`` the ``spanning_tree`` of the generators ``gens``.  Left
    multiplication L_x = inv R_(x^-1) inv, conjugation and centralizers are
    read off the columns here, for ``galmodel.FiniteGroup``, which stores
    them all, and for ``PGL2``, which composes and caches them on demand.
    """

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def orders(self) -> tuple[int, ...]:
        """Each element's order, by number: the length of the identity's
        cycle under its column.  ``PGL2`` overrides it, as it would build a
        column per element there."""
        e, out = self.index[self.identity], []
        for x in range(self.order):
            r, y, n = self.right(x), x, 1
            while y != e:
                y, n = r[y], n + 1
            out.append(n)
        return tuple(out)

    def conj(self, s: int, xs=None) -> list[int]:
        """s^-1 x s for each number x of ``xs``, by default every number, which
        gives conjugation by s as a permutation: R_s[inv[R_s[inv[x]]]]."""
        r, inv = self.right(s), self.inverse
        return [r[inv[r[inv[x]]]] for x in (range(self.order) if xs is None else xs)]

    def centralizer(self, xs, ys=None, ks=None) -> list[int]:
        """The numbers k among ``ks`` (by default every number, in order)
        with x k = k y for each x of ``xs`` and y its partner in ``ys``, by
        default x itself, which gives the centralizer of ``xs``: the k with
        R_y[k] = L_x[k] = inv[R_(x^-1)[inv[k]]], cut down one pair at a time."""
        xs, inv = list(xs), self.inverse
        ks = range(self.order) if ks is None else ks
        for x, y in zip(xs, xs if ys is None else ys):
            r, ri = self.right(y), self.right(inv[x])
            ks = [k for k in ks if r[k] == inv[ri[inv[k]]]]
        return list(ks)


class PGL2(NumberedGroup):
    """PGL2(F_p), its ``ProjMat``s numbered in sorted order: the vertices of
    the spanning tree of T, U and V (v the least non-square mod p).  A column
    is ``right_table``'s, composed along the tree and cached, as the full
    table would hold (p^3 - p)^2 entries, 886 million at p = 31; ``inverse``
    (the classes of the adjugates) and ``orders`` are read on first use."""

    def __init__(self, p: int) -> None:
        self.p = p
        self.identity = ProjMat.identity(p)
        self.gens = {"T": t_matrix(p), "U": u_matrix(p), "V": v_matrix(p)}
        self.tree = spanning_tree(self.identity, self.gens, operator.mul)
        self.elements = tuple(sorted(self.tree, key=operator.attrgetter("rep")))  # as ProjMat.__lt__
        self.index = {g: i for i, g in enumerate(self.elements)}

    def right(self, j: int) -> tuple[int, ...]:
        return right_table(self.elements[j])

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        return tuple(map(self.index.__getitem__, [g.inverse() for g in self.elements]))

    @cached_property
    def orders(self) -> tuple[int, ...]:
        """A non-scalar class's order depends only on u = tr^2/det
        (Beauville, Finite subgroups of PGL2(K), 2010): u = 4 gives p, u = 0
        gives 2, any other u the order of [[0, -1/u], [1, 1]], read off its
        powers once per u, with no column."""
        p = self.p
        inverse = residue_tables(p)[0]
        by_u = {4 % p: p, 0: 2}
        orders = []
        for g in self.elements:
            a, b, c, d = g.rep
            u = (a + d) ** 2 * inverse[(a * d - b * c) % p] % p
            if u not in by_u:
                r = x = ProjMat(0, -inverse[u], 1, 1, p)
                by_u[u] = 1
                while not x.is_identity():
                    by_u[u], x = by_u[u] + 1, x * r
            orders.append(1 if g.is_identity() else by_u[u])
        return tuple(orders)


class Subgroup(tuple):
    """A subgroup of a numbered group: the increasing numbers of its elements."""

    __slots__ = ()
    order = property(len)


@lru_cache(maxsize=None)
def pgl2(p: int) -> PGL2:
    """PGL2(F_p) as a numbered group, built once per p."""
    full = PGL2(p)
    invariant(full.order == p * (p * p - 1), f"|PGL2(F_{p})| != p(p^2-1)")
    return full


@lru_cache(maxsize=None)
def psl2(p: int) -> Subgroup:
    """The subgroup PSL2(F_p) of ``pgl2(p)``: the classes with square determinant."""
    half = Subgroup(k for k, g in enumerate(pgl2(p).elements) if g.det_class == 1)
    invariant(half.order == p * (p * p - 1) // 2, f"|PSL2(F_{p})| != p(p^2-1)/2")
    return half


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
def right_table(g: ProjMat) -> tuple[int, ...]:
    """Right multiplication by g on the numbered PGL2(F_p): entry i is the
    number of elements[i] * g, from products for 1, T, U and V, else R_gen
    after R_x for the tree edge g = x * gen."""
    full = pgl2(g.p)
    edge = full.tree[g]
    if edge is None or edge[0].is_identity():
        return tuple(map(full.index.__getitem__, [y * g for y in full.elements]))
    return tuple(map(right_table(full.gens[edge[1]]).__getitem__, right_table(edge[0])))
