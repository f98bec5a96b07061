"""Finite witnesses for Galois-theoretic data: a finite group together with
a projective representation into PGL2(F_p), a cyclotomic character value
map, an optional complex-conjugation element and optional named quadratic
characters.  A model is read-only: rho and chi are read-only copies, and
``eps`` (chi's residue character as +-1) and ``rho_ix`` (rho as PGL2(F_p)
indices) are derived once, by group number; variants are new models made
with ``dataclasses.replace``.

Also contains the finite-group container used throughout: a ``FiniteGroup``
numbers its elements once and stores right multiplication by each as a list
of numbers (the right regular representation, as ``projgroup.right_table``
for PGL2(F_p)), read off a table or composed along a spanning tree; labels
appear only at the boundary.  By the Cayley-graph criterion (proof in
``FiniteGroup``) homomorphisms are checked on the generators' columns, as
table lookups on numbers: ``is_homomorphism``, for characters (as bits of
Z/2), ``twists.check_cocycle`` and rho and chi in ``validate_model`` (which
scans all pairs only for a message), a map into a product one factor at a
time; and the homomorphism searches, which walk one first-generator image
per PGL2(F_p) conjugacy class and carry each homomorphism found over its
class.
"""
from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from types import MappingProxyType

from .arith import Level, is_prime, residue_tables
from .projgroup import ProjMat, inverse_table, order_table, pgl2, pgl2_index, right_table, spanning_tree

MAX_GROUP_ORDER = 720  # |S6|: a table of |G|^2 entries; S7 would ask for 25M
# right multiplication in Z/2 = {0, 1}: the w bits, and +-1 numbered 1 -> 0, -1 -> 1
Z2_RIGHT = ((0, 1), (1, 0))


class FiniteGroup:
    """A finite group, its elements numbered 0..n-1 by ``index`` in
    ``elements`` order (sorted permutations, or a table's order); right[j][i]
    is the number of elements[i] * elements[j], inverse[j] of elements[j]^-1.

    With generators (``set_generators``), ``tree`` is the breadth-first
    spanning tree of the Cayley graph with edges x -> x*g, g a generator
    (``projgroup.spanning_tree``): it maps each element y to (x, name) with
    y = x * gens[name], the identity to None, in discovery order.

    Cayley-graph criterion: f into a group is a homomorphism exactly when
    f(x*g) = f(x)*f(g) for every element x and generator g.  Proof of
    sufficiency: the edge x = 1 gives f(1) = 1.  Each y is a word
    g_1...g_k (its tree path), and by induction on k,
    f(x*g_1...g_k) = f(x*g_1...g_(k-1)) * f(g_k)
    = f(x) * f(g_1...g_(k-1)) * f(g_k) = f(x) * f(y), the last step being
    the case x = 1 of the same induction.
    """

    def __init__(self, index: dict, right: list, identity, name="G"):
        self.elements = tuple(index)
        self.index = index
        self.right = right
        self.identity = identity
        self.name = name
        self.gens = {}  # generator name -> element
        self.tree = None
        e = index[identity]
        self.inverse = [col.index(e) for col in right]  # the i with x_i * x_j = 1

    def mul(self, a, b):
        return self.elements[self.right[self.index[b]][self.index[a]]]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order {self.order})"

    def set_generators(self, gens: dict) -> None:
        """Record generators (name -> element) with their spanning tree;
        ValueError unless they generate."""
        tree = spanning_tree(self.identity, gens, self.mul)
        if len(tree) != self.order:
            raise ValueError("generators do not generate the group")
        self.gens, self.tree = dict(gens), tree

    @classmethod
    def from_table(cls, elements, table, identity, name="G"):
        """``table``: dict of dicts, table[a][b] = a*b; ValueError unless a group's."""
        index = {x: i for i, x in enumerate(elements)}
        if len(index) != len(elements):
            raise ValueError("FiniteGroup: the element labels are not distinct")
        if identity not in index:
            raise ValueError(f"FiniteGroup: the identity {identity!r} is not an element")
        if table.keys() != index.keys() or any(row.keys() != index.keys() for row in table.values()):
            raise ValueError("FiniteGroup: the table's rows and columns are not exactly the elements")
        try:
            right = [[index[table[a][b]] for a in index] for b in index]
        except KeyError:
            raise ValueError("FiniteGroup: the table is not closed") from None
        _check_group_axioms(right, index[identity])
        return cls(index, right, identity, name=name)

    @classmethod
    def from_permutations(cls, gen_perms: dict, name="G"):
        """Group generated by permutations (tuples mapping i -> perm[i]);
        associative by construction.  ValueError for a group of order above
        MAX_GROUP_ORDER, raised while it is enumerated, before the table.
        Only the spanning-tree walk composes; it gives the generators'
        columns, and R_(x*g) is R_g composed after R_x along the tree."""
        if not gen_perms:
            raise ValueError("from_permutations: need at least one generator")
        n = len(next(iter(gen_perms.values())))
        for p in gen_perms.values():
            if sorted(p) != list(range(n)):
                raise ValueError(f"from_permutations: invalid permutation {p}")
        gens = {gname: tuple(p) for gname, p in gen_perms.items()}
        ident = tuple(range(n))
        targets = []  # x * g for x in discovery order, g in generator order

        def compose(x, g):
            targets.append(_compose(x, g))
            return targets[-1]

        tree = spanning_tree(ident, gens, compose, max_order=MAX_GROUP_ORDER)
        index = {x: i for i, x in enumerate(sorted(tree))}
        step = {gname: [0] * len(index) for gname in gens}
        for (x, gname), y in zip(itertools.product(tree, gens), targets):
            step[gname][index[x]] = index[y]
        right = [None] * len(index)
        right[index[ident]] = list(range(len(index)))
        for y, (x, gname) in itertools.islice(tree.items(), 1, None):
            right[index[y]] = list(map(step[gname].__getitem__, right[index[x]]))
        g = cls(index, right, ident, name=name)
        g.gens, g.tree = gens, tree  # the walk is the generators' spanning tree
        return g

    def generators(self) -> tuple:
        """The generator elements; ValueError for a group without any, on
        which a check over generators would pass vacuously."""
        if not self.gens:
            raise ValueError(f"{self.name}: group has no generators")
        return tuple(self.gens.values())

    def generator_names(self) -> list:
        """The sorted names of the generators on the tree's edges."""
        if self.tree is None:
            raise ValueError(f"{self.name}: group has no generators")
        return sorted({edge[1] for edge in self.tree.values() if edge is not None})

    def extend_generator_map(self, gen_values: dict, op, one):
        """Extend a map defined on generator names along the spanning tree:
        value(1) = one, value(x*g) = op(value(x), gen_values[g]) on each tree
        edge, that is the product along the word.  The result is NOT always a
        homomorphism: by the Cayley-graph criterion it is one exactly when
        this holds on every edge, which ``is_homomorphism`` tests."""
        missing = set(self.generator_names()) - set(gen_values)
        if missing:
            raise ValueError(f"extend_generator_map: no value for generator(s) {sorted(missing)}")
        out = {}
        for y, edge in self.tree.items():
            out[y] = one if edge is None else op(out[edge[0]], gen_values[edge[1]])
        return out

    def is_homomorphism(self, f, table) -> bool:
        """Whether f, a list by group number of numbers in a target group
        whose right multiplication by v is the sequence ``table(v)``, is a
        homomorphism: by the Cayley-graph criterion, whether
        f[R_g[x]] = table(f[g])[f[x]] along each generator column R_g of
        ``right``, two C-level maps of the column compared per generator.
        A map into a product is a homomorphism exactly when each factor is
        one, so product targets are checked a factor at a time.  ValueError
        without generators."""
        return all(list(map(f.__getitem__, self.right[j])) == list(map(table(f[j]).__getitem__, f))
                   for j in map(self.index.__getitem__, self.generators()))


def _compose(a, b):
    return tuple(a[i] for i in b)


def _check_group_axioms(right: list, e: int) -> None:
    """Identity, inverses and associativity of ``right``, e the identity's
    number, the last by Light's test (Clifford-Preston, Algebraic Theory of
    Semigroups I, 1.2): the a with R_y after R_a = R_(a*y) for all y form a
    submonoid, so generators suffice, each the first element not reached."""
    if right[e] != list(range(len(right))) or any(col[e] != j for j, col in enumerate(right)):
        raise ValueError("FiniteGroup: identity axiom fails")
    if any(e not in col for col in right):
        raise ValueError("FiniteGroup: not every element has an inverse")
    gens, tree = {}, {e: None}
    for x in range(len(right)):
        if x not in tree:
            gens[x] = x
            tree = spanning_tree(e, gens, lambda y, a: right[a][y])
    for a in gens:
        for y, col in enumerate(right):
            if list(map(col.__getitem__, right[a])) != right[right[y][a]]:
                raise ValueError("FiniteGroup: associativity fails")


def trivial_group() -> FiniteGroup:
    return FiniteGroup.from_permutations({"e": (0,)}, name="1")


def cyclic_group(n: int) -> FiniteGroup:
    perm = tuple((i + 1) % n for i in range(n))
    return FiniteGroup.from_permutations({"g": perm}, name=f"C{n}")


def klein_four() -> FiniteGroup:
    return FiniteGroup.from_permutations(
        {"a": (1, 0, 3, 2), "b": (2, 3, 0, 1)}, name="C2xC2"
    )


def symmetric_group(n: int) -> FiniteGroup:
    if n < 2:
        return trivial_group()
    swap = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    return FiniteGroup.from_permutations({"s": swap, "t": cycle}, name=f"S{n}")


@dataclass(frozen=True)
class QuadraticCharacter:
    """A +-1-valued character with an optional squarefree-field annotation."""

    values: dict  # element -> +-1
    field: int | None = None  # squarefree integer labelling the fixed field


@dataclass(frozen=True)
class FiniteGaloisModel:
    """A finite quotient witness: group G with rho: G -> PGL2(F_p),
    chi: G -> F_p^* (the cyclotomic character), an optional conjugation
    element and optional named quadratic characters.

    Read-only: rho and chi are kept as read-only copies of the mappings
    given, so ``eps`` and ``rho_ix``, derived once by group number, stay
    true; a variant is a new model, ``dataclasses.replace(m, ...)``."""

    group: FiniteGroup
    p: int
    rho: Mapping  # element -> ProjMat
    chi: Mapping  # element -> int in [1, p-1]
    conj: object | None = None
    characters: dict = field(default_factory=dict)  # name -> QuadraticCharacter

    def __post_init__(self) -> None:
        object.__setattr__(self, "rho", MappingProxyType(dict(self.rho)))
        object.__setattr__(self, "chi", MappingProxyType(dict(self.chi)))

    @cached_property
    def eps(self) -> tuple[int, ...]:
        """eps, the quadratic residue character of chi, as +-1 by group number."""
        symbol = residue_tables(self.p)[1]
        return tuple(symbol[self.chi[x] % self.p] for x in self.group.elements)

    @cached_property
    def rho_ix(self) -> tuple[int, ...]:
        """rho by group number, as indices into the sorted PGL2(F_p); for a
        rho valued in ProjMats mod p, as ``validate_model`` checks first."""
        index = pgl2_index(self.p)[1]
        return tuple(index[self.rho[x]] for x in self.group.elements)

    def epsilon(self, sigma) -> int:
        return self.eps[self.group.index[sigma]]

    def det_class(self, sigma) -> int:
        return self.rho[sigma].det_class

    def det_is_epsilon(self) -> bool:
        """Whether det rho = eps as +-1 characters: the parity of the
        cyclotomic case."""
        elems = pgl2_index(self.p)[0]
        return all(elems[k].det_class == e for k, e in zip(self.rho_ix, self.eps))


def validate_model(m: FiniteGaloisModel) -> list[str]:
    """All violations of the model axioms, as human-readable strings.  rho
    (on PGL2 indices) and chi (on residues) are checked apart, a map into a
    product being a homomorphism when each factor is; all pairs are scanned
    for the first failing one only where ``is_homomorphism`` rejects one of
    them, or the group has no generators."""
    if not (m.p > 2 and is_prime(m.p)):
        return [f"p = {m.p} is not an odd prime"]
    g = m.group
    if set(m.rho) != set(g.elements):
        return ["rho is not defined on exactly the group elements"]
    if set(m.chi) != set(g.elements):
        return ["chi is not defined on exactly the group elements"]
    errs = []
    for x in g.elements:
        if not isinstance(m.rho[x], ProjMat) or m.rho[x].p != m.p:
            return errs + [f"rho({x}) is not a ProjMat mod {m.p}"]
        if not (1 <= m.chi[x] % m.p <= m.p - 1):
            errs.append(f"chi({x}) = {m.chi[x]} is not a unit mod {m.p}")
    elems = pgl2_index(m.p)[0]  # index(rho(a) rho(b)) = R_rho(b)[index(rho(a))]
    rho, chi = m.rho_ix, [m.chi[x] % m.p for x in g.elements]
    if not (g.gens and g.is_homomorphism(rho, lambda k: right_table(elems[k]))
            and g.is_homomorphism(chi, lambda c: [x * c % m.p for x in range(m.p)])):
        tables = [right_table(elems[k]) for k in rho]
        for a, (rho_a, chi_a) in enumerate(zip(rho, chi)):
            for b, col in enumerate(g.right):
                ab = col[a]
                if rho[ab] != tables[b][rho_a]:
                    return errs + [f"rho is not a homomorphism at ({g.elements[a]}, {g.elements[b]})"]
                if chi[ab] != chi_a * chi[b] % m.p:
                    return errs + [f"chi is not a homomorphism at ({g.elements[a]}, {g.elements[b]})"]
    if m.conj is not None:
        if m.conj not in g.elements:
            errs.append("conj is not a group element")
        else:
            if g.mul(m.conj, m.conj) != g.identity:
                errs.append("conj does not square to the identity")
            if m.chi[m.conj] % m.p != m.p - 1:
                errs.append("chi(conj) != -1")
    for name, char in m.characters.items():
        if set(char.values) != set(g.elements):
            errs.append(f"character {name!r} not defined on the whole group")
            continue
        if any(char.values[x] not in (1, -1) for x in g.elements):
            errs.append(f"character {name!r} takes values outside +-1")
            continue
        if not g.is_homomorphism([(1 - char.values[x]) // 2 for x in g.elements], Z2_RIGHT.__getitem__):
            errs.append(f"character {name!r} is not a homomorphism")
    return errs


class Case(Enum):
    CYCLOTOMIC = "cyclotomic"
    NON_CYCLOTOMIC = "non-cyclotomic"


def classify(level: Level) -> Case:
    return Case.CYCLOTOMIC if level.cyclotomic else Case.NON_CYCLOTOMIC


def all_homs_to_pgl2(group: FiniteGroup, p: int) -> list[dict]:
    """All homomorphisms group -> PGL2(F_p), in ``itertools.product`` order
    over the images whose order (``projgroup.order_table``) divides the
    generator's, found by ``_homs`` up to conjugation by T, U and V, read on
    indices as s^-1 x s = R_s[inv[R_s[inv[x]]]]."""
    elems, inv = pgl2_index(p)[0], inverse_table(p)
    conj = [[r[inv[r[inv[x]]]] for x in range(len(elems))] for r in map(right_table, pgl2(p).generators)]
    return _homs(group, elems, lambda i: right_table(elems[i]), order_table(p), conj)


def all_quadratic_characters(group: FiniteGroup) -> list[dict]:
    """All homomorphisms group -> {1, -1}, searched by ``_homs`` with no
    conjugations: {1, -1} numbered so has right tables ``Z2_RIGHT``."""
    return _homs(group, (1, -1), Z2_RIGHT.__getitem__, (1, 2), [])


def _element_order(group: FiniteGroup, x) -> int:
    n, y = 1, x
    while y != group.identity:
        y, n = group.mul(y, x), n + 1
    return n


def _candidates(group: FiniteGroup, gens: list, orders) -> list[list[int]]:
    """Per generator, the increasing indices whose order divides its own."""
    return [[i for i, k in enumerate(orders) if n % k == 0] for n in (_element_order(group, x) for x in gens)]


def _homs(group: FiniteGroup, target, table, orders, conj: list) -> list[dict]:
    """The homomorphisms into the group indexed by ``target`` (right tables
    ``table(i)``, orders ``orders``), in ``itertools.product`` order over the
    generators' ``_candidates``, keys in ``tree`` order.

    The first generator's candidates fall into orbits under ``conj``, index
    permutations that are automorphisms, along ``spanning_tree``; only each
    orbit's first member a is walked.  The second generator's b is walked
    only if the order of b*a = R_a[b], conjugate to a*b, divides that of
    g1*g2, as a homomorphism needs; later generators take every candidate.
    Each walk visits the numbers in tree order, sets f[R_g[i]] = table[f[i]]
    on tree edges, R_g a generator's column of ``group.right``, and compares
    it on all others, failing at the first mismatch: exact by the
    Cayley-graph criterion.  An automorphism c maps the homomorphisms with
    f(g1) = x one to one onto those with f(g1) = c[x], so composing along
    each orbit's tree finds every homomorphism exactly once."""
    order = [group.index[x] for x in group.tree]
    gens, one = [group.gens[name] for name in group.generator_names()], orders.index(1)
    if not gens:
        return [{x: target[one] for x in group.tree}]
    keys = [group.index[x] for x in gens]
    cols = [group.right[j] for j in keys]
    pools = _candidates(group, gens, orders)
    n12 = len(gens) > 1 and _element_order(group, group.mul(gens[0], gens[1]))
    found, seen = [], set()
    for a in pools[0]:
        if a in seen:
            continue
        orbit = spanning_tree(a, dict(enumerate(conj)), lambda x, c: c[x])
        seen.update(orbit)
        right = table(a)
        second = [[b for b in pool if n12 % orders[right[b]] == 0] for pool in pools[1:2]]
        walks = (_walk(order, list(zip(cols, map(table, values))), one)
                 for values in itertools.product([a], *second, *pools[2:]))
        homs = {a: [f for f in walks if f is not None]}
        for y, (x, k) in itertools.islice(orbit.items(), 1, None):
            homs[y] = [list(map(conj[k].__getitem__, f)) for f in homs[x]]
        found.extend(itertools.chain.from_iterable(homs.values()))
    found.sort(key=lambda f: [f[j] for j in keys])
    return [{group.elements[i]: target[f[i]] for i in order} for f in found]


def _walk(order: list, steps: list, one: int) -> list | None:
    """f over the numbers, or None; ``order`` puts a tree parent first."""
    f = [None] * len(order)
    f[order[0]] = one
    for i in order:
        fi = f[i]
        for col, table in steps:
            j, value = col[i], table[fi]
            if f[j] is None:
                f[j] = value
            elif f[j] != value:
                return None
    return f
