"""Finite witnesses for Galois-theoretic data: a finite group together with
a projective representation into PGL2(F_p), a cyclotomic character value
map, an optional complex-conjugation element and optional named quadratic
characters.

Also contains a small finite-group container used throughout: groups are
stored as multiplication tables over hashable labels, optionally remembering
a spanning tree (``projgroup.spanning_tree``) of the Cayley graph of their
generators, along which maps defined on generators are extended.
Cayley-graph criterion (proof in ``FiniteGroup``): f into a group is a
homomorphism exactly when f(x*g) = f(x)*f(g) on the |G|*|gens| edges
x -> x*g, g a generator.  ``FiniteGroup.is_homomorphism`` walks these edges
for ``validate_model``'s named characters and, through a semidirect
product, for ``twists.check_cocycle``; the homomorphism searches walk them
in indices.  ``validate_model`` scans pairs, so that its messages name the
first failing pair, each rho pair one lookup in a ``projgroup.right_table``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

from .arith import Level, kronecker
from .projgroup import ProjMat, pgl2_index, right_table, spanning_tree

MAX_GROUP_ORDER = 720  # |S6|: a table of |G|^2 entries; S7 would ask for 25M


class FiniteGroup:
    """A finite group given by a full multiplication table.

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

    def __init__(self, elements, mul, identity, name="G"):
        self.elements = tuple(elements)
        self._mul = mul
        self.identity = identity
        self.name = name
        self.gens = {}  # generator name -> element
        self.tree = None
        # one pass over the table; a group has exactly one b with a * b = 1
        self._inv = {a: b for (a, b), ab in mul.items() if ab == identity}
        if len(self._inv) != len(self.elements):
            raise ValueError("FiniteGroup: not every element has an inverse")

    def mul(self, a, b):
        return self._mul[(a, b)]

    def inv(self, a):
        return self._inv[a]

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
        """``table``: dict of dicts, table[a][b] = a*b."""
        mul = {(a, b): table[a][b] for a in elements for b in elements}
        g = cls(elements, mul, identity, name=name)
        _check_group_axioms(g)
        return g

    @classmethod
    def from_permutations(cls, gen_perms: dict, name="G"):
        """Group generated by permutations (tuples mapping i -> perm[i]);
        associative by construction.  ValueError for a group of order above
        MAX_GROUP_ORDER, raised while it is enumerated, before the table.
        Only the spanning-tree walk composes; the table is read off the right
        regular representation composed along the tree, in |G|^2 lookups."""
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
        order = list(tree)
        pos = {x: i for i, x in enumerate(order)}
        step = {gname: [pos[y] for y in targets[k::len(gens)]] for k, gname in enumerate(gens)}
        right = [range(len(order))]  # right[j][i] = pos(order[i] * order[j])
        for x, gname in list(tree.values())[1:]:
            right.append(list(map(step[gname].__getitem__, right[pos[x]])))
        ranks = sorted(range(len(order)), key=order.__getitem__)
        mul = {(order[i], order[j]): order[right[j][i]] for i in ranks for j in ranks}
        g = cls([order[i] for i in ranks], mul, ident, name=name)
        g.set_generators(gens)
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

    def is_homomorphism(self, f: dict, op) -> bool:
        """Whether f (element -> value in a group under ``op``) is a
        homomorphism: by the Cayley-graph criterion, whether
        f(x*g) = op(f(x), f(g)) on each of the |G|*|gens| edges, failing at
        the first mismatch.  ValueError on a group without generators."""
        gens = self.generators()
        return all(f[self.mul(x, g)] == op(f[x], f[g]) for x in self.elements for g in gens)


def _compose(a, b):
    return tuple(a[i] for i in b)


def _check_group_axioms(g: FiniteGroup) -> None:
    """Closure, identity and associativity of a table, the last by Light's
    test (Clifford-Preston, Algebraic Theory of Semigroups I, 1.2): the a with
    (x*a)*y = x*(a*y) for all x, y include 1 and are closed under products,
    so it suffices to check generators, found by the spanning-tree search
    adding the first element not reached until all are."""
    e = g.identity
    if not set(g._mul.values()) <= set(g.elements):
        raise ValueError("FiniteGroup: the table is not closed")
    for a in g.elements:
        if g.mul(a, e) != a or g.mul(e, a) != a:
            raise ValueError("FiniteGroup: identity axiom fails")
    gens = {}
    tree = spanning_tree(e, gens, g.mul)
    for x in g.elements:
        if x not in tree:
            gens[x] = x
            tree = spanning_tree(e, gens, g.mul)
    for s in gens.values():
        for x in g.elements:
            xs = g.mul(x, s)
            for y in g.elements:
                if g.mul(xs, y) != g.mul(x, g.mul(s, y)):
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


@dataclass
class FiniteGaloisModel:
    """A finite quotient witness: group G with rho: G -> PGL2(F_p),
    chi: G -> F_p^* (the cyclotomic character), an optional conjugation
    element and optional named quadratic characters."""

    group: FiniteGroup
    p: int
    rho: dict  # element -> ProjMat
    chi: dict  # element -> int in [1, p-1]
    conj: object | None = None
    characters: dict = field(default_factory=dict)  # name -> QuadraticCharacter

    def epsilon(self, sigma) -> int:
        """The quadratic residue character of chi: the mod-p cyclotomic
        parity of sigma."""
        return kronecker(self.chi[sigma], self.p)

    def det_class(self, sigma) -> int:
        return self.rho[sigma].det_class

    def det_is_epsilon(self) -> bool:
        """Whether det rho = eps as +-1 characters: the parity of the
        cyclotomic case."""
        return all(self.det_class(s) == self.epsilon(s) for s in self.group.elements)


def validate_model(m: FiniteGaloisModel) -> list[str]:
    """All violations of the model axioms, as human-readable strings."""
    errs = []
    g = m.group
    if set(m.rho) != set(g.elements):
        errs.append("rho is not defined on exactly the group elements")
        return errs
    if set(m.chi) != set(g.elements):
        errs.append("chi is not defined on exactly the group elements")
        return errs
    for x in g.elements:
        if not isinstance(m.rho[x], ProjMat) or m.rho[x].p != m.p:
            errs.append(f"rho({x}) is not a ProjMat mod {m.p}")
            return errs
        if not (1 <= m.chi[x] % m.p <= m.p - 1):
            errs.append(f"chi({x}) = {m.chi[x]} is not a unit mod {m.p}")
    index = pgl2_index(m.p)[1]  # index(rho(a) rho(b)) = R_rho(b)[index(rho(a))]
    rho = {x: index[m.rho[x]] for x in g.elements}
    tables = {x: right_table(m.rho[x]) for x in g.elements}
    chi = {x: m.chi[x] % m.p for x in g.elements}
    for a in g.elements:
        rho_a, chi_a = rho[a], chi[a]
        for b in g.elements:
            ab = g.mul(a, b)
            if rho[ab] != tables[b][rho_a]:
                errs.append(f"rho is not a homomorphism at ({a}, {b})")
                return errs
            if chi[ab] != chi_a * chi[b] % m.p:
                errs.append(f"chi is not a homomorphism at ({a}, {b})")
                return errs
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
        if not g.is_homomorphism(char.values, lambda a, b: a * b):
            errs.append(f"character {name!r} is not a homomorphism")
    return errs


class Case(Enum):
    CYCLOTOMIC = "cyclotomic"
    NON_CYCLOTOMIC = "non-cyclotomic"


def classify(level: Level) -> Case:
    return Case.CYCLOTOMIC if level.cyclotomic else Case.NON_CYCLOTOMIC


def all_homs_to_pgl2(group: FiniteGroup, p: int) -> list[dict]:
    """All homomorphisms group -> PGL2(F_p), in ``itertools.product`` order
    over the generator images whose order divides the generator's, each
    image taken as its ``projgroup.right_table``."""
    one = ProjMat.identity(p)
    elems, index = pgl2_index(p)
    images = {}
    for name in group.generator_names():
        elem = group.gens[name]
        n, x = 1, elem
        while x != group.identity:
            x = group.mul(x, elem)
            n += 1
        images[name] = [right_table(g) for g in elems if g ** n == one]
    return _homs_from_tables(group, images, elems, index[one])


def all_quadratic_characters(group: FiniteGroup) -> list[dict]:
    """All homomorphisms group -> {1, -1}, searched as in ``all_homs_to_pgl2``:
    {1, -1} indexed in that order has right tables (0, 1) and (1, 0)."""
    images = {name: ((0, 1), (1, 0)) for name in group.generator_names()}
    return _homs_from_tables(group, images, (1, -1), 0)


def _homs_from_tables(group: FiniteGroup, images: dict, target, one: int) -> list[dict]:
    """The homomorphisms into the group indexed by ``target``, ``one`` the
    index of its identity, with generator values drawn from ``images`` (name
    -> the candidates' right tables), in ``itertools.product`` order, keys in
    ``tree`` order.  With nxt[i] the number of x_i * g in tree order, each
    walk sets f[nxt[i]] = R[f[i]] on tree edges and compares it on all others,
    failing at the first mismatch: exact by the Cayley-graph criterion."""
    order = list(group.tree)
    pos = {x: i for i, x in enumerate(order)}
    nxt = [[pos[group.mul(x, group.gens[name])] for x in order] for name in images]
    homs = (_walk(list(zip(nxt, values)), len(order), one)
            for values in itertools.product(*images.values()))
    return [{x: target[k] for x, k in zip(order, f)} for f in homs if f is not None]


def _walk(steps: list, n: int, one: int) -> list | None:
    """f over the tree order, or None; x_i's tree parent comes before it."""
    f = [one] + [None] * (n - 1)
    for i, fi in enumerate(f):
        for nxt, table in steps:
            j, value = nxt[i], table[fi]
            if f[j] is None:
                f[j] = value
            elif f[j] != value:
                return None
    return f
