"""Finite witnesses for Galois-theoretic data: a finite group together with
a projective representation into PGL2(F_p), a cyclotomic character value
map, an optional complex-conjugation element and optional named quadratic
characters.  A model is read-only: rho, chi, the characters and each
character's values are read-only copies, and ``eps`` (chi's residue
character as +-1) and ``rho_ix`` (rho as numbers in ``projgroup.pgl2(p)``)
are derived once, by group number; a variant is a new model, built from the
old one's attributes.

A model's group is a ``FiniteGroup``: the ``projgroup.NumberedGroup`` walk
of its generators, permutations or a table's labels, with every column of
numbers composed along it; labels appear only at the boundary, and a group
never changes once built.  By the Cayley-graph criterion (proof in
``FiniteGroup``) homomorphisms are checked on the generators' columns, as
lookups on numbers: ``is_homomorphism``, for characters (as bits of Z/2),
``twists.check_cocycle`` and rho and chi in ``validate_model`` (which scans
all pairs only for a message), a map into a product one factor at a time.
The homomorphism searches take their target as one numbered group,
``pgl2(p)`` or ``SIGNS``, and walk one first-generator image per conjugacy
class under the target's generators, carrying each homomorphism found over
its class.
"""
from __future__ import annotations

import itertools
import operator
from collections.abc import Mapping
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

from .arith import ReadOnly, is_prime, residue_tables
from .projgroup import NumberedGroup, ProjMat, pgl2, spanning_tree

MAX_GROUP_ORDER = 720  # |S6|: a table of |G|^2 entries; S7 would ask for 25M


class FiniteGroup(NumberedGroup):
    """A finite group on the ``NumberedGroup`` walk of its generators, its
    elements numbered in sorted order (permutations) or in a table's order,
    with every column composed along the walk as it is built and kept as a
    list: right(j), whose entry i is the number of elements[i] * elements[j].

    Cayley-graph criterion: f into a group is a homomorphism exactly when
    f(x*g) = f(x)*f(g) for every element x and generator g.  Proof of
    sufficiency: the edge x = 1 of a generator, of which a group has at
    least one, gives f(1) = 1.  Each y is a word g_1...g_k (its walk path),
    and by induction on k, f(x*g_1...g_k) = f(x*g_1...g_(k-1)) * f(g_k)
    = f(x) * f(g_1...g_(k-1)) * f(g_k) = f(x) * f(y), the last step being
    the case x = 1 of the same induction.
    """

    def __init__(self, identity, gens: dict, mul, key=None, max_order=None, name="G"):
        super().__init__(identity, gens, mul, key, max_order)
        self.name = name
        for j in self.walk:  # every column, each one step from its parent's
            self.right(j)
        columns = [list(self._right.pop(j)) for j in range(self.order)]  # lists: map() reads them fastest
        self.right = columns.__getitem__
        e = self.index[identity]
        self.inverse = tuple(col.index(e) for col in columns)  # the i with x_i * x_j = 1

    def mul(self, a, b):
        return self.elements[self.right(self.index[b])[self.index[a]]]

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order {self.order})"

    @classmethod
    def from_table(cls, elements, table, identity, gens=None, name="G"):
        """``table``: dict of dicts, table[a][b] = a*b, numbered in
        ``elements`` order; ValueError unless a group's.  ``gens`` (name ->
        element) defaults to every element, named by its str; LookupError
        unless they are elements (KeyError) that generate."""
        index = {x: i for i, x in enumerate(elements)}
        if len(index) != len(elements):
            raise ValueError("FiniteGroup: the element labels are not distinct")
        if identity not in index:
            raise ValueError(f"FiniteGroup: the identity {identity!r} is not an element")
        if table.keys() != index.keys() or any(row.keys() != index.keys() for row in table.values()):
            raise ValueError("FiniteGroup: the table's rows and columns are not exactly the elements")
        try:
            columns = [[index[table[a][b]] for a in index] for b in index]
        except KeyError:
            raise ValueError("FiniteGroup: the table is not closed") from None
        _check_group_axioms(columns, index[identity])
        grp = cls(identity, gens or {str(x): x for x in elements}, lambda a, b: table[a][b],
                  key=index.__getitem__, name=name)
        if grp.order != len(index):
            raise LookupError("generators do not generate the group")
        return grp

    @classmethod
    def from_permutations(cls, gen_perms: dict, name="G"):
        """Group generated by permutations (tuples mapping i -> perm[i]);
        associative by construction.  ValueError for a group of order above
        MAX_GROUP_ORDER, raised while it is walked, before any column is
        composed."""
        if not gen_perms:
            raise ValueError("from_permutations: need at least one generator")
        n = len(next(iter(gen_perms.values())))
        for p in gen_perms.values():
            if sorted(p) != list(range(n)):
                raise ValueError(f"from_permutations: invalid permutation {p}")
        return cls(tuple(range(n)), {gname: tuple(p) for gname, p in gen_perms.items()}, _compose,
                   max_order=MAX_GROUP_ORDER, name=name)

    def generator_names(self) -> list:
        """The sorted names of the generators on the walk's edges."""
        return sorted(set(self.step) - {None})

    def extend_generator_map(self, gen_values: dict, op, one):
        """Extend a map defined on generator names along the walk: value(1) =
        one, value(x*g) = op(value(x), gen_values[g]) on each tree edge, that
        is the product along the word, keyed in walk order.  The result is
        NOT always a homomorphism: by the Cayley-graph criterion it is one
        exactly when this holds on every edge, which ``is_homomorphism``
        tests."""
        missing = set(self.generator_names()) - set(gen_values)
        if missing:
            raise ValueError(f"extend_generator_map: no value for generator(s) {sorted(missing)}")
        elements, parent, step = self.elements, self.parent, self.step
        out = {elements[self.walk[0]]: one}
        for j in self.walk[1:]:
            out[elements[j]] = op(out[elements[parent[j]]], gen_values[step[j]])
        return out

    def is_homomorphism(self, f, table) -> bool:
        """Whether f, a list by group number of numbers in a target group
        whose right multiplication by v is the sequence ``table(v)``, is a
        homomorphism: by the Cayley-graph criterion, whether
        f[R_g[x]] = table(f[g])[f[x]] along each generator column R_g, two
        C-level maps of the column compared per generator.
        A map into a product is a homomorphism exactly when each factor is
        one, so product targets are checked a factor at a time."""
        return all(list(map(f.__getitem__, self.right(j))) == list(map(table(f[j]).__getitem__, f))
                   for j in map(self.index.__getitem__, self.gens.values()))


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


# {1, -1} under multiplication, numbered 1 -> 0, -1 -> 1 (by -x): the w bits are its numbers
SIGNS = FiniteGroup(1, {"-1": -1}, operator.mul, key=operator.neg, name="+-1")


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


class QuadraticCharacter(NamedTuple):
    """A +-1-valued character with an optional squarefree-field annotation."""

    values: Mapping  # element -> +-1
    field: int | None = None  # squarefree integer labelling the fixed field


class FiniteGaloisModel(ReadOnly):
    """A finite quotient witness: group G with rho: G -> PGL2(F_p),
    chi: G -> F_p^* (the cyclotomic character), an optional conjugation
    element and optional named quadratic characters.

    Read-only: rho, chi, the characters (name -> QuadraticCharacter) and
    each character's values are kept as read-only copies of the mappings
    given, so ``eps`` and ``rho_ix``, derived once by group number, stay
    true; a variant is a new model, built from this one's attributes."""

    # __dict__ holds the cached eps and rho_ix
    __slots__ = ("group", "p", "rho", "chi", "conj", "characters", "__dict__")
    _compared = __slots__[:-1]
    __hash__ = None  # compared by its mappings, which do not hash

    def __init__(self, group: FiniteGroup, p: int, rho: Mapping, chi: Mapping,
                 conj: object | None = None, characters: Mapping | None = None) -> None:
        chars = {name: QuadraticCharacter(MappingProxyType(dict(qc.values)), qc.field)
                 for name, qc in (characters or {}).items()}
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rho", MappingProxyType(dict(rho)))
        object.__setattr__(self, "chi", MappingProxyType(dict(chi)))
        object.__setattr__(self, "conj", conj)
        object.__setattr__(self, "characters", MappingProxyType(chars))

    @cached_property
    def eps(self) -> tuple[int, ...]:
        """eps, the quadratic residue character of chi, as +-1 by group number."""
        symbol = residue_tables(self.p)[1]
        return tuple(symbol[self.chi[x] % self.p] for x in self.group.elements)

    @cached_property
    def rho_ix(self) -> tuple[int, ...]:
        """rho by group number, as numbers in ``pgl2(p)``; for a
        rho valued in ProjMats mod p, as ``validate_model`` checks first."""
        index = pgl2(self.p).index
        return tuple(index[self.rho[x]] for x in self.group.elements)

    def epsilon(self, sigma) -> int:
        return self.eps[self.group.index[sigma]]

    def det_class(self, sigma) -> int:
        return self.rho[sigma].det_class

    def det_is_epsilon(self) -> bool:
        """Whether det rho = eps as +-1 characters: the parity of the
        cyclotomic case."""
        elems = pgl2(self.p).elements
        return all(elems[k].det_class == e for k, e in zip(self.rho_ix, self.eps))


def validate_model(m: FiniteGaloisModel) -> list[str]:
    """All violations of the model axioms, as human-readable strings.  rho
    (on PGL2 indices) and chi (on residues) are checked apart, a map into a
    product being a homomorphism when each factor is; all pairs are scanned
    for the first failing one only where ``is_homomorphism`` rejects one of
    them."""
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
    target = pgl2(m.p)  # number(rho(a) rho(b)) = R_rho(b)[number(rho(a))]
    rho, chi = m.rho_ix, [m.chi[x] % m.p for x in g.elements]
    if not (g.is_homomorphism(rho, target.right)
            and g.is_homomorphism(chi, lambda c: [x * c % m.p for x in range(m.p)])):
        tables = [target.right(k) for k in rho]
        for a, (rho_a, chi_a) in enumerate(zip(rho, chi)):
            for b, col in enumerate(map(g.right, range(g.order))):
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
        if not g.is_homomorphism([(1 - char.values[x]) // 2 for x in g.elements], SIGNS.right):
            errs.append(f"character {name!r} is not a homomorphism")
    return errs


def all_homs_to_pgl2(group: FiniteGroup, p: int) -> list[dict]:
    """All homomorphisms group -> PGL2(F_p), found by ``_homs`` in
    ``itertools.product`` order over the images whose order divides the
    generator's, up to conjugation by T, U and V."""
    return _homs(group, pgl2(p))


def all_quadratic_characters(group: FiniteGroup) -> list[dict]:
    """All homomorphisms group -> {1, -1}, searched by ``_homs`` in ``SIGNS``,
    whose one generator, -1, is central: each orbit is one character."""
    return _homs(group, SIGNS)


def _candidates(group: FiniteGroup, gens: list, orders) -> list[list[int]]:
    """Per generator, the increasing numbers whose order divides its own."""
    return [[i for i, k in enumerate(orders) if n % k == 0]
            for n in (group.orders[group.index[x]] for x in gens)]


def _homs(group: FiniteGroup, target: NumberedGroup) -> list[dict]:
    """The homomorphisms into ``target``, in ``itertools.product`` order over
    the generators' ``_candidates``, keys in ``walk`` order.

    The first generator's candidates fall into orbits under conjugation by
    the target's generators, permutations that are automorphisms, along
    ``spanning_tree``; only each orbit's first member a is walked.  The second
    generator's b is walked only if the order of b*a = R_a[b], conjugate to
    a*b, divides that of g1*g2, as a homomorphism needs; later generators
    take every candidate.  Each walk visits the numbers in the group's walk
    order, sets f[R_g[i]] = R_(f(g))[f[i]] on tree edges, R_g a generator's column of
    ``group``, and compares it on all others, failing at the first mismatch:
    exact by the Cayley-graph criterion.  An automorphism c maps the
    homomorphisms with f(g1) = x one to one onto those with f(g1) = c[x], so
    composing along each orbit's tree finds every homomorphism exactly once."""
    order = group.walk
    gens, one = [group.gens[name] for name in group.generator_names()], target.index[target.identity]
    if not gens:
        return [{group.elements[i]: target.identity for i in order}]
    keys = [group.index[x] for x in gens]
    cols = [group.right(j) for j in keys]
    orders = target.orders
    pools = _candidates(group, gens, orders)
    n12 = len(gens) > 1 and group.orders[cols[1][keys[0]]]
    conj = [target.conj(target.index[s]) for s in target.gens.values()]
    found, seen = [], set()
    for a in pools[0]:
        if a in seen:
            continue
        orbit = spanning_tree(a, dict(enumerate(conj)), lambda x, c: c[x])
        seen.update(orbit)
        right = target.right(a)
        second = [[b for b in pool if n12 % orders[right[b]] == 0] for pool in pools[1:2]]
        walks = (_walk(order, list(zip(cols, map(target.right, values))), one)
                 for values in itertools.product([a], *second, *pools[2:]))
        homs = {a: [f for f in walks if f is not None]}
        for y, (x, k) in itertools.islice(orbit.items(), 1, None):
            homs[y] = [list(map(conj[k].__getitem__, f)) for f in homs[x]]
        found.extend(itertools.chain.from_iterable(homs.values()))
    found.sort(key=lambda f: [f[j] for j in keys])
    return [{group.elements[i]: target.elements[f[i]] for i in order} for f in found]


def _walk(order: list, steps: list, one: int) -> list | None:
    """f over the numbers, or None; ``order`` puts a walk parent first."""
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
