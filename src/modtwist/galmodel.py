"""Finite witnesses for Galois-theoretic data: a finite group together with
a projective representation into PGL2(F_p), a cyclotomic character value
map, an optional complex-conjugation element and optional named quadratic
characters.

Also contains a small finite-group container used throughout: groups are
stored as multiplication tables over hashable labels, optionally remembering
generator words so maps defined on generators can be extended.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .arith import Level, kronecker
from .projgroup import ProjMat, pgl2


class FiniteGroup:
    """A finite group given by a full multiplication table.

    ``words`` maps each element to a tuple of generator names whose ordered
    product is the element (present when the group was built from
    generators); used to extend generator-defined maps.
    """

    def __init__(self, elements, mul, identity, name="G", gens=None, words=None):
        self.elements = tuple(elements)
        self._mul = mul
        self.identity = identity
        self.name = name
        self.gens = dict(gens) if gens else {}  # generator name -> element
        self.words = dict(words) if words else None
        self._inv = {}
        for a in self.elements:
            for b in self.elements:
                if self.mul(a, b) == self.identity:
                    self._inv[a] = b
                    break
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

    @classmethod
    def from_table(cls, elements, table, identity, name="G", gens=None):
        """``table``: dict of dicts, table[a][b] = a*b."""
        mul = {}
        for a in elements:
            for b in elements:
                mul[(a, b)] = table[a][b]
        g = cls(elements, mul, identity, name=name, gens=gens)
        if gens:
            g.words = _generator_words(g, gens)
        _check_group_axioms(g)
        return g

    @classmethod
    def from_permutations(cls, gen_perms: dict, name="G"):
        """Group generated by permutations (tuples mapping i -> perm[i])."""
        if not gen_perms:
            raise ValueError("from_permutations: need at least one generator")
        n = len(next(iter(gen_perms.values())))
        ident = tuple(range(n))
        for p in gen_perms.values():
            if sorted(p) != list(range(n)):
                raise ValueError(f"from_permutations: invalid permutation {p}")
        words = {ident: ()}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for gname, p in gen_perms.items():
                    y = tuple(x[p[i]] for i in range(n))
                    if y not in words:
                        words[y] = words[x] + (gname,)
                        nxt.append(y)
            frontier = nxt
        elements = sorted(words)
        mul = {}
        for a in elements:
            for b in elements:
                mul[(a, b)] = tuple(a[b[i]] for i in range(n))
        gens = {gname: _perm_as_element(p) for gname, p in gen_perms.items()}
        g = cls(elements, mul, ident, name=name, gens=gens, words=words)
        _check_group_axioms(g)
        return g

    def extend_generator_map(self, gen_values: dict, op, one):
        """Extend a map defined on generator names to the whole group using
        the stored words: value(g) = product of generator values along g's
        word.  The result is NOT automatically a homomorphism; validate it.
        """
        if self.words is None:
            raise ValueError("extend_generator_map: group has no generator words")
        missing = set(w for word in self.words.values() for w in word) - set(gen_values)
        if missing:
            raise ValueError(f"extend_generator_map: no value for generator(s) {sorted(missing)}")
        out = {}
        for g, word in self.words.items():
            val = one
            for w in word:
                val = op(val, gen_values[w])
            out[g] = val
        return out

    def is_homomorphism(self, f: dict, op) -> bool:
        return all(f[self.mul(a, b)] == op(f[a], f[b]) for a in self.elements for b in self.elements)


def _perm_as_element(p):
    return tuple(p)


def _generator_words(group: FiniteGroup, gens: dict) -> dict:
    words = {group.identity: ()}
    frontier = [group.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for gname, g in gens.items():
                y = group.mul(x, g)
                if y not in words:
                    words[y] = words[x] + (gname,)
                    nxt.append(y)
        frontier = nxt
    if len(words) != group.order:
        raise ValueError("generators do not generate the group")
    return words


def _check_group_axioms(g: FiniteGroup) -> None:
    e = g.identity
    for a in g.elements:
        if g.mul(a, e) != a or g.mul(e, a) != a:
            raise ValueError("FiniteGroup: identity axiom fails")
    if g.order <= 16:  # permutation-built groups are associative by construction
        for a, b, c in itertools.product(g.elements, repeat=3):
            if g.mul(g.mul(a, b), c) != g.mul(a, g.mul(b, c)):
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
    for a in g.elements:
        for b in g.elements:
            ab = g.mul(a, b)
            if m.rho[ab] != m.rho[a] * m.rho[b]:
                errs.append(f"rho is not a homomorphism at ({a}, {b})")
                return errs
            if m.chi[ab] % m.p != (m.chi[a] * m.chi[b]) % m.p:
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


@dataclass(frozen=True)
class DegreeData:
    """Local degree data: entries (a_l, d_l, char_l) with char_l a +-1
    character of the model group; the prime l contributes exactly when d_l
    is a non-square mod p."""

    entries: tuple  # of (a_l: int, d_l: int, char_values: dict)


def deg_p_character(m: FiniteGaloisModel, dd: DegreeData) -> dict:
    """The product of the local characters at the primes whose d_l is a
    non-square mod p (the 'degree character' mod p)."""
    out = {x: 1 for x in m.group.elements}
    for (_a, d, char) in dd.entries:
        if kronecker(d, m.p) == -1:
            for x in m.group.elements:
                out[x] *= char[x]
    return out


def det_varrho(m: FiniteGaloisModel, degp: dict) -> dict:
    """Determinant character of the lifted representation: epsilon * deg_p."""
    return {x: m.epsilon(x) * degp[x] for x in m.group.elements}


def oddness_check(m: FiniteGaloisModel, degp: dict) -> bool:
    """det varrho(conj) must be -1; requires a conjugation element."""
    if m.conj is None:
        raise ValueError("oddness_check: model has no conjugation element")
    return det_varrho(m, degp)[m.conj] == -1


class Case(Enum):
    CYCLOTOMIC = "cyclotomic"
    NON_CYCLOTOMIC = "non-cyclotomic"


def classify(level: Level) -> Case:
    return Case.CYCLOTOMIC if level.cyclotomic else Case.NON_CYCLOTOMIC


def verify_splitting(group: FiniteGroup, c2: dict, alpha: dict, degrees: dict | None = None) -> bool:
    """Check that the 2-cochain ``c2`` (pairs -> nonzero Fractions) is the
    coboundary of the 1-cochain ``alpha`` (elements -> nonzero Fractions):
    c2(s, t) = alpha(s) alpha(t) / alpha(st) for all s, t.

    If ``degrees`` is given, additionally check that s -> alpha(s)^2 /
    degrees(s) is a homomorphism to the value group.
    """
    for s in group.elements:
        for t in group.elements:
            lhs = Fraction(c2[(s, t)])
            rhs = Fraction(alpha[s]) * Fraction(alpha[t]) / Fraction(alpha[group.mul(s, t)])
            if lhs != rhs:
                return False
    if degrees is not None:
        h = {s: Fraction(alpha[s]) ** 2 / Fraction(degrees[s]) for s in group.elements}
        if not group.is_homomorphism(h, lambda a, b: a * b):
            return False
    return True


def all_homs_to_pgl2(group: FiniteGroup, p: int) -> list[dict]:
    """All homomorphisms group -> PGL2(F_p), by exhaustive search over
    generator images (the group must carry generator words)."""
    if group.words is None:
        raise ValueError("all_homs_to_pgl2: group has no generator words")
    gen_names = sorted(set(w for word in group.words.values() for w in word))
    target = sorted(pgl2(p).elements)
    gen_orders = {}
    for name in gen_names:
        elem = group.gens[name]
        n, x = 1, elem
        while x != group.identity:
            x = group.mul(x, elem)
            n += 1
        gen_orders[name] = n
    candidates = {
        name: [g for g in target if g ** gen_orders[name] == ProjMat.identity(p)]
        for name in gen_names
    }
    out = []
    one = ProjMat.identity(p)
    for images in itertools.product(*(candidates[n] for n in gen_names)):
        gen_values = dict(zip(gen_names, images))
        f = group.extend_generator_map(gen_values, lambda a, b: a * b, one)
        if group.is_homomorphism(f, lambda a, b: a * b):
            out.append(f)
    return out


def all_quadratic_characters(group: FiniteGroup) -> list[dict]:
    """All homomorphisms group -> {1, -1}."""
    if group.words is None:
        raise ValueError("all_quadratic_characters: group has no generator words")
    gen_names = sorted(set(w for word in group.words.values() for w in word))
    out = []
    for images in itertools.product((1, -1), repeat=len(gen_names)):
        gen_values = dict(zip(gen_names, images))
        f = group.extend_generator_map(gen_values, lambda a, b: a * b, 1)
        if group.is_homomorphism(f, lambda a, b: a * b):
            out.append(f)
    return out
