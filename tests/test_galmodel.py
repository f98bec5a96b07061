"""Finite group containers, model validation, the det rho = eps predicate
and the homomorphism searches."""
import itertools
import operator

import pytest

from modtwist.arith import Level
from modtwist.galmodel import (
    MAX_GROUP_ORDER,
    Case,
    FiniteGaloisModel,
    FiniteGroup,
    QuadraticCharacter,
    all_homs_to_pgl2,
    all_quadratic_characters,
    classify,
    cyclic_group,
    klein_four,
    symmetric_group,
    trivial_group,
    validate_model,
)
from modtwist import galmodel
from modtwist.projgroup import ProjMat, pgl2, t_matrix
from modtwist.twists import model_corpus


def test_group_constructors():
    assert trivial_group().order == 1
    assert cyclic_group(5).order == 5
    assert klein_four().order == 4
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24


def test_permutation_table_is_composition():
    # a * b = (i -> a[b[i]]) on every pair, stored as the group's own tuple
    for g in (cyclic_group(5), klein_four(), symmetric_group(3), symmetric_group(4)):
        own = {id(x) for x in g}
        assert all(g.mul(a, b) == tuple(a[i] for i in b) for a in g for b in g)
        assert all(id(g.mul(a, b)) in own for a in g for b in g)


def test_from_permutations_stops_above_max_order():
    # S6 is admitted; a cycle of length MAX_GROUP_ORDER + 1 is rejected while
    # its elements are enumerated
    assert MAX_GROUP_ORDER >= 720 and symmetric_group(6).order == 720
    n = MAX_GROUP_ORDER + 1
    with pytest.raises(ValueError, match=f"order above {MAX_GROUP_ORDER}"):
        FiniteGroup.from_permutations({"g": tuple((i + 1) % n for i in range(n))})


def test_from_permutations_composes_only_along_the_tree(monkeypatch):
    # a 720-cycle, a 3 KB model file: the spanning-tree walk makes the only
    # |G| * |gens| compositions of 720 points; the table is index lookups
    calls = []

    def counted(a, b):
        calls.append(None)
        if len(calls) > 720 * 2:
            raise AssertionError("the table is built from n-point compositions")
        return compose(a, b)

    compose = galmodel._compose
    monkeypatch.setattr(galmodel, "_compose", counted)
    cycle = tuple((i + 1) % 720 for i in range(720))
    g = FiniteGroup.from_permutations({"g": cycle})
    assert g.order == 720 and len(calls) == 720
    a, b = g.elements[5], g.elements[700]
    assert g.mul(a, b) == tuple(a[i] for i in b) == g.elements[(5 + 700) % 720]


def test_group_inverses_and_identity():
    g = symmetric_group(3)
    for x in g:
        assert g.mul(x, g.inv(x)) == g.identity
        assert g.mul(g.identity, x) == x


def test_from_table():
    table = {"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "e"}}
    g = FiniteGroup.from_table(["e", "a"], table, "e")
    assert g.order == 2
    assert g.inv("a") == "a"


def test_from_table_rejects_non_group():
    table = {"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "a"}}
    with pytest.raises(ValueError):
        FiniteGroup.from_table(["e", "a"], table, "e")


def test_from_table_rejects_non_associative_latin_square(z18_tables):
    good, bad = z18_tables
    elements = range(18)
    assert all(sorted(bad[a].values()) == list(elements) for a in elements)
    assert all(sorted(bad[a][b] for a in elements) == list(elements) for b in elements)
    non_associative = sum(
        bad[bad[x][y]][z] != bad[x][bad[y][z]]
        for x, y, z in itertools.product(elements, repeat=3)
    )
    assert non_associative == 240
    assert FiniteGroup.from_table(elements, good, 0).order == 18
    with pytest.raises(ValueError, match="associativity"):
        FiniteGroup.from_table(elements, bad, 0)


def test_from_table_accepts_s3_x_c3():
    s3 = symmetric_group(3)
    elements = [(x, k) for x in s3.elements for k in range(3)]
    table = {
        (x, k): {(y, l): (s3.mul(x, y), (k + l) % 3) for (y, l) in elements}
        for (x, k) in elements
    }
    g = FiniteGroup.from_table(elements, table, (s3.identity, 0))
    assert g.order == 18 and g.inv(((1, 2, 0), 1)) == ((2, 0, 1), 2)


def test_from_table_rejects_unclosed_table(z18_tables):
    table = z18_tables[0]
    table[5][7] = 18
    with pytest.raises(ValueError, match="closed"):
        FiniteGroup.from_table(range(18), table, 0)


def reference_extend_homomorphism(group, gen_values, op, one):
    """The homomorphism with these generator values (``one`` the identity of
    ``op``), or None: one walk of the Cayley graph in tree order sets
    f(x*g) = op(f(x), gen_values[g]) where x*g is new, that is on tree
    edges, and compares it on every other edge, failing at the first
    mismatch.  The reference, on values, for the index walk of
    ``all_homs_to_pgl2`` and ``all_quadratic_characters``."""
    steps = [(g, gen_values[name]) for name, g in group.gens.items() if name in gen_values]
    f = {group.identity: one}
    for x in group.tree:
        fx = f[x]
        for g, value in steps:
            fy = op(fx, value)
            if f.setdefault(group.mul(x, g), fy) != fy:
                return None
    return f


def test_extend_generator_map():
    g = cyclic_group(4)
    vals = g.extend_generator_map({"g": 1j}, lambda a, b: a * b, 1 + 0j)
    assert set(vals.values()) == {1, 1j, -1, -1j}
    assert g.is_homomorphism(vals, lambda a, b: a * b)


def test_extend_generator_map_is_the_word_product(tree_words):
    # values that define no homomorphism are still the products along words
    g = symmetric_group(4)
    values = {"s": ProjMat(1, 1, 0, 1, 5), "t": ProjMat(2, 1, 1, 1, 5)}
    f = g.extend_generator_map(values, lambda a, b: a * b, ProjMat.identity(5))
    assert not g.is_homomorphism(f, lambda a, b: a * b)
    words = tree_words(g)
    assert list(f) == list(words)
    for x, word in words.items():
        acc = ProjMat.identity(5)
        for w in word:
            acc = acc * values[w]
        assert f[x] == acc
    assert reference_extend_homomorphism(g, values, operator.mul, ProjMat.identity(5)) is None


def test_generator_words_cover_group(tree_words):
    g = symmetric_group(4)
    words = tree_words(g)
    assert set(words) == set(g.elements)
    for x, word in words.items():
        acc = g.identity
        for w in word:
            acc = g.mul(acc, g.gens[w])
        assert acc == x
    # breadth first: discovery order never shortens a word
    assert [len(w) for w in words.values()] == sorted(len(w) for w in words.values())


def _c2_model(p=3, eps_nontrivial=True, rho_nontrivial=True):
    g = cyclic_group(2)
    e, s = g.identity, g.gens["g"]
    rho = {
        e: ProjMat.identity(p),
        s: ProjMat(0, 1, 1, 0, p) if rho_nontrivial else ProjMat.identity(p),
    }
    chi = {e: 1, s: (2 if eps_nontrivial else 1)}
    return FiniteGaloisModel(group=g, p=p, rho=rho, chi=chi, conj=s)


def reference_validate_model(m):
    """``validate_model`` with its rho and chi pairs scanned as ProjMat
    products and raw chi values: the reference for its index lookups."""
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
        if not _reference_is_homomorphism(g, char.values, operator.mul):
            errs.append(f"character {name!r} is not a homomorphism")
    return errs


def test_validate_model_matches_reference_on_corrupted_corpus():
    # every model of model_corpus(3) with rho(x), then separately chi(x),
    # moved off its value at each non-identity x: the same error list, so the
    # same first failing pair, as the ProjMat scan
    failing = total = 0
    for m in model_corpus(3):
        assert validate_model(m) == reference_validate_model(m) == []
        t = t_matrix(m.p)
        for x in m.group.elements:
            if x == m.group.identity:
                continue
            for key, bad in (("rho", m.rho[x] * t), ("chi", -m.chi[x] % m.p)):
                values = getattr(m, key)
                good, values[x] = values[x], bad
                try:
                    errs = validate_model(m)
                    assert errs == reference_validate_model(m)
                    failing, total = failing + bool(errs), total + 1
                finally:
                    values[x] = good
    assert total > 1000 and failing > total // 2, (failing, total)


def test_validate_model_accepts_good_model():
    assert validate_model(_c2_model()) == []


def test_validate_model_rejects_bad_rho():
    m = _c2_model()
    m.rho[m.group.gens["g"]] = ProjMat(1, 1, 0, 1, 3)  # order 3, not a hom
    errs = validate_model(m)
    assert errs and "homomorphism" in errs[0]


def test_validate_model_rejects_bad_chi():
    m = _c2_model()
    m.chi[m.group.gens["g"]] = 3  # not a unit mod 3
    errs = validate_model(m)
    assert errs


def test_validate_model_checks_conj():
    m = _c2_model(eps_nontrivial=False)
    # conj must have chi = -1
    errs = validate_model(m)
    assert any("chi(conj)" in e for e in errs)


def test_validate_model_checks_characters():
    m = _c2_model()
    e, s = m.group.identity, m.group.gens["g"]
    m.characters["k"] = QuadraticCharacter(values={e: 1, s: 5}, field=-1)
    errs = validate_model(m)
    assert any("k" in err for err in errs)


def test_epsilon_and_det_class():
    m = _c2_model()
    s = m.group.gens["g"]
    assert m.epsilon(s) == -1  # chi(s) = 2 is a non-square mod 3
    assert m.epsilon(m.group.identity) == 1
    assert m.det_class(s) == -1  # [[0,1],[1,0]] has det -1


def test_det_is_epsilon():
    # det rho and eps are both nontrivial on s, or one of them is
    assert _c2_model().det_is_epsilon()
    assert not _c2_model(eps_nontrivial=False).det_is_epsilon()
    assert not _c2_model(rho_nontrivial=False).det_is_epsilon()
    assert _c2_model(eps_nontrivial=False, rho_nontrivial=False).det_is_epsilon()


def test_classify():
    assert classify(Level(4, 3)) is Case.CYCLOTOMIC
    assert classify(Level(2, 3)) is Case.NON_CYCLOTOMIC


def test_all_homs_to_pgl2_counts():
    # C2 -> PGL2(F_3): identity plus one per involution (9 involutions)
    homs = all_homs_to_pgl2(cyclic_group(2), 3)
    assert len(homs) == 1 + 9
    for f in homs:
        grp = cyclic_group(2)
        assert f[grp.identity].is_identity()


def test_all_homs_are_homomorphisms():
    g = symmetric_group(3)
    for f in all_homs_to_pgl2(g, 3):
        assert g.is_homomorphism(f, lambda a, b: a * b)


def test_all_quadratic_characters():
    assert len(all_quadratic_characters(cyclic_group(2))) == 2
    assert len(all_quadratic_characters(klein_four())) == 4
    assert len(all_quadratic_characters(symmetric_group(3))) == 2  # trivial, sign
    assert len(all_quadratic_characters(cyclic_group(3))) == 1


def _reference_is_homomorphism(group, f, op):
    """Whether f(ab) = op(f(a), f(b)) on all |G|^2 pairs."""
    return all(f[group.mul(a, b)] == op(f[a], f[b]) for a in group.elements for b in group.elements)


def _reference_homs(group, images, one):
    """Brute force: extend each tuple of generator images along the words
    and test all |G|^2 pairs."""
    names = sorted(images)
    out = []
    for values in itertools.product(*(images[n] for n in names)):
        f = group.extend_generator_map(dict(zip(names, values)), lambda a, b: a * b, one)
        if _reference_is_homomorphism(group, f, lambda a, b: a * b):
            out.append(f)
    return out


def _reference_homs_to_pgl2(group, p):
    """Candidates: the images whose order divides the generator's."""
    one = ProjMat.identity(p)
    images = {}
    for name in group.generator_names():
        x, n = group.gens[name], 1
        while _power(group, x, n) != group.identity:
            n += 1
        images[name] = [g for g in sorted(pgl2(p).elements) if g ** n == one]
    return _reference_homs(group, images, one)


def _power(group, x, n):
    acc = group.identity
    for _ in range(n):
        acc = group.mul(acc, x)
    return acc


def _s3_table_group():
    s3 = symmetric_group(3)
    label = {x: "".join(map(str, x)) for x in s3.elements}
    table = {label[x]: {label[y]: label[s3.mul(x, y)] for y in s3} for x in s3}
    g = FiniteGroup.from_table(list(table), table, label[s3.identity], name="S3table")
    g.set_generators({"t": "120", "s": "102"})
    return g


SEARCH_GROUPS = [
    cyclic_group(2), cyclic_group(3), klein_four(), symmetric_group(3),
    symmetric_group(4), _s3_table_group(),
]


@pytest.mark.parametrize("group, p", [
    pytest.param(group, p, id=f"{group.name}-{p}")
    for group in SEARCH_GROUPS for p in (3, 5, 7) if p < 7 or group.order <= 6
])
def test_all_homs_to_pgl2_matches_brute_force(group, p):
    got = all_homs_to_pgl2(group, p)
    want = _reference_homs_to_pgl2(group, p)
    assert got == want
    assert [list(f) for f in got] == [list(f) for f in want]
    assert all(list(f) == list(group.tree) for f in got)


@pytest.mark.parametrize("group", SEARCH_GROUPS, ids=lambda g: g.name)
def test_all_quadratic_characters_matches_brute_force(group):
    names = group.generator_names()
    got = all_quadratic_characters(group)
    want = _reference_homs(group, {n: (1, -1) for n in names}, 1)
    assert got == want
    assert [list(f) for f in got] == [list(f) for f in want]


def test_s3_images_failing_the_braid_relation_give_no_homomorphism():
    # s -> involution, t -> order-3 element, but (st)^2 != 1
    g, p = symmetric_group(3), 5
    one = ProjMat.identity(p)
    elems = sorted(pgl2(p).elements)
    involutions = [a for a in elems if a != one and a * a == one]
    order3 = [b for b in elems if b != one and b ** 3 == one]
    bad = [(a, b) for a in involutions for b in order3 if (a * b) ** 2 != one]
    assert bad
    for a, b in bad[:20]:
        values = {"s": a, "t": b}
        assert reference_extend_homomorphism(g, values, operator.mul, one) is None
        f = g.extend_generator_map(values, lambda x, y: x * y, one)
        assert not g.is_homomorphism(f, lambda x, y: x * y)
    homs = all_homs_to_pgl2(g, p)
    assert not any((f[g.gens["s"]], f[g.gens["t"]]) in set(bad) for f in homs)


def _homomorphic_along(group, name, p=5):
    """A map into PGL2(F_p) with f(x*g) = f(x)*f(g) on the edges of the
    generator g named ``name`` alone: f(g) has order dividing g's, and every
    coset x<g> other than <g> starts from T, whose order p = 5 divides no
    element order of these groups, so f is a homomorphism only when g
    generates."""
    one, t = ProjMat.identity(p), ProjMat(1, 1, 0, 1, p)
    gen = group.gens[name]
    n, y = 1, gen
    while y != group.identity:
        y, n = group.mul(y, gen), n + 1
    value = next(a for a in sorted(pgl2(p).elements) if a ** n == one and not a.is_identity())
    f = {}
    for x in group.elements:
        fx, y = (one if x == group.identity else t), x
        while y not in f:
            f[y], fx, y = fx, fx * value, group.mul(y, gen)
    return f


@pytest.mark.parametrize("group", SEARCH_GROUPS, ids=lambda g: g.name)
def test_is_homomorphism_walks_every_generator(group):
    # a map that respects one generator's edges need not be a homomorphism
    for name in group.gens:
        f = _homomorphic_along(group, name)
        assert all(f[group.mul(x, group.gens[name])] == f[x] * f[group.gens[name]] for x in group)
        want = _reference_is_homomorphism(group, f, operator.mul)
        assert group.is_homomorphism(f, operator.mul) == want
        assert want == (len(group.gens) == 1)


def test_is_homomorphism_rejects_a_group_without_generators():
    table = {"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "e"}}
    g = FiniteGroup.from_table(["e", "a"], table, "e")
    with pytest.raises(ValueError, match="no generators"):
        g.is_homomorphism({"e": 1, "a": -1}, lambda a, b: a * b)
    t = trivial_group()
    t.set_generators({})
    with pytest.raises(ValueError, match="no generators"):
        t.is_homomorphism({t.identity: -1}, lambda a, b: a * b)
