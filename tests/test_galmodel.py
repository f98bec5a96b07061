"""Finite group containers, model validation, the det rho = eps predicate
and the homomorphism searches.

Each fact has one reference, its simplest definition: a group's table is
the product on all pairs (composition, or the given table), a homomorphism
passes the all-pairs check, and the searches are compared with the brute
force over every tuple of generator images whose orders divide the
generators'.  The corrupted corpora are built once per p and shared."""
import functools
import itertools
import json
import operator
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from modtwist.arith import Level, kronecker
from modtwist.galmodel import (
    MAX_GROUP_ORDER,
    SIGNS,
    FiniteGaloisModel,
    FiniteGroup,
    QuadraticCharacter,
    all_homs_to_pgl2,
    all_quadratic_characters,
    cyclic_group,
    klein_four,
    symmetric_group,
    trivial_group,
    validate_model,
)
from modtwist import galmodel
from modtwist.projgroup import ProjMat, pgl2, right_table, spanning_tree, t_matrix
from modtwist.twists import model_corpus

STORED_MODELS = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "data").glob("models_p*.jsonl"))


def test_group_constructors():
    assert trivial_group().order == 1
    assert cyclic_group(5).order == 5
    assert klein_four().order == 4
    assert symmetric_group(3).order == 6
    assert repr(symmetric_group(3)) == "FiniteGroup(S3, order 6)"
    assert symmetric_group(4).order == 24


def test_permutation_table_is_composition():
    # a * b = (i -> a[b[i]]) on every pair, stored as the group's own tuple
    for g in (cyclic_group(5), klein_four(), symmetric_group(3), symmetric_group(4)):
        xs = g.elements
        own = {id(x) for x in xs}
        assert all(g.mul(a, b) == tuple(a[i] for i in b) for a in xs for b in xs)
        assert all(id(g.mul(a, b)) in own for a in xs for b in xs)


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
    for x in g.elements:
        assert g.mul(x, g.elements[g.inverse[g.index[x]]]) == g.identity
        assert g.mul(g.identity, x) == x


def test_from_table():
    table = {"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "e"}}
    g = FiniteGroup.from_table(["e", "a"], table, "e")
    assert g.order == 2
    assert g.elements[g.inverse[g.index["a"]]] == "a"


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
    assert g.order == 18 and g.elements[g.inverse[g.index[((1, 2, 0), 1)]]] == ((2, 0, 1), 2)


def test_from_table_rejects_unclosed_table(z18_tables):
    table = z18_tables[0]
    table[5][7] = 18
    with pytest.raises(ValueError, match="closed"):
        FiniteGroup.from_table(range(18), table, 0)


def test_from_table_rejects_repeated_labels_and_an_identity_outside_them():
    table = {"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "e"}}
    with pytest.raises(ValueError, match="labels are not distinct"):
        FiniteGroup.from_table(["e", "a", "a"], table, "e")
    with pytest.raises(ValueError, match="identity 'x' is not an element"):
        FiniteGroup.from_table(["e", "a"], table, "x")


@pytest.mark.parametrize("table", [
    pytest.param({"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "e"}, "b": {"e": "b", "a": "b"}},
                 id="extra_row"),
    pytest.param({"e": {"e": "e", "a": "a", "b": "a"}, "a": {"e": "a", "a": "e"}}, id="extra_column"),
    pytest.param({"e": {"e": "e", "a": "a"}}, id="missing_row"),
    pytest.param({"e": {"e": "e"}, "a": {"e": "a", "a": "e"}}, id="missing_column"),
])
def test_from_table_rejects_rows_or_columns_other_than_the_elements(table):
    with pytest.raises(ValueError, match="rows and columns are not exactly the elements"):
        FiniteGroup.from_table(["e", "a"], table, "e")


def _compose(a, b):
    """The permutation product a * b: i -> a[b[i]]."""
    return tuple(map(a.__getitem__, b))


def _generated(gens, mul, one) -> set:
    """The elements generated by ``gens``: products added until none is new."""
    elements, new = {one}, {one}
    while new:
        new = {mul(a, g) for a in new for g in gens} - elements
        elements |= new
    return elements


def _assert_is_the_group(g, elements, product, inverse, gens):
    """g numbers ``elements`` in this order, and its table, inverses and
    tree are those of ``product(i, j)``, the number of elements[i] *
    elements[j], on all pairs, of ``inverse(i)`` and of the generators
    ``gens``."""
    n = len(elements)
    assert g.elements == tuple(elements) and g.index == {x: i for i, x in enumerate(elements)}
    assert g.columns == [[product(i, j) for i in range(n)] for j in range(n)]
    assert [g.right(j) for j in range(n)] == g.columns
    assert g.inverse == [inverse(i) for i in range(n)]
    assert g.gens == gens

    def mul(a, b):
        return elements[product(g.index[a], g.index[b])]

    assert list(g.tree.items()) == list(spanning_tree(g.identity, gens, mul).items())


def _permutation_groups() -> list:
    """Name and generators of every distinct permutation group of
    model_corpus(3), model_corpus(5) and the stored models, then S5, S6 and
    a 720-cycle."""
    groups = {}
    for m in model_corpus(3) + model_corpus(5):
        groups[m.group.name, str(m.group.gens)] = m.group.gens
    for path in STORED_MODELS:
        for line in path.read_text().splitlines():
            spec = json.loads(line)["group"]
            gens = {name: tuple(perm) for name, perm in spec["generators"].items()}
            groups[spec["name"], str(gens)] = gens
    groups["S5", ""], groups["S6", ""] = symmetric_group(5).gens, symmetric_group(6).gens
    groups["C720", ""] = {"g": tuple((i + 1) % 720 for i in range(720))}
    return [(name, gens) for (name, _), gens in groups.items()]


@pytest.mark.parametrize(
    "name, gens", [pytest.param(name, gens, id=name) for name, gens in _permutation_groups()]
)
def test_from_permutations_matches_reference(name, gens):
    # the sorted closure under composition and its products on all pairs;
    # the 720-cycle's elements are the rotations r_k, sorted by k, with
    # r_i r_j = r_(i+j) and r_k^-1 = r_(-k) in closed form
    g = FiniteGroup.from_permutations(gens, name=name)
    n = len(next(iter(gens.values())))
    if name == "C720":
        rotations = [tuple((i + k) % n for i in range(n)) for k in range(n)]
        _assert_is_the_group(g, rotations, lambda i, j: (i + j) % n, lambda i: -i % n, gens)
        return
    elements = sorted(_generated(gens.values(), _compose, tuple(range(n))))
    index = {x: i for i, x in enumerate(elements)}
    _assert_is_the_group(g, elements, lambda i, j: index[_compose(elements[i], elements[j])],
                         lambda i: index[tuple(sorted(range(n), key=elements[i].__getitem__))], gens)


def test_from_table_matches_reference(z18_tables):
    # the table's products on all pairs, inverses by search
    s3 = symmetric_group(3)
    s3c3 = [(x, k) for x in s3.elements for k in range(3)]
    tables = [
        (list(range(18)), z18_tables[0], 0, {"g": 1}),
        (s3c3, {(x, k): {(y, m): (s3.mul(x, y), (k + m) % 3) for y, m in s3c3} for x, k in s3c3},
         (s3.identity, 0), {"s": ((1, 0, 2), 0), "t": ((1, 2, 0), 1)}),
    ]
    for elements, table, identity, gens in tables:
        g = FiniteGroup.from_table(elements, table, identity)
        g.set_generators(gens)
        index = {x: i for i, x in enumerate(elements)}
        _assert_is_the_group(
            g, elements, lambda i, j: index[table[elements[i]][elements[j]]],
            lambda i: next(k for k, y in enumerate(elements) if table[elements[i]][y] == identity), gens)


def test_symmetric_group_6_peaks_below_16_mb():
    # a numbered table of 720 lists of 720 ints; the pair dict peaked at 56 MB
    tracemalloc.start()
    try:
        symmetric_group(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 10**6, peak


def test_extend_generator_map():
    g = cyclic_group(4)
    vals = g.extend_generator_map({"g": 1j}, lambda a, b: a * b, 1 + 0j)
    assert set(vals.values()) == {1, 1j, -1, -1j}
    assert g.is_homomorphism(*_as_numbers(g, vals))


def test_extend_generator_map_is_the_word_product(tree_words):
    # values that define no homomorphism are still the products along words
    g = symmetric_group(4)
    values = {"s": ProjMat(1, 1, 0, 1, 5), "t": ProjMat(2, 1, 1, 1, 5)}
    f = g.extend_generator_map(values, lambda a, b: a * b, ProjMat.identity(5))
    assert not g.is_homomorphism(*_as_numbers(g, f))
    words = tree_words(g)
    assert list(f) == list(words)
    for x, word in words.items():
        acc = ProjMat.identity(5)
        for w in word:
            acc = acc * values[w]
        assert f[x] == acc
    assert not _reference_is_homomorphism(g, f, operator.mul)


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


@functools.lru_cache(maxsize=None)
def _product(x, y):
    """x * y: the all-pairs references meet the same ProjMat pairs often."""
    return x * y


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
            if m.rho[ab] != _product(m.rho[a], m.rho[b]):
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


def _corruptions(m):
    """rho and chi of m with rho(x), then separately chi(x), moved off its
    value at each non-identity x."""
    t = t_matrix(m.p)
    for x in m.group.elements:
        if x != m.group.identity:
            yield {**m.rho, x: m.rho[x] * t}, m.chi
            yield m.rho, {**m.chi, x: -m.chi[x] % m.p}


def _corrupted(models, variant) -> list:
    """Each model with the errors reference_validate_model finds in it, and
    in each of its corruptions, built with ``variant``: (m, errors,
    [(corrupted copy, errors), ...])."""
    cases = []
    for m in models:
        bad = [variant(m, rho=rho, chi=chi) for rho, chi in _corruptions(m)]
        cases.append((m, reference_validate_model(m), [(mm, reference_validate_model(mm)) for mm in bad]))
    return cases


@pytest.fixture(scope="module")
def corrupted_corpus3(variant):
    """``_corrupted`` over model_corpus(3), built once for the tests that
    validate it on its own groups and on groups without generators."""
    return _corrupted(model_corpus(3), variant)


def _assert_validates_as_the_reference(cases, validate):
    """validate(model) gives reference_validate_model's errors, so the same
    first failing pair, on each model and corruption of ``cases``, and most
    corruptions are rejected."""
    failing = total = 0
    for m, want, bad in cases:
        assert validate(m) == want
        for mm, errs in bad:
            assert validate(mm) == errs, errs
            failing, total = failing + bool(errs), total + 1
    assert total > 1000 and failing > total // 2, (failing, total)


@functools.lru_cache(maxsize=None)
def _without_generators(g):
    """A table group with g's elements, in g's order, and no generators, on
    which ``validate_model`` scans all pairs."""
    table = {a: {b: g.mul(a, b) for b in g.elements} for a in g.elements}
    return FiniteGroup.from_table(g.elements, table, g.identity, g.name)


def test_validate_model_matches_reference_on_corrupted_corpus(corrupted_corpus3):
    # every model of model_corpus(3), all valid
    assert all(want == [] for _m, want, _bad in corrupted_corpus3)
    _assert_validates_as_the_reference(corrupted_corpus3, validate_model)


def test_validate_model_matches_reference_on_corrupted_corpus_p5(variant):
    # every model of model_corpus(5), valid or not: a chi sending eps = -1
    # to 2, of order 4 mod 5, is not a homomorphism
    cases = _corrupted(model_corpus(5), variant)
    assert 0 < sum(want == [] for _m, want, _bad in cases) < len(cases)
    _assert_validates_as_the_reference(cases, validate_model)


def test_validate_model_scans_all_pairs_without_generators(corrupted_corpus3, variant):
    # model_corpus(3) also on a table group without generators, where
    # validate_model scans all pairs without is_homomorphism first
    assert not _without_generators(model_corpus(3)[0].group).gens
    _assert_validates_as_the_reference(
        corrupted_corpus3, lambda mm: validate_model(variant(mm, group=_without_generators(mm.group))))


@pytest.mark.parametrize("p", [9, 4, 2])
def test_validate_model_reports_a_p_that_is_not_an_odd_prime(p):
    # rho over F_3, as no ProjMat has another modulus: p is checked first
    g = cyclic_group(2)
    rho = {x: ProjMat.identity(3) for x in g.elements}
    assert validate_model(FiniteGaloisModel(group=g, p=p, rho=rho, chi={x: 1 for x in g.elements})) == [
        f"p = {p} is not an odd prime"
    ]


def test_validate_model_accepts_good_model():
    assert validate_model(_c2_model()) == []


def test_validate_model_rejects_bad_rho(variant):
    m = _c2_model()
    m = variant(m, rho={**m.rho, m.group.gens["g"]: ProjMat(1, 1, 0, 1, 3)})  # order 3, not a hom
    errs = validate_model(m)
    assert errs and "homomorphism" in errs[0]


def test_validate_model_rejects_bad_chi(variant):
    m = _c2_model()
    m = variant(m, chi={**m.chi, m.group.gens["g"]: 3})  # not a unit mod 3
    errs = validate_model(m)
    assert errs


def test_validate_model_checks_conj():
    m = _c2_model(eps_nontrivial=False)
    # conj must have chi = -1
    errs = validate_model(m)
    assert any("chi(conj)" in e for e in errs)


def test_validate_model_checks_characters(variant):
    m = _c2_model()
    e, s = m.group.identity, m.group.gens["g"]
    m = variant(m, characters={"k": QuadraticCharacter(values={e: 1, s: 5}, field=-1)})
    errs = validate_model(m)
    assert any("k" in err for err in errs)


def test_epsilon_and_det_class():
    m = _c2_model()
    s = m.group.gens["g"]
    assert m.epsilon(s) == -1  # chi(s) = 2 is a non-square mod 3
    assert m.epsilon(m.group.identity) == 1
    assert m.det_class(s) == -1  # [[0,1],[1,0]] has det -1


def test_model_is_read_only(variant):
    g = cyclic_group(2)
    s, one, xs = g.gens["g"], ProjMat.identity(3), g.elements
    rho, chi = {x: one for x in xs}, {x: 1 for x in xs}
    k = {x: 1 for x in xs}
    chars = {"k": QuadraticCharacter(values=k, field=-1)}
    m = FiniteGaloisModel(group=g, p=3, rho=rho, chi=chi, characters=chars)
    with pytest.raises(AttributeError, match="^cannot assign to field 'p'$"):
        m.p = 5
    with pytest.raises(AttributeError, match="^cannot assign to field 'rho'$"):
        m.rho = {}
    with pytest.raises(AttributeError, match="^cannot delete field 'characters'$"):
        del m.characters
    with pytest.raises(TypeError):
        m.rho[s] = ProjMat(0, 1, 1, 0, 3)
    with pytest.raises(TypeError):
        m.chi[s] = 2
    with pytest.raises(TypeError):
        m.characters["j"] = QuadraticCharacter(values=k)
    with pytest.raises(TypeError):
        m.characters["k"].values[s] = -1
    with pytest.raises(AttributeError):
        m.characters["k"].values = {}
    eps, rho_ix = m.eps, m.rho_ix
    # the dicts given are copied: changing them later changes nothing
    rho[s], chi[s], k[s] = ProjMat(0, 1, 1, 0, 3), 2, -1
    del rho[g.identity]
    chars["j"] = chars.pop("k")
    assert dict(m.rho) == {x: one for x in xs} and dict(m.chi) == {x: 1 for x in xs}
    assert list(m.characters) == ["k"] and dict(m.characters["k"].values) == {x: 1 for x in xs}
    assert m.eps == eps == (1, 1) and m.rho_ix == rho_ix == (pgl2(3).index[one],) * 2
    assert validate_model(m) == []
    # a variant is a new model, with its own derived data
    other = variant(m, chi={x: 2 for x in xs})
    assert other.eps == (-1, -1) and m.eps == (1, 1) and m.chi[s] == 1
    assert other != m and variant(m) == m


def test_model_hash_names_the_model():
    # a model compares by its mappings, which do not hash
    with pytest.raises(TypeError, match="^unhashable type: 'FiniteGaloisModel'$"):
        hash(_c2_model())


@pytest.mark.parametrize("p", [3, 5])
def test_eps_and_rho_ix_are_the_elementwise_values(p):
    # the Legendre symbol of chi and the sorted-PGL2 index of rho, element by element
    index = pgl2(p).index
    for m in model_corpus(p):
        assert m.eps == tuple(kronecker(m.chi[x], p) for x in m.group.elements)
        assert m.rho_ix == tuple(index[m.rho[x]] for x in m.group.elements)
        assert [m.epsilon(x) for x in m.group.elements] == list(m.eps)


def test_det_is_epsilon():
    # det rho and eps are both nontrivial on s, or one of them is
    assert _c2_model().det_is_epsilon()
    assert not _c2_model(eps_nontrivial=False).det_is_epsilon()
    assert not _c2_model(rho_nontrivial=False).det_is_epsilon()
    assert _c2_model(eps_nontrivial=False, rho_nontrivial=False).det_is_epsilon()


def test_classify():
    assert Level(4, 3).case == "cyclotomic"
    assert Level(2, 3).case == "non-cyclotomic"


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
        assert g.is_homomorphism(*_as_numbers(g, f))


def test_all_quadratic_characters():
    assert len(all_quadratic_characters(cyclic_group(2))) == 2
    assert len(all_quadratic_characters(klein_four())) == 4
    assert len(all_quadratic_characters(symmetric_group(3))) == 2  # trivial, sign
    assert len(all_quadratic_characters(cyclic_group(3))) == 1


def _reference_is_homomorphism(group, f, op):
    """Whether f(ab) = op(f(a), f(b)) on all |G|^2 pairs."""
    return all(f[group.mul(a, b)] == op(f[a], f[b]) for a in group.elements for b in group.elements)


def _as_numbers(group, f, op=operator.mul):
    """f (element -> value) as ``is_homomorphism`` reads it: a list by group
    number into the values f takes, numbered in order of first appearance,
    and right multiplication by value number v under ``op``, None where a
    product falls outside those values (where f cannot be a homomorphism)."""
    values = list(dict.fromkeys(f[x] for x in group.elements))
    pos = {v: i for i, v in enumerate(values)}
    return [pos[f[x]] for x in group.elements], lambda v: [pos.get(op(u, values[v])) for u in values]


def _reference_homs(group, images, one):
    """Brute force: extend each tuple of generator images along the words
    and test all |G|^2 pairs."""
    names = sorted(images)
    out = []
    for values in itertools.product(*(images[n] for n in names)):
        f = group.extend_generator_map(dict(zip(names, values)), _product, one)
        if _reference_is_homomorphism(group, f, _product):
            out.append(f)
    return out


@functools.lru_cache(maxsize=None)  # shared by the two comparisons below
def _reference_homs_to_pgl2(group, p):
    """Candidates: the images whose order divides the generator's."""
    one, images = ProjMat.identity(p), {}
    for name in group.generator_names():
        n = _element_order(group, group.gens[name])
        images[name] = [g for g in pgl2(p).elements if _power(g, n) == one]
    return _reference_homs(group, images, one)


def _power(g, n):
    """g^n for n >= 1, by n - 1 products."""
    return functools.reduce(operator.mul, [g] * n)


def _element_order(group, x):
    """The least n >= 1 with x^n = 1, by repeated products."""
    n, y = 1, x
    while y != group.identity:
        y, n = group.mul(y, x), n + 1
    return n


def _s3_table_group():
    s3 = symmetric_group(3)
    label = {x: "".join(map(str, x)) for x in s3.elements}
    table = {label[x]: {label[y]: label[s3.mul(x, y)] for y in s3.elements} for x in s3.elements}
    g = FiniteGroup.from_table(list(table), table, label[s3.identity], name="S3table")
    g.set_generators({"t": "120", "s": "102"})
    return g


SEARCH_GROUPS = [
    cyclic_group(2), cyclic_group(3), klein_four(), symmetric_group(3),
    symmetric_group(4), _s3_table_group(),
]
# three generators: the search's path past the second generator
C2_CUBED = FiniteGroup.from_permutations(
    {"a": (1, 0, 2, 3, 4, 5), "b": (0, 1, 3, 2, 4, 5), "c": (0, 1, 2, 3, 5, 4)}, name="C2^3")
# the regular representation of Q8: i, j and ij all have order 4, so the
# order filters allow the infinite triangle group (4,4,4), and only the
# walk's edges, the last generator's among them, enforce i^2 = j^2
Q8 = FiniteGroup.from_permutations(
    {"i": (1, 4, 7, 2, 5, 0, 3, 6), "j": (2, 3, 4, 5, 6, 7, 0, 1)}, name="Q8")


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


@pytest.mark.parametrize("group", SEARCH_GROUPS + [C2_CUBED], ids=lambda g: g.name)
def test_all_quadratic_characters_matches_brute_force(group):
    names = group.generator_names()
    got = all_quadratic_characters(group)
    want = _reference_homs(group, {n: (1, -1) for n in names}, 1)
    assert got == want
    assert [list(f) for f in got] == [list(f) for f in want]


@pytest.mark.parametrize("p", [3, 5, 7])
def test_candidates_are_the_images_of_dividing_order(p, monkeypatch):
    # the candidates the search draws from, one list per generator in
    # generator_names() order, are the indices of the g with g^n = 1, n
    # the generator's order, in sorted order; one candidate list per search
    seen = []
    candidates = galmodel._candidates

    def recorded(group, gens, orders):
        seen.append((gens, candidates(group, gens, orders)))
        return seen[-1][1]

    monkeypatch.setattr(galmodel, "_candidates", recorded)
    index = pgl2(p).index
    one = ProjMat.identity(p)
    for group in SEARCH_GROUPS + [C2_CUBED]:
        all_homs_to_pgl2(group, p)
        (gens, pools), = seen
        seen.clear()
        assert gens == [group.gens[name] for name in group.generator_names()]
        assert len(pools) == len(gens)
        # the search reads orders off the group's columns
        assert group.orders == tuple(_element_order(group, x) for x in group.elements)
        for x, pool in zip(gens, pools):
            n = _element_order(group, x)
            assert pool == [index[g] for g in pgl2(p).elements if _power(g, n) == one], (group.name, p, x)


PRODUCT_SEARCH_CASES = [
    pytest.param(group, p, id=f"{group.name}-{p}")
    for group, p in [(g, p) for g in SEARCH_GROUPS for p in (3, 5, 7)]
    + [(g, 11) for g in SEARCH_GROUPS[:4]] + [(C2_CUBED, 3), (C2_CUBED, 5), (Q8, 3), (Q8, 5)]
]


@pytest.mark.parametrize("group, p", PRODUCT_SEARCH_CASES)
def test_all_homs_to_pgl2_matches_the_product_search(group, p):
    # the same homomorphisms in the same order, keys in the same order, as
    # the brute force over every tuple of images, also for S4 at p = 7, at
    # p = 11 and for C2^3, which takes a third generator's path; each hom's
    # keys come in group.tree order
    got = all_homs_to_pgl2(group, p)
    want = _reference_homs_to_pgl2(group, p)
    assert got == want
    assert [list(f) for f in got] == [list(f) for f in want]
    assert all(list(f) == list(group.tree) for f in got)


@pytest.mark.parametrize("group, p", PRODUCT_SEARCH_CASES)
def test_all_homs_to_pgl2_is_closed_under_conjugation_with_whole_orbit_counts(group, p):
    # orbit-stabilizer, independently of the search: the homomorphisms are
    # closed under conjugation by T, U and V, which generate PGL2(F_p), and
    # the sum over them of |C(f)| / |PGL2(F_p)|, C(f) the centralizer of the
    # image, is the number of orbits, counted here by a search of the set
    homs = [tuple(f.values()) for f in all_homs_to_pgl2(group, p)]
    found = set(homs)
    assert len(found) == len(homs)
    conjugations = [(s.inverse(), s) for s in pgl2(p).gens.values()]
    orbits, seen = 0, set()
    for f in homs:
        if f in seen:
            continue
        orbits += 1
        seen.add(f)
        queue = [f]
        for h in queue:
            for s_inv, s in conjugations:
                k = tuple(s_inv * x * s for x in h)
                assert k in found
                if k not in seen:
                    seen.add(k)
                    queue.append(k)
    gens = [list(group.tree).index(x) for x in group.gens.values()]
    full = pgl2(p)
    total = sum(Fraction(len(full.centralizer(full.index[f[i]] for i in gens)), full.order) for f in homs)
    assert total == orbits


def test_s3_images_failing_the_braid_relation_give_no_homomorphism():
    # s -> involution, t -> order-3 element, but (st)^2 != 1
    g, p = symmetric_group(3), 5
    one = ProjMat.identity(p)
    elems = pgl2(p).elements
    involutions = [a for a in elems if a != one and a * a == one]
    order3 = [b for b in elems if b != one and b * b * b == one]
    bad = [(a, b) for a in involutions for b in order3 if a * b * a * b != one]
    assert bad
    for a, b in bad[:20]:
        f = g.extend_generator_map({"s": a, "t": b}, lambda x, y: x * y, one)
        assert not _reference_is_homomorphism(g, f, operator.mul)
        assert not g.is_homomorphism(*_as_numbers(g, f))
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
    n = _element_order(group, gen)
    value = next(a for a in pgl2(p).elements if _power(a, n) == one and not a.is_identity())
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
        assert all(f[group.mul(x, group.gens[name])] == f[x] * f[group.gens[name]] for x in group.elements)
        want = _reference_is_homomorphism(group, f, operator.mul)
        assert group.is_homomorphism(*_as_numbers(group, f)) == want
        assert want == (len(group.gens) == 1)


def _sign_maps(group):
    """Every +-1 map on a group of order at most 8; on a larger one the
    characters and 2000 seeded random maps."""
    if group.order <= 8:
        yield from (dict(zip(group.elements, signs))
                    for signs in itertools.product((1, -1), repeat=group.order))
        return
    yield from all_quadratic_characters(group)
    rng = random.Random(group.order)
    for _ in range(2000):
        yield {x: rng.choice((1, -1)) for x in group.elements}


@pytest.mark.parametrize("group", SEARCH_GROUPS + [C2_CUBED], ids=lambda g: g.name)
def test_is_homomorphism_matches_reference_on_sign_maps(group):
    # +-1 maps as bits of Z/2, as validate_model reads the characters
    agree = Counter()
    for f in _sign_maps(group):
        want = _reference_is_homomorphism(group, f, operator.mul)
        assert group.is_homomorphism([(1 - f[x]) // 2 for x in group.elements], SIGNS.right) == want
        agree[want] += 1
    assert agree[True] == len(all_quadratic_characters(group)) and agree[False] > 0


@pytest.mark.parametrize("p", [3, 5])
def test_is_homomorphism_matches_reference_on_corpus_rho_chi_and_corruptions(p):
    # rho on PGL2 indices with right tables, chi on residues with x -> x * c,
    # against the all-pairs check on ProjMats and residues, for each model
    # and each single-entry corruption of it: is_homomorphism rejecting a
    # good factor would pass validate_model's pair scan unnoticed
    elems, index = pgl2(p).elements, pgl2(p).index

    def rho_table(k):
        return right_table(elems[k])

    def chi_table(c):
        return [x * c % p for x in range(p)]

    def chi_mul(a, b):
        return a * b % p

    @functools.lru_cache(maxsize=None)  # the all-pairs verdict, by group and values
    def reference(g, values, op):
        return _reference_is_homomorphism(g, dict(zip(g.elements, values)), op)

    verdicts = Counter()
    for m in model_corpus(p):
        g = m.group
        for rho, chi in itertools.chain([(m.rho, m.chi)], _corruptions(m)):
            rho, chi = [rho[x] for x in g.elements], [chi[x] for x in g.elements]
            got = (g.is_homomorphism([index[x] for x in rho], rho_table), g.is_homomorphism(chi, chi_table))
            want = (reference(g, tuple(rho), _product), reference(g, tuple(chi), chi_mul))
            assert got == want, (g.name, rho, chi)
            verdicts[got] += 1
    assert verdicts[True, True] > 0 and verdicts[True, False] > 0 and verdicts[False, True] > 0


def test_is_homomorphism_rejects_a_group_without_generators():
    table = {"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "e"}}
    g = FiniteGroup.from_table(["e", "a"], table, "e")
    with pytest.raises(ValueError, match="no generators"):
        g.is_homomorphism([0, 1], SIGNS.right)
    t = trivial_group()
    t.set_generators({})
    with pytest.raises(ValueError, match="no generators"):
        t.is_homomorphism([1], SIGNS.right)


def test_set_generators_refuses_generators_that_do_not_generate():
    g = klein_four()
    with pytest.raises(ValueError, match="^generators do not generate the group$"):
        g.set_generators({"a": (1, 0, 3, 2)})
    assert set(g.gens) == {"a", "b"}  # unchanged


def test_from_permutations_needs_a_generator():
    with pytest.raises(ValueError, match="^from_permutations: need at least one generator$"):
        FiniteGroup.from_permutations({})


def test_maps_on_generators_need_generators_and_their_values():
    table = {"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "e"}}
    bare = FiniteGroup.from_table(["e", "a"], table, "e", name="C2")
    for call in (bare.generator_names, lambda: bare.extend_generator_map({}, operator.mul, 1)):
        with pytest.raises(ValueError, match="^C2: group has no generators$"):
            call()
    with pytest.raises(ValueError, match=r"^extend_generator_map: no value for generator\(s\) \['b'\]$"):
        klein_four().extend_generator_map({"a": -1}, operator.mul, 1)


def test_from_table_refuses_a_table_without_its_identity():
    # closed, with an inverse in every column, but e * e = a
    table = {"e": {"e": "a", "a": "e"}, "a": {"e": "e", "a": "a"}}
    with pytest.raises(ValueError, match="^FiniteGroup: identity axiom fails$"):
        FiniteGroup.from_table(["e", "a"], table, "e")


def test_symmetric_group_of_one_point_is_trivial():
    g = symmetric_group(1)
    assert (g.order, g.name, g.elements) == (1, "1", ((0,),))


def test_trivial_group_has_only_the_trivial_homomorphisms():
    # its one generator is the identity, on no tree edge
    g = trivial_group()
    assert g.generator_names() == []
    assert all_homs_to_pgl2(g, 5) == [{(0,): ProjMat.identity(5)}]
    assert all_quadratic_characters(g) == [{(0,): 1}]


def test_validate_model_names_each_broken_axiom(variant):
    m = _c2_model()
    e, s = m.group.identity, m.group.gens["g"]
    cases = [
        ({"rho": {e: ProjMat.identity(3)}}, "rho is not defined on exactly the group elements"),
        ({"chi": {s: 2}}, "chi is not defined on exactly the group elements"),
        ({"rho": {e: ProjMat.identity(3), s: ProjMat(0, 1, 1, 0, 5)}}, f"rho({s}) is not a ProjMat mod 3"),
        ({"conj": (2, 0, 1)}, "conj is not a group element"),
        ({"characters": {"k": QuadraticCharacter({e: 1})}}, "character 'k' not defined on the whole group"),
        ({"characters": {"k": QuadraticCharacter({e: -1, s: -1})}}, "character 'k' is not a homomorphism"),
    ]
    for changes, error in cases:
        assert validate_model(variant(m, **changes)) == [error], changes
