"""Projective matrix groups over F_p: canonical representatives, PGL2/PSL2
enumeration, the numbered PGL2(F_p), closures, conjugation and centralizers."""
import itertools
import operator
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from modtwist.arith import kronecker
from modtwist.projgroup import (
    NumberedGroup,
    ProjMat,
    pgl2,
    psl2,
    spanning_tree,
    t_matrix,
    u_matrix,
    v_matrix,
)


def random_projmats(p):
    entries = st.integers(min_value=0, max_value=p - 1)

    def ok(t):
        a, b, c, d = t
        return (a * d - b * c) % p != 0

    return st.tuples(entries, entries, entries, entries).filter(ok).map(
        lambda t: ProjMat(*t, p)
    )


def reference_projmat(a, b, c, d, p):
    """The constructor before the residue tables, for a nonsingular matrix
    mod a prime: the first nonzero entry inverted by ``pow`` and the det
    class from ``kronecker``."""
    a, b, c, d = a % p, b % p, c % p, d % p
    det = (a * d - b * c) % p
    s = pow(next(x for x in (a, b, c, d) if x), -1, p)
    g = ProjMat.__new__(ProjMat)
    g.rep = (a * s % p, b * s % p, c * s % p, d * s % p)
    g.p = p
    g.det_class = kronecker(det, p)
    g._hash = hash((g.rep, p))
    return g


def _same_as_reference(g, entries, p):
    """g against ``reference_projmat``."""
    want = reference_projmat(*entries, p)
    return g.rep == want.rep and g.det_class == want.det_class and g == want and hash(g) == hash(want)


def _product_entries(g, h):
    (a, b, c, d), (e, f, x, y) = g.rep, h.rep
    return (a * e + b * x, a * f + b * y, c * e + d * x, c * f + d * y)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31])
def test_table_constructor_matches_reference(p):
    # every product, inverse and hat at p <= 7; every 7th element, paired
    # with elements[7i + 1], at p = 11, 13, 31
    elems = pgl2(p).elements
    n = len(elems)
    if p <= 7:
        pairs, singles = itertools.product(elems, repeat=2), elems
    else:
        pairs = ((elems[i], elems[(7 * i + 1) % n]) for i in range(0, n, 7))
        singles = elems[::7]
    for g, h in pairs:
        assert _same_as_reference(g * h, _product_entries(g, h), p), (g, h)
    for g in singles:
        a, b, c, d = g.rep
        assert _same_as_reference(g.inverse(), (d, -b, -c, a), p), g
        assert _same_as_reference(g.hat(), (d, c, b, a), p), g
        assert _same_as_reference(ProjMat(*g.rep, p), g.rep, p), g
    if p <= 7:
        # every 4-tuple of residues: a singular one is refused, naming it,
        # any other constructs as the reference does
        for entries in itertools.product(range(p), repeat=4):
            a, b, c, d = entries
            if (a * d - b * c) % p:
                assert _same_as_reference(ProjMat(*entries, p), entries, p), entries
            else:
                refusal = re.escape(f"ProjMat: singular matrix {entries} mod {p}")
                with pytest.raises(ValueError, match=f"^{refusal}$"):
                    ProjMat(*entries, p)


@pytest.mark.parametrize("n", [2, 4, 9, 15, 0, 1, -3])
def test_non_odd_prime_moduli_raise_value_error(n):
    # PGL2(F_p) is for odd primes p only: any other modulus is refused by
    # every matrix, singular ones included, with the one ValueError that
    # names it, raised before an entry is reduced (mod 0 that would divide
    # by zero)
    refusal = f"^need an odd prime modulus, got {n}$"
    with pytest.raises(ValueError, match=refusal):
        ProjMat.identity(n)
    for entries in itertools.product(range(3), repeat=4):
        with pytest.raises(ValueError, match=refusal):
            ProjMat(*entries, n)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_inverse_table_is_inversion(p):
    elems, index = pgl2(p).elements, pgl2(p).index
    inv = pgl2(p).inverse
    assert inv == tuple(index[g.inverse()] for g in elems)
    assert all((elems[k] * g).is_identity() for g, k in zip(elems, inv))


def test_projmat_canonical_representative():
    # first nonzero entry in row-major order is normalized to 1
    g = ProjMat(2, 4, 6, 8, 7)
    assert g.rep[0] == 1
    assert g == ProjMat(1, 2, 3, 4, 7)
    h = ProjMat(0, 3, 6, 0, 7)
    assert h.rep[0] == 0 and h.rep[1] == 1


def test_scalar_matrices_collapse():
    for p in (3, 5, 7):
        for lam in range(1, p):
            assert ProjMat(lam, 0, 0, lam, p).is_identity()


@given(st.sampled_from([3, 5, 7]), st.data())
def test_projmat_group_laws(p, data):
    g = data.draw(random_projmats(p))
    h = data.draw(random_projmats(p))
    assert g * g.inverse() == ProjMat.identity(p)
    assert (g * h).inverse() == h.inverse() * g.inverse()
    assert (g * h).det_class == g.det_class * h.det_class


@given(st.sampled_from([3, 5, 7]), st.data())
def test_hat_is_multiplicative_involution(p, data):
    g = data.draw(random_projmats(p))
    h = data.draw(random_projmats(p))
    assert g.hat().hat() == g
    assert (g * h).hat() == g.hat() * h.hat()
    # hat is conjugation by the antidiagonal matrix [[0, 1], [1, 0]]
    j = ProjMat(0, 1, 1, 0, p)
    assert g.hat() == j * g * j


@given(st.sampled_from([3, 5, 7]), st.data())
def test_det_class_constant_on_class(p, data):
    g = data.draw(random_projmats(p))
    lam = data.draw(st.integers(min_value=1, max_value=p - 1))
    a, b, c, d = g.rep
    scaled = ProjMat(a * lam, b * lam, c * lam, d * lam, p)
    assert scaled == g
    assert scaled.det_class == g.det_class
    assert g.det_class in (1, -1)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_group_orders(p):
    full = pgl2(p)
    half = psl2(p)
    assert full.order == p * (p * p - 1)
    assert half.order == full.order // 2
    assert list(half) == sorted(set(half)) and set(half) <= set(range(full.order))
    assert all(full.elements[k].det_class == 1 for k in half)
    assert sum(1 for g in full.elements if g.det_class == 1) == half.order


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_pgl2_matches_exhaustive_enumeration(p):
    # every invertible matrix mod scalars, against the closure of T, U, V
    every = frozenset(
        ProjMat(a, b, c, d, p)
        for a, b, c, d in itertools.product(range(p), repeat=4)
        if (a * d - b * c) % p
    )
    assert set(pgl2(p).elements) == every and len(pgl2(p).elements) == len(every)
    assert tuple(pgl2(p).gens.values()) == (t_matrix(p), u_matrix(p), v_matrix(p))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_psl2_is_generated_by_t_and_u(p, closure):
    grp = closure([t_matrix(p), u_matrix(p)])
    assert len(grp) == psl2(p).order
    assert grp == set(psl2(p))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_v_matrix_adds_nonsquare_det(p, closure):
    vv = v_matrix(p)
    assert vv.det_class == -1
    grp = closure([t_matrix(p), u_matrix(p), vv])
    assert grp == set(range(pgl2(p).order))


def test_v_matrix_shape():
    # V = [[0, -v], [1, 0]] for the chosen non-square v
    vv = v_matrix(5, 3)
    assert vv == ProjMat(0, -3, 1, 0, 5)
    with pytest.raises(ValueError):
        v_matrix(5, 4)  # 4 is a square mod 5


def test_pgl2_numbers_the_vertices_of_its_tree():
    # the elements are the vertices of the spanning tree of T, U and V in
    # sorted order, numbered by position, and the tree is kept by number:
    # the ProjMat tree's edge y = x * gen is parent[number(y)] = number(x),
    # step[number(y)] = gen, both None at the identity only; the group is
    # built once per p
    for p in (3, 5):
        g = pgl2(p)
        assert g.gens == {"T": t_matrix(p), "U": u_matrix(p), "V": v_matrix(p)}
        tree = spanning_tree(ProjMat.identity(p), g.gens, operator.mul)
        assert g.elements == tuple(sorted(tree)) and g.index == {x: i for i, x in enumerate(g.elements)}
        assert g.identity == ProjMat.identity(p)
        for y, edge in tree.items():
            j = g.index[y]
            want = (None, None) if edge is None else (g.index[edge[0]], edge[1])
            assert (g.parent[j], g.step[j]) == want, y
        assert len(g.parent) == len(g.step) == g.order
        assert pgl2(p) is g


@pytest.mark.parametrize("p", [3, 5, 7])
def test_walk_columns_are_the_generator_products(p):
    # the columns the walk records: entry i of columns[name] numbers
    # elements[i] * gens[name], and right() reads them as the generators'
    full = pgl2(p)
    assert list(full.columns) == ["T", "U", "V"]
    for name, g in full.gens.items():
        assert full.columns[name] == tuple(full.index[x * g] for x in full.elements), name
        assert full.right(full.index[g]) is full.columns[name]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_cold_pgl2_builds_each_walk_product_once_and_no_column_product(p, monkeypatch):
    # cold pgl2(p) builds at most 3|G| + 4 ProjMats: the identity, T, U, V
    # and one product x * g per walk edge; the columns of the identity, T, U
    # and V are then read off the walk with none
    built = []
    set_class = ProjMat._set

    def counted(self, *args):
        built.append(args)
        set_class(self, *args)

    monkeypatch.setattr(ProjMat, "_set", counted)
    pgl2.cache_clear()
    full = pgl2(p)
    assert len(built) <= 3 * full.order + 4
    cold = len(built)
    for g in (full.identity, *full.gens.values()):
        assert sorted(full.right(full.index[g])) == list(range(full.order))
    assert len(built) == cold


def test_columns_are_cleared_with_pgl2():
    # the columns are cached on the group, so pgl2.cache_clear() drops them:
    # afterwards every column, composed or read off the walk, is the new
    # group's, equal to one cached before the clear and never the same object
    old = pgl2(5)
    js = [old.index[old.identity], *map(old.index.__getitem__, old.gens.values()), 7, old.order - 1]
    cached = [old.right(j) for j in js]
    pgl2.cache_clear()
    new = pgl2(5)
    assert new is not old
    for j, col in zip(js, cached):
        assert new.right(j) == col and new.right(j) is not col, j


@pytest.mark.parametrize("p", [3, 5, 7])
def test_element_orders_divide_group_order(p):
    full = pgl2(p)
    for g in full.elements:
        assert full.order % _order_by_powers(g, p) == 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_right_table_is_right_multiplication(p):
    # entry i of pgl2(p).right(j) indexes elements[i] * elements[j], on all
    # of PGL2: the identity's column a range, T's, U's and V's read off the
    # walk, every other composed along the tree and cached
    full = pgl2(p)
    elems, index = full.elements, full.index
    assert all(index[g] == i for i, g in enumerate(elems))
    assert full.right(index[full.identity]) == range(len(elems))
    for j, g in enumerate(elems):
        table = full.right(j)
        assert full.right(j) is table
        assert sorted(table) == list(range(len(elems)))
        assert all(elems[k] == x * g for x, k in zip(elems, table))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_right_tables_compose(p):
    # R_(gh) is R_g followed by R_h
    full = pgl2(p)
    t, u = full.right(full.index[t_matrix(p)]), full.right(full.index[u_matrix(p)])
    assert full.right(full.index[t_matrix(p) * u_matrix(p)]) == tuple(u[i] for i in t)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_power_and_left_tables_are_inverse_order_and_left_product(p):
    # inverses and orders of every element; left multiplication by every g
    # at p <= 7, at p = 11 by T, U, V and every 10th element, read as
    # L_g = inv R_(g^-1) inv, as centralizer reads it, and conjugation by g
    full = pgl2(p)
    elems, index = full.elements, full.index
    inverse, orders = full.inverse, full.orders
    assert inverse == tuple(index[g.inverse()] for g in elems)
    assert orders == tuple(_order_by_powers(g, p) for g in elems)
    gs = elems if p <= 7 else (t_matrix(p), u_matrix(p), v_matrix(p)) + elems[::10]
    for g in gs:
        r = full.right(inverse[index[g]])
        assert [inverse[r[inverse[k]]] for k in range(len(elems))] == [index[g * x] for x in elems], g
        assert full.conj(index[g]) == [index[g.inverse() * x * g] for x in elems], g
        assert full.conj(index[g], [7, 0, 7]) == [index[g.inverse() * elems[k] * g] for k in (7, 0, 7)], g


def _order_by_powers(g, p) -> int:
    """The least n with g^n scalar, from integer 2x2 matrix powers mod p."""
    a, b, c, d = g.rep
    n, (e, f, h, k) = 1, g.rep
    while f or h or e != k:
        n, (e, f, h, k) = n + 1, ((e * a + f * c) % p, (e * b + f * d) % p, (h * a + k * c) % p, (h * b + k * d) % p)
    return n


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31])
def test_order_table_closed_form_matches_powers(p):
    # the order read off u = tr^2/det is the order read off the powers, for
    # every element: the identity has order 1, and the p^2 - 1 non-scalar
    # classes with tr^2 = 4 det (the unipotent ones) have order p
    elems, index = pgl2(p).elements, pgl2(p).index
    orders = pgl2(p).orders
    assert orders == tuple(_order_by_powers(g, p) for g in elems)
    assert orders[index[ProjMat.identity(p)]] == 1 and orders.count(1) == 1
    unipotent = [i for i, (a, b, c, d) in enumerate(g.rep for g in elems)
                 if (a + d) ** 2 % p == 4 * (a * d - b * c) % p and (a, b, c, d) != (1, 0, 0, 1)]
    assert len(unipotent) == p * p - 1 == orders.count(p)
    assert all(orders[i] == p for i in unipotent)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pgl2_center_is_trivial(p):
    full = pgl2(p)
    assert full.centralizer(range(full.order)) == [full.index[full.identity]]
    assert full.centralizer(psl2(p)) == [full.index[full.identity]]


@settings(max_examples=60)
@given(st.sampled_from([3, 5, 7]), st.data())
def test_centralizer_matches_full_scan(p, data):
    # the indices where right and left multiplication by each element agree
    # are the scan of all of PGL2 against every element
    s = data.draw(st.lists(random_projmats(p), min_size=1, max_size=3))
    full = pgl2(p)
    want = [k for k, g in enumerate(full.elements) if all(g * x == x * g for x in s)]
    assert full.centralizer(full.index[x] for x in s) == want


@pytest.mark.parametrize("p", [3, 5])
def test_centralizer_properties(p):
    full = pgl2(p)
    # centralizer of the whole group is the center (trivial)
    assert len(full.centralizer(range(full.order))) == 1
    # centralizer of a single non-identity element is a proper subgroup
    g = t_matrix(p)
    cen = full.centralizer([full.index[g]])
    assert 1 < len(cen) < full.order and full.order % len(cen) == 0
    assert all(full.elements[k] * g == g * full.elements[k] for k in cen)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_conjugacy_class_sizes(p, conjugacy_class):
    full = pgl2(p)
    seen = set()
    total = 0
    for g in sorted(full.elements):
        if g in seen:
            continue
        cls = conjugacy_class(full, g)
        assert full.order % len(cls) == 0  # orbit-stabilizer
        seen |= cls
        total += len(cls)
    assert total == full.order


@pytest.mark.parametrize("p", [3, 5, 7])
def test_involutions_are_order_two(p):
    # the elements of order 2 are, by Cayley-Hamilton (g^2 = tr(g) g - det(g)),
    # the non-scalar classes of trace 0
    full = pgl2(p)
    invs = [g for g, n in zip(full.elements, full.orders) if n == 2]
    assert invs == [g for g in full.elements if (g.rep[0] + g.rep[3]) % p == 0]
    for g in invs:
        assert g * g == ProjMat.identity(p)
    assert all(not g.is_identity() for g in invs)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_orders_from_columns_match_the_closed_form(p):
    # NumberedGroup.orders, the identity's cycle under each column, is what
    # a FiniteGroup uses; on PGL2 it builds every column, and agrees with
    # the u = tr^2/det closed form that PGL2 uses in its place
    assert NumberedGroup.orders.func(pgl2(p)) == pgl2(p).orders


@pytest.mark.parametrize("p", [3, 5])
def test_centralizer_with_partners_is_the_set_of_conjugators(p):
    # with ys, the k with x k = k y for each pair, among ks when given, in
    # increasing order: empty unless each y is conjugate to its x
    full = pgl2(p)
    elems = full.elements
    rng = random.Random(p)
    for _ in range(40):
        xs = [rng.randrange(full.order) for _ in range(rng.randint(1, 2))]
        h = rng.randrange(full.order)
        ys = full.conj(h, xs) if rng.random() < 0.8 else [rng.randrange(full.order) for _ in xs]
        ks = None if rng.random() < 0.5 else psl2(p)
        want = [k for k in (range(full.order) if ks is None else ks)
                if all(elems[x] * elems[k] == elems[k] * elems[y] for x, y in zip(xs, ys))]
        assert full.centralizer(xs, ys=ys, ks=ks) == want


def test_projmat_product_refuses_two_characteristics():
    with pytest.raises(ValueError, match="^ProjMat: mixed characteristics$"):
        t_matrix(3) * t_matrix(5)


def test_projmat_repr_shows_the_normal_form():
    # the class of 2I mod 5 is written as the identity's
    assert repr(ProjMat(2, 0, 0, 2, 5)) == "ProjMat([[1,0],[0,1]] mod 5)"
    assert repr(ProjMat(0, 2, 2, 0, 7)) == "ProjMat([[0,1],[1,0]] mod 7)"
