"""Projective matrix groups over F_p: canonical representatives, PGL2/PSL2
enumeration, closures and centralizers."""
import itertools
import operator

import pytest
from hypothesis import given, settings, strategies as st

from modtwist.arith import kronecker
from modtwist.projgroup import (
    MatGroup,
    ProjMat,
    centralizer,
    in_psl2,
    inverse_table,
    order_table,
    pgl2,
    pgl2_index,
    psl2,
    right_table,
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
    """The constructor before the residue tables: the first nonzero entry
    inverted by ``pow`` and the det class from ``kronecker``."""
    a, b, c, d = a % p, b % p, c % p, d % p
    det = (a * d - b * c) % p
    if det == 0:
        raise ValueError(f"singular matrix {(a, b, c, d)} mod {p}")
    s = pow(next(x for x in (a, b, c, d) if x), -1, p)  # ValueError on a non-unit
    g = ProjMat.__new__(ProjMat)
    g.rep = (a * s % p, b * s % p, c * s % p, d * s % p)
    g.p = p
    g.det_class = kronecker(det, p)
    g._hash = hash((g.rep, p))
    return g


def _same_as_reference(g, entries, p):
    """g, or the ValueError that built it, against ``reference_projmat``."""
    try:
        want = reference_projmat(*entries, p)
    except ValueError:
        return isinstance(g, ValueError)
    return (not isinstance(g, Exception) and g.rep == want.rep and g.det_class == want.det_class
            and g == want and hash(g) == hash(want))


def _built_or_error(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return exc


def _product_entries(g, h):
    (a, b, c, d), (e, f, x, y) = g.rep, h.rep
    return (a * e + b * x, a * f + b * y, c * e + d * x, c * f + d * y)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31])
def test_table_constructor_matches_reference(p):
    # every product, inverse and hat at p <= 7; every 7th element, paired
    # with elements[7i + 1], at p = 11, 13, 31
    elems = pgl2_index(p)[0]
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


@pytest.mark.parametrize("n", [2, 4, 9, 15])
def test_composite_moduli_construct_or_raise_value_error(n):
    # the identity constructs; every matrix mod n, and products, inverses
    # and hats of a sample, construct as the reference does or raise
    # ValueError (singular, or a leading entry that is not a unit)
    assert ProjMat.identity(n).rep == (1, 0, 0, 1)
    built = []
    for entries in itertools.product(range(n), repeat=4):
        g = _built_or_error(ProjMat, *entries, n)
        assert _same_as_reference(g, entries, n), entries
        if not isinstance(g, ValueError):
            built.append(g)
    sample = built[::max(1, len(built) // 120)]
    raised = 0
    for g, h in itertools.product(sample, repeat=2):
        gh = _built_or_error(operator.mul, g, h)
        assert _same_as_reference(gh, _product_entries(g, h), n), (g, h)
        raised += isinstance(gh, ValueError)
    for g in sample:
        a, b, c, d = g.rep
        assert _same_as_reference(_built_or_error(g.inverse), (d, -b, -c, a), n), g
        assert _same_as_reference(_built_or_error(g.hat), (d, c, b, a), n), g
    assert (raised > 0) == (n > 2)  # mod 2 every unit determinant is 1 and every entry a unit


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_inverse_table_is_inversion(p):
    elems, index = pgl2_index(p)
    inv = inverse_table(p)
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
    assert half.elements <= full.elements
    assert all(in_psl2(g) for g in half.elements)
    assert sum(1 for g in full.elements if in_psl2(g)) == half.order


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_pgl2_matches_exhaustive_enumeration(p):
    # every invertible matrix mod scalars, against the closure of T, U, V
    every = frozenset(
        ProjMat(a, b, c, d, p)
        for a, b, c, d in itertools.product(range(p), repeat=4)
        if (a * d - b * c) % p
    )
    assert pgl2(p).elements == every
    assert pgl2(p).generators == (t_matrix(p), u_matrix(p), v_matrix(p))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_psl2_is_generated_by_t_and_u(p, closure):
    grp = closure([t_matrix(p), u_matrix(p)])
    assert grp.order == psl2(p).order
    assert grp.elements == psl2(p).elements


@pytest.mark.parametrize("p", [3, 5, 7])
def test_v_matrix_adds_nonsquare_det(p, closure):
    vv = v_matrix(p)
    assert vv.det_class == -1
    grp = closure([t_matrix(p), u_matrix(p), vv])
    assert grp.elements == pgl2(p).elements


def test_v_matrix_shape():
    # V = [[0, -v], [1, 0]] for the chosen non-square v
    vv = v_matrix(5, 3)
    assert vv == ProjMat(0, -3, 1, 0, 5)
    with pytest.raises(ValueError):
        v_matrix(5, 4)  # 4 is a square mod 5


def test_matgroup_equality_and_repr_leave_out_the_parents():
    g = pgl2(3)
    same = MatGroup(3, g.elements, g.generators)
    assert g.parents and same.parents is None
    assert g == same and hash(g) == hash(same) and repr(g) == repr(same)
    assert "parents" not in repr(g) and g != MatGroup(3, g.elements, g.generators[:2])
    with pytest.raises(AttributeError, match="^cannot assign to field 'parents'$"):
        g.parents = None


@pytest.mark.parametrize("p", [3, 5, 7])
def test_element_orders_divide_group_order(p):
    full = pgl2(p)
    one = ProjMat.identity(p)
    for g in full.elements:
        n = next(n for n in range(1, full.order + 1) if g ** n == one)
        assert full.order % n == 0


def test_negative_powers():
    g = t_matrix(7)
    assert g ** -1 == g.inverse()
    assert g ** -3 == (g ** 3).inverse()
    assert g ** 0 == ProjMat.identity(7)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_right_table_is_right_multiplication(p):
    # entry i of right_table(g) indexes elements[i] * g, on all of PGL2
    elems, index = pgl2_index(p)
    assert list(elems) == sorted(pgl2(p).elements)
    assert all(index[g] == i for i, g in enumerate(elems))
    # T, U and V from products, every other g composed along pgl2(p).tree
    for g in elems:
        table = right_table(g)
        assert sorted(table) == list(range(len(elems)))
        assert all(elems[j] == x * g for x, j in zip(elems, table))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_right_tables_compose(p):
    # R_(gh) is R_g followed by R_h
    t, u = right_table(t_matrix(p)), right_table(u_matrix(p))
    assert right_table(t_matrix(p) * u_matrix(p)) == tuple(u[i] for i in t)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_power_and_left_tables_are_inverse_order_and_left_product(p):
    # inverses and orders of every element; left multiplication by every g
    # at p <= 7, at p = 11 by T, U, V and every 10th element, read as
    # L_g = inv R_(g^-1) inv, as centralizer and cohomologous read it
    elems, index = pgl2_index(p)
    inverse, orders = inverse_table(p), order_table(p)
    assert inverse == tuple(index[g.inverse()] for g in elems)
    one = ProjMat.identity(p)
    assert orders == tuple(min(n for n in range(1, p + 2) if g ** n == one) for g in elems)
    gs = elems if p <= 7 else (t_matrix(p), u_matrix(p), v_matrix(p)) + elems[::10]
    for g in gs:
        r = right_table(elems[inverse[index[g]]])
        assert [inverse[r[inverse[k]]] for k in range(len(elems))] == [index[g * x] for x in elems], g


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
    elems, index = pgl2_index(p)
    orders = order_table(p)
    assert orders == tuple(_order_by_powers(g, p) for g in elems)
    assert orders[index[ProjMat.identity(p)]] == 1 and orders.count(1) == 1
    unipotent = [i for i, (a, b, c, d) in enumerate(g.rep for g in elems)
                 if (a + d) ** 2 % p == 4 * (a * d - b * c) % p and (a, b, c, d) != (1, 0, 0, 1)]
    assert len(unipotent) == p * p - 1 == orders.count(p)
    assert all(orders[i] == p for i in unipotent)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_pgl2_center_is_trivial(p):
    assert centralizer(pgl2(p).elements, p).order == 1
    assert centralizer(psl2(p).elements, p).order == 1


@settings(max_examples=60)
@given(st.sampled_from([3, 5, 7]), st.data())
def test_centralizer_matches_full_scan(p, data):
    # the indices where right and left multiplication by each element agree
    # are the scan of all of PGL2 against every element
    s = data.draw(st.lists(random_projmats(p), min_size=1, max_size=3))
    want = {g for g in pgl2(p).elements if all(g * x == x * g for x in s)}
    assert centralizer(s, p).elements == want


@pytest.mark.parametrize("p", [3, 5])
def test_centralizer_properties(p):
    full = pgl2(p)
    # centralizer of the whole group is the center (trivial)
    assert centralizer(full.elements, p).order == 1
    # centralizer of a single non-identity element is a proper subgroup
    g = t_matrix(p)
    cen = centralizer([g], p)
    assert 1 < cen.order < full.order
    assert all(c * g == g * c for c in cen.elements)


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
    full = pgl2(p)
    invs = full.involutions()
    for g in invs:
        assert g ** 2 == ProjMat.identity(p)
    assert all(not g.is_identity() for g in invs)
