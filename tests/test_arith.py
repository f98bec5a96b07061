"""Number-theoretic utilities: primes, multiplicative functions, quadratic
residues and binary quadratic form class numbers."""
import math
import re

import pytest
from hypothesis import given, strategies as st

from modtwist.arith import (
    Level,
    class_number_primitive,
    divisors,
    euler_phi,
    is_prime,
    is_squarefree,
    kronecker,
    least_nonsquare,
    lift_sqrt_mod_p2,
    prime_factors,
    psi_index,
    squarefree_part,
)

PRIMES_UNDER_60 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_is_prime_small():
    assert [n for n in range(60) if is_prime(n)] == PRIMES_UNDER_60


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(49) == [1, 7, 49]


def test_prime_factors():
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(30) == [2, 3, 5]


@given(st.integers(min_value=1, max_value=500))
def test_divisor_sum_identity(n):
    # sum of phi(d) over divisors d of n equals n
    assert sum(euler_phi(d) for d in divisors(n)) == n


def test_psi_index_values():
    # index of Gamma_0(N) in SL_2(Z): N * prod (1 + 1/q)
    assert psi_index(1) == 1
    assert psi_index(2) == 3
    assert psi_index(4) == 6
    assert psi_index(6) == 12
    assert psi_index(20) == 36


@given(st.integers(min_value=2, max_value=300))
def test_psi_oracle_point_count(n):
    # psi(N) equals #P^1(Z/N); each unit orbit on coprime pairs has exactly
    # phi(N) elements (gcd(c, d, N) = 1 forces a trivial stabilizer)
    pairs = sum(
        1
        for c in range(n)
        for d in range(n)
        if math.gcd(math.gcd(c, d), n) == 1
    )
    assert pairs == euler_phi(n) * psi_index(n)


def test_squarefree():
    assert squarefree_part(1) == 1
    assert squarefree_part(12) == 3
    assert squarefree_part(50) == 2
    assert is_squarefree(30)
    assert not is_squarefree(18)


@given(st.integers(min_value=1, max_value=2000))
def test_squarefree_part_is_squarefree_kernel(n):
    d = squarefree_part(n)
    assert is_squarefree(d)
    q, r = divmod(n, d)
    assert r == 0
    assert math.isqrt(q) ** 2 == q


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_kronecker_matches_euler_criterion(p):
    for a in range(1, p):
        assert kronecker(a, p) == pow(a, (p - 1) // 2, p) - (p if pow(a, (p - 1) // 2, p) == p - 1 else 0)


def test_kronecker_even_bottom():
    # supplementary law at 2: (a/2) = 0, 1, -1 for a even, a = +-1 (8), a = +-3 (8)
    assert kronecker(2, 2) == 0
    assert kronecker(1, 2) == 1
    assert kronecker(7, 2) == 1
    assert kronecker(3, 2) == -1
    assert kronecker(5, 2) == -1
    assert kronecker(-4, 2) == 0
    # multiplicativity in the bottom argument
    assert kronecker(-3, 6) == kronecker(-3, 2) * kronecker(-3, 3)


@pytest.mark.parametrize("p,expected", [(3, 2), (5, 2), (7, 3), (11, 2), (13, 2), (17, 3)])
def test_least_nonsquare(p, expected):
    assert least_nonsquare(p) == expected
    assert kronecker(expected, p) == -1


def test_lift_sqrt_mod_p2_examples():
    assert lift_sqrt_mod_p2(1, 3) == (1, 0)
    assert lift_sqrt_mod_p2(4, 3) == (4, 7)


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_lift_sqrt_mod_p2_defining_property(p):
    for n in range(1, 30):
        if n % p == 0 or kronecker(n, p) != 1:
            continue
        a, b = lift_sqrt_mod_p2(n, p)
        assert 0 < a < p * p
        # a*N is a square root of N modulo p^2 up to the correction b:
        assert a * a * n - b * p * p == 1
        assert (a * n) ** 2 % (p * p) == n % (p * p)


def test_level_validation():
    lv = Level(4, 3)
    assert lv.cyclotomic is True
    assert Level(2, 3).cyclotomic is False
    with pytest.raises(ValueError):
        Level(3, 3)  # not coprime
    with pytest.raises(ValueError):
        Level(4, 4)  # p not prime
    with pytest.raises(ValueError):
        Level(1, 3)  # N must exceed 1
    with pytest.raises(ValueError):
        Level(5, 2)  # p must be odd


def test_cyclotomic_iff_square_mod_p():
    for p in (3, 5, 7, 11):
        for n in range(2, 30):
            if math.gcd(n, p) != 1:
                continue
            lv = Level(n, p)
            assert lv.cyclotomic == (kronecker(n, p) == 1)
            # V = [[0, -v], [1, 0]] needs a non-square v, and N^-1 is one
            # exactly off the cyclotomic case
            assert lv.v == (least_nonsquare(p) if lv.cyclotomic else pow(n, -1, p))
            assert kronecker(lv.v, p) == -1


def test_level_cyclotomic_is_derived_not_passed():
    with pytest.raises(TypeError):
        Level(5, 3, True)
    with pytest.raises(TypeError):
        Level(5, 3, cyclotomic=False)


def test_level_is_a_read_only_value():
    lv = Level(4, 3)
    with pytest.raises(AttributeError, match="^cannot assign to field 'N'$"):
        lv.N = 7
    with pytest.raises(AttributeError, match="^cannot assign to field 'other'$"):
        lv.other = 1
    with pytest.raises(AttributeError, match="^cannot delete field 'cyclotomic'$"):
        del lv.cyclotomic
    # equal and hashed by (N, p, cyclotomic), as the per-level caches key them
    assert lv == Level(4, 3) and hash(lv) == hash(Level(4, 3)) and {lv: 1}[Level(4, 3)] == 1
    assert lv != Level(7, 3) and lv != (4, 3, True)
    assert repr(lv) == "Level(N=4, p=3, cyclotomic=True)" and str(lv) == "(4, 3)"


KNOWN_PRIMITIVE_CLASS_NUMBERS = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -12: 1, -15: 2, -16: 1, -19: 1,
    -20: 2, -23: 3, -24: 2, -27: 1, -28: 1, -31: 3, -32: 2, -36: 2,
    -40: 2, -43: 1, -48: 2, -67: 1, -163: 1,
}


def test_class_number_primitive_known_values():
    for d, h in KNOWN_PRIMITIVE_CLASS_NUMBERS.items():
        assert class_number_primitive(d) == h, d


def _brute_force_primitive_forms(D):
    """Count reduced primitive forms (a, b, c) with b^2 - 4ac = D,
    |b| <= a <= c and b >= 0 whenever |b| = a or a = c."""
    count = 0
    a = 1
    while 4 * a * a <= -D + a * a:  # a <= sqrt(-D/3) is implied; use safe bound
        for b in range(-a, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == -b or a == c):
                continue
            if math.gcd(a, b, c) != 1:
                continue
            count += 1
        a += 1
    return count


@given(st.integers(min_value=-400, max_value=-3))
def test_class_number_matches_reduction_oracle(D):
    if D % 4 not in (0, 1):
        return
    assert class_number_primitive(D) == _brute_force_primitive_forms(D)


OUT_OF_RANGE = [
    *((f, (n,), f"{f.__name__}: need n > 0, got {n}")
      for f in (divisors, prime_factors, euler_phi, psi_index, squarefree_part) for n in (0, -1, -12)),
    *((kronecker, (3, n), f"kronecker: need n >= 1, got {n}") for n in (0, -1, -8)),
    (least_nonsquare, (2,), "least_nonsquare: no non-square mod 2"),
    (lift_sqrt_mod_p2, (2, 3), "lift_sqrt_mod_p2: 2 is not a square mod 3"),
    (lift_sqrt_mod_p2, (3, 7), "lift_sqrt_mod_p2: 3 is not a square mod 7"),
    *((class_number_primitive, (D,), f"need a negative discriminant, got {D}")
      for D in (0, 1, 4, 5, 8)),
]


@pytest.mark.parametrize("f, args, message", OUT_OF_RANGE,
                         ids=[f"{f.__name__}{list(args)}" for f, args, _m in OUT_OF_RANGE])
def test_out_of_range_arguments_raise_value_error(f, args, message):
    # every refusal names the function and the argument it refuses
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as err:
        f(*args)
    assert type(err.value) is ValueError


def test_kronecker_mod_one_is_one():
    # (a | 1) = 1 for every a, the empty product
    assert [kronecker(a, 1) for a in range(-10, 11)] == [1] * 21
