"""Exact arithmetic helpers: divisors, totients, Kronecker symbols, the
residue tables of an odd prime, square roots mod p^2, and class numbers of
negative discriminants.

Everything here is pure integer arithmetic; no floats are used anywhere.
"""
from __future__ import annotations

import math
import operator
from functools import lru_cache


class InvariantError(RuntimeError):
    """A failed internal invariant: a defect, not bad input (CLI exit 3)."""


def invariant(holds: bool, message: str) -> None:
    """Raise InvariantError(message) unless ``holds``; unlike ``assert``,
    kept under ``python -O``."""
    if not holds:
        raise InvariantError(message)


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (inputs here are small)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def divisors(n: int) -> list[int]:
    """All positive divisors of n > 0, sorted increasingly."""
    if n <= 0:
        raise ValueError(f"divisors: need n > 0, got {n}")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n > 0, sorted increasingly."""
    if n <= 0:
        raise ValueError(f"prime_factors: need n > 0, got {n}")
    out = []
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out


def euler_phi(n: int) -> int:
    """Euler totient of n > 0."""
    if n <= 0:
        raise ValueError(f"euler_phi: need n > 0, got {n}")
    result = n
    for q in prime_factors(n):
        result -= result // q
    return result


def psi_index(n: int) -> int:
    """The index psi(n) = n * prod_{q | n} (1 + 1/q), i.e. |P^1(Z/n)|."""
    if n <= 0:
        raise ValueError(f"psi_index: need n > 0, got {n}")
    result = n
    for q in prime_factors(n):
        result += result // q
    return result


def squarefree_part(n: int) -> int:
    """The squarefree part of n > 0: the squarefree d with n = d * m^2 for
    an integer m."""
    if n <= 0:
        raise ValueError(f"squarefree_part: need n > 0, got {n}")
    d = 1
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            if e % 2 == 1:
                d *= f
        f += 1
    return d * m


def is_squarefree(n: int) -> bool:
    return squarefree_part(n) == n


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a | n) for n >= 1.

    Follows the usual extension of the Jacobi symbol, with
    (a | 2) = 0, 1, -1 for a even, a = +-1 (mod 8), a = +-3 (mod 8).
    """
    if n <= 0:
        raise ValueError(f"kronecker: need n >= 1, got {n}")
    if n == 1:
        return 1
    result = 1
    # pull out the even part of n
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # now n is odd; run Jacobi with reciprocity
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


@lru_cache(maxsize=None)
def residue_tables(p: int) -> tuple[tuple, tuple[int, ...]]:
    """Indexed by the residue x mod the odd prime p: x^-1 mod p (None at 0),
    and the Legendre symbol ``kronecker(x, p)``.  The one check of a
    ``ProjMat`` modulus, run once per p: ValueError unless p is an odd prime."""
    if p == 2 or not is_prime(p):
        raise ValueError(f"need an odd prime modulus, got {p}")
    inverses = (None, *(pow(x, -1, p) for x in range(1, p)))
    return inverses, tuple(kronecker(x, p) for x in range(p))


@lru_cache(maxsize=None)
def least_nonsquare(p: int) -> int:
    """Smallest positive non-square residue mod the odd prime p."""
    for v in range(2, p):
        if kronecker(v, p) == -1:
            return v
    raise ValueError(f"least_nonsquare: no non-square mod {p}")


def lift_sqrt_mod_p2(N: int, p: int) -> tuple[int, int]:
    """Least a with 0 < a < p^2 and a^2 N = 1 (mod p^2); returns (a, b)
    where b = (a^2 N - 1) / p^2.

    Requires N to be a square mod p.
    """
    pp = p * p
    for a in range(1, pp):
        if (a * a * N) % pp == 1 % pp:
            return a, (a * a * N - 1) // pp
    raise ValueError(f"lift_sqrt_mod_p2: {N} is not a square mod {p}")


class ReadOnly:
    """Base of the read-only classes that check or derive values when built.

    A subclass names its attributes in ``__slots__`` and sets each once, in
    its ``__init__``, through ``object.__setattr__``; equality, hashing and
    ``repr`` read the two or more attributes named in ``_compared``.
    """

    __slots__ = ()
    _compared: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._key = operator.attrgetter(*cls._compared)  # instance -> tuple of the compared values
        # the repr's format, Name(a={!r}, b={!r}, ...)
        cls._format = f"{cls.__qualname__}({', '.join(f'{name}={{!r}}' for name in cls._compared)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._key(self) == other._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return self._format.format(*self._key(self))


class Level(ReadOnly):
    """A level (N, p): N > 1 prime to the odd prime p.

    ``cyclotomic``, derived from N and p, records whether N is a square mod p;
    ``case`` names that split as the reports print it.
    """

    __slots__ = _compared = ("N", "p", "cyclotomic")

    def __init__(self, N: int, p: int) -> None:
        if N <= 1:
            raise ValueError(f"Level: need N > 1, got N={N}")
        if p == 2 or not is_prime(p):
            raise ValueError(f"Level: need p an odd prime, got p={p}")
        if math.gcd(N, p) != 1:
            raise ValueError(f"Level: need gcd(N, p) = 1, got ({N}, {p})")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "cyclotomic", kronecker(N, p) == 1)

    @property
    def v(self) -> int:
        """The v of the level's V = [[0, -v], [1, 0]], which follows the
        paper's case split: the least non-square mod p at cyclotomic levels,
        N^-1 mod p (itself a non-square) otherwise."""
        return least_nonsquare(self.p) if self.cyclotomic else pow(self.N, -1, self.p)

    @property
    def case(self) -> str:
        return "cyclotomic" if self.cyclotomic else "non-cyclotomic"

    def __str__(self) -> str:
        return f"({self.N}, {self.p})"


def _reduced_forms(D: int) -> list[tuple[int, int, int]]:
    """All reduced primitive positive binary quadratic forms of discriminant D < 0.

    Reduced: |b| <= a <= c, and b >= 0 when |b| = a or a = c.
    """
    if D >= 0 or D % 4 not in (0, 1):
        raise ValueError(f"need a negative discriminant, got {D}")
    forms = []
    b = D % 2  # b must have the parity of D
    while b * b <= -D // 3:
        ac4 = b * b - D
        if ac4 % 4 == 0:
            ac = ac4 // 4
            for a in divisors(ac):
                c = ac // a
                if a > c:
                    break
                if b > a:
                    continue
                if math.gcd(a, b, c) != 1:
                    continue
                forms.append((a, b, c))
                # the mirror (a, -b, c) is reduced unless it hits a boundary
                if 0 < b < a and a < c:
                    forms.append((a, -b, c))
        b += 2
    return sorted(forms)


def class_number_primitive(D: int) -> int:
    """Number of classes of primitive forms of discriminant D < 0 (the form
    class number of the quadratic order of discriminant D)."""
    return len(_reduced_forms(D))


@lru_cache(maxsize=None)
def odd_primes_upto(bound: int) -> tuple[int, ...]:
    return tuple(q for q in range(3, bound + 1) if is_prime(q))
