"""Exact coefficient domains: the rationals and prime fields.

Every coefficient in the package is either a ``fractions.Fraction`` (over Q)
or a ``ModInt`` (over GF(p)).  Both support ordinary operator arithmetic, so
polynomial code never branches on the domain; the domain object itself is
only consulted for construction and parsing.  The exceptions are printing,
which reads a ``Fraction``'s numerator and denominator or a ``ModInt``'s
value (see ``rings.format_poly``), and Groebner reduction, which runs on
plain ints and reads the domain's characteristic (see ``groebner``).  No
floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction


class DomainError(ValueError):
    """Raised for invalid domain construction or coercion."""


# psi_13, the least strong pseudoprime to every prime base up to 41 (Sorenson
# and Webster, Math. Comp. 2017): below it, those bases decide primality
MILLER_RABIN_BOUND = 3317044064679887385961981

_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test, exact below MILLER_RABIN_BOUND.

    Composites are recognised at any size, but at or above the bound a number
    passing every witness may be composite: that raises DomainError."""
    if n < 2:
        return False
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= MILLER_RABIN_BOUND:
        raise DomainError(
            f"cannot decide whether {n} is prime: the test is exact only "
            f"below {MILLER_RABIN_BOUND}"
        )
    return True


class ModInt:
    """An element of GF(p), stored as an int in [0, p)."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _check(self, other: "ModInt") -> None:
        if self.p != other.p:
            raise DomainError(f"mixed moduli {self.p} and {other.p}")

    def __add__(self, other):
        if not isinstance(other, ModInt):
            return NotImplemented
        self._check(other)
        return ModInt(self.value + other.value, self.p)

    def __sub__(self, other):
        if not isinstance(other, ModInt):
            return NotImplemented
        self._check(other)
        return ModInt(self.value - other.value, self.p)

    def __mul__(self, other):
        if not isinstance(other, ModInt):
            return NotImplemented
        self._check(other)
        return ModInt(self.value * other.value, self.p)

    def __truediv__(self, other):
        if not isinstance(other, ModInt):
            return NotImplemented
        self._check(other)
        if other.value == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return ModInt(self.value * pow(other.value, -1, self.p), self.p)

    def __neg__(self):
        return ModInt(-self.value, self.p)

    def __pow__(self, e: int):
        if e < 0 and self.value == 0:
            raise ZeroDivisionError("zero to a negative power in GF(p)")
        return ModInt(pow(self.value, e, self.p), self.p)

    def __eq__(self, other):
        return (
            isinstance(other, ModInt)
            and self.p == other.p
            and self.value == other.value
        )

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"ModInt({self.value}, {self.p})"


class Rationals:
    """The field Q.  Elements are Fractions in lowest terms."""

    characteristic = 0
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise DomainError(f"cannot coerce {value!r} into Q")

    def from_fraction(self, num: int, den: int) -> Fraction:
        return Fraction(num, den)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The field GF(p) for a prime p."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.zero = ModInt(0, p)
        self.one = ModInt(1, p)

    def coerce(self, value) -> ModInt:
        if isinstance(value, ModInt):
            if value.p != self.p:
                raise DomainError(f"element of GF({value.p}) used in GF({self.p})")
            return value
        if isinstance(value, int):
            return ModInt(value, self.p)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise DomainError(f"denominator divisible by {self.p}")
            return ModInt(value.numerator, self.p) / ModInt(value.denominator, self.p)
        raise DomainError(f"cannot coerce {value!r} into GF({self.p})")

    def from_fraction(self, num: int, den: int) -> ModInt:
        return self.coerce(Fraction(num, den))

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = Rationals()
