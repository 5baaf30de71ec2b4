"""Bounded univariate factorization over Q and certificates over Q(u).

The rational factorizer is the classical big-prime method: squarefree
decomposition (``polygcd.squarefree_decomposition_in`` on Q[x], the one
squarefree routine of the package), Cantor-Zassenhaus over GF(p) for a
prime p exceeding twice the factor coefficient bound, then subset
recombination with exact trial division.  Trial division is integer long
division: the divisors are primitive, so by Gauss's lemma no rational
arithmetic is needed.  The factorizer is complete up to an explicit
degree/recombination budget and raises FactorizationIncomplete beyond it,
or when the prime it needs lies past the range where ``is_prime`` is
exact -- callers must treat that as "don't know", never as "irreducible".

For a polynomial in T over Q[u] (u a tuple of base variables) full
factorization is out of scope; instead a small certificate toolkit decides
irreducibility over Q(u) in the cases the pipeline actually meets:

* degree 1 -- trivially irreducible;
* coefficients free of u -- irreducibility over Q settles it (a purely
  transcendental extension preserves irreducibility);
* degree 2 -- decidable: the discriminant is a square in Q(u) iff it is a
  square in Q[u], tested by exact polynomial square root;
* Eisenstein at one of the u variables;
* specialization: an integer point where the degree is preserved and the
  specialized polynomial is irreducible over Q.

Everything is deterministic given the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as int_gcd
from math import isqrt
from typing import Dict, List, Optional, Sequence, Tuple

from .domains import MILLER_RABIN_BOUND, QQ, is_prime
from .polygcd import poly_sqrt, primitive_in, squarefree_decomposition_in
from .rings import Polynomial, PolyRing

IntPoly = List[int]


class FactorizationIncomplete(Exception):
    """The bounded factorizer ran out of budget; the answer is unknown."""


# ---------------------------------------------------------------------------
# dense integer univariate helpers


def _trim(c: IntPoly) -> IntPoly:
    while c and c[-1] == 0:
        c.pop()
    return c


def _deg(c: Sequence[int]) -> int:
    return len(c) - 1


def _primitive(c: Sequence[int]) -> IntPoly:
    g = int_gcd(*c)
    if g == 0:
        return []
    if c[-1] < 0:
        g = -g
    return [a // g for a in c]


def _z_exact_div(a: Sequence[int], b: Sequence[int]) -> Optional[IntPoly]:
    """a / b over Z when exact (b primitive), else None.

    Integer long division.  For primitive b, Gauss's lemma makes b divide a
    in Q[x] iff it does in Z[x], so the division is exact iff lc(b) divides
    every step's leading coefficient and nothing remains."""
    r = list(a)
    db = _deg(b)
    lb = b[-1]
    q = [0] * max(len(r) - db, 0)
    for shift in range(len(q) - 1, -1, -1):
        t, rem = divmod(r[shift + db], lb)
        if rem:
            return None
        q[shift] = t
        for i in range(db + 1):
            r[shift + i] -= t * b[i]
    return None if any(r) else q


# ---------------------------------------------------------------------------
# GF(p) dense arithmetic (plain ints)


def _gp_mul(a: Sequence[int], b: Sequence[int], p: int) -> IntPoly:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _gp_divmod(a: Sequence[int], b: Sequence[int], p: int):
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 1)
    while len(r) - 1 >= db and r:
        t = r[-1] * inv % p
        shift = len(r) - 1 - db
        q[shift] = t
        for i in range(db + 1):
            r[shift + i] = (r[shift + i] - t * b[i]) % p
        _trim(r)
    return _trim(q), r


def _gp_monic(a: Sequence[int], p: int) -> IntPoly:
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gp_gcd(a: Sequence[int], b: Sequence[int], p: int) -> IntPoly:
    a, b = list(a), list(b)
    while b:
        _, r = _gp_divmod(a, b, p)
        a, b = b, r
    return _gp_monic(a, p)


def _gp_powmod(base: Sequence[int], e: int, mod: Sequence[int], p: int) -> IntPoly:
    result = [1]
    b = list(base)
    _, b = _gp_divmod(b, mod, p) if len(b) >= len(mod) else (None, b)
    while e:
        if e & 1:
            result = _gp_divmod(_gp_mul(result, b, p), mod, p)[1]
        e >>= 1
        if e:
            b = _gp_divmod(_gp_mul(b, b, p), mod, p)[1]
    return result


def _gp_sub(a: Sequence[int], b: Sequence[int], p: int) -> IntPoly:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def _distinct_degree(f: IntPoly, p: int) -> List[Tuple[IntPoly, int]]:
    """Distinct-degree decomposition of a monic squarefree f over GF(p)."""
    out = []
    h = [0, 1]  # x
    fr = list(f)
    d = 0
    while len(fr) - 1 >= 2 * (d + 1):
        d += 1
        h = _gp_powmod(h, p, fr, p)
        g = _gp_gcd(_gp_sub(h, [0, 1], p), fr, p)
        if len(g) > 1:
            out.append((g, d))
            fr, _ = _gp_divmod(fr, g, p)
            _, h = _gp_divmod(h, fr, p) if len(h) >= len(fr) else (None, h)
    if len(fr) > 1:
        out.append((fr, len(fr) - 1))
    return out


def _equal_degree_split(f: IntPoly, d: int, p: int, rng: random.Random) -> List[IntPoly]:
    """Cantor-Zassenhaus split of monic f (odd p), all factors of degree d."""
    n = len(f) - 1
    if n == d:
        return [f]
    e = (p**d - 1) // 2
    while True:
        r = [rng.randrange(p) for _ in range(n)]
        r = _trim(r)
        if len(r) <= 1:
            continue
        g = _gp_gcd(r, f, p)
        if 1 < len(g) < len(f):
            pass
        else:
            b = _gp_powmod(r, e, f, p)
            g = _gp_gcd(_gp_sub(b, [1], p), f, p)
            if not (1 < len(g) < len(f)):
                continue
        q, _ = _gp_divmod(f, g, p)
        return _equal_degree_split(g, d, p, rng) + _equal_degree_split(q, d, p, rng)


def _factor_mod_p(f: IntPoly, p: int, rng: random.Random) -> List[IntPoly]:
    """Monic irreducible factors of a squarefree monic f over GF(p)."""
    out = []
    for part, d in _distinct_degree(f, p):
        out.extend(_equal_degree_split(part, d, p, rng))
    out.sort()
    return out


def _squarefree_mod(f: IntPoly, p: int) -> Optional[IntPoly]:
    """f mod p when it is squarefree with a unit leading coefficient."""
    if f[-1] % p == 0:
        return None
    fp = _trim([c % p for c in f])
    df = _trim([i * f[i] % p for i in range(1, len(f))])
    if not df or len(_gp_gcd(fp, df, p)) != 1:
        return None
    return fp


def _next_usable_prime(f: IntPoly, start: int) -> int:
    """Smallest prime >= start keeping f squarefree with unit lc.

    Raises FactorizationIncomplete at MILLER_RABIN_BOUND, beyond which
    ``is_prime`` cannot decide."""
    p = max(start, 3)
    if p % 2 == 0:
        p += 1
    while True:
        if p >= MILLER_RABIN_BOUND:
            raise FactorizationIncomplete(
                f"no usable prime below {MILLER_RABIN_BOUND}"
            )
        if is_prime(p) and _squarefree_mod(f, p) is not None:
            return p
        p += 2


_PATTERN_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _degree_pattern_mask(f: IntPoly, p: int) -> Optional[int]:
    """Bitmask of degrees of monic divisors of f mod p (None if unusable)."""
    fp = _squarefree_mod(f, p)
    if fp is None:
        return None
    mask = 1
    for part, d in _distinct_degree(_gp_monic(fp, p), p):
        count = (len(part) - 1) // d
        for _ in range(count):
            mask |= mask << d
    return mask


def _pattern_proves_irreducible(f: IntPoly) -> bool:
    """True when modular degree patterns rule out every proper factor degree."""
    n = _deg(f)
    proper = ((1 << n) - 2)  # bits 1 .. n-1
    possible = proper
    used = 0
    for p in _PATTERN_PRIMES:
        mask = _degree_pattern_mask(f, p)
        if mask is None:
            continue
        used += 1
        possible &= mask
        if possible & proper == 0:
            return True
        if used >= 5:
            break
    return False


# the rational-root search lists the divisors of the constant and leading
# coefficients by trial division, and gives up (incomplete) past either cap
_ROOT_SEARCH_DIVISORS = 400
_ROOT_SEARCH_STEPS = 10**5


def _rational_roots(f: IntPoly) -> Tuple[List[Fraction], bool]:
    """(rational roots of f, search-was-complete flag)."""

    def divisors(n: int) -> Optional[List[int]]:
        n = abs(n)
        if isqrt(n) > _ROOT_SEARCH_STEPS:
            return None
        out = []
        for i in range(1, isqrt(n) + 1):
            if n % i == 0:
                out.append(i)
                if i != n // i:
                    out.append(n // i)
                if len(out) > _ROOT_SEARCH_DIVISORS:
                    return None
        return out

    const = next((c for c in f if c != 0), 0)
    shift = next((i for i, c in enumerate(f) if c != 0), 0)
    roots = []
    if shift:
        roots.append(Fraction(0))
    ps = divisors(const)
    qs = divisors(f[-1])
    if ps is None or qs is None:
        return roots, False
    seen = set()
    for p_ in ps:
        for q_ in qs:
            for cand in (Fraction(p_, q_), Fraction(-p_, q_)):
                if cand in seen:
                    continue
                seen.add(cand)
                acc = Fraction(0)
                for c in reversed(f):
                    acc = acc * cand + c
                if acc == 0:
                    roots.append(cand)
    return roots, True


_MAX_MODULAR_FACTORS = 14
_MAX_DEGREE = 24


def _factor_squarefree(f: IntPoly, seed: int) -> List[IntPoly]:
    """Irreducible factors of a primitive squarefree integer polynomial,
    sorted by degree, then by coefficients."""
    n = _deg(f)
    if n > _MAX_DEGREE:
        raise FactorizationIncomplete(f"degree {n} exceeds budget {_MAX_DEGREE}")
    if n <= 1:
        return [f]
    # linear factors via rational roots (cheap, and settles n <= 3); f is
    # squarefree, so each root divides it exactly once
    roots, roots_complete = _rational_roots(f)
    out = [[-root.numerator, root.denominator] for root in roots]
    work = f
    for lin in out:
        work = _z_exact_div(work, lin)
    n = _deg(work)
    if n > 0:
        # rootless degree <= 3 (with a completed root search) is irreducible
        if (n <= 3 and roots_complete) or _pattern_proves_irreducible(work):
            out.append(work)
        else:
            lc = abs(work[-1])
            norm2 = isqrt(sum(c * c for c in work)) + 1
            p = _next_usable_prime(work, (1 << n) * (norm2 + lc) * lc * 2 + 1)
            rng = random.Random(seed ^ 0x5EED)
            modular = _factor_mod_p(_gp_monic([c % p for c in work], p), p, rng)
            if len(modular) > _MAX_MODULAR_FACTORS:
                raise FactorizationIncomplete(
                    f"{len(modular)} modular factors exceed recombination budget"
                )
            out.extend(_recombine(work, modular, p))
    return sorted(out, key=lambda g: (len(g), g))


def _recombine(work: IntPoly, modular: List[IntPoly], p: int) -> List[IntPoly]:
    """Zassenhaus subset recombination with exact trial division."""
    from itertools import combinations

    found: List[IntPoly] = []
    half = p // 2

    def symlift(c: int) -> int:
        c %= p
        return c - p if c > half else c

    while True:
        r = len(modular)
        if r == 0:
            if _deg(work) > 0:
                found.append(work)
            return found
        if r == 1:
            found.append(_primitive(work))
            return found
        lc = work[-1]
        hit = False
        for size in range(1, r // 2 + 1):
            for combo in combinations(range(r), size):
                prod = [lc % p]
                for i in combo:
                    prod = _gp_mul(prod, modular[i], p)
                cand = _primitive([symlift(c) for c in prod])
                if not cand:
                    continue
                q = _z_exact_div(work, cand)
                if q is not None:
                    found.append(cand)
                    work = _primitive(q)
                    modular = [m for i, m in enumerate(modular) if i not in combo]
                    hit = True
                    break
            if hit:
                break
        if not hit:
            found.append(work)
            return found


_UNIVARIATE = PolyRing(("x",), QQ)


def factor_rational_univariate(
    coeffs: Sequence[Fraction], seed: int = 0
) -> List[Tuple[IntPoly, int]]:
    """Factor a univariate polynomial over Q given dense Fraction coeffs.

    Returns [(primitive integer factor with positive lc, multiplicity)],
    sorted deterministically; the rational unit is dropped.  Raises
    FactorizationIncomplete beyond the degree/recombination budget.
    """
    h = _UNIVARIATE.poly({(d,): c for d, c in enumerate(coeffs)})
    if h.is_zero():
        raise ValueError("factoring the zero polynomial")
    n = h.degree_in(0)
    if n == 0:
        return []
    if n > _MAX_DEGREE:
        raise FactorizationIncomplete(f"degree {n} exceeds budget {_MAX_DEGREE}")
    out = [
        (g, mult)
        for part, mult in squarefree_decomposition_in(h, 0)
        for g in _factor_squarefree(_integer_coeffs(part, 0), seed)
    ]
    out.sort(key=lambda t: (_deg(t[0]), t[0], t[1]))
    return out


def is_irreducible_over_q(coeffs: Sequence[Fraction], seed: int = 0) -> bool:
    """True iff the (degree >= 1) polynomial is irreducible over Q."""
    factors = factor_rational_univariate(coeffs, seed)
    return len(factors) == 1 and factors[0][1] == 1


# ---------------------------------------------------------------------------
# polynomial-level interface over Q(u)


@dataclass(frozen=True)
class FactorPart:
    """One coprime piece of a minimal polynomial: ``poly`` to multiplicity
    ``multiplicity``; ``irreducible`` is True (with ``certificate``), or None
    when undecided."""

    poly: Polynomial
    multiplicity: int
    irreducible: Optional[bool]
    certificate: Optional[str]


@dataclass(frozen=True)
class FactorOutcome:
    parts: Tuple[FactorPart, ...]
    complete: bool
    obligation: Optional[str]


def _integer_coeffs(h: Polynomial, v: int) -> IntPoly:
    """Dense coefficients of h, univariate in x_v with integer coefficients."""
    return [c.numerator for c in _univariate_coeffs(h, v)]


def _univariate_coeffs(h: Polynomial, v: int) -> List[Fraction]:
    out = [Fraction(0)] * (h.degree_in(v) + 1)
    for d, c in h.as_univariate(v).items():
        if not c.is_constant():
            raise ValueError("polynomial is not univariate")
        out[d] = c.constant_value()
    return out


def _poly_from_intpoly(ring, v: int, coeffs: Sequence[int]) -> Polynomial:
    terms = {}
    base = [0] * ring.nvars
    for d, c in enumerate(coeffs):
        if c:
            e = list(base)
            e[v] = d
            terms[tuple(e)] = Fraction(c)
    return Polynomial(ring, terms)


def _try_quadratic(h: Polynomial, v: int) -> Optional[List[FactorPart]]:
    """Decide a degree-2 part over Q(u) via the discriminant square root."""
    cs = h.as_univariate(v)
    a = cs.get(2, h.ring.zero)
    b = cs.get(1, h.ring.zero)
    c = cs.get(0, h.ring.zero)
    disc = b * b - a * c * 4
    if disc.is_zero():
        root = primitive_in(h.ring.var(h.ring.names[v]) * (a * 2) + b, v)
        return [FactorPart(root, 2, True, "linear")]
    s = poly_sqrt(disc)
    if s is None:
        return [FactorPart(h, 1, True, "quadratic-discriminant")]
    xv = h.ring.var(h.ring.names[v])
    f1 = primitive_in(xv * (a * 2) + b - s, v)
    f2 = primitive_in(xv * (a * 2) + b + s, v)
    return [
        FactorPart(f1, 1, True, "linear"),
        FactorPart(f2, 1, True, "linear"),
    ]


def _eisenstein_applies(h: Polynomial, v: int, base: Sequence[int]) -> Optional[str]:
    """A base variable b with b not dividing lc, b dividing every lower
    coefficient, and b^2 not dividing the constant term (which must be
    nonzero) -- Eisenstein's criterion at the prime element b of Q[u]."""
    cs = h.as_univariate(v)
    n = max(cs)
    c0 = cs.get(0)
    if c0 is None or c0.is_zero():
        return None
    for b in base:
        if not any(e[b] == 0 for e in cs[n].terms):
            continue  # b divides the leading coefficient
        if any(
            any(e[b] == 0 for e in cs[d].terms)
            for d in range(n)
            if d in cs
        ):
            continue  # some lower coefficient not divisible by b
        if not any(e[b] == 1 for e in c0.terms):
            continue  # b^2 divides the constant term
        return h.ring.names[b]
    return None


def _specialization_certificate(
    h: Polynomial, v: int, base: Sequence[int], seed: int
) -> Optional[Dict[int, int]]:
    """An integer point preserving deg_v at which h is irreducible over Q."""
    rng = random.Random(seed ^ 0xCE27)
    used = sorted(set(base) & set(h.support()))
    n = h.degree_in(v)
    lc = h.coefficient_of(v, n)
    for trial in range(12):
        if trial == 0:
            point = {b: 1 for b in used}
        else:
            point = {b: rng.randint(-9, 9) for b in used}
        if lc.specialize(point).is_zero():
            continue
        spec = h.specialize(point)
        try:
            coeffs = _univariate_coeffs(spec, v)
            if is_irreducible_over_q(coeffs, seed):
                return point
        except FactorizationIncomplete:
            continue
    return None


def split_minimal_polynomial(
    m: Polynomial, v: int, base: Sequence[int], seed: int = 0
) -> FactorOutcome:
    """Split a polynomial in x_v over Q(u), u = base, into coprime parts.

    Parts are pairwise coprime in Q(u)[x_v] and their product (up to a
    factor free of x_v) is m; each part is primitive in x_v.  A part is
    labelled irreducible only when one of the sound certificates applies.
    The outcome is ``complete`` when every part is certified irreducible.
    """
    if m.ring.domain != QQ:
        # the certificates and square roots below are sound over Q only
        raise ValueError(
            f"splitting is implemented over Q only, not over {m.ring.domain}"
        )
    base = tuple(sorted(set(base)))
    if not (m.support() <= set(base) | {v}):
        raise ValueError("polynomial involves variables outside base and x_v")
    parts: List[FactorPart] = []
    obligations: List[str] = []
    pieces: List[Tuple[Polynomial, int]] = []
    for h, mult in squarefree_decomposition_in(m, v):
        if min(e[v] for e in h.terms) >= 1:
            # h squarefree in x_v carries at most one factor of x_v
            pieces.append((m.ring.var(m.ring.names[v]), mult))
            h = Polynomial(
                m.ring,
                {e[:v] + (e[v] - 1,) + e[v + 1:]: c for e, c in h.terms.items()},
            )
            if h.degree_in(v) < 1:
                continue
        pieces.append((h, mult))
    for h, mult in pieces:
        deg = h.degree_in(v)
        if deg == 1:
            parts.append(FactorPart(h, mult, True, "linear"))
            continue
        if not (h.support() - {v}):
            # coefficients are rational: factor over Q, definitive over Q(u);
            # h is squarefree, primitive and integral already
            try:
                factors = _factor_squarefree(_integer_coeffs(h, v), seed)
            except FactorizationIncomplete as exc:
                parts.append(FactorPart(h, mult, None, None))
                obligations.append(f"factorization over Q incomplete: {exc}")
                continue
            for g in factors:
                cert = "linear" if _deg(g) == 1 else "rational-irreducible"
                parts.append(
                    FactorPart(_poly_from_intpoly(m.ring, v, g), mult, True, cert)
                )
            continue
        if deg == 2:
            for part in _try_quadratic(h, v):
                parts.append(
                    FactorPart(
                        part.poly, part.multiplicity * mult,
                        part.irreducible, part.certificate,
                    )
                )
            continue
        eis = _eisenstein_applies(h, v, base)
        if eis is not None:
            parts.append(FactorPart(h, mult, True, f"eisenstein:{eis}"))
            continue
        point = _specialization_certificate(h, v, base, seed)
        if point is not None:
            names = m.ring.names
            desc = ",".join(f"{names[b]}={val}" for b, val in sorted(point.items()))
            parts.append(FactorPart(h, mult, True, f"specialization:{desc}"))
            continue
        parts.append(FactorPart(h, mult, None, None))
        obligations.append(
            f"irreducibility of a degree-{deg} factor over the base field "
            "is uncertified"
        )
    complete = all(p.irreducible for p in parts)
    return FactorOutcome(
        tuple(parts), complete, "; ".join(obligations) if obligations else None
    )
