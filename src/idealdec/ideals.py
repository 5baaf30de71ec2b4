"""Ideals and the classical operations built from elimination.

An Ideal is a generator list bound to a ring, with cached Groebner bases
keyed by order and localization.  The operations follow the standard
eliminate-a-tag-variable constructions, except for two kinds of input that
need no tag:

* intersect(I, J):  for monomial I and J the minimal lcms of generator
  pairs; otherwise eliminate t from t*I + (1-t)*J;
* quotient(I, f):   generators of (I meet <f>) divided exactly by f;
* saturate(I, h):   for homogeneous I and a single term h, one variable x
  of h at a time, the reduced basis under degrevlex with x last divided by
  x-contents (Bayer; a monomial I drops the variables from its generators);
  otherwise eliminate w from I + <w*h - 1> (Rabinowitsch).  Then the
  exponent: the least m with h^m (I : h^infinity) inside I, from one loop
  on packed integer terms that reduces the generators against I's basis,
  multiplies the nonzero remainders by h and reduces again, with no
  Fraction built (saturation_exponent, which also serves a caller that
  already holds I : h^infinity, such as a level of GTZ, with no
  saturation);
* eliminate(I, V):  block order with V in front; only the basis elements
  whose leading monomial is free of V are tail-reduced and built as
  polynomials;
* contract(I, u):   chained saturations of I by the K[u]-leading
  coefficients of I's minimal localized basis (saturation_coefficients),
  smallest first -- this turns the extension ideal I K(u)[X-u] back into
  its contraction in K[X];
* dimension(I):     n minus the least size among the minimal hitting sets
  of the leading-monomial supports (Krull dimension of K[X]/I), read from
  the one enumeration that best_independent_set also uses.

Each construction has one fixed order; none takes an order as a parameter.
Every tag (t or w here, and the tag of a linear form in decompose) is
adjoined last by rings.adjoin and removed by eliminate, the only code that
builds an elimination order: the tag's block in front of degrevlex on the
ring.  So every saturation that needs a tag, from decomposition or from
contraction, runs under that one order; a tag-free one runs under
degrevlex with its variable moved last.  The contraction's coefficients
come from the cached degrevlex basis localized at u, as the ranking's do
(Greuel-Pfister, Prop. 4.3.1: any block order with u last will do).
Saturations are not cached: each call computes its bases afresh.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

# modules, not names: an ideal that is only built and written runs neither,
# and only quotient and the saturation coefficients run polygcd (see __init__)
from . import groebner, polygcd
from .orders import DEGREVLEX, MonomialOrder, block_order, degrevlex_order
from .rings import Exponents, Polynomial, PolyRing, RingError, adjoin, inject, project


class IdealError(ValueError):
    pass


class Ideal:
    """A finitely generated ideal of a polynomial ring."""

    __slots__ = ("ring", "generators", "_gb_cache")

    def __init__(self, ring: PolyRing, generators: Iterable[Polynomial]):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise IdealError(f"generator {g!r} is not a polynomial")
            if g.ring != ring:
                raise RingError("generator from a different ring")
            if not g.is_zero():
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        # created on first use: most ideals (components, saturation results)
        # are built, read and kept without ever filling it
        self._gb_cache: Optional[Dict[tuple, groebner.GroebnerBasis]] = None

    @classmethod
    def parse(cls, ring: PolyRing, texts: Iterable[str]) -> "Ideal":
        return cls(ring, [ring.parse(t) for t in texts])

    def groebner(
        self,
        order: Optional[MonomialOrder] = None,
        localized_vars: Optional[Iterable[int]] = None,
    ) -> groebner.GroebnerBasis:
        if order is None:
            order = degrevlex_order()
        loc = frozenset(localized_vars or ()) or None
        cache_key = (order, loc)
        if self._gb_cache is None:
            self._gb_cache = {}
        got = self._gb_cache.get(cache_key)
        if got is None:
            if not self.generators:
                got = groebner.GroebnerBasis(self.ring, order, (), loc)
            else:
                got = groebner.buchberger(self.generators, order, loc)
            self._gb_cache[cache_key] = got
        return got

    def contains(self, f: Polynomial) -> bool:
        return self.groebner().contains(f)

    def normal_form(self, f: Polynomial, order: Optional[MonomialOrder] = None):
        return self.groebner(order).normal_form(f)

    def is_zero(self) -> bool:
        return not self.generators

    def is_trivial(self) -> bool:
        return bool(self.generators) and self.groebner().is_trivial()

    def equals(self, other: "Ideal") -> bool:
        if self.ring != other.ring:
            raise RingError("ideals in different rings")
        return self.groebner().elements == other.groebner().elements

    def contains_ideal(self, other: "Ideal") -> bool:
        return self.groebner().exponent(other.generators) == 0

    def canonical_generators(self) -> Tuple[Polynomial, ...]:
        """Reduced degrevlex basis: a canonical generator list."""
        return self.groebner().elements

    def __repr__(self):
        return f"Ideal({self.ring!r}, {len(self.generators)} generators)"


@dataclass(frozen=True, slots=True)
class SaturationResult:
    """Outcome of saturate(I, h): the saturated ideal I : h^infinity and the
    saturation exponent, the smallest m with I : h^m == I : h^infinity."""

    ideal: Ideal
    exponent: int


def _eliminate_tag(
    ring: PolyRing,
    stem: str,
    build: Callable[[PolyRing, Polynomial], List[Polynomial]],
) -> Ideal:
    """Adjoin a tag variable after ``ring``'s, build generators with it, and
    eliminate it."""
    big, tag = adjoin(ring, stem)
    J = eliminate(Ideal(big, build(big, big.var(big.names[tag]))), [tag])
    return Ideal(ring, [project(g, ring) for g in J.generators])


def _is_monomial(f: Polynomial) -> bool:
    return len(f.terms) == 1


def _is_homogeneous(f: Polynomial) -> bool:
    return len({sum(e) for e in f.terms}) == 1


def _monomial_exps(f: Polynomial) -> Exponents:
    return next(iter(f.terms))


def _monomial_ideal(ring: PolyRing, exps: Iterable[Exponents]) -> Ideal:
    """The ideal of the monomials ``exps``, on its minimal generators, monic
    and by ascending degree: meets and saturations of monomial ideals chain,
    and unminimalised generator lists would multiply along the chain."""
    kept: List[Exponents] = []
    # a proper divisor has the lower degree, so it is kept first
    for e in sorted(set(exps), key=lambda e: (sum(e), e)):
        if not any(all(map(le, k, e)) for k in kept):
            kept.append(e)
    one = ring.domain.one
    return Ideal(ring, [Polynomial(ring, {e: one}) for e in kept])


def intersect(I: Ideal, J: Ideal) -> Ideal:
    """I meet J: for monomial ideals the minimal lcms of generator pairs,
    otherwise by elimination of a tag variable t from t*I + (1-t)*J."""
    if I.ring != J.ring:
        raise RingError("ideals in different rings")
    ring = I.ring
    if I.is_zero() or J.is_zero():
        return Ideal(ring, [])
    if all(map(_is_monomial, I.generators + J.generators)):
        return _monomial_ideal(
            ring, [tuple(map(max, a, b)) for a in map(_monomial_exps, I.generators)
                   for b in map(_monomial_exps, J.generators)])
    if I.is_trivial():
        return Ideal(ring, J.generators)
    if J.is_trivial():
        return Ideal(ring, I.generators)
    return _eliminate_tag(
        ring, "t",
        lambda big, t: [t * inject(g, big) for g in I.generators]
        + [(big.one - t) * inject(g, big) for g in J.generators],
    )


def quotient(I: Ideal, f: Polynomial) -> Ideal:
    """The colon ideal I : f."""
    if f.ring != I.ring:
        raise RingError("polynomial from a different ring")
    if f.is_zero():
        raise IdealError("quotient by zero")
    if f.is_constant():
        return Ideal(I.ring, I.generators)
    if I.is_zero():
        return Ideal(I.ring, [])
    W = intersect(I, Ideal(I.ring, [f]))
    return Ideal(I.ring, [polygcd.exact_divide(w, f) for w in W.generators])


def saturation_exponent(I: Ideal, h: Polynomial, S: Ideal) -> int:
    """The least m with h^m * S inside I.

    S must lie in I : h^infinity, or no m exists and the search does not
    end; for S = I : h^infinity, m is the saturation exponent.  S's
    generators are reduced against I's degrevlex basis, and the nonzero
    remainders multiplied by h and reduced again until all vanish, on
    packed integer terms (GroebnerBasis.exponent).
    """
    return I.groebner().exponent(S.generators, h)


def _saturate_by_variables(I: Ideal, variables: frozenset) -> Ideal:
    """I : (product of the variables)^infinity for I with homogeneous
    generators, one variable x at a time, with no tag variable.

    A monomial ideal drops the variables from its generators.  Otherwise,
    under degrevlex with x last, x^k divides a homogeneous polynomial iff it
    divides its leading monomial, so dividing each element of the reduced
    basis by its x-content gives a basis of I : x^infinity (Bayer; Eisenbud,
    *Commutative Algebra*, Prop. 15.12).  Saturations of homogeneous ideals
    are homogeneous, so the chain stays on this path.
    """
    ring = I.ring
    if all(map(_is_monomial, I.generators)):
        return _monomial_ideal(
            ring, [tuple(0 if i in variables else d for i, d in enumerate(e))
                   for e in map(_monomial_exps, I.generators)])
    current = I
    for x in sorted(variables):
        order = block_order([(tuple(i for i in range(ring.nvars) if i != x) + (x,),
                               DEGREVLEX)])
        G = groebner.buchberger(current.generators, order)
        contents = [e[x] for e in G.lead_exps()]
        if any(contents):
            current = Ideal(ring, [
                Polynomial(ring, {e[:x] + (e[x] - k,) + e[x + 1:]: c
                                  for e, c in g.terms.items()})
                for g, k in zip(G.elements, contents)])
    return current


def saturate(I: Ideal, h: Polynomial) -> SaturationResult:
    """The saturation S = I : h^infinity and its exponent.

    When h is a single term and every generator of I is homogeneous, S
    comes from _saturate_by_variables on the variables of h; otherwise from
    one elimination of w from I + <w*h - 1> (Rabinowitsch).  Homogeneity is
    needed: on <x^2*z^2 + x*y^2, x^2*z - 2*x*y*z^2> dividing by y-contents
    misses x*z^3 + 1/2*x*y of I : y^infinity.  The exponent comes from
    saturation_exponent(I, h, S).  With exponent 0 the result has I's
    generators.
    """
    if h.ring != I.ring:
        raise RingError("polynomial from a different ring")
    if h.is_zero():
        raise IdealError("saturation by zero")
    exponent = 0
    if not (h.is_constant() or I.is_zero()):
        if _is_monomial(h) and all(map(_is_homogeneous, I.generators)):
            S = _saturate_by_variables(I, h.support())
        else:
            S = _eliminate_tag(
                I.ring, "w",
                lambda big, w: [inject(g, big) for g in I.generators]
                + [w * inject(h, big) - big.one],
            )
        exponent = saturation_exponent(I, h, S)
    # exponent 0: I is saturated; keep its generators but not its cached bases
    return SaturationResult(S if exponent else Ideal(I.ring, I.generators), exponent)


def eliminate(I: Ideal, variables: Iterable[int]) -> Ideal:
    """Generators of I intersected with K[remaining variables], from a
    degrevlex/degrevlex block order with the eliminated variables first."""
    ring = I.ring
    elim = tuple(sorted(set(variables)))
    for i in elim:
        if not 0 <= i < ring.nvars:
            raise IdealError(f"variable index {i} out of range")
    if not elim:
        return Ideal(ring, I.generators)
    if I.is_zero():
        return Ideal(ring, [])
    rest = tuple(i for i in range(ring.nvars) if i not in set(elim))
    blocks = [(elim, DEGREVLEX)] + ([(rest, DEGREVLEX)] if rest else [])
    G = groebner.buchberger(I.generators, block_order(blocks))
    # in an elimination order an element whose leading monomial is free of
    # the eliminated variables is free of them, so only those are read,
    # which tail-reduces and builds them alone
    picked = [G.element(k) for k, e in enumerate(G.lead_exps())
              if not any(e[i] for i in elim)]
    return Ideal(ring, picked)


def sort_saturation_coefficients(
    cs: Sequence[Polynomial],
) -> List[Polynomial]:
    """The canonical associates of the nonconstant c_i, deduplicated, in
    ascending total degree, then term count, then input order."""
    seen = {}
    for pos, c in enumerate(cs):
        if not c.is_constant():
            seen.setdefault(polygcd.normalize_assoc(c), pos)
    return sorted(seen, key=lambda c: (c.total_degree(), c.num_terms(), seen[c]))


def saturation_coefficients(I: Ideal, u: Iterable[int]) -> List[Polynomial]:
    """The K[u]-leading coefficients of I's cached degrevlex basis localized
    at u, as sort_saturation_coefficients orders them: the c whose chained
    saturation of I is the contraction of I K(u)[X-u].

    Requires u independent for I (the localized basis is not trivial).
    """
    G = I.groebner(localized_vars=u)
    if G.is_trivial():
        raise IdealError("u is not an independent set for I")
    return sort_saturation_coefficients(G.leading_coefficients())


def chained_saturation(
    I: Ideal, cs: Sequence[Polynomial]
) -> Tuple[Ideal, List[Tuple[Polynomial, int]]]:
    """Saturate I by each c in turn, returning the result and the per-step
    (c, exponent) trail."""
    current = I
    steps: List[Tuple[Polynomial, int]] = []
    for c in cs:
        res = saturate(current, c)
        steps.append((c, res.exponent))
        current = res.ideal
    return current, steps


def contract(I: Ideal, u: Iterable[int]) -> Ideal:
    """Contraction of the extension I K(u)[X-u] back to K[X].

    Requires u independent for I (no leading monomial supported inside u).
    Saturates I by saturation_coefficients(I, u), one after the other.
    """
    result, _ = contract_with_trail(I, u)
    return result


def contract_with_trail(
    I: Ideal, u: Iterable[int]
) -> Tuple[Ideal, List[Tuple[Polynomial, int]]]:
    """contract(), but also return the (coefficient, exponent) trail of the
    chained saturation that produced it."""
    return chained_saturation(I, saturation_coefficients(I, u))


def dimension(I: Ideal) -> int:
    """Krull dimension of K[X]/I (-1 for the unit ideal)."""
    G = I.groebner()
    if G.is_trivial():
        return -1
    from .indepsets import minimal_hitting_sets, minimal_supports

    hitters = minimal_hitting_sets(minimal_supports(G.lead_exps()))
    return I.ring.nvars - min(map(len, hitters))


def ideal_sum(I: Ideal, extra: Iterable[Polynomial]) -> Ideal:
    return Ideal(I.ring, list(I.generators) + list(extra))
