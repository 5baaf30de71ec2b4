"""Buchberger's algorithm, reduced Groebner bases, and localized views.

The computation order is always an explicit monomial order on the full
ring.  A *localized* basis for an independent set u is obtained by running
Buchberger under the block order (X minus u) >> u and then minimalising
with respect to leading monomials restricted to X minus u: the resulting
elements form a Groebner basis of the extension ideal in K(u)[X minus u],
with their K[u]-leading coefficients kept as honest ring elements (they are
exactly the c_i used by contraction and the primality certificate).

Selection strategy is normal (smallest lcm first).  S-pairs are pruned by
the Gebauer-Moller update (Gebauer and Moller, *Installation of
Buchberger's algorithm*, JSC 1988; the UPDATE of Becker and Weispfenning,
*Groebner Bases*, 1993), once, when an element h joins the basis: queued
pairs that h covers are dropped (criterion B), the new pairs with h are
kept only if no smaller new lcm divides theirs (criteria M and F) and are
then dropped when coprime, and elements whose leading monomial LM(h)
divides form no further pairs, though they still reduce.  Reduced bases
over a field are unique for a fixed order, which the test-suite exploits
heavily.

Reduction runs on plain ``int`` coefficients, fraction-free, in both
fields.  Each basis element is held as an integer entry (leading
exponents, a, tail): over Q the element's primitive integer multiple with
leading coefficient a > 0, over GF(p) the monic element as residues, a = 1.
Leading data is computed once per element, when its entry is made.
S-polynomials, reduction, interreduction, ``normal_form`` and
``is_groebner_basis`` all read entries; the finished basis is built from
its entries, and its elements are the only field (``Fraction`` or
``ModInt``) polynomials the module makes.  ``_reduce`` pops terms greatest
first from a heap keyed by the order's compiled ``lead_key``, each monomial
pushed once, when it enters the work dict.  A popped term c x^e with a
reducer (lead, a, tail), lead | e, is cancelled by scaling the work dict
by a / gcd(a, c) and subtracting (c / gcd(a, c)) x^(e - lead) tail, the
fraction-free reduction of Singular (Greuel and Pfister, *A Singular
Introduction to Commutative Algebra*); over GF(p) c is taken mod p when it
is popped, so residues grow unreduced until then.  The product of the
scale factors is returned with the remainder, so normal forms stay exact.

Every divisibility test between monomials first tries their support masks
(the short exponent vectors of Singular; Bachmann and Schonemann,
*Monomial representations for Groebner bases computations*, ISSAC 1998).
Bit i of a mask is set iff variable i occurs, so a | b needs
``mask_a & ~mask_b == 0``.  An entry carries the mask of its leading
monomial, made with the entry; a queued pair carries the mask of its lcm,
``mask_i | mask_j``; ``_reduce`` takes the mask of each popped term once.
The reducer's divisor scan, criteria B, M and F, and the ``live`` filter
skip a candidate whose mask test fails, and two elements are coprime iff
``mask_i & mask_j == 0``.  A mask is a prefilter only: a zero
``mask_a & ~mask_b`` decides nothing, ``_divides`` still does, and the
first divisor in basis order is still the one used, so remainders, pair
counts and bases are exactly those of the plain scans.

Normal forms exist for plain bases only; a localized basis raises
``GroebnerError`` for them.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import cache
from itertools import compress
from math import gcd, lcm
from operator import add, le, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .domains import ModInt
from .orders import BLOCK, MonomialOrder, OrderError, block_order, degrevlex_order
from .rings import Polynomial, PolyRing, RingError

Exponents = Tuple[int, ...]


class GroebnerError(ValueError):
    pass


class NotZeroDimensional(GroebnerError):
    """The (localized) quotient is not a finite-dimensional vector space."""


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))


def _lcm_exps(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


@cache
def _bits(nvars: int) -> Tuple[int, ...]:
    """1 << i for each of nvars variables; ``sum(compress(bits, e))`` is the
    support mask of e."""
    return tuple(1 << i for i in range(nvars))


def _support(e: Exponents) -> int:
    """The support mask of e: bit i is set iff e[i] is nonzero.

    If a divides b, the mask of a lies inside the mask of b, so a nonzero
    ``mask_a & ~mask_b`` proves that a does not divide b.  A zero one proves
    nothing: ``_divides`` still decides.
    """
    return sum(compress(_bits(len(e)), e))


# A basis entry is (lead_exps, mask, a, tail): the leading exponents, their
# support mask and the leading coefficient of an integer multiple of a
# nonzero polynomial, and its other terms as a list of (exps, int).  Over Q
# the multiple is the primitive one with a > 0; over GF(p) it is the monic
# polynomial as residues, a = 1.
Entry = Tuple[Exponents, int, int, List[Tuple[Exponents, int]]]


def _integer_terms(f: Polynomial) -> Tuple[Dict[Exponents, int], int]:
    """The integer terms of D times f, and D: over Q the lcm of the
    denominators, over GF(p) 1, with the residues as terms."""
    if f.ring.domain.characteristic:
        return {e: c.value for e, c in f.terms.items()}, 1
    den = lcm(*(c.denominator for c in f.terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in f.terms.items()}, den


def _make_entry(terms: Dict[Exponents, int], lead: Exponents, p: int) -> Entry:
    """The entry of the polynomial with nonzero integer terms ``terms`` and
    leading exponents ``lead``, over GF(p) when p is nonzero."""
    a = terms[lead]
    mask = _support(lead)
    if p:
        inv = pow(a, -1, p)
        return lead, mask, 1, [(e, c * inv % p) for e, c in terms.items() if e != lead]
    g = gcd(*terms.values())
    if a < 0:
        g = -g
    return lead, mask, a // g, [(e, c // g) for e, c in terms.items() if e != lead]


def _poly_entry(f: Polynomial, order: MonomialOrder) -> Entry:
    """The entry of a nonzero polynomial under ``order``."""
    terms = _integer_terms(f)[0]
    return _make_entry(terms, f.leading_data(order)[1], f.ring.domain.characteristic)


def _field_terms(
    terms: Iterable[Tuple[Exponents, int]], den: int, p: int
) -> Dict[Exponents, object]:
    """The terms with coefficients c / den in the field, zeros dropped.

    Over GF(p) den is always 1: entries are monic, so the reducer never
    scales.
    """
    if p:
        return {e: ModInt(c, p) for e, c in terms if c % p}
    return {e: Fraction(c, den) for e, c in terms if c}


def spolynomial(f, g, order: Optional[MonomialOrder] = None):
    """The S-polynomial of f and g.

    For polynomials f and g, with leading terms under ``order``, it is
    returned as a polynomial.  ``buchberger`` and ``is_groebner_basis``
    pass the entries of two basis elements instead and get the integer
    terms that the kernel reduces: lcm(a_f, a_g) times the S-polynomial,
    with residues left unreduced over GF(p).
    """
    if isinstance(f, Polynomial):
        ef, eg = _poly_entry(f, order), _poly_entry(g, order)
        s = spolynomial(ef, eg)
        den = lcm(ef[2], eg[2])
        p = f.ring.domain.characteristic
        return Polynomial(f.ring, _field_terms(s.items(), den, p))
    (lf, _, af, tf), (lg, _, ag, tg) = f, g
    # (a_g/d) x^(m - lf) T_f - (a_f/d) x^(m - lg) T_g, d = gcd(a_f, a_g):
    # the leading terms cancel, so only the tails are shifted
    d = gcd(af, ag)
    cf, cg = ag // d, af // d
    m = _lcm_exps(lf, lg)
    shift = tuple(map(sub, m, lf))
    s = {tuple(map(add, e, shift)): cf * c for e, c in tf}
    shift = tuple(map(sub, m, lg))
    for e, c in tg:
        e = tuple(map(add, e, shift))
        s[e] = s.get(e, 0) - cg * c
    return s


def _reduce(
    work: Dict[Exponents, int],
    basis: Sequence[Entry],
    order: MonomialOrder,
    p: int,
) -> Tuple[Dict[Exponents, int], int]:
    """Full normal form of integer terms against basis entries.

    Returns (remainder, scale): scale times the input, less the remainder,
    lies in the ideal of the basis, and no remainder term is divisible by
    a leading monomial of it.  Over GF(p) (p nonzero) scale is 1 and the
    remainder's coefficients are residues.  ``work`` is consumed.

    Terms are popped greatest first from a heap of ``order.lead_key``
    values.  A monomial is pushed once, when it enters the work dict; a
    term that cancels stays there with coefficient zero until popped, so
    the heap never holds a stale key.  Irreducible terms are retired to the
    remainder, which is therefore built in descending order.
    """
    key = order.lead_key
    heap = [(key(e), e) for e in work]
    heapq.heapify(heap)
    bits = _bits(len(heap[0][1])) if heap else ()
    remainder: Dict[Exponents, int] = {}
    scale = 1
    while heap:
        e = heapq.heappop(heap)[1]
        c = work.pop(e)
        if p:
            c %= p
        if not c:
            continue
        # the variables absent from e: a lead with one of them is no divisor
        out = ~sum(compress(bits, e))
        for lead, mask, a, tail in basis:
            if not mask & out and all(map(le, lead, e)):
                if a != 1:
                    # scale by a/g, so that (c/g) x^shift times the element
                    # cancels the term
                    g = gcd(a, c)
                    m = a // g
                    c //= g
                    if m != 1:
                        scale *= m
                        for t in work:
                            work[t] *= m
                        for t in remainder:
                            remainder[t] *= m
                shift = tuple(map(sub, e, lead))
                for ge, gc in tail:
                    ne = tuple(map(add, ge, shift))
                    s = work.get(ne)
                    if s is None:
                        work[ne] = -c * gc
                        heapq.heappush(heap, (key(ne), ne))
                    else:
                        work[ne] = s - c * gc
                break
        else:
            remainder[e] = c
    return remainder, scale


class GroebnerBasis:
    """A computed Groebner basis, possibly in the localized K(u) view.

    ``order`` is the order requested by the caller; ``computation_order``
    is the actual full-ring order used (a block order when localized).
    The basis is built from its entries under the computation order, as
    ``buchberger`` holds them: ``elements`` are the monic polynomials they
    make, sorted by ascending leading monomial, and the leading data below
    is read from the entries, never recomputed.  Only a plain basis has
    normal forms; a localized one serves its leading data.
    """

    __slots__ = (
        "ring",
        "order",
        "computation_order",
        "elements",
        "localized_vars",
        "_entries",
    )

    def __init__(
        self,
        ring: PolyRing,
        order: MonomialOrder,
        computation_order: MonomialOrder,
        entries: Sequence[Entry],
        localized_vars: Optional[frozenset] = None,
    ):
        one = ring.domain.one
        p = ring.domain.characteristic
        self.ring = ring
        self.order = order
        self.computation_order = computation_order
        self.elements = tuple(
            Polynomial(ring, {lead: one, **_field_terms(tail, a, p)})
            for lead, _, a, tail in entries
        )
        self.localized_vars = localized_vars
        self._entries = entries

    # -- structural views ---------------------------------------------------

    @property
    def rest_vars(self) -> Tuple[int, ...]:
        """The ordered non-localized variable positions (all, if plain)."""
        if self.localized_vars is None:
            return tuple(range(self.ring.nvars))
        return tuple(
            i for i in range(self.ring.nvars) if i not in self.localized_vars
        )

    def lead_exps(self) -> List[Exponents]:
        return [entry[0] for entry in self._entries]

    def localized_lead_exps(self) -> List[Exponents]:
        """Leading exponents restricted to the non-localized variables."""
        rest = self.rest_vars
        return [tuple(e[i] for i in rest) for e in self.lead_exps()]

    def leading_coefficients(self) -> Tuple[Polynomial, ...]:
        """Per element, the K[u]-coefficient of its localized leading monomial.

        For a plain basis these are all 1 (elements are monic).
        """
        if self.localized_vars is None:
            return tuple(self.ring.one for _ in self.elements)
        rest = self.rest_vars
        out = []
        for g, lm in zip(self.elements, self.lead_exps()):
            proj = tuple(lm[i] for i in rest)
            coeff_terms = {}
            for exps, c in g.terms.items():
                if tuple(exps[i] for i in rest) == proj:
                    coeff_terms[
                        tuple(e if i in self.localized_vars else 0
                              for i, e in enumerate(exps))
                    ] = c
            out.append(Polynomial(self.ring, coeff_terms))
        return tuple(out)

    # -- membership ----------------------------------------------------------

    def normal_form(self, f: Polynomial) -> Polynomial:
        """The full normal form of f against a plain basis.

        Raises GroebnerError for a localized basis, whose elements reduce
        only over K(u).
        """
        if f.ring != self.ring:
            raise RingError("polynomial from a different ring")
        if self.localized_vars is not None:
            raise GroebnerError("a localized basis has no normal forms")
        p = self.ring.domain.characteristic
        terms, den = _integer_terms(f)
        r, scale = _reduce(terms, self._entries, self.computation_order, p)
        return Polynomial(self.ring, _field_terms(r.items(), den * scale, p))

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def is_trivial(self) -> bool:
        """True iff the (localized) ideal is the unit ideal."""
        return any(all(e == 0 for e in proj) for proj in self.localized_lead_exps())

    # -- dimension ------------------------------------------------------------

    def vector_space_dimension(self) -> int:
        """dim_K of the quotient (localized: dim over K(u)); raises
        NotZeroDimensional when infinite."""
        projs = self.localized_lead_exps()
        if any(all(e == 0 for e in p) for p in projs):
            return 0
        nrel = len(self.rest_vars)
        return _staircase_count(projs, nrel)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


def _staircase_count(lead_projs: List[Exponents], nrel: int) -> int:
    """Number of monomials in nrel variables outside the staircase."""
    if nrel == 0:
        return 1
    minimal: List[Exponents] = []
    for p in sorted(set(lead_projs), key=sum):
        if not any(_divides(q, p) for q in minimal):
            minimal.append(p)
    bounds = [None] * nrel
    for p in minimal:
        support = [i for i, e in enumerate(p) if e]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or p[i] < bounds[i]:
                bounds[i] = p[i]
    if any(b is None for b in bounds):
        raise NotZeroDimensional("no pure power for some variable")
    maxvar = [max((i for i, e in enumerate(p) if e), default=-1) for p in minimal]

    def rec(pos: int, active: List[int], chosen: List[int]) -> int:
        if pos == nrel:
            return 1
        total = 0
        for e in range(bounds[pos]):
            chosen.append(e)
            nxt = []
            blocked = False
            for j in active:
                if minimal[j][pos] <= e:
                    if maxvar[j] <= pos:
                        blocked = True
                        break
                    nxt.append(j)
            if blocked:
                chosen.pop()
                break
            total += rec(pos + 1, nxt, chosen)
            chosen.pop()
        return total

    return rec(0, list(range(len(minimal))), [])


def _interreduce(entries: List[Entry], order: MonomialOrder, p: int) -> None:
    """Tail-reduce the entries of a minimal basis in place, which makes it
    the reduced basis.

    Leading monomials of a minimal basis divide one another nowhere and
    never change here, and no tail term is divisible by its own leading
    monomial.  So one pass, each tail reduced against all entries, leaves
    no tail term divisible by any leading monomial.
    """
    for i, (lead, _, a, tail) in enumerate(entries):
        # scale (a x^lead + tail) = scale a x^lead + r modulo the ideal
        r, scale = _reduce(dict(tail), entries, order, p)
        entries[i] = _make_entry({lead: a * scale, **r}, lead, p)


def buchberger(
    gens: Sequence[Polynomial],
    order: Optional[MonomialOrder] = None,
    localized_vars: Optional[Iterable[int]] = None,
) -> GroebnerBasis:
    """Compute a reduced Groebner basis (minimal localized basis when
    ``localized_vars`` is given).

    ``order`` defaults to degrevlex.  With ``localized_vars`` it must be a
    plain lex/degrevlex kind; the computation order becomes the block order
    (rest, kind) >> (u, kind).
    """
    if order is None:
        order = degrevlex_order()
    gens = [g for g in gens if g is not None]
    if not gens:
        raise GroebnerError("no generators")
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise RingError("generators from different rings")
    order.validate(ring.nvars)
    # localizing at no variable is no localization
    loc = frozenset(localized_vars or ()) or None
    if loc is not None:
        bad = [i for i in loc if not 0 <= i < ring.nvars]
        if bad:
            raise GroebnerError(f"localized variable index {bad[0]} out of range")
        if order.kind == BLOCK:
            raise OrderError("localized bases take a plain lex/degrevlex order")
        rest = tuple(i for i in range(ring.nvars) if i not in loc)
        if not rest:
            raise GroebnerError("cannot localize at every variable")
        comp_order = block_order([(rest, order.kind), (tuple(sorted(loc)), order.kind)])
    else:
        comp_order = order

    work = [g for g in gens if not g.is_zero()]
    if not work:
        return GroebnerBasis(ring, order, comp_order, (), loc)

    key = comp_order.key
    p = ring.domain.characteristic
    entries: List[Entry] = []
    # the leading exponents of the entries and their support masks
    lead: List[Exponents] = []
    masks: List[int] = []
    # elements whose leading monomial no later leading monomial divides;
    # only these form new pairs
    live: List[int] = []
    # queued pairs (i, j), i < j, and their lcms with the lcms' masks; the
    # heap orders them by lcm and skips a pair once it has left the dict
    pairs: Dict[Tuple[int, int], Tuple[Exponents, int]] = {}
    heap: List[tuple] = []

    def add_poly(entry: Entry) -> None:
        """Append an element and update the pairs (Gebauer-Moller)."""
        lm, lmask = entry[0], entry[1]
        j = len(entries)
        entries.append(entry)
        lead.append(lm)
        masks.append(lmask)
        # criterion B: lm divides lcm(i, k), but neither lcm(i, j) nor
        # lcm(k, j) equals it, so (i, j) and (k, j) cover the pair
        for (i, k), (m, mask) in list(pairs.items()):
            if (not lmask & ~mask and _divides(lm, m)
                    and _lcm_exps(lead[i], lm) != m
                    and _lcm_exps(lead[k], lm) != m):
                del pairs[i, k]
        # criteria M and F: by ascending degree, coprime pairs first, keep
        # a new pair only if no kept lcm divides its lcm; then drop the
        # coprime pairs, whose S-polynomials reduce to zero
        new = []
        for i in live:
            m = _lcm_exps(lead[i], lm)
            new.append((sum(m), bool(masks[i] & lmask), i, m))
        new.sort()
        kept: List[Tuple[Exponents, int]] = []
        for _, shared, i, m in new:
            mask = masks[i] | lmask
            out = ~mask
            for k, kmask in kept:
                if not kmask & out and _divides(k, m):
                    break
            else:
                kept.append((m, mask))
                if shared:
                    pairs[i, j] = m, mask
                    heapq.heappush(heap, (key(m), i, j))
        live[:] = [i for i in live
                   if lmask & ~masks[i] or not _divides(lm, lead[i])]
        live.append(j)

    for entry in sorted((_poly_entry(g, comp_order) for g in work),
                        key=lambda entry: key(entry[0])):
        add_poly(entry)

    while heap:
        _, i, j = heapq.heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue
        r, _ = _reduce(spolynomial(entries[i], entries[j]), entries, comp_order, p)
        if r:
            # the remainder is built greatest term first
            add_poly(_make_entry(r, next(iter(r)), p))

    # minimalise: drop elements whose lead is divisible by another lead
    idxs = sorted(range(len(entries)), key=lambda i: key(lead[i]))
    kept: List[int] = []
    for i in idxs:
        out = ~masks[i]
        if not any(not masks[k] & out and _divides(lead[k], lead[i])
                   for k in kept):
            kept.append(i)
    reduced_entries = [entries[i] for i in kept]
    _interreduce(reduced_entries, comp_order, p)

    if loc is None:
        return GroebnerBasis(ring, order, comp_order, reduced_entries)

    # localized minimalisation: keep elements whose leading monomial
    # restricted to the rest block is not divisible by a kept one.
    def inner_key(entry: Entry) -> tuple:
        lead = entry[0]
        return key(tuple(0 if i in loc else e for i, e in enumerate(lead))), key(lead)

    kept_projs: List[Exponents] = []
    chosen: List[Entry] = []
    for entry in sorted(reduced_entries, key=inner_key):
        proj = tuple(entry[0][i] for i in rest)
        if not any(_divides(kp, proj) for kp in kept_projs):
            kept_projs.append(proj)
            chosen.append(entry)
    return GroebnerBasis(ring, order, comp_order, chosen, loc)


def is_groebner_basis(
    elements: Sequence[Polynomial], order: MonomialOrder
) -> bool:
    """Postcondition check: every S-polynomial reduces to zero (no pruning)."""
    elems = [g for g in elements if not g.is_zero()]
    if not elems:
        return True
    p = elems[0].ring.domain.characteristic
    entries = [_poly_entry(g, order) for g in elems]
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            if _reduce(spolynomial(entries[i], entries[j]), entries, order, p)[0]:
                return False
    return True
