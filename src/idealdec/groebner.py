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

Leading data is computed once per basis element: ``buchberger`` keeps, next
to each monic element, an entry (leading exponents, tail terms) that
S-polynomials, reduction and interreduction all read, and the finished
basis is built from the entries of its elements, which its leading-data
views and ``normal_form`` read.  Normal forms exist for plain bases only;
a localized basis raises ``GroebnerError`` for them.  ``_reduce_full`` pops
terms greatest first from a heap keyed by the order's compiled
``lead_key``; each monomial is pushed once, when it enters the work dict.
Over GF(p) the same code runs on ``ModInt`` coefficients.
"""

from __future__ import annotations

import heapq
from operator import add, le, sub
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


# A basis entry is (lead_exps, tail): the leading exponents of a nonzero
# polynomial and its other terms divided by the leading coefficient, as a
# list of (exps, coeff).  Entries are built once per element and order.
Entry = Tuple[Exponents, List[Tuple[Exponents, object]]]


def _entry(p: Polynomial, order: MonomialOrder) -> Entry:
    lc, lead = p.leading_data(order)
    tail = [(e, c) for e, c in p.terms.items() if e != lead]
    if lc != p.ring.domain.one:
        tail = [(e, c / lc) for e, c in tail]
    return lead, tail


def spolynomial(
    f: Polynomial,
    g: Polynomial,
    order: MonomialOrder,
    entries: Optional[Tuple[Entry, Entry]] = None,
) -> Polynomial:
    """The S-polynomial of f and g with respect to ``order``.

    ``entries`` are the cached basis entries of f and g, when the caller
    holds them; otherwise they are computed here.
    """
    if entries is None:
        entries = (_entry(f, order), _entry(g, order))
    (ef, tf), (eg, tg) = entries
    lcm = _lcm_exps(ef, eg)

    def shifted_tail(lead, tail):
        m = tuple(map(sub, lcm, lead))
        return Polynomial(f.ring, {tuple(map(add, e, m)): c for e, c in tail})

    # the monic leading terms cancel, so only the tails are shifted
    return shifted_tail(ef, tf) - shifted_tail(eg, tg)


def _reduce_full(
    terms: Dict[Exponents, object],
    basis: Sequence[Entry],
    order: MonomialOrder,
) -> Dict[Exponents, object]:
    """Full normal form of a term dict against basis entries.

    Terms are popped greatest first from a heap of ``order.lead_key``
    values.  A monomial is pushed once, when it enters the work dict; a
    term that cancels stays there with coefficient zero until popped, so
    the heap never holds a stale key.  Irreducible terms are retired to the
    remainder, which is therefore built in descending order.
    """
    key = order.lead_key
    work = dict(terms)
    heap = [(key(e), e) for e in work]
    heapq.heapify(heap)
    remainder: Dict[Exponents, object] = {}
    while heap:
        e = heapq.heappop(heap)[1]
        c = work.pop(e)
        if not c:
            continue
        for lead, tail in basis:
            if all(map(le, lead, e)):
                shift = tuple(map(sub, e, lead))
                for ge, gc in tail:
                    ne = tuple(map(add, ge, shift))
                    s = work.get(ne)
                    if s is None:
                        work[ne] = -(c * gc)
                        heapq.heappush(heap, (key(ne), ne))
                    else:
                        work[ne] = s - c * gc
                break
        else:
            remainder[e] = c
    return remainder


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
        self.ring = ring
        self.order = order
        self.computation_order = computation_order
        self.elements = tuple(
            Polynomial(ring, dict([(lead, one), *tail])) for lead, tail in entries
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
        return [lead for lead, _ in self._entries]

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
        for g, le in zip(self.elements, self.lead_exps()):
            proj = tuple(le[i] for i in rest)
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
        terms = _reduce_full(f.terms, self._entries, self.computation_order)
        return Polynomial(self.ring, terms)

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


def _interreduce(entries: List[Entry], order: MonomialOrder) -> None:
    """Tail-reduce the entries of a minimal basis in place, which makes it
    the reduced basis.

    Leading monomials of a minimal basis divide one another nowhere and
    never change here, and no tail term is divisible by its own leading
    monomial.  So one pass, each tail reduced against all entries, leaves
    no tail term divisible by any leading monomial.
    """
    for i, (lead, tail) in enumerate(entries):
        entries[i] = (lead, list(_reduce_full(dict(tail), entries, order).items()))


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
    loc = frozenset(localized_vars) if localized_vars is not None else None
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
    one = ring.domain.one
    basis: List[Polynomial] = []
    entries: List[Entry] = []
    lead: List[Exponents] = []
    # elements whose leading monomial no later leading monomial divides;
    # only these form new pairs
    live: List[int] = []
    # queued pairs (i, j), i < j, and their lcms; the heap orders them by
    # lcm and skips a pair once it has left the dict
    pairs: Dict[Tuple[int, int], Exponents] = {}
    heap: List[tuple] = []

    def add_poly(terms: Dict[Exponents, object], le: Exponents) -> None:
        """Append an element and update the pairs (Gebauer-Moller)."""
        lc = terms[le]
        if lc != one:
            terms = {e: c / lc for e, c in terms.items()}
        j = len(basis)
        basis.append(Polynomial(ring, terms))
        entries.append((le, [t for t in terms.items() if t[0] != le]))
        lead.append(le)
        # criterion B: le divides lcm(i, k), but neither lcm(i, j) nor
        # lcm(k, j) equals it, so (i, j) and (k, j) cover the pair
        for (i, k), lcm in list(pairs.items()):
            if (_divides(le, lcm) and _lcm_exps(lead[i], le) != lcm
                    and _lcm_exps(lead[k], le) != lcm):
                del pairs[i, k]
        # criteria M and F: by ascending degree, coprime pairs first, keep
        # a new pair only if no kept lcm divides its lcm; then drop the
        # coprime pairs, whose S-polynomials reduce to zero
        new = []
        for i in live:
            lcm = _lcm_exps(lead[i], le)
            new.append((sum(lcm), any(map(min, lead[i], le)), i, lcm))
        new.sort()
        kept: List[Exponents] = []
        for _, shared, i, lcm in new:
            if not any(_divides(m, lcm) for m in kept):
                kept.append(lcm)
                if shared:
                    pairs[i, j] = lcm
                    heapq.heappush(heap, (key(lcm), i, j))
        live[:] = [i for i in live if not _divides(le, lead[i])]
        live.append(j)

    leads = [g.leading_data(comp_order)[1] for g in work]
    for i in sorted(range(len(work)), key=lambda i: key(leads[i])):
        add_poly(work[i].terms, leads[i])

    while heap:
        _, i, j = heapq.heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue
        s = spolynomial(basis[i], basis[j], comp_order, (entries[i], entries[j]))
        if s.is_zero():
            continue
        r = _reduce_full(s.terms, entries, comp_order)
        if r:
            # the remainder is built greatest term first
            add_poly(r, next(iter(r)))

    # minimalise: drop elements whose lead is divisible by another lead
    idxs = sorted(range(len(basis)), key=lambda i: key(lead[i]))
    kept: List[int] = []
    for i in idxs:
        if not any(_divides(lead[k], lead[i]) for k in kept):
            kept.append(i)
    reduced_entries = [entries[i] for i in kept]
    _interreduce(reduced_entries, comp_order)

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
    entries = [_entry(g, order) for g in elems]
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            s = spolynomial(elems[i], elems[j], order, (entries[i], entries[j]))
            if s.is_zero():
                continue
            if _reduce_full(s.terms, entries, order):
                return False
    return True
