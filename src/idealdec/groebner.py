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
divides form no further pairs, though they still reduce.  The lcm of
LM(h) with each element still forming pairs is computed once per
insertion, inline, and both criteria read it; the same loop finds the
elements LM(h) divides, those whose lcm with it is their own leading
monomial.  Criterion B visits only the queued pairs whose lcm LM(h)
divides, and computes the lcm with an element no longer forming pairs at
most once per insertion.  Criteria M and F take the new pairs sorted as
single ints that encode (lcm degree, shares a variable, index).  When
every input is a monomial, every S-polynomial is zero and there is no tail
to reduce, so no pair is formed: the minimal generators, made monic, are
the reduced basis.  Reduced bases over a field are unique for a fixed order,
which the test-suite exploits heavily.

Inside the kernel a monomial is one packed int, ``C = K << n*W | M``, in
fields of W bits whose top bit is a guard (Monagan and Pearce, *Sparse
polynomial division using a heap*, JSC 2011; Bachmann and Schonemann,
*Monomial representations for Groebner bases computations*, ISSAC 1998).
M holds the total degree in field 0 and the n exponents in fields 1..n;
K holds the n rows of the order's key (see ``orders``), leading row on
top.  Every field is linear in the exponents and no field exceeds the
total degree, so while the degree stays below 2^(W-1):

* multiplying monomials is ``+`` and dividing is ``-``;
* comparing them in the order is ``<``, and the int is its own dict and
  heap key;
* a divides b iff ``(C_b - C_a) & G == 0``, G the guard bits of M: a field
  of b less than a's borrows into its own guard bit;
* ``(M_a | G) - M_b`` keeps the guard of each field where a >= b, and those
  guards select the lcm's fields from a or b; the lcm's degree is the sum
  of its exponent fields, ``M % (2**W - 1)``;
* a and b are coprime iff the degree of their lcm is the sum of theirs.

The layout of M is chosen per order so that K follows from M with a mask
and one product per degrevlex block (the product by 1 + 2^W + 2^2W + ...
makes prefix sums), so the key of an lcm costs a few int operations and is
built only for pairs that criteria M and F keep.  A leading monomial
restricted to some of the variables is M masked to their fields, with its
degree summed again (``restrict``).

W is a whole number of bytes, 8, 16, 32 or 64, the least whose W - 1 value
bits hold twice the largest input degree.  A new monomial whose degree
reaches the guard bit raises ``_Overflow``, and the computation starts
again at twice the width (``_widening``).  Past 64 bits, for a degree of
2^62 in the input or 2^63 in the computation, it raises ``GroebnerError``.
Whole-byte fields make ``unpack`` one pass in C: ``int.to_bytes`` in the
machine's byte order, a ``memoryview`` cast to W-bit items (at W = 8 the
bytes themselves), and one ``itemgetter`` of the exponent fields' items:
field f is item f little-endian and item 2n - f big-endian.  One packing
is cached per (order, number of variables, width).

Reduction runs on plain ``int`` coefficients, fraction-free, in both
fields.  Each basis element is held as an integer entry (packed leading
monomial, a, tail): over Q the element's primitive integer multiple with
leading coefficient a > 0, over GF(p) the monic element as residues, a = 1.
S-polynomials, reduction, interreduction, normal forms, membership and
``is_groebner_basis`` all read entries.  A plain basis keeps the minimal
entries Buchberger left and interreduces them as they are read:
``element(k)`` tail-reduces entry k against all entries the first time it
is read, and ``elements``, ``normal_form`` and ``exponent`` first make one
ascending pass over the entries not yet reduced.  The reduced basis is
unique, so the order in which its entries are reduced changes nothing.
An element's field (``Fraction`` or ``ModInt``) polynomial is built only
when it is read: ``element(k)`` builds one, ``elements`` all of them on
first access.  Many bases are read only for their leading monomials or
for membership, and ``eliminate`` reads, and so reduces, only the
elements it keeps.  ``exponent`` tests membership, and finds the least m
with h^m f in the ideal, on packed integer terms alone: it reduces each
f, multiplies the nonzero remainders by the integer multiple of h and
reduces again, and builds no field element.

``_reduce`` pops terms greatest first from a heap of negated packed
monomials, each monomial pushed once, when it enters the work dict.  A
popped term c x^e with a reducer (lead, a, tail), lead | e, is cancelled
by scaling the work dict by a / gcd(a, c) and subtracting (c / gcd(a, c))
x^(e - lead) tail, the fraction-free reduction of Singular (Greuel and
Pfister, *A Singular Introduction to Commutative Algebra*); over GF(p) c
is taken mod p when it is popped, so residues grow unreduced until then.
The product of the scale factors is returned with the remainder, so
normal forms stay exact.  The first divisor in basis order is the one
used.  A divisor of a monomial is never greater than it, and packed
monomials compare in the order, so against a basis sorted by ascending
leading monomial (interreduction, ``normal_form`` and
``is_groebner_basis``) a term scans only the entries whose leading
monomial is at most the term, found by bisection once per term.
Buchberger's own reductions run against the basis in insertion order and
scan every entry.  A term that overflows the fields while a basis is read
packs its entries again at twice the width.

Normal forms and membership exist for plain bases only; a localized basis
raises ``GroebnerError`` for them, and is interreduced whole when it is
made, as its leading coefficients and its restricted minimalisation read
the reduced basis.
"""

from __future__ import annotations

import heapq
import sys
from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import chain, islice, repeat
from math import gcd, lcm
from operator import and_, itemgetter, le, mul, or_, sub
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .domains import ModInt
from .orders import BLOCK, LEX, MonomialOrder, OrderError, block_order, degrevlex_order
from .rings import Polynomial, PolyRing, RingError

Exponents = Tuple[int, ...]


class GroebnerError(ValueError):
    pass


class NotZeroDimensional(GroebnerError):
    """The (localized) quotient is not a finite-dimensional vector space."""


class _Overflow(Exception):
    """A new monomial's degree reached the guard bit of its field."""


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(map(le, a, b))


# The field widths, whole bytes, and the memoryview format that reads a
# field of each as one native item; 8-bit fields are the bytes themselves.
_CASTS = {8: None, 16: "H", 32: "I", 64: "Q"}


class _Packing:
    """Packed monomials of one order on n variables at field width W."""

    __slots__ = ("width", "field", "overflow", "guards", "exps", "mpart",
                 "kshift", "lexrows", "blocks", "shifts", "units", "nbytes",
                 "cast", "fields")

    def __init__(self, order: MonomialOrder, nvars: int, width: int):
        w = self.width = width
        field = self.field = (1 << w) - 1
        self.overflow = 1 << (w - 1)
        self.guards = sum(1 << (w - 1) << f * w for f in range(nvars + 1))
        self.mpart = (1 << (nvars + 1) * w) - 1
        self.exps = self.mpart - field
        self.kshift = nvars * w
        # the blocks fill fields n, n-1, ... of M, leading block on top; a
        # lex block puts its first variable on top, so its rows are its own
        # fields, and a degrevlex block puts it at the bottom, so its rows
        # are the prefix sums of its fields, the longest on top
        pos = [0] * nvars
        top = nvars + 1
        lexrows = 0
        blocks = []
        for idxs, inner in order.parts(nvars):
            base = top - len(idxs)
            top = base
            seg = sum(field << f * w for f in range(base, base + len(idxs)))
            if inner == LEX:
                for k, v in enumerate(reversed(idxs)):
                    pos[v] = base + k
                lexrows |= seg
            else:
                for k, v in enumerate(idxs):
                    pos[v] = base + k
                blocks.append((seg, sum(1 << k * w for k in range(len(idxs)))))
        self.lexrows = lexrows
        self.blocks = tuple(blocks)
        self.shifts = tuple(f * w for f in pos)
        self.units = tuple(self.from_m(1 | 1 << s) for s in self.shifts)
        # unpack reads the 2n + 1 fields of a packed int as the items of its
        # bytes in the machine's byte order, cast to W-bit items: field f is
        # item f little-endian, item 2n - f big-endian
        self.nbytes = (2 * nvars + 1) * w // 8
        self.cast = _CASTS[w]
        if sys.byteorder == "big":
            pos = [2 * nvars - f for f in pos]
        get = itemgetter(*pos)
        # an itemgetter of one position returns the item, not a tuple
        self.fields = get if nvars > 1 else lambda items: (get(items),)

    def from_m(self, m: int) -> int:
        """The packed monomial whose M part is m."""
        k = m & self.lexrows
        for seg, prefix in self.blocks:
            k |= (m & seg) * prefix & seg
        return k << self.kshift | m

    def pack(self, e: Exponents) -> int:
        """The packed monomial x^e; its degree must lie below 2^(W-1)."""
        return sum(map(mul, e, self.units))

    def unpack(self, c: int) -> Exponents:
        """The exponents of the packed monomial c, read from its bytes."""
        raw = c.to_bytes(self.nbytes, sys.byteorder)
        return self.fields(memoryview(raw).cast(self.cast) if self.cast else raw)

    def mask(self, variables: Iterable[int]) -> int:
        """The exponent fields of ``variables`` in M."""
        return sum(self.field << self.shifts[v] for v in variables)

    def restrict(self, c: int, mask: int) -> int:
        """The packed monomial of c with the exponents outside the fields of
        ``mask`` set to zero: M masked, its degree summed again."""
        m = c & mask
        return self.from_m(m | m % self.field)

    def lcm(self, a: int, b: int) -> int:
        """The M part of lcm(a, b), from packed monomials or their M parts."""
        guards = self.guards
        t = ((a | guards) - b) & guards
        # the value bits of the exponent fields where a >= b
        take = (t - (t >> self.width - 1)) & self.exps
        m = (b ^ (a ^ b) & take) & self.exps
        degree = m % self.field
        if degree & self.overflow:
            raise _Overflow
        return m | degree


_packing = lru_cache(maxsize=256)(_Packing)


def _width(monomials: Iterable[Exponents]) -> int:
    """The first field width: the least of 8, 16, 32 and 64 bits whose W - 1
    value bits hold twice the largest degree of ``monomials``."""
    bits = max(map(sum, monomials), default=0).bit_length() + 2
    return max(8, 1 << (bits - 1).bit_length())


def _widening(order: MonomialOrder, nvars: int, width: int,
              run: Callable[[_Packing], object]):
    """run(packing) at ``width``, or at twice the width each time a new
    monomial overflows its fields; GroebnerError past 64-bit fields."""
    while width in _CASTS:
        try:
            return run(_packing(order, nvars, width))
        except _Overflow:
            width *= 2
    raise GroebnerError("a degree of 2^62 or more: past 64-bit exponent fields")


# A basis entry is (lead, a, tail): the packed leading monomial and the
# leading coefficient of an integer multiple of a nonzero polynomial, and
# its other terms as a list of (packed monomial, int).  Over Q the multiple
# is the primitive one with a > 0; over GF(p) it is the monic polynomial as
# residues, a = 1.
Entry = Tuple[int, int, List[Tuple[int, int]]]


def _packed_terms(f: Polynomial, packing: _Packing) -> Tuple[Dict[int, int], int]:
    """The integer terms of D times f, with packed monomials, and D: over Q
    the lcm of the denominators, over GF(p) 1, with the residues as terms."""
    pack = packing.pack
    if f.ring.domain.characteristic:
        return {pack(e): c.value for e, c in f.terms.items()}, 1
    den = lcm(*(c.denominator for c in f.terms.values()))
    return {pack(e): c.numerator * (den // c.denominator)
            for e, c in f.terms.items()}, den


def _make_entry(terms: Dict[int, int], lead: int, p: int) -> Entry:
    """The entry of the polynomial with nonzero integer terms ``terms`` and
    packed leading monomial ``lead``, over GF(p) when p is nonzero."""
    a = terms[lead]
    if p:
        inv = pow(a, -1, p)
        return lead, 1, [(e, c * inv % p) for e, c in terms.items() if e != lead]
    g = gcd(*terms.values())
    if a < 0:
        g = -g
    return lead, a // g, [(e, c // g) for e, c in terms.items() if e != lead]


def _poly_entry(f: Polynomial, packing: _Packing) -> Entry:
    """The entry of a nonzero polynomial under the packing's order."""
    terms = _packed_terms(f, packing)[0]
    return _make_entry(terms, max(terms), f.ring.domain.characteristic)


def _field_terms(
    terms: Iterable[Tuple[int, int]], den: int, p: int, packing: _Packing
) -> Dict[Exponents, object]:
    """The packed integer terms as exponents with coefficients c / den in
    the field, zeros dropped.

    Over GF(p) den is always 1: entries are monic, so the reducer never
    scales.
    """
    unpack = packing.unpack
    if p:
        return {unpack(e): ModInt(c, p) for e, c in terms if c % p}
    return {unpack(e): Fraction(c, den) for e, c in terms if c}


def _checked_order(polys: Sequence[Polynomial],
                   order: Optional[MonomialOrder]) -> MonomialOrder:
    """``order``, degrevlex when None, once the polynomials are checked to
    share one ring and the order to cover it."""
    ring = polys[0].ring
    if any(g.ring != ring for g in polys):
        raise RingError("polynomials from different rings")
    if order is None:
        order = degrevlex_order()
    order.validate(ring.nvars)
    return order


def spolynomial(f, g, order=None, m=None):
    """The S-polynomial of f and g.

    For nonzero polynomials f and g of one ring, with leading terms under
    the monomial order ``order`` (degrevlex when None), it is returned as a
    polynomial.  ``buchberger`` and ``is_groebner_basis`` pass the entries
    of two basis elements and their packing instead and get the integer
    terms that the kernel reduces: lcm(a_f, a_g) times the S-polynomial,
    with residues left unreduced over GF(p).  On entries, ``m`` is the
    packed lcm of their leading monomials, computed here when None;
    ``buchberger`` passes its pair's heap key.
    """
    if isinstance(f, Polynomial):
        order = _checked_order((f, g), order)
        if f.is_zero() or g.is_zero():
            raise GroebnerError("the S-polynomial of a zero polynomial")
        p = f.ring.domain.characteristic

        def run(packing):
            ef, eg = _poly_entry(f, packing), _poly_entry(g, packing)
            return packing, spolynomial(ef, eg, packing), lcm(ef[1], eg[1])

        packing, s, den = _widening(order, f.ring.nvars,
                                    _width(chain(f.terms, g.terms)), run)
        return Polynomial(f.ring, _field_terms(s.items(), den, p, packing))
    (lf, af, tf), (lg, ag, tg) = f, g
    # (a_g/d) x^(m - lf) T_f - (a_f/d) x^(m - lg) T_g, d = gcd(a_f, a_g):
    # the leading terms cancel, so only the tails are shifted
    d = gcd(af, ag)
    cf, cg = ag // d, af // d
    if m is None:
        m = order.from_m(order.lcm(lf, lg))
    shift = m - lf
    s = {e + shift: cf * c for e, c in tf}
    shift = m - lg
    for e, c in tg:
        e += shift
        s[e] = s.get(e, 0) - cg * c
    if reduce(or_, s, 0) & order.overflow:
        raise _Overflow
    return s


def _reduce(
    work: Dict[int, int],
    basis: Sequence[Entry],
    packing: _Packing,
    p: int,
    leads: Optional[Sequence[int]] = None,
) -> Tuple[Dict[int, int], int]:
    """Full normal form of packed integer terms against basis entries.

    Returns (remainder, scale): scale times the input, less the remainder,
    lies in the ideal of the basis, and no remainder term is divisible by
    a leading monomial of it.  Over GF(p) (p nonzero) scale is 1 and the
    remainder's coefficients are residues.  ``work`` is consumed.

    ``leads``, when given, are the packed leading monomials of a basis
    sorted by ascending leading monomial: a divisor of a term is never
    greater than it, so only the entries up to the term's place among them
    are scanned.  Without it the basis may be in any order, and a term
    scans every entry.

    Terms are popped greatest first from a heap of negated packed
    monomials.  A monomial is pushed once, when it enters the work dict; a
    term that cancels stays there with coefficient zero until popped, so
    the heap never holds a stale key.  Irreducible terms are retired to the
    remainder, which is therefore built in descending order.
    """
    guards, overflow = packing.guards, packing.overflow
    heap = [-e for e in work]
    heapq.heapify(heap)
    remainder: Dict[int, int] = {}
    scale = 1
    while heap:
        e = -heapq.heappop(heap)
        c = work.pop(e)
        if p:
            c %= p
        if not c:
            continue
        for lead, a, tail in (basis if leads is None
                              else islice(basis, bisect_right(leads, e))):
            shift = e - lead
            if shift & guards:
                continue
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
            for ge, gc in tail:
                ne = ge + shift
                s = work.get(ne)
                if s is None:
                    if ne & overflow:
                        raise _Overflow
                    work[ne] = -c * gc
                    heapq.heappush(heap, -ne)
                else:
                    work[ne] = s - c * gc
            break
        else:
            remainder[e] = c
    return remainder, scale


class GroebnerBasis:
    """A computed Groebner basis, possibly in the localized K(u) view.

    ``computation_order`` is the full-ring order used: the requested one,
    or, when localized, the block order built from it with u last.  The
    basis is built from its entries under that order and the packing they
    were made with, as ``buchberger`` holds them, sorted by ascending
    leading monomial.  The leading exponents are unpacked once, here.

    A plain basis gets the minimal entries and interreduces them on read:
    ``element(k)`` tail-reduces entry k the first time it is read and
    builds its monic polynomial, and ``elements``, ``normal_form`` and
    ``exponent`` first tail-reduce, in one ascending pass, every entry
    still as Buchberger left it.  ``elements`` is built on first access.  A
    localized basis gets its entries reduced and serves its leading data;
    only a plain one has normal forms and membership.
    """

    __slots__ = (
        "ring",
        "computation_order",
        "localized_vars",
        "_entries",
        "_packing",
        "_packed_leads",
        "_leads",
        "_raw",
        "_elements",
    )

    def __init__(
        self,
        ring: PolyRing,
        computation_order: MonomialOrder,
        entries: Sequence[Entry],
        localized_vars: Optional[frozenset] = None,
        packing: Optional[_Packing] = None,
    ):
        self.ring = ring
        self.computation_order = computation_order
        self._packed_leads = [entry[0] for entry in entries]
        self._leads = [packing.unpack(lead) for lead in self._packed_leads]
        self.localized_vars = localized_vars
        self._entries = list(entries)
        self._packing = packing
        # the entries with a tail not yet reduced; a monomial has none
        self._raw = set() if localized_vars is not None else {
            k for k, entry in enumerate(entries) if entry[2]}
        self._elements: Optional[Tuple[Polynomial, ...]] = None

    def _run(self, width: int, reads: Optional[Sequence[int]],
             work: Optional[Callable[[_Packing], object]] = None):
        """work(packing), if given, once the entries ``reads``, all when
        None, are tail-reduced, at the basis's packing or, if ``width`` or
        an overflow asks for more, at a wider one, for which the entries
        are packed again."""
        p = self.ring.domain.characteristic

        def run(packing):
            if packing is not self._packing:
                self._repack(packing)
            raw = self._raw
            if raw:
                todo = sorted(raw) if reads is None else [k for k in reads if k in raw]
                _interreduce(self._entries, self._packed_leads, todo, packing, p)
                raw.difference_update(todo)
            return work(packing) if work else None

        if self._packing is not None:
            width = max(width, self._packing.width)
        return _widening(self.computation_order, self.ring.nvars, width, run)

    def _repack(self, packing: _Packing) -> None:
        """Hold the entries at ``packing``, a wider one of the same order."""
        if self._entries:
            pack, unpack = packing.pack, self._packing.unpack
            self._entries = [
                (pack(unpack(lead)), a, [(pack(unpack(e)), c) for e, c in tail])
                for lead, a, tail in self._entries]
            self._packed_leads = [entry[0] for entry in self._entries]
        self._packing = packing

    @property
    def elements(self) -> Tuple[Polynomial, ...]:
        """The monic basis polynomials, by ascending leading monomial."""
        if self._elements is None:
            if self._raw:
                self._run(0, None)
            self._elements = tuple(map(self.element, range(len(self._entries))))
        return self._elements

    def element(self, k: int) -> Polynomial:
        """The k-th monic basis polynomial."""
        if self._elements is not None:
            return self._elements[k]
        k = range(len(self._entries))[k]
        if k in self._raw:
            self._run(0, (k,))
        _, a, tail = self._entries[k]
        ring = self.ring
        terms = _field_terms(tail, a, ring.domain.characteristic, self._packing)
        return Polynomial(ring, {self._leads[k]: ring.domain.one, **terms})

    # -- structural views ---------------------------------------------------

    @property
    def rest_vars(self) -> Tuple[int, ...]:
        """The ordered non-localized variable positions (all, if plain)."""
        loc = self.localized_vars or ()
        return tuple(i for i in range(self.ring.nvars) if i not in loc)

    def lead_exps(self) -> List[Exponents]:
        return list(self._leads)

    def localized_lead_exps(self) -> List[Exponents]:
        """Leading exponents restricted to the non-localized variables."""
        rest = self.rest_vars
        return [tuple(e[i] for i in rest) for e in self.lead_exps()]

    def leading_coefficients(self) -> Tuple[Polynomial, ...]:
        """Per element, the K[u]-coefficient of its localized leading monomial.

        For a plain basis these are all 1 (elements are monic); a localized
        one reads its entries: of each, the terms whose rest fields equal the
        lead's, masked to u's fields and divided by a.
        """
        if self.localized_vars is None:
            return (self.ring.one,) * len(self)
        if not self._entries:  # the zero ideal: no packing
            return ()
        packing, ring = self._packing, self.ring
        rest, keep = packing.mask(self.rest_vars), packing.mask(self.localized_vars)
        p = ring.domain.characteristic
        out = []
        for lead, a, tail in self._entries:
            own = lead & rest
            terms = _field_terms(((e & keep, c) for e, c in tail if e & rest == own),
                                 a, p, packing)
            terms[packing.unpack(lead & keep)] = ring.domain.one
            out.append(Polynomial(ring, terms))
        return tuple(out)

    # -- membership ----------------------------------------------------------

    def _plain(self, polys: Iterable[Polynomial]) -> None:
        if any(f.ring != self.ring for f in polys):
            raise RingError("polynomial from a different ring")
        if self.localized_vars is not None:
            raise GroebnerError("a localized basis has no normal forms")

    def normal_form(self, f: Polynomial) -> Polynomial:
        """The full normal form of f against a plain basis.

        Raises GroebnerError for a localized basis, whose elements reduce
        only over K(u).
        """
        self._plain((f,))
        p = self.ring.domain.characteristic

        def work(packing):
            terms, den = _packed_terms(f, packing)
            r, scale = _reduce(terms, self._entries, packing, p, self._packed_leads)
            return _field_terms(r.items(), den * scale, p, packing)

        return Polynomial(self.ring, self._run(_width(f.terms), None, work))

    def exponent(self, polys: Iterable[Polynomial],
                 h: Optional[Polynomial] = None) -> Optional[int]:
        """The least m >= 0 with h^m f in the ideal for every f of
        ``polys``.  Without h (h = 1) that is 0 when every f lies in the
        ideal, and None as soon as one does not.

        With h, every f must lie in I : h^infinity, or no m exists and the
        search does not end.  The work is on packed integer terms: each f
        is reduced against the plain basis, and the nonzero remainders,
        made primitive over Q, are multiplied by the integer multiple of h
        and reduced again until all vanish.  Raises GroebnerError for a
        localized basis.
        """
        polys = list(polys)
        inputs = polys if h is None else polys + [h]
        self._plain(inputs)
        p = self.ring.domain.characteristic

        def work(packing):
            entries, leads = self._entries, self._packed_leads
            remainders = []
            for f in polys:
                r = _reduce(_packed_terms(f, packing)[0], entries, packing, p, leads)[0]
                if r:
                    if h is None:
                        return None
                    remainders.append(r)
            if not remainders:
                return 0
            times = list(_packed_terms(h, packing)[0].items())
            m = 0
            while remainders:
                m += 1
                remainders = [
                    r for r in (_reduce(_product(r, times, packing, p), entries,
                                        packing, p, leads)[0] for r in remainders)
                    if r]
            return m

        width = _width(chain.from_iterable(f.terms for f in inputs))
        return self._run(width, None, work)

    def contains(self, f: Polynomial) -> bool:
        return self.exponent((f,)) == 0

    def is_trivial(self) -> bool:
        """True iff the (localized) ideal is the unit ideal."""
        return any(all(e == 0 for e in proj) for proj in self.localized_lead_exps())

    # -- dimension ------------------------------------------------------------

    def vector_space_dimension(self) -> int:
        """dim_K of the quotient (localized: dim over K(u)); raises
        NotZeroDimensional when infinite."""
        if self.is_trivial():
            return 0
        return _staircase_count(self.localized_lead_exps(), len(self.rest_vars))

    def __len__(self):
        return len(self._entries)

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


def _product(terms: Dict[int, int], times: Sequence[Tuple[int, int]],
             packing: _Packing, p: int) -> Dict[int, int]:
    """The packed integer terms times ``times``, made primitive first over
    Q; zero coefficients may stay."""
    if not p:
        g = gcd(*terms.values())
        if g != 1:
            terms = {e: c // g for e, c in terms.items()}
    out: Dict[int, int] = {}
    for e, c in terms.items():
        for t, d in times:
            t += e
            out[t] = out.get(t, 0) + c * d
    if reduce(or_, out, 0) & packing.overflow:
        raise _Overflow
    return out


def _interreduce(entries: List[Entry], leads: Sequence[int], todo: Iterable[int],
                 packing: _Packing, p: int) -> None:
    """Tail-reduce the entries ``todo`` of a minimal basis, sorted by
    ascending leading monomial ``leads``, in place and in turn.

    Leading monomials of a minimal basis divide one another nowhere and
    never change here, and no tail term is divisible by its own leading
    monomial.  A tail reduced against all entries is therefore free of
    every leading monomial, and the entry is that of the reduced basis,
    whichever entries were reduced before it; one pass over all of them
    makes the reduced basis.
    """
    for i in todo:
        lead, a, tail = entries[i]
        # scale (a x^lead + tail) = scale a x^lead + r modulo the ideal
        r, scale = _reduce(dict(tail), entries, packing, p, leads)
        entries[i] = _make_entry({lead: a * scale, **r}, lead, p)


def _minimal(items: Sequence[tuple], guards: int) -> List[tuple]:
    """The items, entries among them, whose first member, a packed
    monomial, no other item's divides, by ascending first member; of equal
    first members the earliest."""
    kept: List[tuple] = []
    leads: List[int] = []
    for item in sorted(items, key=itemgetter(0)):
        e = item[0]
        if all(map(and_, map(sub, repeat(e), leads), repeat(guards))):
            leads.append(e)
            kept.append(item)
    return kept


def _minimal_entries(
    gens: Sequence[Polynomial], packing: _Packing, p: int
) -> List[Entry]:
    """The entries of a minimal basis of the nonzero ``gens`` under the
    packing's order, by ascending leading monomial, their tails not yet
    reduced."""
    guards, field, lcm_of = packing.guards, packing.field, packing.lcm
    exps, overflow, top = packing.exps, packing.overflow, packing.width - 1
    inputs = sorted((_poly_entry(g, packing) for g in gens), key=itemgetter(0))
    if not any(tail for _, _, tail in inputs):
        # monomial inputs: every S-polynomial is zero and there are no tails
        # to reduce, so the minimal generators are the reduced basis
        return _minimal(inputs, guards)
    entries: List[Entry] = []
    # the M parts of the entries' leading monomials
    lead_m: List[int] = []
    # elements whose leading monomial no later leading monomial divides;
    # only these form new pairs
    live: List[int] = []
    # queued pairs (i, j), i < j, and the M parts of their lcms; the heap
    # orders them by packed lcm and skips a pair once it has left the dict
    pairs: Dict[Tuple[int, int], int] = {}
    heap: List[tuple] = []

    def add_poly(entry: Entry) -> None:
        """Append an element and update the pairs (Gebauer-Moller)."""
        lm = entry[0] & packing.mpart
        degree = lm & field
        j = len(entries)
        entries.append(entry)
        lead_m.append(lm)
        # lcm(i, j) for every live i, computed once as in _Packing.lcm; the
        # new pairs for criteria M and F as int keys that sort by degree,
        # then coprime first, then i; and the live i whose leading monomial
        # lm does not divide, as their lcm with lm is not that monomial
        bits = j.bit_length()
        lcms: Dict[int, int] = {}
        new: List[int] = []
        still: List[int] = []
        for i in live:
            a = lead_m[i]
            t = ((a | guards) - lm) & guards
            m = (lm ^ (a ^ lm) & (t - (t >> top))) & exps
            d = m % field
            if d & overflow:
                raise _Overflow
            m |= d
            lcms[i] = m
            new.append((d << 1 | (d != degree + (a & field))) << bits | i)
            if m != a:
                still.append(i)
        # criterion B: lm divides lcm(i, k), but neither lcm(i, j) nor
        # lcm(k, j) equals it, so (i, j) and (k, j) cover the pair; the lcm
        # with an element no longer live is made here, once, and the pairs
        # are deleted after the scan, which must not resize the dict
        dead = []
        for ik, m in pairs.items():
            if (m - lm) & guards:
                continue
            i, k = ik
            mi = lcms.get(i)
            if mi is None:
                mi = lcms[i] = lcm_of(lead_m[i], lm)
            if mi == m:
                continue
            mk = lcms.get(k)
            if mk is None:
                mk = lcms[k] = lcm_of(lead_m[k], lm)
            if mk != m:
                dead.append(ik)
        for ik in dead:
            del pairs[ik]
        # criteria M and F: in key order, keep a new pair only if no kept
        # lcm divides its lcm; then drop the coprime pairs, whose
        # S-polynomials reduce to zero
        new.sort()
        low = (1 << bits) - 1
        kept: List[int] = []
        for key in new:
            i = key & low
            m = lcms[i]
            for k in kept:
                if not (m - k) & guards:
                    break
            else:
                kept.append(m)
                if key >> bits & 1:
                    pairs[i, j] = m
                    heapq.heappush(heap, (packing.from_m(m), i, j))
        still.append(j)
        live[:] = still

    for entry in inputs:
        add_poly(entry)

    while heap:
        key, i, j = heapq.heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue
        r, _ = _reduce(spolynomial(entries[i], entries[j], packing, key), entries,
                       packing, p)
        if r:
            # the remainder is built greatest term first
            add_poly(_make_entry(r, next(iter(r)), p))

    return _minimal(entries, guards)


def buchberger(
    gens: Sequence[Polynomial],
    order: Optional[MonomialOrder] = None,
    localized_vars: Optional[Iterable[int]] = None,
) -> GroebnerBasis:
    """Compute a reduced Groebner basis (minimal localized basis when
    ``localized_vars`` is given); a plain one is interreduced as it is read.

    ``order`` defaults to degrevlex.  With ``localized_vars`` it must be a
    plain lex/degrevlex kind; the computation order becomes the block order
    (rest, kind) >> (u, kind).
    """
    gens = [g for g in gens if g is not None]
    if not gens:
        raise GroebnerError("no generators")
    order = _checked_order(gens, order)
    ring = gens[0].ring
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
        return GroebnerBasis(ring, comp_order, (), loc)

    p = ring.domain.characteristic

    def run(packing):
        entries = _minimal_entries(work, packing, p)
        if loc is not None:
            # a localized basis is read whole: interreduce it now
            _interreduce(entries, [entry[0] for entry in entries],
                         range(len(entries)), packing, p)
        return packing, entries

    packing, entries = _widening(
        comp_order, ring.nvars, _width(chain.from_iterable(g.terms for g in work)), run)

    if loc is None:
        return GroebnerBasis(ring, comp_order, entries, packing=packing)

    # localized minimalisation: keep elements whose leading monomial
    # restricted to the rest block is not divisible by a kept one, taken by
    # ascending restricted, then full, leading monomial (the entries come by
    # ascending leading monomial)
    restrict, mask = packing.restrict, packing.mask(rest)
    chosen = [entry for _, entry in _minimal(
        [(restrict(entry[0], mask), entry) for entry in entries], packing.guards)]
    return GroebnerBasis(ring, comp_order, chosen, loc, packing)


def is_groebner_basis(
    elements: Sequence[Polynomial], order: Optional[MonomialOrder] = None
) -> bool:
    """Postcondition check: every S-polynomial reduces to zero (no pruning).

    ``order`` defaults to degrevlex.  The elements are taken by ascending
    leading monomial; whether every S-polynomial reduces to zero does not
    depend on the reducers chosen.
    """
    if elements:
        order = _checked_order(elements, order)
    elems = [g for g in elements if not g.is_zero()]
    if not elems:
        return True
    p = elems[0].ring.domain.characteristic

    def run(packing):
        entries = sorted((_poly_entry(g, packing) for g in elems), key=itemgetter(0))
        leads = [entry[0] for entry in entries]
        return not any(
            _reduce(spolynomial(entries[i], entries[j], packing), entries, packing, p,
                    leads)[0]
            for i in range(len(entries)) for j in range(i + 1, len(entries)))

    return _widening(order, elems[0].ring.nvars,
                     _width(chain.from_iterable(g.terms for g in elems)), run)
