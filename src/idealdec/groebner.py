"""Buchberger's algorithm, reduced Groebner bases, and localized views.

The computation order is always an explicit monomial order on the full
ring.  A *localized* basis for an independent set u is obtained by running
Buchberger under the block order (X minus u) >> u and then minimalising
with respect to leading monomials restricted to X minus u: the resulting
elements form a Groebner basis of the extension ideal in K(u)[X minus u],
with their K[u]-leading coefficients kept as honest ring elements (they are
exactly the c_i used by contraction and the primality certificate).

Selection strategy is normal (smallest lcm first); the coprimality and
chain criteria prune S-pairs.  Reduced bases over a field are unique for a
fixed order, which the test-suite exploits heavily.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .orders import BLOCK, MonomialOrder, OrderError, block_order, degrevlex_order
from .polygcd import content_wrt, exact_divide, normalize_assoc
from .rings import Polynomial, PolyRing, RingError

Exponents = Tuple[int, ...]


class GroebnerError(ValueError):
    pass


class NotZeroDimensional(GroebnerError):
    """The (localized) quotient is not a finite-dimensional vector space."""


def _divides(a: Exponents, b: Exponents) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _lcm_exps(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x if x > y else y for x, y in zip(a, b))


def spolynomial(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    """The S-polynomial of f and g with respect to ``order``."""
    cf, ef = f.leading_data(order)
    cg, eg = g.leading_data(order)
    lcm = _lcm_exps(ef, eg)
    mf = tuple(l - e for l, e in zip(lcm, ef))
    mg = tuple(l - e for l, e in zip(lcm, eg))
    one = f.ring.domain.one
    return f.multiply_monomial(mf, one / cf) - g.multiply_monomial(mg, one / cg)


def _reduce_full(
    terms: Dict[Exponents, object],
    basis: Sequence[Tuple[Exponents, object, List[Tuple[Exponents, object]]]],
    key,
) -> Dict[Exponents, object]:
    """Full normal form of a term dict against (lead_exps, lead_coeff, terms).

    Terms whose monomial is irreducible are retired to the remainder; the
    reducible leading term is rewritten until nothing reducible remains.
    """
    work = dict(terms)
    remainder: Dict[Exponents, object] = {}
    while work:
        e = max(work, key=key)
        c = work.pop(e)
        for le, lc, gterms in basis:
            if _divides(le, e):
                mult = c / lc
                shift = tuple(a - b for a, b in zip(e, le))
                for ge, gc in gterms:
                    if ge == le:
                        continue
                    ne = tuple(a + b for a, b in zip(ge, shift))
                    s = work.get(ne)
                    if s is None:
                        work[ne] = -(mult * gc)
                    else:
                        s = s - mult * gc
                        if s:
                            work[ne] = s
                        else:
                            del work[ne]
                break
        else:
            remainder[e] = c
    return remainder


def _basis_data(polys: Sequence[Polynomial], order: MonomialOrder):
    data = []
    for p in polys:
        lc, le = p.leading_data(order)
        data.append((le, lc, list(p.terms.items())))
    return data


class GroebnerBasis:
    """A computed Groebner basis, possibly in the localized K(u) view.

    ``order`` is the order requested by the caller; ``computation_order``
    is the actual full-ring order used (a block order when localized).
    Elements are monic with respect to the computation order and are sorted
    by ascending leading monomial.
    """

    __slots__ = (
        "ring",
        "order",
        "computation_order",
        "elements",
        "localized_vars",
        "minimal",
        "reduced",
        "_nf_basis",
    )

    def __init__(
        self,
        ring: PolyRing,
        order: MonomialOrder,
        computation_order: MonomialOrder,
        elements: Tuple[Polynomial, ...],
        localized_vars: Optional[frozenset] = None,
        minimal: bool = True,
        reduced: bool = True,
    ):
        self.ring = ring
        self.order = order
        self.computation_order = computation_order
        self.elements = elements
        self.localized_vars = localized_vars
        self.minimal = minimal
        self.reduced = reduced
        self._nf_basis = None

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
        return [g.leading_data(self.computation_order)[1] for g in self.elements]

    def localized_lead_exps(self) -> List[Exponents]:
        """Leading exponents restricted to the non-localized variables."""
        rest = self.rest_vars
        return [tuple(e[i] for i in rest) for e in self.lead_exps()]

    def leading_monomials(self) -> Tuple[Polynomial, ...]:
        """Minimal monomial generators of the leading ideal (localized view)."""
        rest = self.rest_vars
        nvars = self.ring.nvars
        seen: List[Exponents] = []
        for proj in sorted(self.localized_lead_exps(), key=sum):
            if not any(_divides(s, proj) for s in seen):
                seen.append(proj)
        out = []
        for proj in sorted(seen):
            full = [0] * nvars
            for pos, i in enumerate(rest):
                full[i] = proj[pos]
            out.append(self.ring.monomial(tuple(full)))
        return tuple(out)

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
        if f.ring != self.ring:
            raise RingError("polynomial from a different ring")
        if not self.elements:
            return f
        if self.localized_vars is None:
            if self._nf_basis is None:
                self._nf_basis = _basis_data(self.elements, self.computation_order)
            terms = _reduce_full(f.terms, self._nf_basis, self.computation_order.key)
            return Polynomial(self.ring, terms)
        return self._localized_normal_form(f)

    def _localized_normal_form(self, f: Polynomial) -> Polynomial:
        """Pseudo-reduction in K(u)[rest]; returns the canonical primitive
        associate of the remainder (zero iff f lies in the localized ideal)."""
        rest = self.rest_vars
        u = self.localized_vars
        nvars = self.ring.nvars
        comp_key = self.computation_order.key

        def inner_key(proj):
            return comp_key(_embed(proj, rest, nvars))

        lead_projs = self.localized_lead_exps()
        lcs = self.leading_coefficients()
        work = dict(f.terms)
        retired: Dict[Exponents, object] = {}
        while work:
            classes: Dict[Exponents, List[Exponents]] = {}
            for exps in work:
                classes.setdefault(tuple(exps[i] for i in rest), []).append(exps)
            mu = max(classes, key=inner_key)
            idx = None
            for j, lp in enumerate(lead_projs):
                if _divides(lp, mu):
                    idx = j
                    break
            if idx is None:
                for exps in classes[mu]:
                    retired[exps] = work.pop(exps)
                continue
            g = self.elements[idx]
            lc_poly = lcs[idx]
            coeff_terms = {}
            for exps in classes[mu]:
                coeff_terms[
                    tuple(e if i in u else 0 for i, e in enumerate(exps))
                ] = work[exps]
            a = Polynomial(self.ring, coeff_terms)
            shift = [0] * self.ring.nvars
            for pos, i in enumerate(rest):
                shift[i] = mu[pos] - lead_projs[idx][pos]
            scaled_work = Polynomial(self.ring, work) * lc_poly
            sub = (a.multiply_monomial(tuple(shift), self.ring.domain.one)) * g
            work = (scaled_work - sub).terms
            if retired:
                retired = (Polynomial(self.ring, retired) * lc_poly).terms
        result = Polynomial(self.ring, retired)
        if result.is_zero():
            return result
        cont = content_wrt(result, u)
        return normalize_assoc(exact_divide(result, cont))

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


def _interreduce(
    polys: List[Polynomial], order: MonomialOrder
) -> List[Polynomial]:
    """Tail-reduce a minimal basis to the reduced basis (elements monic)."""
    key = order.key
    polys = sorted(polys, key=lambda p: key(p.leading_data(order)[1]))
    changed = True
    while changed:
        changed = False
        for i in range(len(polys)):
            others = _basis_data(polys[:i] + polys[i + 1:], order)
            r = Polynomial(polys[i].ring, _reduce_full(polys[i].terms, others, key))
            lc, _ = r.leading_data(order)
            if lc != r.ring.domain.one:
                r = r * (r.ring.domain.one / lc)
            if r != polys[i]:
                polys[i] = r
                changed = True
    return polys


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
    lead: List[Exponents] = []
    heap: List[tuple] = []
    done = set()

    def add_poly(p: Polynomial) -> None:
        lc, le = p.leading_data(comp_order)
        if lc != one:
            p = p * (one / lc)
        j = len(basis)
        basis.append(p)
        lead.append(le)
        for i in range(j):
            lcm = _lcm_exps(lead[i], le)
            heapq.heappush(heap, (key(lcm), i, j, lcm))

    for g in sorted(work, key=lambda p: key(p.leading_data(comp_order)[1])):
        add_poly(g)

    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        done.add((i, j))
        # coprimality criterion
        if all(a + b == l for a, b, l in zip(lead[i], lead[j], lcm)):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k == i or k == j:
                continue
            if _divides(lead[k], lcm):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in done and b in done:
                    skip = True
                    break
        if skip:
            continue
        s = spolynomial(basis[i], basis[j], comp_order)
        if s.is_zero():
            continue
        r = _reduce_full(s.terms, _basis_data(basis, comp_order), key)
        if r:
            add_poly(Polynomial(ring, r))

    # minimalise: drop elements whose lead is divisible by another lead
    idxs = sorted(range(len(basis)), key=lambda i: key(lead[i]))
    kept: List[int] = []
    for i in idxs:
        if not any(_divides(lead[k], lead[i]) for k in kept):
            kept.append(i)
    minimal = [basis[i] for i in kept]
    reduced = _interreduce(minimal, comp_order)

    if loc is None:
        return GroebnerBasis(ring, order, comp_order, tuple(reduced), None)

    # localized minimalisation: keep elements whose leading monomial
    # restricted to the rest block is not divisible by a kept one.
    inner = [(tuple(e[i] for i in rest), e, g) for g in reduced
             for e in [g.leading_data(comp_order)[1]]]
    inner.sort(key=lambda t: (key(_embed(t[0], rest, ring.nvars)), key(t[1])))
    kept_projs: List[Exponents] = []
    chosen: List[Polynomial] = []
    for proj, _, g in inner:
        if not any(_divides(kp, proj) for kp in kept_projs):
            kept_projs.append(proj)
            chosen.append(g)
    return GroebnerBasis(
        ring, order, comp_order, tuple(chosen), loc, minimal=True, reduced=False
    )


def _embed(proj: Exponents, rest: Sequence[int], nvars: int) -> Exponents:
    full = [0] * nvars
    for pos, i in enumerate(rest):
        full[i] = proj[pos]
    return tuple(full)


def is_groebner_basis(
    elements: Sequence[Polynomial], order: MonomialOrder
) -> bool:
    """Postcondition check: every S-polynomial reduces to zero (no pruning)."""
    elems = [g for g in elements if not g.is_zero()]
    if not elems:
        return True
    data = _basis_data(elems, order)
    key = order.key
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            s = spolynomial(elems[i], elems[j], order)
            if s.is_zero():
                continue
            if _reduce_full(s.terms, data, key):
                return False
    return True
