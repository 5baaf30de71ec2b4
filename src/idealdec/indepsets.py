"""Independent sets of variables modulo an ideal, and their scoring.

A set u of variables is independent for I when no leading monomial of the
(reduced degrevlex) basis is supported entirely inside u; maximal ones are
exactly the complements of minimal hitting sets of the leading-monomial
supports.  The Krull dimension is the largest cardinality among them.

``minimal_hitting_sets`` is the one hitting-set search.  It enumerates the
minimal hitting sets lazily: every set it yields is inclusion-minimal and no
set is yielded twice, so a caller may cap the stream with
``itertools.islice``.  ``best_independent_set`` and ``ideals.dimension``
read it whole, since the least size, n - dim(I), needs every set.

Scoring a maximal independent set u means computing the minimal localized
basis of I over K(u), the vector-space dimension d_u of the localized
quotient, and the degrees/term counts of the K[u]-leading coefficients --
the quantities that drive both the cost of a zero-dimensional decomposition
over K(u) and the cost of contracting the result back.  Ranking prefers
small d_u, then small coefficient degree, then few coefficient terms.
``best_independent_set`` picks the set at which GTZ and the primality check
localize: the best-ranked of the first ``budget`` minimal hitting sets of
the least size, complemented, or () for a zero-dimensional ideal.  It scores
them by name and stops at a proven floor, so it often scores only a few.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from .groebner import GroebnerBasis

if TYPE_CHECKING:  # pragma: no cover
    from .ideals import Ideal


def minimal_supports(lead_exps: Iterable[Tuple[int, ...]]) -> List[FrozenSet[int]]:
    """Supports of the leading monomials, with duplicates and supersets
    removed (a superset is hit whenever its subset is)."""
    raw = {frozenset(i for i, e in enumerate(exps) if e) for exps in lead_exps}
    out: List[FrozenSet[int]] = []
    for s in sorted(raw, key=lambda s: (len(s), sorted(s))):
        if not any(t <= s for t in out):
            out.append(s)
    return out


def minimal_hitting_sets(
    supports: Sequence[FrozenSet[int]],
) -> Iterator[FrozenSet[int]]:
    """Every inclusion-minimal hitting set of ``supports``, each once, lazily.

    Depth first: branch on the variables of the smallest unhit support (ties
    by sorted indices).  Each branch bans the variables its earlier siblings
    took, so no set is reached twice; a support that the bans leave empty
    becomes the next pivot and ends the branch.  A branch also ends as soon
    as some chosen variable no longer hits a support on its own; that never
    cuts a minimal set, and it makes every set reached minimal.
    """
    if any(not s for s in supports):
        raise ValueError("empty support: the ideal contains a unit")
    containing: dict = {}
    for s in supports:
        for v in s:
            containing.setdefault(v, []).append(s)

    def hits_alone(w: int, chosen: FrozenSet[int]) -> bool:
        others = chosen - {w}
        return any(not (s & others) for s in containing[w])

    def rec(
        unhit: List[FrozenSet[int]], chosen: FrozenSet[int]
    ) -> Iterator[FrozenSet[int]]:
        if not unhit:
            yield chosen
            return
        pivot = min(unhit, key=lambda s: (len(s), sorted(s)))
        banned: set = set()
        for v in sorted(pivot):
            # v hits the pivot alone; only the earlier choices can lose
            grown = chosen | {v}
            if all(hits_alone(w, grown) for w in chosen):
                yield from rec([s - banned for s in unhit if v not in s], grown)
            banned.add(v)

    return rec(list(supports), frozenset())


def is_independent(u: Iterable[int], G: GroebnerBasis) -> bool:
    """True iff no leading monomial of G is supported entirely inside u."""
    u = frozenset(u)
    for exps in G.lead_exps():
        if all(i in u or not e for i, e in enumerate(exps)):
            return False
    return True


def maximal_independent_sets(
    G: GroebnerBasis, limit: Optional[int] = None
) -> List[FrozenSet[int]]:
    """Inclusion-maximal independent sets (the first ``limit`` enumerated),
    largest first.

    These are the complements of the minimal hitting sets of the leading
    supports; ties in size are broken by the sorted index tuple, so the
    output order is deterministic.
    """
    if G.is_trivial():
        return []
    everything = frozenset(range(G.ring.nvars))
    hitters = minimal_hitting_sets(minimal_supports(G.lead_exps()))
    out = [everything - h for h in islice(hitters, limit)]
    out.sort(key=lambda u: (-len(u), sorted(u)))
    return out


@dataclass(frozen=True)
class IndepSetReport:
    """Score card for one maximal independent set u.

    d is the K(u)-vector-space dimension of the localized quotient;
    per_element lists (degree, terms) of each K[u]-leading coefficient in
    the minimal localized basis; lc_degree / lc_terms are their maxima.
    """

    u: Tuple[int, ...]
    u_names: Tuple[str, ...]
    d: int
    per_element: Tuple[Tuple[int, int], ...]
    lc_degree: int
    lc_terms: int

    def sort_key(self):
        return (self.d, self.lc_degree, self.lc_terms, self.u_names)

    def line(self) -> str:
        return (
            f"u={','.join(self.u_names)} d_u={self.d} "
            f"lcdeg={self.lc_degree} lcterms={self.lc_terms}"
        )


def score_independent_set(I: "Ideal", u: Iterable[int]) -> IndepSetReport:
    """Score a maximal independent set (localized dimension must be finite)."""
    u = tuple(sorted(set(u)))
    G = I.groebner(localized_vars=u)
    d = G.vector_space_dimension()
    per = tuple((max(lc.total_degree(), 0), lc.num_terms())
                for lc in G.leading_coefficients())
    return IndepSetReport(
        u=u,
        u_names=tuple(I.ring.names[i] for i in u),
        d=d,
        per_element=per,
        lc_degree=max((d0 for d0, _ in per), default=0),
        lc_terms=max((t for _, t in per), default=0),
    )


@dataclass(frozen=True)
class IndepSetRanking:
    reports: Tuple[IndepSetReport, ...]

    def best(self) -> IndepSetReport:
        if not self.reports:
            raise ValueError("empty ranking")
        return self.reports[0]

    def lines(self) -> List[str]:
        return [r.line() for r in self.reports]


def rank_independent_sets(
    I: "Ideal", candidates: Optional[Sequence[Iterable[int]]] = None
) -> IndepSetRanking:
    """Score candidate sets (default: every maximal independent set) and
    rank them cheapest-first."""
    if candidates is None:
        candidates = maximal_independent_sets(I.groebner())
    reports = [score_independent_set(I, u) for u in candidates]
    reports.sort(key=lambda r: r.sort_key())
    return IndepSetRanking(tuple(reports))


def check_budget(budget: Optional[int]) -> None:
    """Refuse a budget below 1 (None means no budget)."""
    if budget is not None and budget < 1:
        raise ValueError("budget must be a positive integer")


def best_independent_set(
    I: "Ideal", budget: Optional[int] = None
) -> Tuple[int, ...]:
    """The best-ranked maximal independent set of I of the largest size,
    dim(I), among the first ``budget`` enumerated candidates of that size
    (all of them when ``budget`` is None; a budget below 1 raises
    ValueError), or () when I is zero-dimensional.  I must be proper.

    One enumeration of the minimal hitting sets gives dim(I), n minus their
    least size, and the candidates, the complements of the sets of that
    size.  They are scored in the order of their variable names, and the
    scan stops at the first whose (d, lcdeg, lcterms) reaches a floor that
    no candidate can go below, so it returns what the full ranking ranks
    first.  The floor is (1, 0, 1), since d >= 1 and lcterms >= 1, or
    (1, 1, 1) when some element g of I's reduced degrevlex basis has degree
    >= 2 and is x*g' for a variable x.  Then neither x nor g' lies in I, since their
    leading monomials divide g's and the reduced basis is minimal, so I is
    not prime.  But d = 1 and lcdeg = 0 would make I prime: I K(u) is then
    maximal, and with constant leading coefficients I is the contraction of
    I K(u) to K[X] (Greuel-Pfister, Prop. 4.3.1 with h = 1).  Among the
    candidates at the floor the first by name wins, as in the ranking's
    tie-break.
    """
    check_budget(budget)
    G = I.groebner()
    names = I.ring.names
    nvars = len(names)
    hitters = list(minimal_hitting_sets(minimal_supports(G.lead_exps())))
    least = min(map(len, hitters))
    if least == nvars:
        return ()
    everything = frozenset(range(nvars))
    candidates = sorted(
        (tuple(sorted(everything - h))
         for h in islice((h for h in hitters if len(h) == least), budget)),
        key=lambda u: [names[i] for i in u],
    )
    floor = (1, 1, 1) if _splits_off_a_variable(G) else (1, 0, 1)
    reports = []
    for u in candidates:
        r = score_independent_set(I, u)
        reports.append(r)
        if (r.d, r.lc_degree, r.lc_terms) <= floor:
            break
    return min(reports, key=IndepSetReport.sort_key).u


def _splits_off_a_variable(G: GroebnerBasis) -> bool:
    """True when some basis element of degree >= 2 is a variable times a
    polynomial, that is, one variable divides all of its terms."""
    return any(
        g.total_degree() >= 2 and any(map(min, zip(*g.terms)))
        for g in G.elements
    )
