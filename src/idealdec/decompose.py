"""Primary decomposition and primality checking.

The entry points are:

* ``minimal_polynomial`` -- minimal polynomial of a variable (or of a linear
  form, via an adjoined tag variable) over the base field K(u) modulo a
  zero-dimensional localized ideal;
* ``zero_dim_decompose`` -- decompose a zero-dimensional (localized) ideal
  into primary pieces by splitting minimal polynomials into coprime parts;
* ``gtz_decompose`` -- full decomposition of an arbitrary ideal: localize at
  a best-ranked maximal independent set, decompose the zero-dimensional
  extension, contract, and go on with the remainder I + <h^m> until the
  components found meet to I; then prune to an irredundant intersection,
  sending to the leave-one-out test only the components that prime
  avoidance does not already mark as needed.  A monomial ideal (one whose
  reduced degrevlex basis is all monomials) skips GTZ: one hitting-set
  search on its polarization gives its irredundant primary decomposition,
  each component certified ``monomial``, with empty provenance;
* ``primality_check`` -- certify an ideal prime (or refute it) by combining
  a localized maximality certificate with the saturation identities
  I : c = I for the leading coefficients c, pruned by ideal symmetries;
* ``is_maximal_zero_dim`` -- the maximality certificate itself.

``zero_dim_decompose`` walks the candidate primitive elements (the
variables, then seeded linear forms) once, splitting each candidate's
minimal polynomial: it stops at a split, or at a variable that is a
certified primitive element.  Between the variables and the forms it tries
the variables-only certificate of the radical, so forms run only on an
ideal not yet known to be primary.  A leaf's maximality certificate is the
loop of ``is_maximal_zero_dim`` run on the variables and the fixed first
form already walked, then on its own seeded forms, so no variable or form
is eliminated twice.

Decisions that depend on polynomial factorization go through the bounded
certificate toolkit in factorize; whenever that toolkit cannot decide, the
affected component or verdict is reported as UNKNOWN with the unresolved
obligation attached, never silently guessed.

The toolkit, square roots and the random linear forms all assume
characteristic zero, so every entry point above except
``minimal_polynomial`` raises ``DecompositionError`` for a ring that is not
over Q.  Groebner bases over GF(p) remain available in ``groebner``.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field, replace
from itertools import chain, count
from typing import (Callable, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from .domains import QQ
from .factorize import FactorOutcome, split_minimal_polynomial
from .groebner import NotZeroDimensional
from .ideals import (
    Ideal,
    IdealError,
    contract,
    contract_with_trail,
    dimension,
    eliminate,
    ideal_sum,
    intersect,
    saturate,
    saturation_coefficients,
    saturation_exponent,
)
from .indepsets import (
    best_independent_set,
    check_budget,
    minimal_hitting_sets,
    minimal_supports,
)
from .polygcd import normalize_assoc, poly_gcd_many, poly_lcm_many, primitive_in
from .rings import Polynomial, adjoin, inject, project
from .symmetry import SymmetryAction, UnionFind

# verdict / status labels
PRIME = "PRIME"
NOT_PRIME = "NOT_PRIME"
MAXIMAL = "MAXIMAL"
NOT_MAXIMAL = "NOT_MAXIMAL"
UNKNOWN = "UNKNOWN"

# how many linear forms a split and the primality check's maximality
# certificate try after the variables, and how deep GTZ's remainders may go
_SPLIT_FORMS = 8
_PRIMALITY_FORMS = 6
_MAX_DEPTH = 16


class DecompositionError(Exception):
    pass


def _require_rationals(I: Ideal, what: str) -> None:
    if I.ring.domain != QQ:
        raise DecompositionError(
            f"{what} is implemented over Q only, not over {I.ring.domain}"
        )


class DecompositionIncomplete(DecompositionError):
    pass


@dataclass(frozen=True)
class Provenance:
    """How a component was produced: the independent set used, the
    (coefficient, exponent) saturation trail of its contraction, and the
    depth: the index k of the remainder J_k it came from."""

    u_names: Tuple[str, ...] = ()
    saturations: Tuple[Tuple[str, int], ...] = ()
    depth: int = 0


@dataclass(frozen=True)
class PrimaryComponent:
    """A (claimed) primary component with its associated prime.

    ``certified`` is True when the primality of ``prime`` is backed by a
    certificate; otherwise ``obligation`` names what is left unproven."""

    primary: Ideal
    prime: Ideal
    certified: bool
    certificate: str = ""
    obligation: str = ""
    provenance: Provenance = field(default_factory=Provenance)


@dataclass(frozen=True)
class DecompositionResult:
    ideal: Ideal
    components: Tuple[PrimaryComponent, ...]
    complete: bool


@dataclass(frozen=True)
class MaximalityResult:
    status: str
    certificate: str = ""
    witness: Optional[Polynomial] = None
    obligation: str = ""


@dataclass(frozen=True)
class PrimalityVerdict:
    status: str
    u_names: Tuple[str, ...] = ()
    details: Tuple[str, ...] = ()
    witness: Optional[Polynomial] = None
    obligation: str = ""


# ---------------------------------------------------------------------------
# minimal polynomials


def minimal_polynomial(
    I: Ideal, v: int, u: Iterable[int] = ()
) -> Polynomial:
    """Minimal polynomial of x_v over K(u) modulo I K(u)[X-u].

    Computed as the gcd over K(u)[x_v] of the elimination ideal
    I /\\ K[x_v, u]; returned primitive in x_v with canonical sign
    (a constant when the localized ideal is trivial).  Raises
    NotZeroDimensional when x_v satisfies no algebraic relation.
    """
    ring = I.ring
    u = frozenset(u)
    if v in u:
        raise IdealError("variable lies in the independent set")
    others = [i for i in range(ring.nvars) if i != v and i not in u]
    J = eliminate(I, others)
    gens = [g for g in J.generators if not g.is_zero()]
    if not gens:
        raise NotZeroDimensional(
            f"{ring.names[v]} satisfies no relation over the base"
        )
    g = poly_gcd_many(gens)
    if g.degree_in(v) == 0:
        return I.ring.one
    return primitive_in(g, v)


def minimal_polynomial_of_form(
    I: Ideal, coeffs: Sequence[int], u: Iterable[int] = ()
) -> Tuple[Polynomial, Polynomial]:
    """Minimal polynomial over K(u) of the linear form sum(c_i x_i) modulo
    the localized ideal.

    ``coeffs`` has one integer per ring variable (zero on u).  Returns
    (m, form): m is a polynomial in u and a tag variable, adjoined last to
    I.ring (its index is I.ring.nvars), and ``form`` is the linear form in
    I.ring.
    """
    ring = I.ring
    u = frozenset(u)
    form = ring.zero
    for i, c in enumerate(coeffs):
        if c and i in u:
            raise IdealError("linear form meets the independent set")
        if c:
            form = form + ring.var(ring.names[i]) * c
    if form.is_zero():
        raise IdealError("zero linear form")
    big, tag = adjoin(ring, "t")
    gens = [inject(g, big) for g in I.generators]
    gens.append(big.var(big.names[tag]) - inject(form, big))
    return minimal_polynomial(Ideal(big, gens), tag, u), form


# ---------------------------------------------------------------------------
# zero-dimensional decomposition


class _Candidate(NamedTuple):
    """A candidate primitive element of a localized ideal: its name, its
    minimal polynomial m in the variable of index v, the split of m, and the
    map of a polynomial in m's ring back to the ideal's ring."""

    label: str
    m: Polynomial
    v: int
    outcome: FactorOutcome
    back: Callable[[Polynomial], Polynomial]


def _variable_candidates(
    I: Ideal, u: Tuple[int, ...], rest: Sequence[int], seed: int
) -> Iterator[_Candidate]:
    """The variables of ``rest`` as candidates, lazily."""
    for v in rest:
        m = minimal_polynomial(I, v, u)
        yield _Candidate(
            I.ring.names[v], m, v, split_minimal_polynomial(m, v, u, seed), _identity
        )


def _linear_forms(
    nvars: int, rest: Sequence[int], seed: int, linear_budget: int, salt: int
) -> Iterator[List[int]]:
    """The coefficients of ``linear_budget`` linear forms in ``rest``: the
    first is sum((j + 1) x_rest[j]) for every salt, the others have
    coefficients in [-5, 5] drawn from ``(seed << 8) ^ salt``."""
    rng = random.Random((seed << 8) ^ salt)
    for trial in range(linear_budget):
        coeffs = [0] * nvars
        if trial == 0:
            for j, v in enumerate(rest):
                coeffs[v] = j + 1
        else:
            while not any(coeffs):
                for v in rest:
                    coeffs[v] = rng.randint(-5, 5)
        yield coeffs


def _form_candidates(
    I: Ideal, u: Tuple[int, ...], seed: int, forms: Iterable[List[int]]
) -> Iterator[_Candidate]:
    """The linear forms of coefficients ``forms`` as candidates, lazily; v
    is the tag that minimal_polynomial_of_form adjoins."""
    tag = I.ring.nvars
    for coeffs in forms:
        m, form = minimal_polynomial_of_form(I, coeffs, u)

        def back(p: Polynomial, form=inject(form, m.ring)) -> Polynomial:
            return project(p.substitute(tag, form), I.ring)

        yield _Candidate(
            str(form), m, tag, split_minimal_polynomial(m, tag, u, seed), back
        )


def _identity(p: Polynomial) -> Polynomial:
    return p


def _primitive(candidate: _Candidate, D: int) -> str:
    """``primitive-element:<label>;<cert>`` when the candidate's minimal
    polynomial is one part of multiplicity 1, certified irreducible, of
    degree D, the dimension of the quotient (which is then a field), else
    the empty string."""
    label, m, v, outcome, _ = candidate
    part = outcome.parts[0]
    if (len(outcome.parts) == 1 and part.multiplicity == 1
            and part.irreducible is True and m.degree_in(v) == D):
        return f"primitive-element:{label};{part.certificate}"
    return ""


def _maximality(candidates: Iterable[_Candidate], D: int) -> MaximalityResult:
    """Walk the candidates of a zero-dimensional localized ideal of
    dimension D > 1 until one refutes its maximality (two coprime parts or
    a repeated one give a zero divisor, the witness) or certifies it
    (_primitive); UNKNOWN, with the first undecided factorization as the
    obligation, when they run out."""
    obligation = ""
    for candidate in candidates:
        _, m, v, outcome, back = candidate
        parts = outcome.parts
        if len(parts) >= 2 or parts[0].multiplicity > 1:
            p = parts[0].poly
            if p.degree_in(v) == 0 and len(parts) > 1:
                p = parts[1].poly
            return MaximalityResult(NOT_MAXIMAL, witness=back(p))
        certificate = _primitive(candidate, D)
        if certificate:
            return MaximalityResult(MAXIMAL, certificate=certificate)
        if parts[0].irreducible is None and not obligation:
            obligation = outcome.obligation or f"factor {m}"
    return MaximalityResult(
        UNKNOWN,
        obligation=obligation or "no primitive element found within the search budget",
    )


def _decompose_branches(
    branches: Iterable[Ideal], u: Tuple[int, ...], seed: int, depth: int
) -> List[PrimaryComponent]:
    return [c for b in branches for c in zero_dim_decompose(b, u, seed, depth + 1)]


def zero_dim_decompose(
    I: Ideal,
    u: Iterable[int] = (),
    seed: int = 0,
    _depth: int = 0,
) -> List[PrimaryComponent]:
    """Primary decomposition of a zero-dimensional localized ideal.

    The returned components are plain-ideal representatives of the primary
    components of I K(u)[X-u]; callers working over K[X] must contract
    them.  One walk of candidate primitive elements, the variables and then
    seeded linear forms, splits I along the coprime parts of the first
    minimal polynomial that has two or more.  A variable that is a
    certified primitive element ends the walk at a prime leaf.  The
    variables' minimal polynomials also give the radical R; when R is not
    I, R's variables may certify it maximal (I is then primary, and no form
    can split it) before any form is tried.  A leaf that no candidate
    splits is certified through R's maximality certificate, which for a
    radical I goes on from the variables and the first form already
    walked, or is reported uncertified with the unresolved obligation.  The
    zero ideal, which is not zero-dimensional, raises NotZeroDimensional.
    """
    _require_rationals(I, "zero-dimensional decomposition")
    u = tuple(sorted(set(u)))
    if _depth > 64:
        raise DecompositionIncomplete("zero-dimensional split depth exceeded")
    gb = I.groebner(localized_vars=u)
    if gb.is_trivial():
        return []
    D = gb.vector_space_dimension()  # raises NotZeroDimensional if infinite
    prov = Provenance(u_names=tuple(I.ring.names[i] for i in u), depth=_depth)
    if D == 1:
        return [
            PrimaryComponent(I, I, True, certificate="dimension-1", provenance=prov)
        ]

    def split(c: _Candidate) -> List[PrimaryComponent]:
        parts = c.outcome.parts
        return _decompose_branches(
            [ideal_sum(I, [c.back(p.poly) ** p.multiplicity]) for p in parts],
            u, seed, _depth,
        )

    def leaf(prime: Ideal, maximality: MaximalityResult) -> List[PrimaryComponent]:
        if maximality.status == MAXIMAL:
            return [PrimaryComponent(I, prime, True, certificate=maximality.certificate,
                                     provenance=prov)]
        if maximality.status == NOT_MAXIMAL and maximality.witness is not None:
            # a zero divisor h surfaced late: I = (I : h^inf) /\ (I + <h^m>),
            # m the saturation exponent; split along it and keep going
            h = maximality.witness
            res = saturate(I, h)
            if res.exponent:
                comps = _decompose_branches(
                    [res.ideal, ideal_sum(I, [h ** res.exponent])], u, seed, _depth
                )
                if comps:
                    return comps
        obligation = maximality.obligation or "maximality of the radical is unproven"
        return [PrimaryComponent(I, prime, False, obligation=obligation, provenance=prov)]

    walked: List[_Candidate] = []
    for candidate in _variable_candidates(I, u, gb.rest_vars, seed):
        if len(candidate.outcome.parts) >= 2:
            return split(candidate)
        walked.append(candidate)
        certificate = _primitive(candidate, D)
        if certificate:
            # the quotient is a field, so no variable walked before refutes
            # its maximality
            return leaf(I, MaximalityResult(MAXIMAL, certificate=certificate))
    # each variable's minimal polynomial is p^k, and R adjoins p for k > 1
    # (exact in characteristic zero)
    repeated = [
        p.poly for p in (c.outcome.parts[0] for c in walked) if p.multiplicity > 1
    ]
    R = ideal_sum(I, repeated) if repeated else I
    if R is not I:
        # a decided check is final: R's full walk stops at the same variable
        maximality = is_maximal_zero_dim(R, u, seed, 0)
        if maximality.status == MAXIMAL:
            return leaf(R, maximality)
    tried: List[_Candidate] = []
    forms = _linear_forms(
        I.ring.nvars, gb.rest_vars, seed, _SPLIT_FORMS, (_depth * 0x9E37) ^ 0x1F0
    )
    for candidate in _form_candidates(I, u, seed, forms):
        if len(candidate.outcome.parts) >= 2:
            return split(candidate)
        tried.append(candidate)
        if _primitive(candidate, D):
            break
    # leaf: no candidate splits I
    if R is I:
        # every salt's first form is sum((j + 1) x_j), which the split walk
        # has tried: the leaf's walk reuses that candidate
        forms = _linear_forms(I.ring.nvars, gb.rest_vars, seed, _SPLIT_FORMS, 0xA11F)
        next(forms)
        maximality = _maximality(
            chain(walked, tried[:1], _form_candidates(I, u, seed, forms)), D
        )
    elif maximality.status == UNKNOWN:
        maximality = is_maximal_zero_dim(R, u, seed, _SPLIT_FORMS)
    return leaf(R, maximality)


# ---------------------------------------------------------------------------
# maximality certificates


def is_maximal_zero_dim(
    I: Ideal,
    u: Iterable[int] = (),
    seed: int = 0,
    linear_budget: int = 6,
) -> MaximalityResult:
    """Certify that a zero-dimensional localized ideal is maximal.

    MAXIMAL comes with a certificate: the K(u)-vector-space dimension is 1,
    or some variable or linear form is a primitive element whose minimal
    polynomial is certified irreducible of degree equal to that dimension.
    NOT_MAXIMAL carries a witness zero divisor.  When the bounded
    irreducibility toolkit cannot decide, the result is UNKNOWN with the
    open obligation.  The candidates are walked as by zero_dim_decompose's
    leaf (_maximality): the variables, then ``linear_budget`` forms.
    """
    _require_rationals(I, "the maximality certificate")
    u = tuple(sorted(set(u)))
    gb = I.groebner(localized_vars=u)
    if not I.generators:
        return MaximalityResult(NOT_MAXIMAL, obligation="zero ideal")
    if gb.is_trivial():
        return MaximalityResult(NOT_MAXIMAL, obligation="unit ideal")
    D = gb.vector_space_dimension()
    if D == 1:
        return MaximalityResult(MAXIMAL, certificate="dimension-1")
    return _maximality(
        chain(
            _variable_candidates(I, u, gb.rest_vars, seed),
            _form_candidates(I, u, seed, _linear_forms(
                I.ring.nvars, gb.rest_vars, seed, linear_budget, 0xA11F)),
        ),
        D,
    )


# ---------------------------------------------------------------------------
# the general decomposition


def _contract_component(
    c: PrimaryComponent, u: Tuple[int, ...], depth: int
) -> PrimaryComponent:
    """Pull a localized component back to K[X] by contraction."""
    primary, trail = contract_with_trail(c.primary, u)
    if c.prime.generators == c.primary.generators:
        prime = primary
    else:
        prime = contract(c.prime, u)
    sat = tuple((str(p), e) for p, e in trail)
    prov = replace(c.provenance, saturations=sat, depth=depth)
    return replace(c, primary=primary, prime=prime, provenance=prov)


def _dedupe(components: List[PrimaryComponent]) -> List[PrimaryComponent]:
    seen = {}
    for c in components:
        key = c.primary.canonical_generators()
        prev = seen.get(key)
        if prev is None or (c.certified and not prev.certified):
            seen[key] = c
    return list(seen.values())


def _meet(a: Optional[Ideal], b: Optional[Ideal]) -> Optional[Ideal]:
    """a meet b, with None standing for the empty meet (the unit ideal)."""
    if a is None:
        return b
    if b is None:
        return a
    return intersect(a, b)


def _prune_redundant(
    I: Ideal, components: List[PrimaryComponent]
) -> List[PrimaryComponent]:
    """Drop components not needed for the intersection to equal I.

    After the containment filter, one leave-one-out sweep drops comps[i]
    when the kept components before i and all components after i already
    meet to I.  Dropping only enlarges the meet of the rest, so a component
    kept once is never redundant later, and the sweep keeps what restarting
    the leave-one-out scan after every drop would keep."""
    comps = list(components)
    # containment first: a component containing another is redundant
    keep: List[PrimaryComponent] = []
    for i, c in enumerate(comps):
        contained = False
        for j, d in enumerate(comps):
            if i == j:
                continue
            if c.primary.contains_ideal(d.primary) and not d.primary.contains_ideal(
                c.primary
            ):
                contained = True
                break
        if not contained:
            keep.append(c)
    comps = keep
    if len(comps) <= 1:
        return comps
    # prime avoidance: if Q_i is redundant, the others meet inside Q_i, so
    # their product lies in the prime P_i and some Q_j, with its radical P_j,
    # lies in P_i.  So a component whose prime contains no other component's
    # prime is needed, provided every prime is certified to be the radical;
    # one uncertified component sends every component to the test.
    certified = all(c.certified for c in comps)
    tested = [
        i for i, c in enumerate(comps)
        if not certified
        or any(c.prime.contains_ideal(d.prime) for j, d in enumerate(comps) if j != i)
    ]
    if not tested:
        return comps
    # after[i]: the meet of comps[i:], built only as far down as a test needs
    after: List[Optional[Ideal]] = [None] * (len(comps) + 1)
    for i in range(len(comps) - 1, tested[0], -1):
        after[i] = _meet(comps[i].primary, after[i + 1])
    kept: List[PrimaryComponent] = []
    before: Optional[Ideal] = None
    for i, c in enumerate(comps):
        if i in tested:
            rest = _meet(before, after[i + 1])
            # I lies in every meet of components, so containment is equality
            if rest is not None and I.contains_ideal(rest):
                continue
        kept.append(c)
        if i < tested[-1]:
            before = _meet(before, c.primary)
    return kept


# ---------------------------------------------------------------------------
# monomial ideals


def _monomial_components(I: Ideal) -> Optional[List[PrimaryComponent]]:
    """The irredundant primary decomposition of a proper I whose reduced
    degrevlex basis is all monomials, or None when it is not.

    That basis is I's minimal monomial generating set.  Polarization
    (Herzog-Hibi, *Monomial Ideals*, Sec. 1.6) makes x_i^a the squarefree
    product of the slots (i, 1), ..., (i, a).  Each minimal hitting set H
    of the polarized supports gives the irreducible component
    <x_i^j : (i, j) in H>, and these meet to I.  H holds at most one slot
    per variable: a support holding (i, j) holds every (i, j') with j' < j,
    so a second slot of x_i would hit nothing alone.  Grouped by their
    radical <x_i : i in S>, the components meet to the primary components.
    A component <x^b> that contains another, <x^c>, has the same radical,
    so its group's meet drops it: were x_i in b's support and not in c's,
    H_b would hit some generator only in (i, b_i), below b_k and so below
    c_k in every other x_k of c's support, and H_c would miss it.
    """
    gens = I.groebner().elements
    if any(len(g.terms) != 1 for g in gens):
        return None
    ring = I.ring
    exps = [next(iter(g.terms)) for g in gens]
    degrees = map(max, zip(*exps))
    slots = [(i, j) for i, d in enumerate(degrees) for j in range(1, d + 1)]
    polarized = [tuple(int(j <= e[i]) for i, j in slots) for e in exps]
    groups: dict = {}
    for H in minimal_hitting_sets(minimal_supports(polarized)):
        b = [0] * ring.nvars
        for k in H:
            i, j = slots[k]
            b[i] = j
        groups.setdefault(tuple(i for i, bi in enumerate(b) if bi), []).append(b)
    x = ring.gens()
    out = []
    for S, bs in groups.items():
        prime = Ideal(ring, [x[i] for i in S])
        primary = None
        for b in bs:
            primary = _meet(primary, Ideal(ring, [x[i] ** b[i] for i in S]))
        if primary.generators == prime.generators:
            primary = prime  # one cached basis for both
        out.append(PrimaryComponent(primary, prime, True, certificate="monomial"))
    return out


def gtz_decompose(
    I: Ideal,
    seed: int = 0,
    budget: Optional[int] = None,
) -> DecompositionResult:
    """Primary decomposition of an arbitrary ideal over the rationals.

    An ideal whose reduced degrevlex basis is all monomials (a monomial
    ideal, whatever its generators) is decomposed without GTZ, by one
    hitting-set search on its polarization (_monomial_components): its
    components are the irredundant primary decomposition, each certified
    with certificate ``monomial`` and with empty provenance.  Any other
    ideal runs GTZ, which computes that basis first anyway.

    GTZ is a loop over remainders J_0 = I, J_{k+1} = J_k + <h^m>: J_k is
    localized at its best-ranked maximal independent set u (u = () when J_k
    is zero-dimensional), the zero-dimensional extension is decomposed and
    contracted back, and h is the least common multiple of the localized
    leading coefficients, m its saturation exponent, so
    J_k = (J_k : h^inf) /\\ J_{k+1}.  The contracted components of a level
    meet to J_k K(u)[X] /\\ K[X], which is J_k : h^inf (Greuel-Pfister, *A
    Singular Introduction to Commutative Algebra*, Prop. 4.3.1):
    zero_dim_decompose splits only along coprime parts of minimal
    polynomials and along I = (I : g^inf) /\\ (I + <g^e>), so its
    components meet to J_k K(u).  So m is read against that meet,
    the least m with h^m (J_k : h^inf) inside J_k, with no saturation.  A
    unit remainder ends the loop; so does a zero-dimensional one once its
    components are added, as at u = () the contraction saturates by nothing
    and they meet to J_k itself; and so does the first level after which
    the components found meet to I (the early exit of the GTZ variants in
    Decker-Greuel-Pfister 1999).  More than ``_MAX_DEPTH`` levels raise
    DecompositionIncomplete.  ``budget`` caps how many candidate
    independent sets of size dim are ranked at each level; a budget below
    1 raises ValueError, whatever the ideal.

    GTZ's components are deduplicated and pruned to an irredundant
    intersection: a component containing another goes first, then one
    leave-one-out sweep.  When every component is certified, a component
    whose prime contains no other component's prime skips the leave-one-out
    test: by prime avoidance it is never redundant.

    The zero ideal, which is prime, is its own single component (certificate
    ``zero-ideal``); the unit ideal has no components.
    """
    _require_rationals(I, "primary decomposition")
    check_budget(budget)
    if I.is_zero():
        return DecompositionResult(
            I, (PrimaryComponent(I, I, True, certificate="zero-ideal"),), True
        )
    if I.is_trivial():
        return DecompositionResult(I, (), True)
    comps = _monomial_components(I)
    if comps is None:
        comps = _prune_redundant(I, _dedupe(_gtz(I, seed, budget)))
    comps.sort(key=lambda c: (len(c.primary.canonical_generators()),
                              [str(g) for g in c.primary.canonical_generators()]))
    complete = all(c.certified for c in comps)
    return DecompositionResult(I, tuple(comps), complete)


def _gtz(I: Ideal, seed: int, budget: Optional[int]) -> List[PrimaryComponent]:
    """The components of I from the remainders J_0 = I,
    J_{k+1} = J_k + <h_k^m_k>, until the components found meet to I or a
    remainder is the unit ideal or zero-dimensional (u = (): its
    components meet to it, so no meet is built)."""
    out: List[PrimaryComponent] = []
    # the meet of out; I lies in it, so I containing it means equality
    meet: Optional[Ideal] = None
    J = I
    for depth in count():
        if depth > _MAX_DEPTH:
            raise DecompositionIncomplete("decomposition recursion depth exceeded")
        if J.is_trivial():
            return out
        u = best_independent_set(J, budget)
        # when the localized ideal is already primary, this is J itself and
        # the contraction is exactly the saturation shortcut; at u = () it
        # saturates by nothing
        found = [_contract_component(c, u, depth)
                 for c in zero_dim_decompose(J, u, seed)]
        out.extend(found)
        if not u:
            return out
        # the level's components meet to J K(u)[X] /\ K[X] = J : h^inf
        level: Optional[Ideal] = None
        for c in found:
            level = _meet(level, c.primary)
        meet = _meet(meet, level)
        if meet is not None and I.contains_ideal(meet):
            return out
        handles = saturation_coefficients(J, u)
        h = poly_lcm_many(handles) if handles else J.ring.one
        if h.is_constant():
            return out
        # J K(u) is proper, so found is never empty; were it, J : h^inf
        # would be the unit ideal
        if level is None:
            level = Ideal(J.ring, [J.ring.one])
        m = saturation_exponent(J, h, level)
        if m == 0:
            return out
        J = ideal_sum(J, [h ** m])


# ---------------------------------------------------------------------------
# symmetry-assisted primality check


def apply_automorphism(sigma: SymmetryAction, I: Ideal) -> Ideal:
    return Ideal(I.ring, [sigma(g) for g in I.generators])


def stabilizes(sigma: SymmetryAction, I: Ideal) -> bool:
    """Whether the variable permutation maps I onto itself.

    Membership suffices: sigma has finite order k, so sigma(I) inside I
    gives I, sigma(I), ..., sigma^k(I) = I, a chain that must be constant.
    """
    return I.contains_ideal(apply_automorphism(sigma, I))


def coefficient_orbits(
    cs: Sequence[Polynomial],
    symmetries: Iterable[SymmetryAction],
    I: Ideal,
) -> List[List[int]]:
    """Partition saturation coefficients into orbits under the ideal's
    symmetries.

    Generators that fail to stabilize I are skipped with a warning; images
    that match no listed coefficient (up to canonical associates) add no
    edge, which errs on the side of more orbits, never fewer checks than
    are sound.
    """
    uf = UnionFind(len(cs))
    index = {normalize_assoc(c): i for i, c in enumerate(cs)}
    for sigma in symmetries:
        if not stabilizes(sigma, I):
            label = sigma.label or sigma.cycles(I.ring.names)
            warnings.warn(f"symmetry {label} does not stabilize the ideal; skipped")
            continue
        for i, c in enumerate(cs):
            j = index.get(normalize_assoc(sigma(c)))
            if j is not None:
                uf.union(i, j)
    return uf.classes()


def primality_check(
    I: Ideal,
    symmetries: Sequence[SymmetryAction] = (),
    seed: int = 0,
    u: Optional[Iterable[int]] = None,
    budget: Optional[int] = None,
) -> PrimalityVerdict:
    """Certify I prime, refute it, or report UNKNOWN.

    I is prime iff its extension over K(u) (u a maximal independent set, ()
    for a zero-dimensional I) is maximal and I : c = I for every K[u]-leading
    coefficient c of the localized basis (there are none at u = ()); both
    halves are checked, the latter once per symmetry orbit of the
    coefficients.  ``u`` overrides the ranked choice of independent set (it
    must be independent of full cardinality, e.g. one preserved by the
    symmetries, else IdealError); ``budget`` caps how many candidate sets of
    size dim the ranked choice may rank.  The zero ideal is PRIME and the
    unit ideal NOT_PRIME, each with a one-line detail.
    """
    _require_rationals(I, "the primality check")
    check_budget(budget)
    details: List[str] = []
    if I.is_zero():
        return PrimalityVerdict(PRIME, (), ("zero ideal",))
    if I.is_trivial():
        return PrimalityVerdict(NOT_PRIME, (), ("unit ideal",))
    if u is None:
        u = best_independent_set(I, budget)
    else:
        u = tuple(sorted(set(u)))
        if len(u) != dimension(I):
            raise IdealError("u must have cardinality dim(I)")
        if I.groebner(localized_vars=u).is_trivial():
            raise IdealError("u is not an independent set for I")
    u_names = tuple(I.ring.names[i] for i in u)
    details.append("u=" + (",".join(u_names) if u_names else "-"))
    maximality = is_maximal_zero_dim(I, u, seed, _PRIMALITY_FORMS)
    details.append(f"localized-maximality={maximality.status}")
    if maximality.certificate:
        details.append(f"certificate={maximality.certificate}")
    if maximality.status == NOT_MAXIMAL:
        return PrimalityVerdict(
            NOT_PRIME, u_names, tuple(details), witness=maximality.witness
        )
    cs = saturation_coefficients(I, u)
    orbits = (
        coefficient_orbits(cs, symmetries, I) if symmetries else
        [[i] for i in range(len(cs))]
    )
    witness = None
    for orbit in orbits:
        c = cs[orbit[0]]
        # I : c = I exactly when I : c^inf = I, as I <= I : c <= I : c^inf
        ok = saturate(I, c).exponent == 0
        details.append(
            f"c={c} orbit_size={len(orbit)} stable={'yes' if ok else 'no'}"
        )
        if not ok and witness is None:
            witness = c
    if witness is not None:
        return PrimalityVerdict(NOT_PRIME, u_names, tuple(details), witness=witness)
    if maximality.status == MAXIMAL:
        return PrimalityVerdict(PRIME, u_names, tuple(details))
    return PrimalityVerdict(
        UNKNOWN, u_names, tuple(details), obligation=maximality.obligation
    )
