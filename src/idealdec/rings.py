"""Sparse multivariate polynomials over an exact coefficient field.

A polynomial is an immutable mapping from exponent tuples to nonzero
coefficients, bound to a ring (an ordered tuple of variable names plus a
coefficient domain).  Arithmetic is exact; display and parsing follow a
small term grammar::

    poly   := [sign] term { sign term }
    term   := coeff | [coeff "*"] factor { "*" factor }
    factor := name [ "^" exponent ]
    coeff  := int [ "/" int ]

Text is scanned one term at a time: each term, with its sign and the
whitespace around it, is one match of a compiled regular expression, and
its factors are read by one ``findall``.  Whitespace may separate any two
tokens, a sign is required before every term but the first, and any text
outside the grammar raises ``ParseError`` (a ``*`` followed by a sign
included).

Every polynomial that sums terms, arithmetic, substitution, parsing and
``ring.poly`` alike, is built by ``summed``: it adds the coefficients of
equal exponent tuples and drops every zero, so no stored coefficient is
zero.

Terms are printed in descending lexicographic order of exponent tuples with
respect to the declared variable order, so ``str`` output is canonical and
``ring.parse(str(f)) == f`` always holds.
"""

from __future__ import annotations

import re
from itertools import chain, compress
from operator import add, getitem, neg
from typing import Dict, Iterable, Sequence, Tuple

from .domains import DomainError, QQ, PrimeField, Rationals

Exponents = Tuple[int, ...]

_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_NAME_RE = re.compile(_NAME)
_FACTOR = rf"{_NAME}(?:\s*\^\s*\d+)?"
_FACTORS = rf"{_FACTOR}(?:\s*\*\s*{_FACTOR})*"
# one term: sign, numerator, denominator, factors after a coefficient, or
# factors alone; surrounding whitespace included.  No two whitespace runs
# meet without a token between them, so a failed match backtracks in
# linear time.
_TERM_RE = re.compile(
    rf"\s*(?:([-+])\s*)?(?:(\d+)(?:\s*/\s*(\d+))?(?:\s*\*\s*({_FACTORS}))?|({_FACTORS}))\s*"
)
_FACTOR_RE = re.compile(rf"({_NAME})(?:\s*\^\s*(\d+))?")


class ParseError(ValueError):
    """Raised for text that does not match the polynomial grammar."""


class RingError(ValueError):
    """Raised for ring mismatches and malformed ring data."""


class PolyRing:
    """A polynomial ring K[x_1, ..., x_n] with named, ordered variables."""

    __slots__ = ("names", "domain", "_index", "_hash", "_powers")

    def __init__(self, names: Sequence[str], domain=QQ):
        names = tuple(names)
        if not names:
            raise RingError("a ring needs at least one variable")
        seen = set()
        for n in names:
            if not _NAME_RE.fullmatch(n):
                raise RingError(f"bad variable name {n!r}")
            if n in seen:
                raise RingError(f"duplicate variable name {n!r}")
            seen.add(n)
        self.names = names
        self.domain = domain
        self._index = {n: i for i, n in enumerate(names)}
        self._hash = hash((names, domain))
        self._powers = None  # per-variable factor strings, made by format_poly

    @property
    def nvars(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise RingError(f"{name!r} is not a variable of {self}") from None

    def var(self, name: str) -> "Polynomial":
        exps = [0] * self.nvars
        exps[self.index(name)] = 1
        return Polynomial(self, {tuple(exps): self.domain.one})

    def gens(self) -> Tuple["Polynomial", ...]:
        return tuple(self.var(n) for n in self.names)

    def const(self, value) -> "Polynomial":
        c = self.domain.coerce(value)
        if not c:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c})

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    @property
    def one(self) -> "Polynomial":
        return self.const(1)

    def monomial(self, exps: Exponents, coeff=1) -> "Polynomial":
        return self.poly({tuple(exps): coeff})

    def poly(self, mapping: Dict[Exponents, object]) -> "Polynomial":
        """Build a polynomial from {exponent tuple: coefficient}, validating."""
        pairs = []
        for exps, raw in mapping.items():
            exps = tuple(exps)
            if len(exps) != self.nvars:
                raise RingError(
                    f"exponent tuple {exps} has length {len(exps)}, ring has "
                    f"{self.nvars} variables"
                )
            if any(not isinstance(e, int) or e < 0 for e in exps):
                raise RingError(f"negative or non-integer exponent in {exps}")
            pairs.append((exps, self.domain.coerce(raw)))
        return summed(self, pairs)

    def parse(self, text: str) -> "Polynomial":
        return _parse_poly(self, text)

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.names == other.names
            and self.domain == other.domain
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return format_ring_header(self)


class Polynomial:
    """An element of a PolyRing; terms is a dict {exponents: coefficient}.

    Instances are treated as immutable; the terms dict is never mutated
    after construction.  Use ring.poly / ring.parse to build values with
    validation; arithmetic sums trusted terms through ``summed``.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: PolyRing, terms: Dict[Exponents, object]):
        self.ring = ring
        self.terms = terms
        self._hash = None

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self):
        """The coefficient of the constant term (zero if absent)."""
        return self.terms.get((0,) * self.ring.nvars, self.ring.domain.zero)

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.constant_value() == self.ring.domain.one

    # -- structure -------------------------------------------------------

    def support(self) -> frozenset:
        """Indices of variables that actually occur."""
        used = set()
        for exps in self.terms:
            for i, e in enumerate(exps):
                if e:
                    used.add(i)
        return frozenset(used)

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, v: int) -> int:
        if not self.terms:
            return -1
        return max(e[v] for e in self.terms)

    def num_terms(self) -> int:
        return len(self.terms)

    def as_univariate(self, v: int) -> Dict[int, "Polynomial"]:
        """Coefficients {d: c_d} of self = sum c_d * x_v^d with c_d free of x_v."""
        buckets: Dict[int, Dict[Exponents, object]] = {}
        for exps, c in self.terms.items():
            d = exps[v]
            rest = exps[:v] + (0,) + exps[v + 1:]
            buckets.setdefault(d, {})[rest] = c
        return {d: Polynomial(self.ring, t) for d, t in sorted(buckets.items())}

    def coefficient_of(self, v: int, d: int) -> "Polynomial":
        out = {}
        for exps, c in self.terms.items():
            if exps[v] == d:
                out[exps[:v] + (0,) + exps[v + 1:]] = c
        return Polynomial(self.ring, out)

    # -- arithmetic ------------------------------------------------------

    def _require_same_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingError("polynomials from different rings")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._require_same_ring(other)
        return summed(self.ring, chain(self.terms.items(), other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = self.ring.const(other)
        self._require_same_ring(other)
        negated = zip(other.terms, map(neg, other.terms.values()))
        return summed(self.ring, chain(self.terms.items(), negated))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = self.ring.domain.coerce(other)
            if not c:
                return self.ring.zero
            return Polynomial(self.ring, {e: k * c for e, k in self.terms.items()})
        self._require_same_ring(other)
        if len(self.terms) > len(other.terms):
            self, other = other, self
        theirs = other.terms.items()
        return summed(self.ring, (
            (tuple(map(add, e1, e2)), c1 * c2)
            for e1, c1 in self.terms.items() for e2, c2 in theirs
        ))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = self.ring.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n = base_needed
        return result

    def multiply_monomial(self, exps: Exponents, coeff) -> "Polynomial":
        """coeff x^exps times self, coeff coerced into the domain."""
        ring = self.ring
        if len(exps) != ring.nvars:
            raise RingError(f"exponent tuple {tuple(exps)} has length {len(exps)}, "
                            f"ring has {ring.nvars} variables")
        c = ring.domain.coerce(coeff)
        if not c:
            return ring.zero
        return Polynomial(ring, {tuple(map(add, e, exps)): k * c
                                 for e, k in self.terms.items()})

    # -- order-dependent views -------------------------------------------

    def leading_data(self, order) -> Tuple[object, Exponents]:
        """(leading coefficient, leading exponent tuple) under ``order``."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        key = order.key
        lead = max(self.terms, key=key)
        return self.terms[lead], lead

    # -- substitution -----------------------------------------------------

    def specialize(self, assignment: Dict[int, object]) -> "Polynomial":
        """Substitute values for some variables (by index)."""
        dom = self.ring.domain
        values = {v: dom.coerce(c) for v, c in assignment.items()}

        def specialized():
            for exps, c in self.terms.items():
                new = list(exps)
                for v, val in values.items():
                    e = exps[v]
                    if e:
                        c = c * val ** e
                        new[v] = 0
                yield tuple(new), c

        return summed(self.ring, specialized())

    def substitute(self, v: int, value: "Polynomial") -> "Polynomial":
        """Substitute a polynomial for variable v (Horner on v-degree)."""
        coeffs = self.as_univariate(v)
        top = max(coeffs) if coeffs else 0
        result = self.ring.zero
        for d in range(top, -1, -1):
            result = result * value
            if d in coeffs:
                result = result + coeffs[d]
        return result

    def permute_vars(self, image: Sequence[int]) -> "Polynomial":
        """Apply the variable substitution x_i -> x_image[i] in the same ring."""

        def permuted():
            for exps, c in self.terms.items():
                new = [0] * len(exps)
                for i, e in enumerate(exps):
                    if e:
                        new[image[i]] += e
                yield tuple(new), c

        return summed(self.ring, permuted())

    def derivative(self, v: int) -> "Polynomial":
        dom = self.ring.domain
        out = {}
        for exps, c in self.terms.items():
            e = exps[v]
            if not e:
                continue
            k = c * dom.coerce(e)
            if not k:
                continue
            out[exps[:v] + (e - 1,) + exps[v + 1:]] = k
        return Polynomial(self.ring, out)

    # -- comparison and display -------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            if isinstance(other, int):
                return self == self.ring.const(other)
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ring, frozenset(self.terms.items())))
        return self._hash

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<{format_poly(self)}>"


def summed(ring: PolyRing, pairs: Iterable[Tuple[Exponents, object]]) -> Polynomial:
    """The sum of (exponent tuple, coefficient) terms as a polynomial of
    ``ring``: coefficients of equal exponent tuples are added, and every
    zero, given or summed, is dropped.  The pairs are trusted: tuples of
    ring.nvars ints and elements of ring.domain."""
    terms: Dict[Exponents, object] = {}
    get = terms.get
    for exps, c in pairs:
        s = get(exps)
        terms[exps] = c if s is None else s + c
    if not all(terms.values()):
        terms = {e: c for e, c in terms.items() if c}
    return Polynomial(ring, terms)


def format_poly(f: Polynomial) -> str:
    if not f.terms:
        return "0"
    ring = f.ring
    powers = ring._powers
    if powers is None:
        powers = ring._powers = tuple(_Powers(name) for name in ring.names)
    rational = isinstance(ring.domain, Rationals)
    out = []
    for exps, c in sorted(f.terms.items(), reverse=True):
        if rational:
            num, den = c.numerator, c.denominator
        else:
            num, den = c.value, 1
        if num < 0:
            out.append(" - ")
            num = -num
        else:
            out.append(" + ")
        monomial = "*".join(map(getitem, compress(powers, exps), filter(None, exps)))
        if den != 1:
            coeff = f"{num}/{den}"
        elif num != 1 or not monomial:
            coeff = str(num)
        else:
            out.append(monomial)
            continue
        out.append(f"{coeff}*{monomial}" if monomial else coeff)
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


class _Powers(dict):
    """The printed factors of one variable, keyed by a positive exponent.
    A ring keeps one per variable; past 64 exponents a factor is built each
    time and not kept."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__({1: name})
        self.name = name

    def __missing__(self, e: int) -> str:
        text = f"{self.name}^{e}"
        if len(self) < 64:
            self[e] = text
        return text


def _parse_poly(ring: PolyRing, text: str) -> Polynomial:
    """Scan ``text`` one term at a time: each term is one match of
    ``_TERM_RE``, and its factors are read by one ``findall``."""
    dom = ring.domain
    index = ring._index
    nvars = ring.nvars
    one = dom.one
    minus_one = -one
    pairs = []
    pos, end = 0, len(text)
    if not text.strip():
        raise ParseError("empty polynomial text")
    while pos < end:
        m = _TERM_RE.match(text, pos)
        if m is None:
            raise ParseError(_scan_error(text, pos))
        sign, num, den, factors, bare = m.groups()
        if pos and not sign:
            raise ParseError(f"expected + or - before {text[pos:m.end()].strip()!r}")
        pos = m.end()
        if num is None:
            c = minus_one if sign == "-" else one
        else:
            n = -int(num) if sign == "-" else int(num)
            if den is None:
                c = dom.coerce(n)
            else:
                d = int(den)
                if d == 0:
                    raise ParseError("zero denominator")
                c = dom.from_fraction(n, d)
        exps = [0] * nvars
        for name, e in _FACTOR_RE.findall(factors or bare or ""):
            i = index.get(name)
            if i is None:
                raise ParseError(f"unknown variable {name!r}")
            exps[i] += int(e) if e else 1
        pairs.append((tuple(exps), c))
    return summed(ring, pairs)


def _scan_error(text: str, pos: int) -> str:
    """The message for a position where no term starts."""
    rest = text[pos:].lstrip()
    column = len(text) - len(rest) + 1
    if rest[0] in "+-":
        return f"expected a term after {rest[0]!r} at column {column}"
    return f"unexpected {rest[0]!r} at column {column}"


# -- ring headers and extensions ------------------------------------------

_RANGE_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*?)(\d+)\.\.([A-Za-z_][A-Za-z0-9_]*?)(\d+)$")


def parse_ring_header(line: str) -> PolyRing:
    """Parse "ring Q[x1..x3,y]" or "ring GF(7)[x,y]" into a PolyRing."""
    line = line.strip()
    if not line.startswith("ring"):
        raise ParseError("ring header must start with 'ring'")
    rest = line[len("ring"):].strip()
    m = re.match(r"(Q|GF\((\d+)\))\s*\[(.*)\]$", rest)
    if not m:
        raise ParseError(f"malformed ring header {line!r}")
    try:
        domain = QQ if m.group(1) == "Q" else PrimeField(int(m.group(2)))
    except DomainError as ex:
        raise ParseError(f"bad ring header: {ex}") from None
    names = []
    for chunk in m.group(3).split(","):
        chunk = chunk.strip()
        if not chunk:
            raise ParseError("empty name in ring header")
        r = _RANGE_RE.fullmatch(chunk)
        if r:
            p1, a, p2, b = r.group(1), int(r.group(2)), r.group(3), int(r.group(4))
            if p1 != p2 or b < a:
                raise ParseError(f"bad variable range {chunk!r}")
            names.extend(f"{p1}{i}" for i in range(a, b + 1))
        else:
            names.append(chunk)
    try:
        return PolyRing(names, domain)
    except (RingError, DomainError) as ex:
        raise ParseError(f"bad ring header: {ex}") from None


def format_ring_header(ring: PolyRing) -> str:
    dom = "Q" if isinstance(ring.domain, Rationals) else f"GF({ring.domain.p})"
    chunks = []
    i = 0
    names = ring.names
    split = [re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*?)(\d+)", n) for n in names]
    while i < len(names):
        j = i
        if split[i]:
            prefix, start = split[i].group(1), int(split[i].group(2))
            while (
                j + 1 < len(names)
                and split[j + 1]
                and split[j + 1].group(1) == prefix
                and int(split[j + 1].group(2)) == start + (j + 1 - i)
            ):
                j += 1
        if j - i >= 2:
            chunks.append(f"{names[i]}..{names[j]}")
        else:
            chunks.extend(names[i:j + 1])
        i = j + 1
    return f"ring {dom}[{','.join(chunks)}]"


def adjoin(ring: PolyRing, stem: str) -> Tuple[PolyRing, int]:
    """The ring with one helper variable appended, and the helper's index.
    The helper is named ``stem``, or ``stem0``, ``stem1``, ... when that name
    is taken."""
    name, k = stem, 0
    while name in ring._index:
        name, k = f"{stem}{k}", k + 1
    return PolyRing(ring.names + (name,), ring.domain), ring.nvars


def inject(f: Polynomial, big: PolyRing) -> Polynomial:
    """f in a ring made by appending variables to f's ring."""
    pad = (0,) * (big.nvars - f.ring.nvars)
    return Polynomial(big, {e + pad: c for e, c in f.terms.items()})


def project(f: Polynomial, ring: PolyRing) -> Polynomial:
    """Inverse of inject: drop the appended variables, which must not occur."""
    n = ring.nvars
    if any(any(e[n:]) for e in f.terms):
        raise RingError("polynomial involves helper variables")
    return Polynomial(ring, {e[:n]: c for e, c in f.terms.items()})
