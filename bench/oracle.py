"""Inputs and answers made apart from idealdec.

Nothing here imports idealdec.  Polynomials are dicts {exponent tuple:
Fraction}; the generator-file format is parsed and written by the small
functions below, and every Groebner-basis fact a check needs comes from
sympy.  The checks return a list of problems, empty when the output passes.
"""

from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

Terms = Dict[Tuple[int, ...], Fraction]

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*/^])")
_RANGE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*?)(\d+)\.\.([A-Za-z_][A-Za-z0-9_]*?)(\d+)")


# ---------------------------------------------------------------------------
# the generator-file format


def parse_ring_header(line: str) -> Tuple[str, ...]:
    m = re.fullmatch(r"ring Q\[(.*)\]", line.strip())
    if not m:
        raise ValueError(f"not a ring header over Q: {line!r}")
    names: List[str] = []
    for chunk in m.group(1).split(","):
        r = _RANGE.fullmatch(chunk)
        if r:
            names.extend(f"{r.group(1)}{i}" for i in range(int(r.group(2)), int(r.group(4)) + 1))
        else:
            names.append(chunk)
    return tuple(names)


def parse_poly(text: str, names: Sequence[str]) -> Terms:
    """Parse a polynomial written without parentheses, as idealdec prints
    it: signed terms of ``*``-joined factors, ``^`` powers, ``a/b``
    coefficients."""
    index = {n: i for i, n in enumerate(names)}
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != re.sub(r"\s+", "", text):
        raise ValueError(f"unparsable polynomial {text!r}")
    terms: Terms = {}
    pos = 0
    while pos < len(tokens):
        sign = 1
        if tokens[pos] in "+-":
            sign = -1 if tokens[pos] == "-" else 1
            pos += 1
        coeff = Fraction(sign)
        exps = [0] * len(names)
        while True:
            tok = tokens[pos]
            pos += 1
            if tok.isdigit():
                num = int(tok)
                if pos < len(tokens) and tokens[pos] == "/":
                    num = Fraction(num, int(tokens[pos + 1]))
                    pos += 2
                coeff *= num
            else:
                power = 1
                if pos < len(tokens) and tokens[pos] == "^":
                    power = int(tokens[pos + 1])
                    pos += 2
                exps[index[tok]] += power
            if pos < len(tokens) and tokens[pos] == "*":
                pos += 1
                continue
            break
        key = tuple(exps)
        total = terms.get(key, 0) + coeff
        if total:
            terms[key] = total
        else:
            terms.pop(key, None)
    return terms


def format_poly(terms: Terms, names: Sequence[str]) -> str:
    pieces = []
    for exps, c in sorted(terms.items(), reverse=True):
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = f"{mag}*" + "*".join(factors)
        pieces.append(("-" if c < 0 else "+", body))
    if not pieces:
        return "0"
    first = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return first + "".join(f" {s} {b}" for s, b in pieces[1:])


def generator_text(names: Sequence[str], polys: Sequence[Terms]) -> str:
    lines = [f"ring Q[{','.join(names)}]"]
    lines += [format_poly(p, names) for p in polys]
    return "\n".join(lines) + "\n"


def read_generator_text(text: str) -> Tuple[Tuple[str, ...], List[Terms]]:
    names: Optional[Tuple[str, ...]] = None
    polys: List[Terms] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if names is None:
            names = parse_ring_header(line)
        else:
            polys.append(parse_poly(line, names))
    if names is None:
        raise ValueError("no ring header")
    return names, polys


def normalized(terms: Terms) -> frozenset:
    """The polynomial scaled so the coefficient of its lex-largest exponent
    is 1: equal for two polynomials exactly when they agree up to a
    nonzero scalar."""
    lead = terms[max(terms)]
    return frozenset((e, c / lead) for e, c in terms.items())


# ---------------------------------------------------------------------------
# inputs


def generic_matrix_names(cols: int) -> Tuple[str, ...]:
    return tuple(f"{letter}{j}" for letter in "xyz" for j in range(1, cols + 1))


def maximal_minors(cols: int) -> List[Terms]:
    """The 3x3 minors of the generic 3 x cols matrix (rows x, y, z), column
    triples in lex order, each expanded by the rule of Sarrus."""
    out = []
    for a, b, c in combinations(range(cols), 3):
        terms: Terms = {}
        for (i, j, k), sign in (((a, b, c), 1), ((b, c, a), 1), ((c, a, b), 1),
                                ((c, b, a), -1), ((a, c, b), -1), ((b, a, c), -1)):
            exps = [0] * (3 * cols)
            exps[i] += 1
            exps[cols + j] += 1
            exps[2 * cols + k] += 1
            terms[tuple(exps)] = Fraction(sign)
        out.append(terms)
    return out


def katsura(n: int) -> Tuple[Tuple[str, ...], List[Terms]]:
    """Katsura-n in u0..un: u0 + 2*(u1 + ... + un) = 1 and, for m < n,
    sum over l in [-n, n] of u_|l| * u_|m-l| = u_m (u_k = 0 for k > n)."""
    nv = n + 1
    names = tuple(f"u{i}" for i in range(nv))

    def unit(i):
        e = [0] * nv
        e[i] = 1
        return tuple(e)

    polys = []
    first: Terms = {unit(0): Fraction(1), (0,) * nv: Fraction(-1)}
    for i in range(1, nv):
        first[unit(i)] = Fraction(2)
    polys.append(first)
    for m in range(n):
        terms: Terms = {}
        for l in range(-n, n + 1):
            a, b = abs(l), abs(m - l)
            if b > n:
                continue
            e = tuple(x + y for x, y in zip(unit(a), unit(b)))
            terms[e] = terms.get(e, 0) + 1
        terms[unit(m)] = terms.get(unit(m), 0) - 1
        polys.append({e: Fraction(c) for e, c in terms.items() if c})
    return names, polys


def edge_ideal(n: int, edges: Sequence[Tuple[int, int]]) -> Tuple[Tuple[str, ...], List[Terms], List[List[Terms]]]:
    """The edge ideal <x_a*x_b : ab an edge> in Q[x1..xn] and its
    associated primes.  It is squarefree, hence radical, so its associated
    primes are its minimal primes <x_i : i in C>, one for each minimal
    vertex cover C of the graph."""
    names = tuple(f"x{i}" for i in range(1, n + 1))

    def monomial(vertices):
        return {tuple(int(i + 1 in vertices) for i in range(n)): Fraction(1)}

    gens = [monomial({a, b}) for a, b in edges]
    covers = []
    for size in range(1, n + 1):
        for C in combinations(range(1, n + 1), size):
            if all(a in C or b in C for a, b in edges) and not any(set(D) <= set(C) for D in covers):
                covers.append(C)
    return names, gens, [[monomial({i}) for i in C] for C in covers]


def degrevlex_key(exps: Sequence[int]):
    return (sum(exps), tuple(-e for e in reversed(exps)))


def quotient_dimension(basis: Sequence[Terms], nvars: int, cap: int = 100000) -> Optional[int]:
    """Number of standard monomials of a degrevlex Groebner basis, or None
    when there are more than ``cap`` (the quotient is then taken to be
    infinite)."""
    leads = [max(p, key=degrevlex_key) for p in basis if p]

    def standard(e):
        return not any(all(a <= b for a, b in zip(l, e)) for l in leads)

    start = (0,) * nvars
    if not standard(start):
        return 0
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for e in frontier:
            for i in range(nvars):
                f = e[:i] + (e[i] + 1,) + e[i + 1:]
                if f not in seen and standard(f):
                    seen.add(f)
                    nxt.append(f)
                    if len(seen) > cap:
                        return None
        frontier = nxt
    return len(seen)


# ---------------------------------------------------------------------------
# sympy as the oracle


class SymRing:
    """sympy counterparts of a ring's variables, plus one tag variable in
    front for eliminations."""

    def __init__(self, names: Sequence[str]):
        import sympy
        from sympy.polys.orderings import ProductOrder, grevlex, lex

        self.sympy = sympy
        self.gens = sympy.symbols(" ".join(names) + " ", seq=True)
        self.tag = sympy.Symbol("_tag")
        self.tagged = (self.tag,) + tuple(self.gens)
        self.t = sympy.Poly(self.tag, *self.tagged, domain=sympy.QQ)
        self.one = sympy.Poly(1, *self.tagged, domain=sympy.QQ)
        self.elim = ProductOrder((lex, lambda m: m[:1]), (grevlex, lambda m: m[1:]))

    def poly(self, terms: Terms, tagged: bool = False):
        S = self.sympy
        gens = self.tagged if tagged else self.gens
        data = {}
        for e, c in terms.items():
            data[((0,) + e) if tagged else e] = S.Rational(c.numerator, c.denominator)
        return S.Poly.from_dict(data or {(0,) * len(gens): 0}, *gens, domain=S.QQ)

    def terms(self, p, tagged: bool = False) -> Terms:
        out: Terms = {}
        for e, c in p.as_dict().items():
            if tagged:
                e = e[1:]
            out[tuple(e)] = Fraction(int(c.p), int(c.q))
        return out

    def basis(self, polys: Sequence[Terms]):
        """sympy's reduced degrevlex basis of the ideal."""
        polys = [p for p in polys if p]
        if not polys:
            return None
        return self.sympy.groebner([self.poly(p) for p in polys], *self.gens, order="grevlex")

    def canonical(self, polys: Sequence[Terms]) -> frozenset:
        """The reduced degrevlex basis, up to scalars: equal for two
        generator lists exactly when they generate the same ideal."""
        G = self.basis(polys)
        if G is None:
            return frozenset()
        return frozenset(normalized(self.terms(p)) for p in G.polys if not p.is_zero)

    def contains(self, G, terms: Terms) -> bool:
        if not terms:
            return True
        if G is None:
            return False
        return G.contains(self.poly(terms).as_expr())

    def eliminate_tag(self, tagged_polys) -> List[Terms]:
        """Generators of the ideal of tagged sympy polynomials intersected
        with the untagged ring (a block order with the tag first)."""
        G = self.sympy.groebner(tagged_polys, *self.tagged, order=self.elim)
        return [self.terms(p, tagged=True) for p in G.polys if p.degree(self.tag) == 0 and not p.is_zero]

    def intersect(self, A: Sequence[Terms], B: Sequence[Terms]) -> List[Terms]:
        gens = [self.t * self.poly(a, True) for a in A if a]
        gens += [(self.one - self.t) * self.poly(b, True) for b in B if b]
        return self.eliminate_tag(gens)

    def saturation(self, I: Sequence[Terms], h: Terms) -> List[Terms]:
        """I : h^infinity by the Rabinowitsch trick: eliminate the tag t
        from I + <t*h - 1>."""
        gens = [self.poly(g, True) for g in I if g] + [self.t * self.poly(h, True) - self.one]
        return self.eliminate_tag(gens)

    def colon(self, I: Sequence[Terms], w: Terms) -> List[Terms]:
        """I : w as (I intersected with <w>) / w."""
        wp = self.poly(w)
        out = []
        for g in self.intersect(I, [w]):
            q, r = self.sympy.div(self.poly(g), wp)
            if not r.is_zero:
                raise ArithmeticError("intersection element not divisible by w")
            out.append(self.terms(q))
        return out


def mul(a: Terms, b: Terms) -> Terms:
    out: Terms = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def power(a: Terms, m: int, nvars: int) -> Terms:
    out: Terms = {(0,) * nvars: Fraction(1)}
    for _ in range(m):
        out = mul(out, a)
    return out


# ---------------------------------------------------------------------------
# checks


def check_minors_basis(text: str, cols: int) -> List[str]:
    """The reduced degrevlex basis of the maximal minors is the minors
    themselves up to sign (Sturmfels-Zelevinsky: they are a universal
    Groebner basis, and no minor's leading term divides another's)."""
    names, basis = read_generator_text(text)
    if names != generic_matrix_names(cols):
        return [f"ring {names} is not the generic 3x{cols} ring"]
    want = [normalized(m) for m in maximal_minors(cols)]
    got = [normalized(g) for g in basis if g]
    problems = []
    if len(got) != len(want):
        problems.append(f"{len(got)} basis elements, expected {len(want)}")
    if set(got) != set(want):
        problems.append(f"{len(set(want) - set(got))} minors missing, "
                        f"{len(set(got) - set(want))} elements are not minors")
    return problems


def check_katsura_basis(text: str, n: int, reference_text: str) -> List[str]:
    """Katsura-n has 2^n solutions counted with multiplicity, so the
    quotient has dimension 2^n; every input lies in the ideal; the basis is
    sympy's reduced degrevlex basis."""
    names, inputs = katsura(n)
    got_names, basis = read_generator_text(text)
    if got_names != names:
        return [f"ring {got_names} is not {names}"]
    problems = []
    dim = quotient_dimension(basis, len(names))
    if dim != 2 ** n:
        problems.append(f"quotient dimension {dim}, expected {2 ** n}")
    ref_names, ref = read_generator_text(reference_text)
    if ref_names != names:
        problems.append("the reference is for another ring")
    elif {normalized(g) for g in basis if g} != {normalized(g) for g in ref}:
        problems.append("basis differs from the sympy reference")
    if basis:
        R = SymRing(names)
        polys = [R.poly(g) for g in basis if g]
        for k, f in enumerate(inputs):
            _, r = R.sympy.reduced(R.poly(f), polys, *R.gens, order="grevlex")
            if not r.is_zero:
                problems.append(f"input {k} does not reduce to zero")
    return problems


def check_saturation(names: Sequence[str], I: Sequence[Terms], h: Terms,
                     J: Sequence[Terms], m: Optional[int]) -> List[str]:
    """J must equal sympy's Rabinowitsch saturation I : h^infinity, and m
    must be the least exponent with h^m * J inside I."""
    R = SymRing(names)
    problems = []
    if R.canonical(J) != R.canonical(R.saturation(I, h)):
        problems.append("saturation differs from the Rabinowitsch saturation")
    if m is None or m < 0:
        return problems + [f"bad exponent {m!r}"]
    GI = R.basis(I)
    n = len(names)
    if not all(R.contains(GI, mul(power(h, m, n), g)) for g in J):
        problems.append(f"h^{m} * J is not inside I")
    if m > 0 and all(R.contains(GI, mul(power(h, m - 1, n), g)) for g in J):
        problems.append(f"h^{m - 1} * J is already inside I: exponent {m} is not least")
    return problems


def parse_report(text: str) -> dict:
    """The fields of an idealdec decompose / primality report that the
    checks read."""
    lines = text.splitlines()
    names = None
    out = {"verdict": None, "witness": None, "complete": None, "components": {}}
    for line in lines:
        if line.startswith("ring "):
            names = parse_ring_header(line)
        elif line.startswith("verdict "):
            out["verdict"] = line.split()[1]
        elif line.startswith("witness "):
            out["witness"] = parse_poly(line[len("witness "):], names)
        elif line.startswith("complete "):
            out["complete"] = line.split()[1] == "yes"
        elif line.startswith("component "):
            _, k, field, rest = line.split(" ", 3)
            comp = out["components"].setdefault(int(k), {"primary": [], "prime": []})
            if field in ("primary", "prime"):
                comp[field].append(parse_poly(rest, names))
    out["names"] = names
    return out


def check_decomposition(text: str, names: Sequence[str], gens: Sequence[Terms],
                        primes: Sequence[Sequence[Terms]]) -> List[str]:
    """The associated primes equal the known ones and the primary
    components intersect back to the input."""
    rep = parse_report(text)
    if tuple(rep["names"] or ()) != tuple(names):
        return ["report ring differs from the input ring"]
    problems = []
    if rep["complete"] is not True:
        problems.append("decomposition not complete")
    R = SymRing(names)
    comps = [rep["components"][k] for k in sorted(rep["components"])]
    got = Counter(R.canonical(c["prime"]) for c in comps)
    want = Counter(R.canonical(p) for p in primes)
    if got != want:
        problems.append(f"{len(comps)} associated primes differ from the {len(primes)} known ones")
    if comps:
        meet = comps[0]["primary"]
        for c in comps[1:]:
            meet = R.intersect(meet, c["primary"])
        if R.canonical(meet) != R.canonical(gens):
            problems.append("the primary components do not intersect to the input")
    else:
        problems.append("no components")
    return problems


def check_primality(text: str, names: Sequence[str], gens: Sequence[Terms],
                    prime: bool) -> List[str]:
    """PRIME for a known prime; otherwise NOT_PRIME with a witness w that
    is a zero divisor outside the ideal: w not in I and I : w != I."""
    rep = parse_report(text)
    if tuple(rep["names"] or ()) != tuple(names):
        return ["report ring differs from the input ring"]
    want = "PRIME" if prime else "NOT_PRIME"
    if rep["verdict"] != want:
        return [f"verdict {rep['verdict']}, expected {want}"]
    if prime:
        return []
    w = rep["witness"]
    if not w:
        return ["NOT_PRIME without a witness"]
    R = SymRing(names)
    problems = []
    if R.contains(R.basis(gens), w):
        problems.append("the witness lies in the ideal")
    if R.canonical(R.colon(gens, w)) == R.canonical(gens):
        problems.append("the witness is not a zero divisor: I : w = I")
    return problems
