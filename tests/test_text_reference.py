"""The one-pass text layer against the tokenizing one it replaced.

The reference below is the parser and printer as they were before terms
were scanned by one regex match each: ``_ref_tokenize``, ``_ref_parse_poly``
and ``_ref_format_poly`` are kept verbatim, except that the two domain
methods the printer called, ``split_sign`` and ``coeff_str``, are inlined as
``_ref_split_sign`` and ``_ref_coeff_str``.  On junk text and on valid
text, over Q and GF(7), both parsers reject or both return the same
polynomial, and both printers print the same bytes.  The one intended
difference: the reference swallowed a ``*`` followed by a sign, reading
``x*-2`` as x - 2; the scanner rejects it.
"""

import re
import time
from typing import Dict

from hypothesis import example, given, settings
from hypothesis import strategies as st

from idealdec.domains import QQ, DomainError, PrimeField, Rationals
from idealdec.rings import (
    Exponents,
    ParseError,
    Polynomial,
    PolyRing,
    RingError,
    format_poly,
)

NAMES = ("x", "y", "z")
RINGS = {None: PolyRing(NAMES, QQ), 7: PolyRing(NAMES, PrimeField(7))}
_STAR_BEFORE_SIGN = re.compile(r"\*\s*[-+]")

# -- the reference -------------------------------------------------------------

_REF_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z0-9_]*)|([-+*/^()]))")


def _ref_split_sign(dom, c):
    if isinstance(dom, Rationals):
        return (c < 0, -c if c < 0 else c)
    return (False, c)


def _ref_coeff_str(dom, c):
    if isinstance(dom, Rationals):
        if c.denominator == 1:
            return str(c.numerator)
        return f"{c.numerator}/{c.denominator}"
    return str(c.value)


def _ref_format_poly(f: Polynomial) -> str:
    if not f.terms:
        return "0"
    ring = f.ring
    dom = ring.domain
    pieces = []
    for exps, coeff in sorted(f.terms.items(), reverse=True):
        neg, mag = _ref_split_sign(dom, coeff)
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(ring.names[i])
            elif e:
                factors.append(f"{ring.names[i]}^{e}")
        if not factors:
            body = _ref_coeff_str(dom, mag)
        elif mag == dom.one:
            body = "*".join(factors)
        else:
            body = _ref_coeff_str(dom, mag) + "*" + "*".join(factors)
        pieces.append(("-" if neg else "+", body))
    sign0, body0 = pieces[0]
    out = [body0 if sign0 == "+" else "-" + body0]
    for sign, body in pieces[1:]:
        out.append(f" {sign} {body}")
    return "".join(out)


def _ref_tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if not m or m.end() == pos and not text[pos:].strip():
            break
        if not m.group(0).strip():
            pos = m.end()
            continue
        if m.group(1):
            tokens.append(("int", m.group(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}")
    return tokens


def _ref_parse_poly(ring: PolyRing, text: str) -> Polynomial:
    tokens = _ref_tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    terms: Dict[Exponents, object] = {}
    pos = 0
    n = len(tokens)
    dom = ring.domain
    first = True
    while pos < n:
        sign = 1
        kind, val = tokens[pos]
        if kind == "op" and val in "+-":
            sign = -1 if val == "-" else 1
            pos += 1
        elif not first:
            raise ParseError(f"expected + or - before {val!r}")
        first = False
        if pos >= n:
            raise ParseError("dangling sign")
        # optional coefficient
        coeff = dom.one
        saw_coeff = False
        kind, val = tokens[pos]
        if kind == "int":
            num = int(val)
            den = 1
            pos += 1
            if pos < n and tokens[pos] == ("op", "/"):
                pos += 1
                if pos >= n or tokens[pos][0] != "int":
                    raise ParseError("expected integer denominator")
                den = int(tokens[pos][1])
                if den == 0:
                    raise ParseError("zero denominator")
                pos += 1
            coeff = dom.from_fraction(num, den)
            saw_coeff = True
        exps = [0] * ring.nvars
        saw_factor = False
        while pos < n:
            kind, val = tokens[pos]
            if saw_coeff or saw_factor:
                if kind == "op" and val == "*":
                    pos += 1
                    if pos >= n:
                        raise ParseError("dangling *")
                    kind, val = tokens[pos]
                else:
                    break
            if kind != "name":
                if saw_coeff and not saw_factor:
                    raise ParseError(f"expected variable after *, got {val!r}")
                break
            try:
                idx = ring.index(val)
            except RingError:
                raise ParseError(f"unknown variable {val!r}") from None
            pos += 1
            e = 1
            if pos < n and tokens[pos] == ("op", "^"):
                pos += 1
                if pos >= n or tokens[pos][0] != "int":
                    raise ParseError("expected integer exponent")
                e = int(tokens[pos][1])
                pos += 1
            exps[idx] += e
            saw_factor = True
        if not saw_coeff and not saw_factor:
            raise ParseError(f"expected term at {tokens[pos][1]!r}")
        key = tuple(exps)
        c = coeff if sign > 0 else -coeff
        s = terms.get(key)
        if s is None:
            if c:
                terms[key] = c
        else:
            s = s + c
            if s:
                terms[key] = s
            else:
                del terms[key]
    return Polynomial(ring, terms)


# -- the comparison -------------------------------------------------------------


def _outcome(parse, ring, text):
    try:
        return parse(ring, text)
    except (ParseError, DomainError):
        return None


def _parse(ring, text):
    return ring.parse(text)


def _assert_same(text, modulus):
    ring = RINGS[modulus]
    got = _outcome(_parse, ring, text)
    ref = _outcome(_ref_parse_poly, ring, text)
    if _STAR_BEFORE_SIGN.search(text):
        assert got is None
        return None
    assert (got is None) == (ref is None), (text, got, ref)
    if got is not None:
        assert got == ref
        assert format_poly(got) == _ref_format_poly(got)
    return got


_settings = settings(max_examples=400, deadline=None, derandomize=True,
                     database=None)
_moduli = st.sampled_from([None, 7])
# the alphabet of test_properties.test_junk_text_is_rejected_cleanly
_junk = st.text(alphabet="xyzw0123456789+-*/^() .,_", max_size=24)


@_settings
@given(text=_junk, modulus=_moduli)
@example(text="1/0", modulus=None)
@example(text="x/7", modulus=7)
@example(text="1/7", modulus=7)
@example(text="14/7*x", modulus=7)
@example(text="x*x^0*y", modulus=None)
@example(text="  ", modulus=None)
def test_junk_text_parses_as_the_reference_does(text, modulus):
    _assert_same(text, modulus)


_space = st.sampled_from(["", "", " ", "  ", "\t"])


@st.composite
def _valid_text(draw):
    """Text in the grammar, with whitespace between any two tokens."""
    out = []
    for k in range(draw(st.integers(1, 5))):
        sign = draw(st.sampled_from(["+", "-"] if k else ["", "+", "-"]))
        out += [draw(_space), sign, draw(_space)]
        factors = draw(st.lists(
            st.tuples(st.sampled_from(NAMES), st.none() | st.integers(0, 80)),
            max_size=4))
        if not factors or draw(st.booleans()):
            out.append(str(draw(st.integers(0, 10**20))))
            if draw(st.booleans()):
                out += [draw(_space), "/", draw(_space),
                        str(draw(st.integers(1, 10**6)))]
            if factors:
                out += [draw(_space), "*", draw(_space)]
        for i, (name, e) in enumerate(factors):
            if i:
                out += [draw(_space), "*", draw(_space)]
            out.append(name)
            if e is not None:
                out += [draw(_space), "^", draw(_space), str(e)]
    out.append(draw(_space))
    return "".join(out)


@_settings
@given(text=_valid_text(), modulus=_moduli)
@example(text="x^2 + 3/2*x*y - 7", modulus=None)
@example(text="x^70*y^65 - 2*x^70", modulus=7)  # past the kept factors
def test_valid_text_parses_as_the_reference_does(text, modulus):
    got = _assert_same(text, modulus)
    if modulus is None or "/" not in text:
        assert got is not None
    if got is not None:
        assert RINGS[modulus].parse(format_poly(got)) == got


def test_a_star_before_a_sign_is_rejected():
    ring = RINGS[None]
    # the reference read these as sums, which a reader would not
    assert _ref_parse_poly(ring, "x*-2") == ring.parse("x - 2")
    assert _ref_parse_poly(ring, "2*x * + y") == ring.parse("2*x + y")
    for text in ("x*-2", "2*x * + y", "x*+y*z"):
        assert _outcome(_ref_parse_poly, ring, text) is not None
        assert _outcome(_parse, ring, text) is None


def test_a_long_run_of_whitespace_is_scanned_in_linear_time():
    # with two whitespace runs free to meet, as around an optional sign, a
    # failed match backtracks through every split of the run: 5,000 spaces
    # before a stray character took 0.65 s, and the time grows with the
    # square of the run
    ring = RINGS[None]
    for text in (" " * 30000 + ".", "x" + " " * 30000 + "*" + " " * 30000 + "."):
        start = time.perf_counter()
        assert _outcome(_parse, ring, text) is None
        assert time.perf_counter() - start < 1.0
