"""Hilbert-Poincare numerators of monomial ideals.

For a monomial ideal L of K[x_1, ..., x_n] the Hilbert series of K[X]/L,
the sum over d of dim_K (K[X]/L)_d t^d, is N(t) / (1 - t)^n for a
polynomial N with integer coefficients, the numerator.  It does not depend
on n: a variable that no generator of L involves adds a factor 1 / (1 - t)
on both sides.

``numerator`` computes N with Bigatti's pivot algorithm (Bigatti,
*Computation of Hilbert-Poincare series*, JPAA 119, 1997), on any
exponents.  It first polarizes L: each power x^a, a > 1, in a minimal
generator becomes x x_2 ... x_a, with new variables x_2, ..., which keeps
N (polarization keeps the graded Betti numbers) and divisibility between
the generators.  A squarefree monomial is then a set of variables, one bit
each, and the recursion works on those sets:

* the unit ideal has N = 0, the zero ideal N = 1, and at most four
  generators give N = sum over the sets S of them of (-1)^|S|
  t^deg(lcm(S)), by inclusion and exclusion;
* generators in disjoint variables multiply: N(L + <m>) = N(L) (1 -
  t^deg m) when m shares no variable with L, so each generator that
  shares no variable with the others splits off as a factor;
* the pivot x, a variable in the most generators, splits the rest:
  N(L) = N(L + <x>) + t N(L : x), where N(L + <x>) = (1 - t) N(L'), L'
  the generators without x, and L : x has the generators with x, x
  removed, and those of L' that none of these divides.

Both parts have fewer variables, so the recursion ends.

A homogeneous ideal I has the Hilbert series of its ideal of leading
monomials under every monomial order, so the numerator of one basis's
leading monomials is that of every other basis of I.  ``groebner`` caches
it on a plain degrevlex basis and uses it to drop S-pairs (Traverso,
*Hilbert functions and the Buchberger algorithm*, JSC 22, 1996).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

Exponents = Tuple[int, ...]
Numerator = Tuple[int, ...]


def numerator(monomials: Iterable[Exponents]) -> Numerator:
    """The numerator N of the Hilbert series N(t) / (1 - t)^n of K[X]/L, L
    the ideal of the exponent tuples ``monomials`` (all of one length), as
    its coefficients by ascending degree, with no trailing zeros: () for
    the unit ideal, (1,) for the zero ideal."""
    monomials = list(monomials)
    if not monomials:
        return (1,)
    width = max(map(sum, monomials)).bit_length() + 1
    shifts = range(0, len(monomials[0]) * width, width)
    guards = sum(1 << (s + width - 1) for s in shifts)
    return packed_numerator((sum(a << s for a, s in zip(e, shifts)) for e in monomials),
                            width, guards)


def packed_numerator(monomials: Iterable[int], width: int, guards: int) -> Numerator:
    """``numerator`` of packed monomials.

    A packed monomial is an int of fields of ``width`` bits, one for each
    variable, at the places of the guard bits ``guards``, the top bit of
    each field; the guard bits are zero, and each degree lies below 2^(W-1)
    (the packing of ``groebner``, with its degree field zero).
    """
    return _trimmed(_numerator(_polarized(monomials, width, guards)))


def numerator_with(n: Numerator, monomials: Iterable[int], m: int,
                   width: int, guards: int) -> Numerator:
    """N(L + <m>) = N(L) - t^deg(m) N(L : m), from n = N(L), L the ideal
    of the packed ``monomials``, m packed as they are."""
    # the fields of a : m are max(a - m, 0): (a | G) - m keeps the guard of
    # each field where a >= m, with a - m below it
    top = width - 1
    colons = [t & ((k := t & guards) - (k >> top))
              for t in [(a | guards) - m for a in monomials]]
    below = _numerator(_polarized(colons, width, guards))
    out = list(n)
    shift = m % ((1 << width) - 1)
    out += [0] * max(0, shift + len(below) - len(out))
    for k, c in enumerate(below, shift):
        out[k] -= c
    return _trimmed(out)


def _trimmed(coeffs: List[int]) -> Numerator:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _polarized(monomials: Iterable[int], width: int, guards: int) -> List[int]:
    """The minimal generators of the ideal of the packed ``monomials``,
    polarized into sets of variables: x^a, a > 1, becomes the bit of x and
    a - 1 bits above the fields; [0] for the unit ideal.

    Of packed monomials (W the width, G the guard bits) a divides b iff
    ``(b - a) & G == 0``, and the degree is the sum of the fields,
    ``a % (2**W - 1)``; only a monomial of lower degree divides another
    properly.
    """
    field = (1 << width) - 1
    kept: List[int] = []
    # the fields of the variables among them: a monomial with a bit there
    # is a multiple of one
    hit = 0
    # the variables are kept[:first]; kept[first:lower] have degrees below
    # ``degree``
    first = lower = degree = 0
    for d, g in sorted((g % field, g) for g in set(monomials)):
        if d == 1:
            hit |= g * field
            kept.append(g)
            first = len(kept)
            continue
        if not d:
            return [0]
        if g & hit:
            continue
        if d != degree:
            lower, degree = len(kept), d
        for k in kept[first:lower]:
            if not (g - k) & guards:
                break
        else:
            kept.append(g)
    # the value bits of each field but its lowest: a power above 1
    ones = guards >> (width - 1)
    powers = guards - ones - ones
    # the greatest exponent of each variable with a power, by field shift
    powered = [g for g in kept if g & powers]
    if not powered:
        return kept
    tops: Dict[int, int] = {}
    for g in powered:
        for shift, a in _powers(g, powers, width):
            if a > tops.get(shift, 1):
                tops[shift] = a
    # x^a is x times the new variables from bases[x] to bases[x] + a - 2
    bases: Dict[int, int] = {}
    free = guards.bit_length()
    for shift, a in tops.items():
        bases[shift] = free
        free += a - 1
    polarized = [g for g in kept if not g & powers]
    for g in powered:
        for shift, a in _powers(g, powers, width):
            g = g & ~(field << shift) | 1 << shift | ((1 << a - 1) - 1) << bases[shift]
        polarized.append(g)
    return polarized


def _powers(g: int, powers: int, width: int) -> Iterable[Tuple[int, int]]:
    """(shift, a) for each field of the packed g, at bit ``shift``, whose
    exponent a is above 1 (has a bit in ``powers``)."""
    field = (1 << width) - 1
    h = g & powers
    while h:
        shift = (h.bit_length() - 1) // width * width
        h &= ~(field << shift)
        yield shift, g >> shift & field


def _numerator(gens: List[int]) -> List[int]:
    """N of the ideal of the minimal squarefree ``gens`` (``_polarized``),
    trailing zeros allowed."""
    if not gens:
        return [1]
    if not gens[0]:
        return []
    return _squarefree(gens)


# ideals of at most this many generators are summed over their subsets
# (``_subsets``)
_FEW = 4


def _subsets(gens: List[int]) -> List[int]:
    """N by inclusion and exclusion: the sum over the sets S of the
    squarefree ``gens`` of (-1)^|S| t^deg(lcm(S)), the lcm their union."""
    lcms, signs = [0], [1]
    for g in gens:
        lcms += [m | g for m in lcms]
        signs += [-s for s in signs]
    out = [0] * (lcms[-1].bit_count() + 1)
    for m, s in zip(lcms, signs):
        out[m.bit_count()] += s
    return out


def _squarefree(gens: List[int]) -> List[int]:
    """N of the ideal of the minimal squarefree ``gens``, none of them 1."""
    if len(gens) <= _FEW:
        return _subsets(gens)
    # per variable, the number of generators that involve it, in binary:
    # bit k of its count at its place in planes[k]
    planes: List[int] = []
    for s in gens:
        k = 0
        while s:
            if k == len(planes):
                planes.append(s)
                break
            planes[k], s = planes[k] ^ s, planes[k] & s
            k += 1
    # the variables in two or more generators
    shared = 0
    for plane in planes[1:]:
        shared |= plane
    # a generator whose variables no other generator involves splits off
    # as a factor 1 - t^deg
    out = [1]
    rest = []
    for g in gens:
        if g & shared:
            rest.append(g)
        else:
            d = g.bit_count()
            out += [0] * d
            for k in range(len(out) - 1, d - 1, -1):
                out[k] -= out[k - d]
    if len(rest) <= _FEW:
        return _product(out, _subsets(rest))
    # x, a variable in the most generators
    most = shared
    for plane in reversed(planes):
        if most & plane:
            most &= plane
    x = most & -most
    without = [g for g in rest if not g & x]
    cut = _minimal([g ^ x for g in rest if g & x])
    # N(L + <x>) = (1 - t) N(without): x is in no generator of ``without``
    total = _squarefree(without) + [0]
    for k in range(len(total) - 1, 0, -1):
        total[k] -= total[k - 1]
    # L : x; a generator of ``without`` divides none of ``cut``, as it would
    # divide a generator of L with x
    below = _squarefree(cut + [h for h in without if all(c & h != c for c in cut)])
    total += [0] * max(0, 1 + len(below) - len(total))
    for k, c in enumerate(below, 1):
        total[k] += c
    return _product(out, total)


def _minimal(gens: List[int]) -> List[int]:
    """The minimal ones of the squarefree ``gens``, none of them 1."""
    kept: List[int] = []
    lower = degree = 0
    for d, g in sorted((g.bit_count(), g) for g in set(gens)):
        if d != degree:
            lower, degree = len(kept), d
        for k in kept[:lower]:
            if k & g == k:
                break
        else:
            kept.append(g)
    return kept


def _product(a: List[int], b: List[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        if c:
            for k, d in enumerate(b, i):
                out[k] += c * d
    return out
