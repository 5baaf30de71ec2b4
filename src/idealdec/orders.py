"""Monomial orders as sortable keys.

An order maps an exponent tuple to a flat tuple key; monomial comparison is
tuple comparison of keys.  Each order compiles once, at construction, its
``lead_key``, whose *smallest* value is the *greatest* monomial, so ``min``
and ``heapq`` pop leading terms directly.  Three kinds are provided:

* ``lex``       -- ``tuple(map(neg, e))``: exponents compared left to right;
* ``degrevlex`` -- ``tuple(accumulate(map(neg, e)))[::-1]``: the negated
  total degree, then the negated degrees with the last variables dropped one
  by one, so ties in degree are broken by the *smallest* exponent on the
  *last* variable winning;
* ``block``     -- an ordered list of variable blocks, each carrying its own
  lex/degrevlex inner order; the inner keys are concatenated in block order,
  so keys compare block by block, which gives the elimination property for
  the leading blocks.

``key`` is the negated ``lead_key``: greater key, greater monomial.  The
reducers in ``groebner`` compare monomials with ``lead_key``.

Orders are immutable and hashable so they can serve as cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from operator import neg
from typing import Callable, Iterable, Sequence

LEX = "lex"
DEGREVLEX = "degrevlex"
BLOCK = "block"

_SIMPLE_KINDS = (LEX, DEGREVLEX)


class OrderError(ValueError):
    """Raised for malformed order specifications."""


def _lex_lead_key(exps: Sequence[int]) -> tuple:
    return tuple(map(neg, exps))


def _degrevlex_lead_key(exps: Sequence[int]) -> tuple:
    return tuple(accumulate(map(neg, exps)))[::-1]


def _block_lead_key(parts, exps: Sequence[int]) -> tuple:
    out = []
    for idxs, inner_lex in parts:
        if inner_lex:
            out += [-exps[i] for i in idxs]
        else:
            out += tuple(accumulate([-exps[i] for i in idxs]))[::-1]
    return tuple(out)


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order on a polynomial ring with a fixed number of variables.

    ``kind`` is "lex", "degrevlex" or "block".  For block orders ``blocks``
    lists (variable-index tuple, inner kind) pairs; the index tuples must
    partition range(nvars) of any ring the order is used with.
    """

    kind: str
    blocks: tuple = field(default=())
    lead_key: Callable[[Sequence[int]], tuple] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.kind in _SIMPLE_KINDS:
            if self.blocks:
                raise OrderError(f"{self.kind} order takes no blocks")
            lead_key = _lex_lead_key if self.kind == LEX else _degrevlex_lead_key
            object.__setattr__(self, "lead_key", lead_key)
            return
        if self.kind != BLOCK:
            raise OrderError(f"unknown order kind {self.kind!r}")
        if not self.blocks:
            raise OrderError("block order needs at least one block")
        seen = set()
        for idxs, inner in self.blocks:
            if inner not in _SIMPLE_KINDS:
                raise OrderError(f"bad inner order {inner!r}")
            if not idxs:
                raise OrderError("empty block")
            for i in idxs:
                if i in seen:
                    raise OrderError(f"variable {i} appears in two blocks")
                seen.add(i)
        # (indices, inner order is lex) per block, with the inner keys
        # inlined because block keys are hot in eliminations; a partial of a
        # module-level function keeps the order picklable
        parts = tuple((idxs, inner == LEX) for idxs, inner in self.blocks)
        object.__setattr__(self, "lead_key", partial(_block_lead_key, parts))

    def validate(self, nvars: int) -> None:
        """Check the order covers exactly the variables of an nvars ring."""
        if self.kind in _SIMPLE_KINDS:
            return
        covered = {i for idxs, _ in self.blocks for i in idxs}
        if covered != set(range(nvars)):
            raise OrderError(
                f"block order covers {sorted(covered)}, ring has {nvars} variables"
            )

    def key(self, exps: Sequence[int]) -> tuple:
        """Sortable key; greater key means greater monomial (the negated
        ``lead_key``)."""
        return tuple(map(neg, self.lead_key(exps)))

    def greater(self, a: Sequence[int], b: Sequence[int]) -> bool:
        return self.key(a) > self.key(b)


def lex_order() -> MonomialOrder:
    return MonomialOrder(LEX)


def degrevlex_order() -> MonomialOrder:
    return MonomialOrder(DEGREVLEX)


def block_order(blocks: Iterable) -> MonomialOrder:
    """Build a block order from (indices, inner_kind) pairs.

    Blocks listed first dominate: any monomial involving a variable of an
    earlier block exceeds every monomial supported on later blocks only.
    """
    normalized = tuple((tuple(idxs), inner) for idxs, inner in blocks)
    return MonomialOrder(BLOCK, normalized)


def order_from_string(text: str, names: Sequence[str]) -> MonomialOrder:
    """Parse a CLI order spec: "lex", "degrevlex", or "block:x,y|z".

    Block segments are separated by "|"; each segment lists variable names
    separated by commas (for single-character variable names the commas may
    be omitted, e.g. "block:xy|z").  Inner orders are degrevlex.
    """
    text = text.strip()
    if text == LEX:
        return lex_order()
    if text in (DEGREVLEX, "grevlex"):
        return degrevlex_order()
    if not text.startswith("block:"):
        raise OrderError(f"unknown order {text!r}")
    index = {n: i for i, n in enumerate(names)}
    blocks = []
    for segment in text[len("block:"):].split("|"):
        segment = segment.strip()
        if not segment:
            raise OrderError("empty block segment")
        tokens = [t.strip() for t in segment.split(",") if t.strip()]
        idxs = []
        for tok in tokens:
            if tok in index:
                idxs.append(index[tok])
            elif all(ch in index for ch in tok):
                idxs.extend(index[ch] for ch in tok)
            else:
                raise OrderError(f"unknown variable {tok!r} in order spec")
        blocks.append((tuple(idxs), DEGREVLEX))
    order = block_order(blocks)
    order.validate(len(names))
    return order
