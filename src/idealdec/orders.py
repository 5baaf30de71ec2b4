"""Monomial orders as sortable keys.

An order maps an exponent tuple to its *key*, a tuple of rows; monomial
comparison is tuple comparison of keys, greater key, greater monomial.
Every row is the sum of the exponents of some variables, so a key is linear
in the exponents and the sum of two monomials' keys is the key of their
product.  Three kinds are provided:

* ``lex``       -- the rows are e_0, ..., e_{n-1}: exponents compared left to
  right;
* ``degrevlex`` -- the rows are the prefix sums e_0 + ... + e_{k-1}, longest
  first, so the total degree is on top and ties in degree are broken by the
  *smallest* exponent on the *last* variable winning;
* ``block``     -- an ordered list of variable blocks, each carrying its own
  lex/degrevlex inner order; the rows of each block follow those of the
  blocks before it, so keys compare block by block, which gives the
  elimination property for the leading blocks.

Each order compiles its key function once, at construction.  ``parts``
gives the same rows as (block, inner kind) pairs for a ring of n variables;
``groebner`` packs them into one int per monomial.

Orders are immutable and hashable so they can serve as cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from typing import Callable, Iterable, Sequence

LEX = "lex"
DEGREVLEX = "degrevlex"
BLOCK = "block"

_SIMPLE_KINDS = (LEX, DEGREVLEX)


class OrderError(ValueError):
    """Raised for malformed order specifications."""


def _degrevlex_key(exps: Sequence[int]) -> tuple:
    return tuple(accumulate(exps))[::-1]


def _block_key(parts, exps: Sequence[int]) -> tuple:
    out = []
    for idxs, inner_lex in parts:
        rows = [exps[i] for i in idxs]
        out += rows if inner_lex else tuple(accumulate(rows))[::-1]
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
    _key: Callable[[Sequence[int]], tuple] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.kind in _SIMPLE_KINDS:
            if self.blocks:
                raise OrderError(f"{self.kind} order takes no blocks")
            key = tuple if self.kind == LEX else _degrevlex_key
            object.__setattr__(self, "_key", key)
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
        object.__setattr__(self, "_key", partial(_block_key, parts))

    def parts(self, nvars: int) -> tuple:
        """The order as (variable-index tuple, inner kind) blocks, leading
        block first, for a ring of nvars variables."""
        if self.kind in _SIMPLE_KINDS:
            return ((tuple(range(nvars)), self.kind),)
        return self.blocks

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
        """Sortable key; greater key means greater monomial."""
        return self._key(exps)

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
