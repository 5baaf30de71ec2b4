"""Monomial orders: lex, degrevlex, block, and the CLI order parser."""

import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idealdec.groebner import _packing
from idealdec.orders import (
    OrderError,
    block_order,
    degrevlex_order,
    lex_order,
    order_from_string,
)


def test_lex_compares_leftmost_exponent_first():
    lex = lex_order()
    assert lex.greater((1, 0, 0), (0, 5, 0))  # x > y^5
    assert lex.greater((1, 2, 0), (1, 1, 1))  # x*y^2 > x*y*z
    assert not lex.greater((0, 1, 0), (0, 1, 0))


def test_degrevlex_degree_first_then_reversed_ties():
    drl = degrevlex_order()
    assert drl.greater((4, 4, 7), (5, 5, 4))  # degree 15 beats 14
    # same degree: the smaller exponent in the last differing variable wins
    assert drl.greater((5, 1, 1), (4, 1, 2))
    assert drl.greater((1, 2, 0), (2, 0, 1))  # x*y^2 > x^2*z


def test_lex_and_degrevlex_disagree_on_leading_term(rxyz):
    f = rxyz.parse("x + y^5")
    _, lex_lead = f.leading_data(lex_order())
    _, drl_lead = f.leading_data(degrevlex_order())
    assert lex_lead == (1, 0, 0)
    assert drl_lead == (0, 5, 0)


def test_block_order_makes_front_block_dominate():
    order = block_order([((0, 1), "degrevlex"), ((2,), "degrevlex")])
    assert order.greater((1, 0, 0), (0, 0, 9))  # x beats z^9
    assert order.greater((0, 1, 0), (0, 0, 2))
    # pure-z monomials are compared within the back block
    assert order.greater((0, 0, 3), (0, 0, 2))


def test_key_orders_like_greater():
    drl = degrevlex_order()
    monomials = [(2, 0, 1), (1, 2, 0), (0, 0, 3), (1, 0, 0), (0, 0, 0)]
    by_key = sorted(monomials, key=drl.key)
    for a, b in zip(by_key, by_key[1:]):
        assert drl.greater(b, a)


_exps = st.tuples(*[st.integers(0, 3)] * 5)
_THREE_BLOCKS_SPEC = [((3,), "lex"), ((0, 4), "degrevlex"), ((2, 1), "lex")]
_THREE_BLOCKS = block_order(_THREE_BLOCKS_SPEC)


def _textbook_greater(blocks, a, b):
    """a > b by the definitions, block by block: lex -- the leftmost
    differing exponent is larger in a; degrevlex -- a has larger degree, or
    equal degree and the rightmost differing exponent is smaller in a."""
    for idxs, inner in blocks:
        ra, rb = [a[i] for i in idxs], [b[i] for i in idxs]
        diff = [x - y for x, y in zip(ra, rb) if x != y]
        if not diff:
            continue
        if inner == "lex":
            return diff[0] > 0
        if sum(ra) != sum(rb):
            return sum(ra) > sum(rb)
        return diff[-1] < 0
    return False


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=_exps, b=_exps)
@example(a=(1, 2, 0, 0, 1), b=(1, 2, 0, 0, 1))
@example(a=(2, 0, 1, 0, 0), b=(1, 2, 0, 0, 0))  # equal degree, reverse ties
def test_packed_key_orders_like_the_textbook(a, b):
    everything = (0, 1, 2, 3, 4)
    for order, blocks in ((lex_order(), [(everything, "lex")]),
                          (degrevlex_order(), [(everything, "degrevlex")]),
                          (_THREE_BLOCKS, _THREE_BLOCKS_SPEC)):
        expected = _textbook_greater(blocks, a, b)
        pack = _packing(order, 5, 8).pack
        assert order.greater(a, b) == expected
        assert (pack(a) > pack(b)) == expected
        assert (order.key(a) > order.key(b)) == expected
        assert (pack(a) == pack(b)) == (a == b)


def test_orders_survive_pickling():
    for order in (lex_order(), degrevlex_order(), _THREE_BLOCKS):
        copy = pickle.loads(pickle.dumps(order))
        assert copy == order and hash(copy) == hash(order)
        assert copy.key((1, 0, 2, 0, 3)) == order.key((1, 0, 2, 0, 3))


def test_order_from_string_variants():
    names = ("x", "y", "z")
    assert order_from_string("lex", names).kind == "lex"
    assert order_from_string("degrevlex", names).kind == "degrevlex"
    assert order_from_string("grevlex", names).kind == "degrevlex"
    blk = order_from_string("block:xy|z", names)
    assert blk.kind == "block"
    assert blk.greater((0, 1, 0), (0, 0, 5))
    with_commas = order_from_string("block:x,y|z", names)
    assert with_commas.greater((0, 1, 0), (0, 0, 5))


def test_order_from_string_rejects_garbage():
    names = ("x", "y")
    with pytest.raises(OrderError):
        order_from_string("shortlex", names)
    with pytest.raises(OrderError):
        order_from_string("block:", names)
    with pytest.raises(OrderError):
        order_from_string("block:x|q", names)


def test_validate_rejects_wrong_variable_count():
    order = block_order([((0, 1), "lex"), ((2,), "lex")])
    order.validate(3)
    with pytest.raises(OrderError):
        order.validate(2)
