"""Shared fixtures: small rings, a parse helper, and a synthetic
44-generator data set shaped like the documented second prime component."""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

import pytest

from idealdec.domains import QQ
from idealdec.hyperedge import build_hyperedge_ideal, paper_3x12
from idealdec.rings import Polynomial, PolyRing
from idealdec.verify import admissible_partitions, partition_rule_monomials


@pytest.fixture
def rxy() -> PolyRing:
    return PolyRing(("x", "y"), QQ)


@pytest.fixture
def rxyz() -> PolyRing:
    return PolyRing(("x", "y", "z"), QQ)


@pytest.fixture
def rxyzw() -> PolyRing:
    return PolyRing(("x", "y", "z", "w"), QQ)


def _partition_monomial(partition: Tuple[int, int, int], shift: int) -> Tuple[int, ...]:
    """A degree-12 exponent tuple over 36 variables with the given letter
    partition: letters are assigned to the column indices contiguously,
    rotated by ``shift`` positions."""
    a, b, _ = partition
    exps = [0] * 36
    for col in range(12):
        slot = (col - shift) % 12
        letter = 0 if slot < a else (1 if slot < a + b else 2)
        exps[letter * 12 + col] = 1
    return tuple(exps)


def _y_positions(exps: Tuple[int, ...]) -> List[int]:
    return [i for i in range(12, 24) if exps[i] == 1]


def _swap_y_for_x(exps: Tuple[int, ...], y_pos: int) -> Tuple[int, ...]:
    out = list(exps)
    out[y_pos] = 0
    out[y_pos - 12] = 1
    return tuple(out)


def build_synthetic_p2_like() -> List[Polynomial]:
    """Forty-four generators satisfying every documented structural check:
    the 16 minors, the full (0,6,6) rule-support generator at slot 17, a
    252-term (1,5,6) generator at slot 19 whose x->y image cancels down to
    108 rule monomials, and two-term fillers for the other partitions."""
    spec = paper_3x12()
    ring = spec.ring()
    polys: List[Polynomial] = list(build_hyperedge_ideal(spec).generators)

    rule = sorted(partition_rule_monomials((0, 6, 6), ring))
    one = Fraction(1)

    g17 = Polynomial(ring, {e: one for e in rule})

    g19_terms = {}
    for e in rule[:108]:
        ys = _y_positions(e)
        g19_terms[_swap_y_for_x(e, ys[0])] = one
    for e in rule[108:144]:
        ys = _y_positions(e)
        for k in range(4):
            coeff = one if k < 2 else -one
            g19_terms[_swap_y_for_x(e, ys[k])] = coeff
    g19 = Polynomial(ring, g19_terms)

    def filler(partition: Tuple[int, int, int]) -> Polynomial:
        return Polynomial(
            ring,
            {
                _partition_monomial(partition, 0): one,
                _partition_monomial(partition, 1): Fraction(-2),
            },
        )

    layout = [(0, 6, 6), (1, 6, 5), (1, 5, 6)]
    layout += [p for p in sorted(admissible_partitions()) if p not in layout]
    for partition in layout:
        if partition == (0, 6, 6):
            polys.append(g17)
        elif partition == (1, 5, 6):
            polys.append(g19)
        else:
            polys.append(filler(partition))
    return polys


@pytest.fixture(scope="session")
def synthetic_p2_like() -> List[Polynomial]:
    return build_synthetic_p2_like()
