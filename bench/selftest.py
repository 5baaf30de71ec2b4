"""Show that each output check accepts a right answer and rejects a
corrupted one (a dropped basis element, an exponent off by one, a missing
prime, a witness that is no zero divisor):

    python3 bench/selftest.py

The right answers are built from the oracle alone, so idealdec is not
needed.  Exits 1 if any check judges a case wrongly.
"""

from __future__ import annotations

import sys
from typing import List, Sequence

import oracle
from workloads import KATSURA_N, KATSURA_REFERENCE, MINOR_COLS, P3


def _report(names: Sequence[str], components: List[Sequence[oracle.Terms]]) -> str:
    lines = ["idealdec report v1", f"ring Q[{','.join(names)}]",
             f"components {len(components)}", "complete yes"]
    for k, gens in enumerate(components, start=1):
        for g in gens:
            lines.append(f"component {k} primary {oracle.format_poly(g, names)}")
        for g in gens:
            lines.append(f"component {k} prime {oracle.format_poly(g, names)}")
    return "\n".join(lines) + "\n"


def _verdict(names, verdict: str, witness: str = "") -> str:
    lines = ["idealdec report v1", f"ring Q[{','.join(names)}]", f"verdict {verdict}"]
    if witness:
        lines.append(f"witness {witness}")
    return "\n".join(lines) + "\n"


def cases():
    """(label, problems found, whether the answer is right)."""
    cols = MINOR_COLS
    names = oracle.generic_matrix_names(cols)
    minors = oracle.maximal_minors(cols)
    flipped = [{e: -c for e, c in minors[0].items()}] + minors[1:]
    yield "minors: all minors", oracle.check_minors_basis(oracle.generator_text(names, minors), cols), True
    yield "minors: one minor negated", oracle.check_minors_basis(oracle.generator_text(names, flipped), cols), True
    yield ("minors: one minor dropped",
           oracle.check_minors_basis(oracle.generator_text(names, minors[1:]), cols), False)

    reference = KATSURA_REFERENCE.read_text(encoding="utf-8")
    knames, kbasis = oracle.read_generator_text(reference)
    yield "katsura: the reference", oracle.check_katsura_basis(reference, KATSURA_N, reference), True
    yield ("katsura: last element dropped",
           oracle.check_katsura_basis(oracle.generator_text(knames, kbasis[:-1]), KATSURA_N, reference), False)

    xy = ("x", "y")
    I = [oracle.parse_poly("x^2*y", xy)]
    x = oracle.parse_poly("x", xy)
    y = [oracle.parse_poly("y", xy)]
    yield "saturate: <x^2*y> : x^inf = <y>, m = 2", oracle.check_saturation(xy, I, x, y, 2), True
    yield "saturate: exponent 1", oracle.check_saturation(xy, I, x, y, 1), False
    yield "saturate: exponent 3", oracle.check_saturation(xy, I, x, y, 3), False
    yield "saturate: result <x*y>", oracle.check_saturation(xy, I, x, [oracle.parse_poly("x*y", xy)], 1), False

    pnames, pgens, pprimes = P3
    gens = [oracle.parse_poly(g, pnames) for g in pgens]
    primes = [[oracle.parse_poly(g, pnames) for g in p] for p in pprimes]
    yield "decompose: P3", oracle.check_decomposition(_report(pnames, primes), pnames, gens, primes), True
    yield ("decompose: P3 missing the prime <x2, y2>",
           oracle.check_decomposition(_report(pnames, primes[:1]), pnames, gens, primes), False)

    cnames, cgens, cprimes = oracle.edge_ideal(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])
    yield ("decompose: edge ideal of C5, five vertex covers",
           oracle.check_decomposition(_report(cnames, cprimes), cnames, cgens, cprimes), True)
    yield ("decompose: edge ideal of C5 missing a cover",
           oracle.check_decomposition(_report(cnames, cprimes[1:]), cnames, cgens, cprimes), False)

    xy_gens = [oracle.parse_poly("x*y", xy)]
    yield "primality: <x*y> witness y", oracle.check_primality(_verdict(xy, "NOT_PRIME", "y"), xy, xy_gens, False), True
    yield ("primality: <x*y> witness x*y (in the ideal)",
           oracle.check_primality(_verdict(xy, "NOT_PRIME", "x*y"), xy, xy_gens, False), False)
    yield ("primality: <x*y> witness x + 1 (no zero divisor)",
           oracle.check_primality(_verdict(xy, "NOT_PRIME", "x + 1"), xy, xy_gens, False), False)
    yield "primality: <x*y> called PRIME", oracle.check_primality(_verdict(xy, "PRIME"), xy, xy_gens, False), False


def main() -> int:
    wrong = 0
    for label, problems, right in cases():
        ok = (not problems) == right
        wrong += not ok
        verdict = "accepted" if not problems else "rejected: " + "; ".join(problems)
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
