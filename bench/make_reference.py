"""Write the sympy reference basis of Katsura-5 that the katsura5 check
compares against (a few seconds):

    python3 bench/make_reference.py

It is sympy's reduced degrevlex basis of the benchmark's own Katsura-5
input, each element made monic, one per line after the ring header.
"""

from __future__ import annotations

from pathlib import Path

import oracle
from workloads import KATSURA_N, KATSURA_REFERENCE


def main() -> None:
    names, polys = oracle.katsura(KATSURA_N)
    R = oracle.SymRing(names)
    G = R.basis(polys)
    basis = []
    for p in G.polys:
        terms = R.terms(p)
        lead = terms[max(terms, key=oracle.degrevlex_key)]
        basis.append({e: c / lead for e, c in terms.items()})
    basis.sort(key=lambda t: oracle.degrevlex_key(max(t, key=oracle.degrevlex_key)))
    text = oracle.generator_text(names, basis)
    Path(KATSURA_REFERENCE).write_text(
        f"# sympy reduced grevlex basis of Katsura-{KATSURA_N}; "
        "regenerate with python3 bench/make_reference.py\n" + text, encoding="utf-8")


if __name__ == "__main__":
    main()
