"""The four workloads: their inputs, their operations and the check of each
operation's output.

One operation is one ``idealdec`` CLI invocation (``idealdec.cli.main``
in-process) or one library ``saturate`` call.  Inputs are generated here;
the program receives only the generator files or the parsed ideals.  Every
check compares against a computation made apart from idealdec (see
oracle.py) or a property the method must have.

A round of each workload takes 0.5 to 2 s, so that run.py can bracket
every round with reference timings and a run holds ten or more rounds.
The inputs do not depend on the seed, which only shuffles the order of a
round's operations: input costs that moved with the seed widened the
run-to-run spread as much as the machine's drift did.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, List, Sequence, Tuple

import oracle

HERE = Path(__file__).resolve().parent
MINOR_COLS = 9
KATSURA_N = 5
KATSURA_REFERENCE = HERE / "katsura5_grevlex.gens"

# The acceptance corpora of the test suite, kept here so the benchmark
# stands alone: (variables, generators, associated primes).
DECOMPOSITION_CORPUS = [
    (("x",), ("x^2 - 1",), [("x - 1",), ("x + 1",)]),
    (("x",), ("x^3",), [("x",)]),
    (("x", "y"), ("x*y",), [("x",), ("y",)]),
    (("x", "y"), ("x^2", "x*y"), [("x",), ("x", "y")]),
    (("x", "y"), ("x^2*y^3",), [("x",), ("y",)]),
    (("x", "y"), ("x^2", "y^2"), [("x", "y")]),
    (("x", "y"), ("x^2 - y^2",), [("x - y",), ("x + y",)]),
    (("x", "y"), ("x^2 - 2", "y^2 - 2"), [("x - y", "y^2 - 2"), ("x + y", "y^2 - 2")]),
    (("x", "y"), ("x^2 - x", "x*y"), [("x",), ("x - 1", "y")]),
    (("x", "y"), ("x^2", "x*y", "y^2"), [("x", "y")]),
    (("x", "y", "z"), ("x*y", "x*z"), [("x",), ("y", "z")]),
    (("x", "y", "z"), ("x*y", "y*z", "z*x"), [("x", "y"), ("y", "z"), ("x", "z")]),
    (("x", "y", "z"), ("y - x^2", "z - x^3"), [("y - x^2", "z - x^3")]),
    (("x", "y", "z", "w"), ("x*y - z*w",), [("x*y - z*w",)]),
]

# The binomial edge ideal of the path 1 - 2 - 3 is radical with minimal
# primes P_{} (the 2x3 minors) and P_{2} = <x2, y2> (Herzog, Hibi,
# Hreinsdottir, Kahle, Rauh 2010).
P3 = (
    ("x1", "x2", "x3", "y1", "y2", "y3"),
    ("x1*y2 - x2*y1", "x2*y3 - x3*y2"),
    [("x1*y2 - x2*y1", "x1*y3 - x3*y1", "x2*y3 - x3*y2"), ("x2", "y2")],
)

PRIMALITY_CORPUS = [
    (("x", "y", "z"), ("y - x^2", "z - x^3"), True),
    (("x", "y", "z", "w"), ("x*y - z*w",), True),
    (("x", "y"), ("y^2 - x^3",), True),
    (("x", "y"), ("x^2 + 1",), True),
    (("x", "y"), ("x^2 + y^2 + 1",), True),
    (("x", "y"), ("x", "y"), True),
    (("x", "y"), ("x*y",), False),
    (("x", "y"), ("x^2",), False),
    (("x", "y", "z"), ("x*y", "x*z"), False),
    (("x", "y"), ("x^2 - y^2",), False),
    (("x", "y"), ("x^2 - 1", "y"), False),
]

SATURATION_CORPUS = [
    (("x", "y"), ("x^2*y",), "x"),
    (("x", "y"), ("x^2*y",), "y"),
    (("x", "y", "z"), ("x*y", "x*z"), "x"),
    (("x", "y"), ("x^2", "x*y"), "x"),
    (("x", "y"), ("x^2 - y^2",), "x - y"),
    (("x", "y"), ("x^3*y^2",), "x*y"),
    (("x", "y", "z"), ("x*y", "y*z", "z*x"), "z"),
    (("x",), ("x^2 - 1",), "x - 1"),
    (("x", "y", "z"), ("y - x^2", "z - x^3"), "z"),
    (("x", "y", "z", "w"), ("x*y - z*w",), "w"),
]

RANDOM_SATURATIONS = 20
SATURATION_SEED = 2024


@dataclass
class Job:
    """One operation: ``run(out_path)`` calls idealdec and returns its
    outcome (a CLI exit code, or a library result); ``check(outcome,
    out_path)`` returns the problems found in it."""

    name: str
    run: Callable[[Path], object]
    check: Callable[[object, Path], List[str]]


def _cli_check(inner: Callable[[str], List[str]]):
    """Check a CLI outcome: exit code 0 and a report that passes ``inner``.
    Rounds repeat the same operations, so a report already judged is not
    judged again."""
    seen = {}

    def check(code, out: Path) -> List[str]:
        if code != 0:
            return [f"exit code {code}"]
        text = out.read_text(encoding="utf-8")
        if text not in seen:
            seen[text] = inner(text)
        return seen[text]
    return check


def _write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def _parse_all(names, texts) -> List[oracle.Terms]:
    return [oracle.parse_poly(t, names) for t in texts]


# ---------------------------------------------------------------------------


def minors(lib: SimpleNamespace, seed: int, work: Path) -> List[Job]:
    """The 84 maximal minors of the generic 3x9 matrix, written by
    ``idealdec build`` from a spec file; one degrevlex basis."""
    tag = f"minors3x{MINOR_COLS}"
    spec = _write(work / f"{tag}.spec",
                  f"name {tag}\nrows 3\ncols {MINOR_COLS}\nletters x,y,z\n"
                  f"hyperedge {','.join(str(c) for c in range(1, MINOR_COLS + 1))}\n")
    src = str(work / f"{tag}.gens")
    code = lib.cli.main(["build", spec, "--out", src])
    if code != 0:
        raise RuntimeError(f"idealdec build {spec} exited {code}")
    return [Job(
        f"groebner-{tag}",
        lambda out: lib.cli.main(["groebner", src, "--order", "degrevlex", "--out", str(out)]),
        _cli_check(lambda text: oracle.check_minors_basis(text, MINOR_COLS)),
    )]


def katsura(lib: SimpleNamespace, seed: int, work: Path) -> List[Job]:
    """Katsura-5 (6 polynomials in u0..u5); one degrevlex basis."""
    names, polys = oracle.katsura(KATSURA_N)
    src = _write(work / "katsura5.gens", oracle.generator_text(names, polys))
    reference = KATSURA_REFERENCE.read_text(encoding="utf-8")
    return [Job(
        "groebner-katsura5",
        lambda out: lib.cli.main(["groebner", src, "--order", "degrevlex", "--out", str(out)]),
        _cli_check(lambda text: oracle.check_katsura_basis(text, KATSURA_N, reference)),
    )]


def random_saturations(count: int) -> List[Tuple[Tuple[str, ...], Tuple[str, ...], str]]:
    """Ideals <f, sigma(f)> in Q[x,y,z] saturated by h, shaped like the
    acceptance saturation/symmetry criterion and drawn from its seed 2024:
    sigma swaps two variables; f and h have 2-3 terms with exponents up to
    2, total degree up to 3 and coefficients in {-2, -1, 1, 2}.

    Without the degree cap a few cases take seconds each: 90 saturations
    took 7 s to 28 s across seeds 1-3, against 1.6 s to 3.6 s with it."""
    names = ("x", "y", "z")
    rng = random.Random(SATURATION_SEED)

    def random_poly() -> oracle.Terms:
        terms = {}
        for _ in range(rng.randint(2, 3)):
            exps = (0, 0, 4)
            while sum(exps) > 3:
                exps = tuple(rng.randint(0, 2) for _ in range(3))
            terms[exps if sum(exps) else (1, 0, 0)] = Fraction(rng.choice((-2, -1, 1, 2)))
        return terms

    out = []
    for _ in range(count):
        a, b = rng.sample(range(3), 2)
        f, h = random_poly(), random_poly()
        swapped = {}
        for e, c in f.items():
            e = list(e)
            e[a], e[b] = e[b], e[a]
            swapped[tuple(e)] = c
        out.append((names, (oracle.format_poly(f, names), oracle.format_poly(swapped, names)),
                    oracle.format_poly(h, names)))
    return out


def _saturation_job(lib: SimpleNamespace, name: str, names, gens, h_text) -> Job:
    ring = lib.rings.PolyRing(names, lib.domains.QQ)
    judged = {}

    def run(out):
        I = lib.ideals.Ideal.parse(ring, gens)
        return lib.ideals.saturate(I, ring.parse(h_text))

    def check(res, out):
        J = [dict(g.terms) for g in res.ideal.generators]
        key = (tuple(oracle.normalized(g) for g in J), res.exponent)
        if key not in judged:
            judged[key] = oracle.check_saturation(
                names, _parse_all(names, gens), oracle.parse_poly(h_text, names), J, res.exponent)
        return judged[key]

    return Job(name, run, check)


def saturate(lib: SimpleNamespace, seed: int, work: Path) -> List[Job]:
    """20 random saturations plus the 10 cases of the acceptance saturation
    corpus, each one ``saturate(I, h)`` with the default strategy; the
    operation parses its ideal, so no cached basis survives from one round
    to the next."""
    cases = random_saturations(RANDOM_SATURATIONS) + SATURATION_CORPUS
    jobs = [_saturation_job(lib, f"saturate-{k:03d}", names, gens, h_text)
            for k, (names, gens, h_text) in enumerate(cases)]
    random.Random(seed).shuffle(jobs)
    return jobs


def _minor_symmetries(cols: int) -> str:
    """The adjacent column transpositions, which generate every column
    permutation of the generic matrix."""
    return "".join(
        "".join(f"({letter}{c} {letter}{c + 1})" for letter in "xyz") + "\n"
        for c in range(1, cols)
    )


def decompose(lib: SimpleNamespace, seed: int, work: Path) -> List[Job]:
    """Decompositions and primality verdicts whose answers are known apart
    from the program."""
    jobs: List[Job] = []

    def cli_job(name: str, argv: Sequence[str], inner: Callable[[str], List[str]]):
        argv = list(argv)
        jobs.append(Job(name, lambda out: lib.cli.main(argv + ["--out", str(out)]), _cli_check(inner)))

    def gens_file(tag: str, names, gens) -> Tuple[str, List[oracle.Terms]]:
        polys = _parse_all(names, gens)
        return _write(work / f"{tag}.gens", oracle.generator_text(names, polys)), polys

    def decompose_job(tag, names, path, polys, primes):
        cli_job(f"decompose-{tag}", ["decompose", path],
                lambda text: oracle.check_decomposition(text, names, polys, primes))

    def primality_job(tag, names, path, polys, prime, extra=()):
        cli_job(f"primality-{tag}", ["primality", path, *extra],
                lambda text: oracle.check_primality(text, names, polys, prime))

    names, gens, _ = P3
    path, polys = gens_file("p3", names, gens)
    primality_job("p3", names, path, polys, False)
    for k, (names, gens, primes) in enumerate(DECOMPOSITION_CORPUS):
        path, polys = gens_file(f"decompose{k:02d}", names, gens)
        decompose_job(f"corpus{k:02d}", names, path, polys, [_parse_all(names, p) for p in primes])
    for tag, n in (("c5", 5), ("c6", 6)):
        names, polys, primes = oracle.edge_ideal(n, [(i, i % n + 1) for i in range(1, n + 1)])
        path = _write(work / f"edge-{tag}.gens", oracle.generator_text(names, polys))
        decompose_job(f"edge-{tag}", names, path, polys, primes)
    for k, (names, gens, prime) in enumerate(PRIMALITY_CORPUS):
        path, polys = gens_file(f"primality{k:02d}", names, gens)
        primality_job(f"corpus{k:02d}", names, path, polys, prime)
    # the maximal minors of a generic matrix generate a prime ideal
    # (Hochster-Eagon)
    names = oracle.generic_matrix_names(5)
    polys = oracle.maximal_minors(5)
    path = _write(work / "minors3x5.gens", oracle.generator_text(names, polys))
    sym = _write(work / "minors3x5.sym", _minor_symmetries(5))
    primality_job("minors3x5", names, path, polys, True, ("--symmetry-file", sym))
    random.Random(seed).shuffle(jobs)
    return jobs


WORKLOADS = {
    "minors3x9": minors,
    "katsura5": katsura,
    "saturate": saturate,
    "decompose": decompose,
}
