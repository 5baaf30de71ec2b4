"""Command-line frontend: build / groebner / indepsets / decompose /
primality / verify.

All reports are plain line-oriented text starting with a schema version
line; given identical inputs and flags a run reproduces its output byte for
byte.  Exit codes: 0 for a certified result, 1 for any error (usage, parse,
I/O, failed verification), 2 for an UNKNOWN verdict or an incomplete
decomposition, 3 for a ``--timeout`` expiry (the partial log is still
emitted).
"""

from __future__ import annotations

import argparse
import errno
import functools
import math
import os
import signal
import sys
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

# modules, not names: a command runs only the modules it uses (see __init__)
from . import decompose, groebner, hyperedge, indepsets, symmetry, verify
from .files import (
    FileFormatError,
    generator_lines,
    read_content_lines,
    read_generators,
)
from .ideals import Ideal, IdealError, dimension
from .orders import OrderError, order_from_string
from .rings import ParseError, Polynomial, PolyRing, format_poly, format_ring_header

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNKNOWN = 2
EXIT_TIMEOUT = 3

SCHEMA_LINE = "idealdec report v1"
SEED_ENV = "IDEALDEC_SEED"

BUILTIN_SPECS = ("paper-3x12", "p1-minors")

class CliError(Exception):
    """A user-facing error: message to stderr, exit code 1."""


class _TimeoutExpired(Exception):
    pass


def _raise_timeout(signum, frame):
    raise _TimeoutExpired()


class _Parser(argparse.ArgumentParser):
    """argparse with the exit-code contract (usage errors exit 1, not 2)."""

    def error(self, message):
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# helpers


def _resolve_seed(value: Optional[int]) -> int:
    if value is not None:
        return value
    env = os.environ.get(SEED_ENV)
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise CliError(f"{SEED_ENV} must be an integer, got {env!r}")


_T = TypeVar("_T")


def _read(path: str, reader: Callable[[str], _T]) -> _T:
    """``reader(path)``, with an OSError turned into a CliError."""
    try:
        return reader(path)
    except OSError as ex:
        raise CliError(f"cannot read {path}: {ex.strerror or ex}")


def _read_input(path: str) -> Tuple[PolyRing, List[Polynomial], str]:
    """The ring and generators of a generator file, and its ``# input:``
    line, whose digest is of the bytes that were parsed."""
    ring, polys, digest = _read(path, read_generators)
    return ring, polys, f"# input: {os.path.basename(path)} sha256={digest}"


def _read_symmetries(path: str, ring: PolyRing) -> Tuple[symmetry.SymmetryAction, ...]:
    """One action per line, written in cycle notation over variable names."""
    actions: List[symmetry.SymmetryAction] = []
    for lineno, text in _read(path, read_content_lines):
        try:
            actions.append(
                symmetry.SymmetryAction.from_cycles(ring, text, label=f"line {lineno}")
            )
        except symmetry.SymmetryError as ex:
            raise CliError(f"{path}: line {lineno}: {ex}")
    return tuple(actions)


def _parse_spec_file(path: str) -> hyperedge.HyperedgeSpec:
    """A hyperedge spec file: ``rows``/``cols``/``letters`` and one
    ``hyperedge`` line per column set, with ``#`` comments."""
    name = os.path.splitext(os.path.basename(path))[0]
    rows = cols = None
    letters: Optional[Tuple[str, ...]] = None
    hyperedges: List[Tuple[int, ...]] = []
    for lineno, text in _read(path, read_content_lines):
        parts = text.replace(",", " ").split()
        key, args = parts[0], parts[1:]
        try:
            if key == "name" and len(args) == 1:
                name = args[0]
            elif key == "rows" and len(args) == 1:
                rows = int(args[0])
            elif key == "cols" and len(args) == 1:
                cols = int(args[0])
            elif key == "letters" and args:
                letters = tuple(args)
            elif key == "hyperedge" and args:
                hyperedges.append(tuple(int(a) for a in args))
            else:
                raise ValueError(f"unrecognized line {text!r}")
        except ValueError as ex:
            raise CliError(f"{path}: line {lineno}: {ex}")
    if rows is None or cols is None or letters is None or not hyperedges:
        raise CliError(
            f"{path}: a spec needs rows, cols, letters and at least one hyperedge"
        )
    try:
        return hyperedge.HyperedgeSpec(
            name=name,
            rows=rows,
            cols=cols,
            letters=letters,
            hyperedges=tuple(hyperedges),
        )
    except hyperedge.HyperedgeError as ex:
        raise CliError(f"{path}: {ex}")


def _unwritable(out: str) -> Optional[str]:
    """Why ``out`` cannot be written, or None when it looks writable: its
    directory exists and is writable, and it is not itself a directory."""
    parent = os.path.dirname(out) or "."
    if os.path.isdir(out):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT
    elif not os.access(parent, os.W_OK) or (
        os.path.exists(out) and not os.access(out, os.W_OK)
    ):
        code = errno.EACCES
    else:
        return None
    return os.strerror(code)


def _emit(sink: Sequence[str], out: Optional[str]) -> None:
    text = "\n".join(sink) + "\n"
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as ex:
        raise CliError(f"cannot write {out}: {ex.strerror or ex}")


# ---------------------------------------------------------------------------
# subcommands (each appends to ``sink`` as it goes, so a timeout can still
# flush the partial log)


def _cmd_build(args, sink: List[str]) -> int:
    if args.spec == "paper-3x12":
        ideal = hyperedge.build_hyperedge_ideal(hyperedge.paper_3x12())
        comment = "paper-3x12"
    elif args.spec == "p1-minors":
        ideal = hyperedge.all_maximal_minors_ideal(hyperedge.paper_3x12())
        comment = "p1-minors"
    elif os.path.exists(args.spec):
        spec = _parse_spec_file(args.spec)
        ideal = hyperedge.build_hyperedge_ideal(spec)
        comment = spec.name
    else:
        names = ", ".join(BUILTIN_SPECS)
        raise CliError(
            f"unknown builtin {args.spec!r} and no such file (builtins: {names})"
        )
    sink.extend(generator_lines(ideal.ring, ideal.generators, comments=[comment]))
    return EXIT_OK


def _cmd_groebner(args, sink: List[str]) -> int:
    ring, polys, _ = _read_input(args.ideal)
    order = order_from_string(args.order, ring.names)
    G = Ideal(ring, polys).groebner(order=order)
    sink.extend(
        generator_lines(
            ring,
            G.elements,
            comments=[f"reduced groebner basis order={args.order}"],
        )
    )
    return EXIT_OK


def _cmd_indepsets(args, sink: List[str]) -> int:
    ring, polys, input_line = _read_input(args.ideal)
    I = Ideal(ring, polys)
    sink.append(SCHEMA_LINE)
    sink.append("# command: indepsets")
    sink.append(input_line)
    sink.append(f"# limit: {args.limit if args.limit is not None else 'none'}")
    sink.append(format_ring_header(I.ring))
    if I.is_trivial():
        sink.append("sets 0")
        sink.append("# trivial ideal: no independent sets")
        return EXIT_OK
    sets = indepsets.maximal_independent_sets(I.groebner(), limit=args.limit)
    sink.append(f"dimension {dimension(I)}")
    sink.append(f"sets {len(sets)}")
    if args.score:
        ranking = indepsets.rank_independent_sets(I, [tuple(sorted(u)) for u in sets])
        sink.extend(ranking.lines())
    else:
        for u in sets:
            names = ",".join(I.ring.names[i] for i in sorted(u))
            sink.append(f"u={names if names else '-'}")
    return EXIT_OK


def _cmd_decompose(args, sink: List[str]) -> int:
    seed = _resolve_seed(args.seed)
    ring, polys, input_line = _read_input(args.ideal)
    I = Ideal(ring, polys)
    sink.append(SCHEMA_LINE)
    sink.append("# command: decompose")
    sink.append(input_line)
    sink.append(f"# seed: {seed}")
    sink.append(f"# budget: {args.budget if args.budget is not None else 'none'}")
    sink.append(format_ring_header(I.ring))
    result = decompose.gtz_decompose(I, seed=seed, budget=args.budget)
    sink.append(f"components {len(result.components)}")
    sink.append(f"complete {'yes' if result.complete else 'no'}")
    for k, comp in enumerate(result.components, start=1):
        tag = f"component {k}"
        cert = comp.certificate if comp.certificate else "-"
        sink.append(f"{tag} certified={'yes' if comp.certified else 'no'} "
                    f"certificate={cert}")
        prov = comp.provenance
        if prov.u_names:
            sink.append(f"{tag} u {','.join(prov.u_names)}")
        for c_text, exponent in prov.saturations:
            sink.append(f"{tag} saturation {c_text} exp={exponent}")
        if comp.obligation:
            sink.append(f"{tag} obligation {comp.obligation}")
        for g in comp.primary.canonical_generators():
            sink.append(f"{tag} primary {format_poly(g)}")
        for g in comp.prime.canonical_generators():
            sink.append(f"{tag} prime {format_poly(g)}")
    return EXIT_OK if result.complete else EXIT_UNKNOWN


def _cmd_primality(args, sink: List[str]) -> int:
    seed = _resolve_seed(args.seed)
    ring, polys, input_line = _read_input(args.ideal)
    I = Ideal(ring, polys)
    symmetries: Tuple[symmetry.SymmetryAction, ...] = ()
    if args.symmetry_file:
        symmetries = _read_symmetries(args.symmetry_file, I.ring)
    sink.append(SCHEMA_LINE)
    sink.append("# command: primality")
    sink.append(input_line)
    sink.append(f"# seed: {seed}")
    sink.append(f"# budget: {args.budget if args.budget is not None else 'none'}")
    sink.append(f"# symmetries: {len(symmetries)}")
    sink.append(format_ring_header(I.ring))
    verdict = decompose.primality_check(
        I, symmetries=symmetries, seed=seed, budget=args.budget
    )
    sink.append(f"verdict {verdict.status}")
    for d in verdict.details:
        sink.append(f"detail {d}")
    if verdict.witness is not None:
        sink.append(f"witness {format_poly(verdict.witness)}")
    if verdict.obligation:
        sink.append(f"obligation {verdict.obligation}")
    return EXIT_UNKNOWN if verdict.status == decompose.UNKNOWN else EXIT_OK


def _cmd_verify(args, sink: List[str]) -> int:
    if args.against != "paper-3x12":
        raise CliError(f"unknown reference {args.against!r} (only paper-3x12)")
    ring, polys, input_line = _read_input(args.data)
    spec = hyperedge.paper_3x12()
    if tuple(ring.names) != tuple(spec.ring().names):
        raise CliError(
            "the data file must use the paper-3x12 ring "
            f"({format_ring_header(spec.ring())})"
        )
    sink.append(SCHEMA_LINE)
    sink.append("# command: verify")
    sink.append(input_line)
    sink.append(f"# against: {args.against}")
    sink.append(format_ring_header(ring))
    report = verify.verify_structure(polys, spec)
    sink.extend(report.lines())
    return EXIT_OK if report.ok else EXIT_ERROR


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    Every ``main`` call shares it, so it must not be changed: each
    ``parse_args`` call fills a new namespace from the same defaults.
    """
    parser = _Parser(
        prog="idealdec",
        description="Exact primary decomposition and hyperedge-ideal tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(sp):
        sp.add_argument("--out", metavar="PATH",
                        help="write output to PATH instead of stdout")
        sp.add_argument("--timeout", type=float, metavar="SECONDS",
                        help="abort with exit code 3 after SECONDS (the "
                             "partial log is still written)")

    b = sub.add_parser("build", help="construct a hyperedge ideal")
    b.add_argument("spec",
                   help="builtin name (paper-3x12, p1-minors) or a spec file")
    common(b)

    g = sub.add_parser("groebner", help="reduced Groebner basis of an ideal file")
    g.add_argument("ideal", help="generator file")
    g.add_argument("--order", default="degrevlex", metavar="SPEC",
                   help="lex | degrevlex | block:<names|names> "
                        "(default: degrevlex)")
    common(g)

    i = sub.add_parser("indepsets",
                       help="enumerate (and optionally score) maximal "
                            "independent sets")
    i.add_argument("ideal", help="generator file")
    i.add_argument("--limit", type=int, metavar="N",
                   help="print the first N maximal sets enumerated (positive)")
    i.add_argument("--score", action="store_true",
                   help="rank the sets by localized cost")
    common(i)

    def decompose_like(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("ideal", help="generator file")
        sp.add_argument("--seed", type=int, metavar="S",
                        help=f"random seed (default: ${SEED_ENV} or 0)")
        sp.add_argument("--budget", type=int, metavar="N",
                        help="rank at most N candidate independent sets of "
                             "size dim (positive)")
        common(sp)
        return sp

    decompose_like("decompose", "primary decomposition report")
    pr = decompose_like("primality", "primality verdict for an ideal")
    pr.add_argument("--symmetry-file", metavar="PATH",
                    help="file of ideal automorphisms, one cycle-notation "
                         "line per action")

    v = sub.add_parser("verify", help="structural checks for 44-generator data")
    v.add_argument("data", help="generator file to verify")
    v.add_argument("--against", default="paper-3x12", metavar="NAME",
                   help="reference structure (default: paper-3x12)")
    common(v)

    return parser


_DISPATCH = {
    "build": _cmd_build,
    "groebner": _cmd_groebner,
    "indepsets": _cmd_indepsets,
    "decompose": _cmd_decompose,
    "primality": _cmd_primality,
    "verify": _cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget", None) is not None and args.budget <= 0:
        parser.error("--budget must be a positive integer")
    if getattr(args, "limit", None) is not None and args.limit <= 0:
        parser.error("--limit must be a positive integer")
    if args.timeout is not None and not 0 < args.timeout < math.inf:
        parser.error("--timeout must be a positive, finite number of seconds")
    # refused before any work, so a long run cannot end in a lost report
    reason = args.out and _unwritable(args.out)
    if reason:
        print(f"idealdec: error: cannot write {args.out}: {reason}", file=sys.stderr)
        return EXIT_ERROR

    sink: List[str] = []
    old_handler = None
    timing = args.timeout is not None
    if timing:
        if not hasattr(signal, "setitimer"):
            raise SystemExit(EXIT_ERROR)
        old_handler = signal.signal(signal.SIGALRM, _raise_timeout)
    try:
        if timing:
            # armed inside the try: a timer that expires at once still ends
            # in exit 3, and the handler is restored below
            try:
                signal.setitimer(signal.ITIMER_REAL, args.timeout)
            except OverflowError:
                raise CliError(
                    f"--timeout {args.timeout:g} is beyond the system timer's range"
                ) from None
        code = _DISPATCH[args.command](args, sink)
    except _TimeoutExpired:
        sink.append(f"timeout after {args.timeout:g}s")
        code = EXIT_TIMEOUT
    except (CliError, ParseError, FileFormatError, OrderError, IdealError) as ex:
        print(f"idealdec: error: {ex}", file=sys.stderr)
        return EXIT_ERROR
    # an except clause reads its classes only when an exception reaches it,
    # so the errors above load none of the modules below
    except decompose.DecompositionIncomplete as ex:
        # a depth or budget overrun: unfinished, not an input error
        print(f"idealdec: incomplete: {ex}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (groebner.GroebnerError, symmetry.SymmetryError,
            hyperedge.HyperedgeError, decompose.DecompositionError) as ex:
        print(f"idealdec: error: {ex}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if timing:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)
    try:
        _emit(sink, args.out)
    except CliError as ex:
        print(f"idealdec: error: {ex}", file=sys.stderr)
        return EXIT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
