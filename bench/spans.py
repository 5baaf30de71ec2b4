"""Per-layer tracing from outside the program.

The tracer wraps public functions of the idealdec modules.  A timed
wrapper records a span (name, start, end, parent) in memory; a counting
wrapper only counts calls, for functions called millions of times.  A
function is replaced in every idealdec module that bound it, because
modules import names directly (``decompose`` binds ``saturate`` as well as
``ideals`` does).  Spans stay in memory until ``summary`` reads them.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter
from typing import Dict, List, Tuple

# (module, attribute path) of each traced function
TIMED = [
    ("cli", "main"),
    ("files", "read_generators"),
    ("groebner", "buchberger"),
    ("groebner", "GroebnerBasis.normal_form"),
    ("ideals", "saturate"),
    ("ideals", "quotient"),
    ("ideals", "intersect"),
    ("ideals", "eliminate"),
    ("indepsets", "rank_independent_sets"),
    ("factorize", "split_minimal_polynomial"),
    ("polygcd", "poly_gcd"),
    ("decompose", "minimal_polynomial"),
    ("decompose", "zero_dim_decompose"),
    ("decompose", "gtz_decompose"),
    ("decompose", "primality_check"),
]
COUNTED = [
    ("groebner", "spolynomial"),
    ("rings", "Polynomial.leading_data"),
    ("orders", "MonomialOrder.key"),
    ("ideals", "Ideal.groebner"),
    ("indepsets", "score_independent_set"),
]

# the per-layer metrics a traced run reports, in BENCHMARK.json order
METRICS = [
    ("cli.main.self_s", "s"),
    ("files.read_generators.s", "s"),
    ("groebner.buchberger.calls", "count"),
    ("groebner.buchberger.s", "s"),
    ("groebner.buchberger.self_s", "s"),
    ("groebner.spolynomial.calls", "count"),
    ("groebner.GroebnerBasis.normal_form.calls", "count"),
    ("groebner.GroebnerBasis.normal_form.s", "s"),
    ("rings.Polynomial.leading_data.calls", "count"),
    ("orders.MonomialOrder.key.calls", "count"),
    ("ideals.saturate.calls", "count"),
    ("ideals.saturate.s", "s"),
    ("ideals.quotient.calls", "count"),
    ("ideals.quotient.s", "s"),
    ("ideals.intersect.calls", "count"),
    ("ideals.intersect.s", "s"),
    ("ideals.eliminate.calls", "count"),
    ("ideals.eliminate.s", "s"),
    ("ideals.Ideal.groebner.calls", "count"),
    ("ideals.Ideal.groebner.hits", "count"),
    ("indepsets.rank_independent_sets.s", "s"),
    ("indepsets.score_independent_set.calls", "count"),
    ("factorize.split_minimal_polynomial.calls", "count"),
    ("factorize.split_minimal_polynomial.s", "s"),
    ("polygcd.poly_gcd.calls", "count"),
    ("polygcd.poly_gcd.s", "s"),
    ("decompose.minimal_polynomial.calls", "count"),
    ("decompose.minimal_polynomial.s", "s"),
    ("decompose.zero_dim_decompose.calls", "count"),
    ("decompose.zero_dim_decompose.s", "s"),
    ("decompose.gtz_decompose.s", "s"),
    ("decompose.primality_check.s", "s"),
    ("decompose.depth_max", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Spans and counts of one traced interval."""

    def __init__(self):
        # each span: [name, start, end, parent index, nested in a span of
        # the same name, time covered by child spans]
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.hits = 0
        self.depth_max = 0
        self._stack: List[int] = []
        self._active: Counter = Counter()
        self._patches: List[Tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _timed(self, name: str, fn):
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, active[name] > 0, 0.0]
            spans.append(span)
            stack.append(idx)
            active[name] += 1
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = end = perf_counter()
                active[name] -= 1
                stack.pop()
                if span[3] >= 0:
                    spans[span[3]][5] += end - span[1]
            if name == "decompose.gtz_decompose":
                self.depth_max = max([self.depth_max] + [c.provenance.depth for c in result.components])
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        if name == "ideals.Ideal.groebner":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                before = counts["groebner.buchberger"]
                result = fn(*args, **kwargs)
                if counts["groebner.buchberger"] == before:
                    self.hits += 1
                return result
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "idealdec" or n.startswith("idealdec."))]
        for specs, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for modname, path in specs:
                name = f"{modname}.{path}"
                owner = sys.modules[f"idealdec.{modname}"]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = owner.__dict__[attr]
                wrapper = make(name, orig)
                if outer:
                    self._patch(owner, attr, orig, wrapper)
                    continue
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> Dict[str, float]:
        """calls, inclusive seconds (outermost spans of a name only) and
        self seconds per traced name, plus the special counts."""
        out: Dict[str, float] = {}
        for name, n in self.counts.items():
            out[f"{name}.calls"] = n
        for name, start, end, _parent, nested, child in self.spans:
            if not nested:
                out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - child)
        out["ideals.Ideal.groebner.hits"] = self.hits
        out["decompose.depth_max"] = self.depth_max
        return out
