"""Per-layer tracing for the benchmark, installed from outside the package.

``install()`` wraps public functions of the ``minorbit`` modules. A
wrapped function records a span (name, start, end, parent span, type
being verified) on every call; the hottest functions are only counted,
because a span per call would cost more than the work it measures.
Spans stay in memory; ``Tracer.write`` saves them when the sample ends,
and ``Tracer.layer_metrics`` turns them into the per-layer metrics.

Names are bound with ``from .x import y`` inside the package, so a
function wrapper replaces the original in every ``minorbit`` namespace
that holds it, not only in the defining module.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# Functions that record a span per call. A stage span marks every
# append_and_rank call under it with the stage's name.
SPANS = {
    "rootsys.build_root_system": None,
    "rootsys.weyl_dim": None,
    "chevalley.build_chevalley": None,
    "chevalley.casimir_top_eigenvalue": None,
    "chevalley.SplitCasimir.matrix": None,
    "linalgx.image_basis": None,
    "orbit_ideal.degree2_ideal": "ideal",
    "orbit_ideal.projected_span": "projection",
    "orbit_ideal.quotient_hilbert": "quotient",
    "sln_oracle.oracle_quotient_dims": "oracle",
    "resolution.dynkin_tree": None,
    "resolution.betti_numbers": None,
    "cli.verify": None,
}

# Functions that are only counted: each runs from thousands to millions
# of times per type.
COUNTED = (
    "chevalley.LieAlgebra.bracket",
    "chevalley.SplitCasimir.column",
    "linalgx.append_and_rank",
    "orbit_ideal.monomial_exponents",
)

# Results whose sizes are read after the sample, outside every timed span.
KEPT = ("chevalley.build_chevalley", "chevalley.SplitCasimir.matrix", "orbit_ideal.degree2_ideal")

STAGES = ("ideal", "projection", "quotient", "oracle")

# Reached only when the workload holds a family A type.
ORACLE_ONLY = ("sln_oracle.oracle_quotient_dims", "linalgx.append_and_rank[oracle]")


class Tracer:
    """Spans and counters of one sample process."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index or None, type]
        self.stack: list = []
        self.calls: Counter = Counter()
        self.useful: Counter = Counter()
        self.monomials = 0
        self.request = None
        self.stage = None
        self.kept: dict = defaultdict(list)
        self._counters: dict = {}

    def _span(self, name: str, fn, stage):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if name == "cli.verify":
                self.request = str(args[0])
            rec = [name, time.perf_counter(), None, self.stack[-1] if self.stack else None, self.request]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            outer = self.stage
            if stage:
                self.stage = stage
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self.stack.pop()
                self.stage = outer
            if name in KEPT:
                self.kept[name].append(result)
            return result

        return wrapper

    def _count(self, name: str, fn):
        calls = self.calls
        if name == "linalgx.append_and_rank":

            @functools.wraps(fn)
            def wrapper(basis, v):
                result = fn(basis, v)
                key = f"{name}[{self.stage}]"
                calls[key] += 1
                if result[1]:
                    self.useful[self.stage] += 1
                return result

        elif name == "orbit_ideal.monomial_exponents":

            @functools.wraps(fn)
            def wrapper(n, d):
                result = fn(n, d)
                calls[name] += 1
                self.monomials += len(result)
                return result

        else:
            # A closure counter and a fixed signature keep this wrapper
            # cheap: LieAlgebra.bracket runs about nine million times on E8.
            count = 0

            @functools.wraps(fn)
            def wrapper(obj, i, j):
                nonlocal count
                count += 1
                return fn(obj, i, j)

            self._counters[name] = lambda: count

        return wrapper

    def install(self) -> None:
        for name, stage in SPANS.items():
            self._wrap(name, lambda fn, name=name, stage=stage: self._span(name, fn, stage))
        for name in COUNTED:
            self._wrap(name, lambda fn, name=name: self._count(name, fn))

    def _wrap(self, name: str, make) -> None:
        module, _, attr = name.partition(".")
        mod = sys.modules[f"minorbit.{module}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, make(orig))
            return
        orig = getattr(mod, attr)
        wrapper = make(orig)
        for mname, m in list(sys.modules.items()):
            if mname != "minorbit" and not mname.startswith("minorbit."):
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapper)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "type": request}) + "\n")

    def counts(self) -> dict:
        """Calls of every wrapped function, and of append_and_rank per stage."""
        for name, read in self._counters.items():
            self.calls[name] = read()
        return dict(self.calls)

    def layer_metrics(self) -> dict:
        """Per-layer metrics of this sample, summed over its types."""
        self.counts()
        total: Counter = Counter()
        children: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent is not None:
                children[parent] += end - start
        own: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - children[i]

        vectors = [v for ideal in self.kept["orbit_ideal.degree2_ideal"] for v in ideal.basis.vectors]
        out = {
            "rootsys.build_s": total["rootsys.build_root_system"],
            "rootsys.weyl_dim_s": total["rootsys.weyl_dim"],
            "chevalley.build_s": total["chevalley.build_chevalley"],
            "chevalley.bracket_entries": sum(
                len(terms) for L in self.kept["chevalley.build_chevalley"] for terms in L.brackets.values()
            ),
            "chevalley.bracket_calls": self.calls["chevalley.LieAlgebra.bracket"],
            "chevalley.column_calls": self.calls["chevalley.SplitCasimir.column"],
            "chevalley.casimir_matrix_s": total["chevalley.SplitCasimir.matrix"],
            "chevalley.casimir_nnz": sum(m.nnz for m in self.kept["chevalley.SplitCasimir.matrix"]),
            "chevalley.top_eigenvalue_s": total["chevalley.casimir_top_eigenvalue"],
            "linalgx.image_basis_s": total["linalgx.image_basis"],
            "linalgx.echelon_vectors": len(vectors),
            "linalgx.echelon_nnz": sum(len(v) for v in vectors),
            "linalgx.echelon_max_bits": max((_bits(x) for v in vectors for x in v.values()), default=0),
            "orbit_ideal.degree2_ideal_self_s": own["orbit_ideal.degree2_ideal"],
            "orbit_ideal.projected_span_s": total["orbit_ideal.projected_span"],
            "orbit_ideal.quotient_hilbert_s": total["orbit_ideal.quotient_hilbert"],
            "orbit_ideal.monomials_generated": self.monomials,
            "sln_oracle.quotient_dims_s": total["sln_oracle.oracle_quotient_dims"],
            "resolution.s": total["resolution.dynkin_tree"] + total["resolution.betti_numbers"],
            "cli.verify_s": total["cli.verify"],
            "cli.verify_self_s": own["cli.verify"],
        }
        for stage in STAGES:
            calls = self.calls[f"linalgx.append_and_rank[{stage}]"]
            out[f"linalgx.append_calls.{stage}"] = calls
            out[f"linalgx.append_useful.{stage}"] = self.useful[stage] / calls if calls else 0.0
        return out

    def verify_times(self) -> dict:
        """Wall time of each verify call, keyed by type."""
        return {req: end - start for name, start, end, _, req in self.spans if name == "cli.verify"}


def _bits(x) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return int(x).bit_length()


def required_calls(types) -> list:
    """Every wrapped function (and append stage) a workload of these types must reach."""
    names = list(SPANS) + [n for n in COUNTED if n != "linalgx.append_and_rank"]
    names += [f"linalgx.append_and_rank[{s}]" for s in STAGES]
    if not any(t.startswith("A") for t in types):
        names = [n for n in names if n not in ORACLE_ONLY]
    return names


def missing_calls(calls: dict, types) -> list:
    """Required names the trace never saw: a rename or a dead path, never a zero time."""
    return [n for n in required_calls(types) if not calls.get(n)]
