"""Span tracing from outside the program.

`Tracer.install` replaces public functions of `tightcycle` with timing
wrappers at the place their callers look them up (a module attribute or a
class attribute), and `uninstall` puts the originals back.  Spans are kept
in memory as [name, start, end, parent] and written out at the end; the
per-layer metrics are derived from them afterwards.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

from tightcycle import cli, cycles, fractional, hypergraph, matching, pipeline, slices


def _witness(tracer, args, result):
    tracer.counts["slices.witnesses_found"] += result is not None


def _lp(tracer, args, result):
    tracer.counts["lp.pivots"] += result.iterations
    tracer.counts["lp.columns"] += len(args[1])


def _outcome(tracer, args, result):
    kind = "certificate" if isinstance(result, fractional.FarkasCertificate) else "perfect"
    tracer.counts[f"fractional.{kind}_outcomes"] += 1


# (owner, attribute, span name, result hook).  The owner is where callers
# look the function up: `fractional` calls `solve_matching_lp` through its
# own module globals, `pipeline` calls `build_reduced_graph` through its own,
# and so on.  The benchmark calls entry points through their modules.
PATCHES = [
    (pipeline, "run_pipeline", "pipeline.run_pipeline", None),
    (pipeline, "build_reduced_graph", "slices.build_reduced_graph", None),
    (slices, "relative_density", "slices.relative_density", None),
    (slices, "irregularity_witness", "slices.irregularity_witness", _witness),
    (pipeline, "tight_perfect_fractional_matching",
     "fractional.tight_perfect_fractional_matching", None),
    (fractional, "tight_perfect_fractional_matching",
     "fractional.tight_perfect_fractional_matching", None),
    (fractional, "perfect_or_certificate", "fractional.perfect_or_certificate", _outcome),
    (fractional, "solve_matching_lp", "lp.solve_matching_lp", _lp),
    (fractional, "tight_components", "tight.tight_components", None),
    (cli, "tight_components", "tight.tight_components", None),
    (cycles, "tight_components", "tight.tight_components", None),
    (fractional, "component_star", "tight.component_star", None),
    (matching, "connected_components", "matching.connected_components", None),
    (fractional, "largest_component", "matching.largest_component", None),
    (fractional, "max_matching", "matching.max_matching", None),
    (cli, "max_matching", "matching.max_matching", None),
    (cli, "read_hypergraph", "hypergraph.parse", None),
    (cli, "read_graph", "hypergraph.parse", None),
    (hypergraph.Hypergraph3, "__init__", "hypergraph.init", None),
    (hypergraph.Graph, "__init__", "hypergraph.init", None),
    (hypergraph.Hypergraph3, "link_graph", "hypergraph.link_graph", None),
    (hypergraph.Hypergraph3, "min_degree", "hypergraph.min_degree", None),
    (cycles, "longest_tight_cycle", "cycles.longest_tight_cycle", None),
    (pipeline, "matching_guided_cycle", "cycles.matching_guided_cycle", None),
    (cycles, "validate_cycle", "cycles.validate_cycle", None),
    (cli, "main", "cli.main", None),
]

# Per-layer metrics: name -> (unit, how it is derived from one traced pass).
# "total:X" sums the durations of spans named X, "self:X" their self times,
# "calls:X" counts them, "count:X" reads a counter.
PER_LAYER = {
    "slices.build_reduced_graph_s": ("s", "total:slices.build_reduced_graph"),
    "slices.relative_density_s": ("s", "total:slices.relative_density"),
    "slices.relative_density_calls": ("count", "calls:slices.relative_density"),
    "slices.irregularity_witness_s": ("s", "total:slices.irregularity_witness"),
    "slices.irregularity_witness_calls": ("count", "calls:slices.irregularity_witness"),
    "slices.witnesses_found": ("count", "count:slices.witnesses_found"),
    "lp.solve_matching_lp_s": ("s", "total:lp.solve_matching_lp"),
    "lp.solve_matching_lp_calls": ("count", "calls:lp.solve_matching_lp"),
    "lp.pivots": ("count", "count:lp.pivots"),
    "lp.columns": ("count", "count:lp.columns"),
    "fractional.tight_perfect_fractional_matching_self_s":
        ("s", "self:fractional.tight_perfect_fractional_matching"),
    "fractional.perfect_or_certificate_self_s": ("s", "self:fractional.perfect_or_certificate"),
    "fractional.perfect_outcomes": ("count", "count:fractional.perfect_outcomes"),
    "fractional.certificate_outcomes": ("count", "count:fractional.certificate_outcomes"),
    "tight.tight_components_s": ("s", "total:tight.tight_components"),
    "tight.tight_components_calls": ("count", "calls:tight.tight_components"),
    "tight.component_star_s": ("s", "total:tight.component_star"),
    "matching.connected_components_s": ("s", "total:matching.connected_components"),
    "matching.connected_components_calls": ("count", "calls:matching.connected_components"),
    "matching.largest_component_s": ("s", "total:matching.largest_component"),
    "matching.max_matching_s": ("s", "total:matching.max_matching"),
    "matching.max_matching_calls": ("count", "calls:matching.max_matching"),
    "hypergraph.parse_s": ("s", "total:hypergraph.parse"),
    "hypergraph.init_s": ("s", "total:hypergraph.init"),
    "hypergraph.init_calls": ("count", "calls:hypergraph.init"),
    "hypergraph.link_graph_s": ("s", "total:hypergraph.link_graph"),
    "hypergraph.link_graph_calls": ("count", "calls:hypergraph.link_graph"),
    "hypergraph.min_degree_s": ("s", "total:hypergraph.min_degree"),
    "cycles.longest_tight_cycle_s": ("s", "total:cycles.longest_tight_cycle"),
    "cycles.longest_tight_cycle_calls": ("count", "calls:cycles.longest_tight_cycle"),
    "cycles.matching_guided_cycle_s": ("s", "total:cycles.matching_guided_cycle"),
    "cycles.validate_cycle_s": ("s", "total:cycles.validate_cycle"),
    "pipeline.run_pipeline_self_s": ("s", "self:pipeline.run_pipeline"),
    "cli.main_self_s": ("s", "self:cli.main"),
    "cli.output_bytes": ("count", "count:cli.output_bytes"),
}

LAYERS = ("slices", "lp", "fractional", "tight", "matching", "hypergraph", "cycles",
          "pipeline", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts = {name: 0 for _, how in PER_LAYER.values()
                       for kind, name in [how.split(":", 1)] if kind == "count"}
        self._saved: list = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self.stack.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def _wrap(self, name, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result
        return wrapper

    def install(self) -> None:
        for owner, attr, name, hook in PATCHES:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def summarize(spans) -> tuple[dict, dict, dict]:
    """(total seconds, self seconds, calls) per span name."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - child[i])
        calls[name] = calls.get(name, 0) + 1
    return total, own, calls


def per_layer_metrics(spans, counts, passes: int) -> dict[str, float]:
    """Every PER_LAYER metric, as a mean per traced pass."""
    total, own, calls = summarize(spans)
    tables = {"total": total, "self": own, "calls": calls, "count": counts}
    out = {}
    for metric, (_, how) in PER_LAYER.items():
        kind, name = how.split(":", 1)
        out[metric] = tables[kind].get(name, 0) / passes
    return out


def layer_shares(spans) -> dict[str, float]:
    """Each layer's self time as a share of the time spent in operations."""
    total, own, _ = summarize(spans)
    op_time = sum(v for k, v in total.items() if k.startswith("op."))
    shares = {layer: 0.0 for layer in LAYERS}
    shares["benchmark"] = 0.0
    for name, value in own.items():
        layer = name.split(".", 1)[0]
        shares["benchmark" if layer == "op" else layer] += value / op_time
    return shares
