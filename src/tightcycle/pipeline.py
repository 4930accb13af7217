"""End-to-end reduction pipeline: slice, densify, label, trim to good
clusters, match fractionally on the restricted reduced graph, then grow a
cycle guided by the matching.

One generator runs the stages as straight-line code and yields each
stage's detail in STAGES order; a stage fails by raising.  run_pipeline
times and records every stage, failed ones too, and marks the later ones
skipped.  An InvariantViolation is a bug, not a negative result, so it is
not recorded: it propagates with the stage name in its message.  t < 3,
d outside [0, 1], eps outside (0, 1) and samples < 1 are wrong for every
host and raise InvalidArgumentError before any stage; t > n is a recorded
`slice` failure.  eps is used as an exact rational (a float is read as its
exact value) and reported as a float.
Reports serialize to JSON with a canonical form that excludes timings, so
pinned-seed runs are byte-identical.  Each stage draws its seed from the
one `seed` argument (the cycle stage uses derive_seed(seed, 2)); `tcl
pipeline --canonical` prints this function's canonical_json() for its
options.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from .cycles import matching_guided_cycle
from .errors import InvariantViolation, TclError
from .fractional import FractionalMatching, tight_perfect_fractional_matching
from .generators import derive_seed
from .hypergraph import Hypergraph3, density
from .slices import _check_d, _check_search, _check_t, build_reduced_graph, build_weak_slice, good_clusters

STAGES = ("input", "slice", "reduce", "good-clusters", "reduced-matching", "cycle")

# The defaults of `tcl slice`, `reduce`, `pipeline` and `verify pipeline`.
DEFAULT_T = 6
DEFAULT_D = Fraction(1, 20)
DEFAULT_EPS = Fraction(1, 4)
DEFAULT_SAMPLES = 40


@dataclass
class StageRecord:
    name: str
    status: str  # "ok" | "failed" | "skipped"
    detail: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass
class PipelineReport:
    parameters: dict
    stages: list[StageRecord]
    timings: dict[str, float]

    @property
    def ok(self) -> bool:
        return all(s.status == "ok" for s in self.stages)

    def failed_stage(self) -> str | None:
        for s in self.stages:
            if s.status == "failed":
                return s.name
        return None

    def to_json_dict(self, include_timings: bool = True) -> dict:
        out = {
            "parameters": self.parameters,
            "stages": [s.to_json_dict() for s in self.stages],
            "ok": self.ok,
        }
        if include_timings:
            out["timings"] = {k: round(v, 6) for k, v in self.timings.items()}
        return out

    def canonical_json(self) -> str:
        """Timing-free compact JSON; the determinism contract hashes this."""
        return json.dumps(self.to_json_dict(include_timings=False),
                          sort_keys=True, separators=(",", ":"))


def run_pipeline(
    H: Hypergraph3,
    t: int,
    d_threshold: Fraction,
    eps: Fraction,
    samples: int,
    seed: int,
) -> PipelineReport:
    _check_t(t)
    _check_d(d_threshold)
    eps = _check_search(eps, samples)
    params = {
        "t": t,
        "d_threshold": str(d_threshold),
        "eps": float(eps),
        "samples": samples,
        "seed": seed,
    }
    report = PipelineReport(parameters=params, stages=[], timings={})
    details = _stages(H, t, d_threshold, eps, samples, seed)
    failed = False
    for name in STAGES:
        if failed:
            report.stages.append(StageRecord(name, "skipped"))
            continue
        start = time.perf_counter()
        try:
            detail = next(details)
        except InvariantViolation as exc:
            raise InvariantViolation(f"stage {name}: {exc}", exc.witness) from exc
        except TclError as exc:
            report.stages.append(StageRecord(name, "failed", {"error": str(exc)}))
            failed = True
            continue
        finally:
            report.timings[name] = time.perf_counter() - start
        report.stages.append(StageRecord(name, "ok", detail))
    return report


def _stages(
    H: Hypergraph3,
    t: int,
    d_threshold: Fraction,
    eps: Fraction,
    samples: int,
    seed: int,
) -> Iterator[dict]:
    """Run the stages in STAGES order, yielding each one's detail."""
    yield {
        "n": H.n,
        "edges": len(H.edges),
        "min_degree": H.min_degree(1),
        "density": str(density(H)),
    }

    S = build_weak_slice(H, t, seed)
    yield {"t": S.t, "m": S.m, "deleted": list(S.deleted_vertices)}

    R = build_reduced_graph(H, S, d_threshold, eps, samples, derive_seed(seed, 1))
    thresholded = R.thresholded_edges()
    total = len(R.densities)
    regular = sum(1 for ok in R.regular.values() if ok)
    yield {
        "triples": total,
        "regular": regular,
        "regular_fraction": str(Fraction(regular, total)),
        "thresholded_edges": len(thresholded),
    }

    good = good_clusters(R, eps)
    if len(good) < 3:
        raise TclError(f"only {len(good)} good clusters; need at least 3")
    yield {"good_clusters": list(good), "count": len(good)}

    # good ascends, so renumbering either way keeps a sorted triple sorted
    pos = {c: i + 1 for i, c in enumerate(good)}
    sub_edges = [tuple(pos[c] for c in X) for X in thresholded if all(c in pos for c in X)]
    view = Hypergraph3(len(good), sub_edges)
    result = tight_perfect_fractional_matching(view)
    weights = {
        tuple(good[v - 1] + 1 for v in e): w
        for e, w in result.matching.weights.items()
    }
    M = FractionalMatching(n=R.t, weights=weights)
    yield {
        "restricted_n": len(good),
        "restricted_edges": len(sub_edges),
        "restricted_min_degree": view.min_degree(1),
        "total_weight": str(result.matching.total_weight),
        "perfect_on_restriction": result.matching.perfect,
        "component": result.component,
        "support_size": len(result.matching.weights),
    }

    res = matching_guided_cycle(H, S, R, M, derive_seed(seed, 2))
    if res.cycle is None:
        raise TclError(res.detail)
    yield {
        **res.cycle.to_json_dict(res.coverage),
        "targets": {str(k): v for k, v in sorted(res.targets.items())},
        "scale_used": res.scale_used,
    }
