"""Command-line surface.

Every subcommand wraps one library operation (`pipeline` and `verify`
run documented sequences).  Exit codes: 0 on success, 1 when a
verification verdict is false, 2 on usage, parse, or precondition errors,
3 when an internal proof step fails (InvariantViolation: a bug, not bad
input).
'-' names standard input for file arguments, so generators chain into
consumers.  The TCL_SEED environment variable supplies a seed when --seed
is not given.  --d, --eps and --eta are read exactly, as rationals, and
JSON reports are streamed to standard output.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from . import campaigns
from .cycles import longest_tight_cycle, validate_cycle
from .errors import InvariantViolation, TclError
from .fractional import max_fractional_matching, tight_perfect_fractional_matching
from .generators import (
    derive_seed,
    extremal,
    extremal_from_eta,
    provenance_comment,
    random_3graph,
    random_min_degree_3graph,
)
from .hypergraph import (
    density,
    read_graph,
    read_hypergraph,
    write_graph,
    write_hypergraph,
)
from .matching import erdos_gallai_thresholds, graphmeet_verify, max_matching
from .pipeline import DEFAULT_D, DEFAULT_EPS, DEFAULT_SAMPLES, DEFAULT_T, run_pipeline
from .slices import build_reduced_graph, build_weak_slice
from .tight import tight_components

EXIT_OK = 0
EXIT_VERDICT_FALSE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _read_source(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise TclError(f"cannot read {path}: {exc}")


def _default_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("TCL_SEED")
    if not env:
        return 0
    try:
        return int(env)
    except ValueError:
        raise TclError(f"TCL_SEED must be an integer, got {env!r}")


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        # streamed: the indented text is never held as one string
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()
    elif fmt == "text":
        for key, value in _flatten(payload):
            print(f"{key}: {value}")
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(("key", "value"))
        for key, value in _flatten(payload):
            writer.writerow((key, str(value)))
    else:
        raise TclError(f"unknown format {fmt!r}")


def _flatten(obj, prefix: str = ""):
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            yield from _flatten(obj[k], f"{prefix}{k}.")
    elif isinstance(obj, list):
        yield prefix.rstrip("."), json.dumps(obj)
    else:
        yield prefix.rstrip("."), obj


def _parse_exact(text: str, option: str) -> Fraction:
    """A rational ("1/20") or a decimal ("0.05", "5e-2"), read exactly."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise TclError(f"{option} {text!r} is not a rational or a decimal")


def cmd_info(args) -> int:
    H = read_hypergraph(_read_source(args.file))
    lab = tight_components(H)
    payload = {
        "n": H.n,
        "edges": len(H.edges),
        "min_degree_1": H.min_degree(1) if H.n >= 1 else 0,
        "min_degree_2": H.min_degree(2) if H.n >= 2 else 0,
        "density": str(density(H)),
        "tight_components": lab.component_count,
        "tightly_connected": lab.component_count == 1,
    }
    _emit(payload, args.format)
    return EXIT_OK


def cmd_link(args) -> int:
    H = read_hypergraph(_read_source(args.file))
    sys.stdout.write(write_graph(H.link_graph(args.vertex)))
    return EXIT_OK


def cmd_components(args) -> int:
    H = read_hypergraph(_read_source(args.file))
    lab = tight_components(H)
    payload = {
        "component_count": lab.component_count,
        "component_sizes": list(lab.component_sizes),
        "labels": [{"e": list(e), "c": c} for e, c in lab.labels.items()],
    }
    _emit(payload, args.format)
    return EXIT_OK


def cmd_match(args) -> int:
    G = read_graph(_read_source(args.file))
    mm = max_matching(G)
    _emit({"size": mm.size, "pairs": [list(p) for p in mm.pairs]}, args.format)
    return EXIT_OK


def cmd_egcheck(args) -> int:
    G = read_graph(_read_source(args.file))
    if args.k is not None and args.k < 0:
        raise TclError(f"--k must be >= 1, or 0 for every k; got {args.k}")
    nu = max_matching(G).size
    e = len(G.edges)
    rows = []
    ok = True
    for k, thr in erdos_gallai_thresholds(G.n).items():
        if args.k and k != args.k:
            continue
        above = e > thr
        guaranteed = not above or nu >= k
        ok = ok and guaranteed
        rows.append({"k": k, "threshold": thr, "edges_above": above, "matching_ok": guaranteed})
    _emit({"n": G.n, "edges": e, "matching_number": nu, "checks": rows}, args.format)
    return EXIT_OK if ok else EXIT_VERDICT_FALSE


def cmd_graphmeet(args) -> int:
    G1 = read_graph(_read_source(args.file1))
    G2 = read_graph(_read_source(args.file2))
    report = graphmeet_verify(G1, G2, observe=args.observe)
    _emit(report.to_json_dict(), args.format)
    return EXIT_OK if report.all_verdicts() else EXIT_VERDICT_FALSE


def cmd_fracmatch(args) -> int:
    H = read_hypergraph(_read_source(args.file))
    result = tight_perfect_fractional_matching(H)
    payload = {
        "component": result.component,
        "subgraph_edges": len(result.subgraph_edges),
        "subgraph_min_degree": result.subgraph_min_degree,
        "matching": result.matching.to_json_dict(),
    }
    _emit(payload, args.format)
    return EXIT_OK


def cmd_maxmatch(args) -> int:
    H = read_hypergraph(_read_source(args.file))
    fm = max_fractional_matching(H, restrict_to=args.component)
    _emit(fm.to_json_dict(), args.format)
    return EXIT_OK


def cmd_cycle(args) -> int:
    H = read_hypergraph(_read_source(args.file))
    cycle = longest_tight_cycle(H)
    if cycle is None:
        _emit({"cycle": None, "length": 0}, args.format)
    else:
        _emit(cycle.to_json_dict(), args.format)
    return EXIT_OK


def cmd_validate(args) -> int:
    H = read_hypergraph(_read_source(args.file))
    try:
        seq = [int(tok) for tok in args.sequence.replace(",", " ").split()]
    except ValueError:
        raise TclError(f"sequence {args.sequence!r} is not a list of integers")
    check = validate_cycle(H, seq)
    _emit(check.to_json_dict(), args.format)
    return EXIT_OK if check.valid else EXIT_VERDICT_FALSE


def cmd_extremal(args) -> int:
    if args.eta is None and args.a is None:
        raise TclError("extremal needs --a or --eta")
    if args.eta is not None:
        inst = extremal_from_eta(args.n, _parse_exact(args.eta, "--eta"))
    else:
        inst = extremal(args.n, args.a)
    print(provenance_comment("extremal", n=args.n, a=len(inst.a_side)))
    sys.stdout.write(write_hypergraph(inst.hypergraph))
    return EXIT_OK


def cmd_random(args) -> int:
    seed = _default_seed(args.seed)
    if args.delta_target is not None:
        H = random_min_degree_3graph(
            args.n, args.delta_target, seed, max_attempts=args.max_attempts, p=args.p
        )
        print(provenance_comment("random-min-degree", n=args.n,
                                 delta=args.delta_target, seed=seed))
    else:
        if args.p is None:
            raise TclError("random needs --p (or --delta-target)")
        H = random_3graph(args.n, args.p, seed)
        print(provenance_comment("random", n=args.n, p=args.p, seed=seed))
    sys.stdout.write(write_hypergraph(H))
    return EXIT_OK


def cmd_slice(args) -> int:
    H = read_hypergraph(_read_source(args.file))
    S = build_weak_slice(H, args.t, _default_seed(args.seed))
    _emit(S.to_json_dict(), args.format)
    return EXIT_OK


def cmd_reduce(args) -> int:
    H = read_hypergraph(_read_source(args.file))
    seed = _default_seed(args.seed)
    S = build_weak_slice(H, args.t, seed)
    # seeded as the reduce stage of `tcl pipeline --seed`
    d, eps = _parse_exact(args.d, "--d"), _parse_exact(args.eps, "--eps")
    R = build_reduced_graph(H, S, d, eps, args.samples, derive_seed(seed, 1))
    _emit(R.to_json_dict(), args.format)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    H = read_hypergraph(_read_source(args.file))
    seed = _default_seed(args.seed)
    d, eps = _parse_exact(args.d, "--d"), _parse_exact(args.eps, "--eps")
    report = run_pipeline(H, args.t, d, eps, args.samples, seed)
    if args.canonical:
        print(report.canonical_json())
    else:
        _emit(report.to_json_dict(include_timings=True), args.format)
    return EXIT_OK if report.ok else EXIT_VERDICT_FALSE


def _verify_erdos_gallai(args, seed: int):
    result = campaigns.run_erdos_gallai_exhaustive(args.exhaustive_n)
    if result.passed:
        rnd = campaigns.run_erdos_gallai_random(args.trials, seed, max_n=args.max_n, jobs=args.jobs)
        result.trials += rnd.trials
        for failure in rnd.failures:
            result.record(failure)
        result.stats.update(random_trials=rnd.trials, instances_sha256=rnd.stats["instances_sha256"])
        if rnd.stats.get("failures_truncated"):
            result.stats["failures_truncated"] = True
    return result


# `tcl verify` campaign name -> (the campaign options it reads with their
# defaults, call(args, seed) returning a CampaignResult).  --seed and --jobs
# are accepted by every campaign: a deterministic campaign has no use for the
# seed, a serial one runs the same at any --jobs, and a script may pass both
# to all eight.
CAMPAIGNS = {
    "graphmeet": ({"trials": 100, "n": 9}, lambda a, seed: campaigns.run_graphmeet_campaign(
        a.n, a.trials, seed, jobs=a.jobs)),
    "fracmatch": ({"trials": 100, "n": 9}, lambda a, seed: campaigns.run_fracmatch_campaign(
        a.n, a.trials, seed, jobs=a.jobs)),
    "farkas": ({"trials": 100}, lambda a, seed: campaigns.run_farkas_campaign(
        a.trials, seed, jobs=a.jobs)),
    "reduced-degree": ({"trials": 100}, lambda a, seed: campaigns.run_reduced_degree_campaign(
        a.trials, seed, jobs=a.jobs)),
    "erdos-gallai": ({"trials": 100, "max_n": 12, "exhaustive_n": 6}, _verify_erdos_gallai),
    "extremal-bound": ({"max_n": 12}, lambda a, seed: campaigns.run_extremal_bound_campaign(a.max_n)),
    "cycle-oracle": ({"trials": 100, "max_n": campaigns.CYCLE_ORACLE_MAX_N},
                     lambda a, seed: campaigns.run_cycle_oracle_campaign(
                         a.trials, seed, a.max_n, a.jobs)),
    "pipeline": ({"n": 30, "t": DEFAULT_T}, lambda a, seed: campaigns.run_pipeline_determinism(
        n=a.n, t=a.t, seed=seed)),
}

# Every campaign option, in the order errors name them.  The parser leaves
# each None, so that cmd_verify can tell an option the user passed from one
# left out.
VERIFY_OPTIONS = tuple(dict.fromkeys(o for reads, _ in CAMPAIGNS.values() for o in reads))


def cmd_verify(args) -> int:
    reads, run = CAMPAIGNS[args.campaign]
    unread = [f"--{dest.replace('_', '-')}" for dest in VERIFY_OPTIONS
              if dest not in reads and getattr(args, dest) is not None]
    if unread:
        raise TclError(f"verify {args.campaign} does not read {', '.join(unread)}")
    for dest, default in reads.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
    if args.trials is not None and args.trials < 0:
        raise TclError(f"--trials must be >= 0, got {args.trials}")
    if args.n is not None and args.n < 1:
        raise TclError(f"--n must be >= 1, got {args.n}")
    if args.jobs < 1:
        raise TclError(f"--jobs must be >= 1, got {args.jobs}")
    result = run(args, _default_seed(args.seed))
    _emit(result.to_json_dict(), args.format)
    return EXIT_OK if result.passed else EXIT_VERDICT_FALSE


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tcl",
        description="tight-cycle laboratory for 3-uniform hypergraphs",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, report=True):
        """A subcommand; one that prints a report takes --format."""
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        if report:
            p.add_argument("--format", default="json", choices=("json", "text", "csv"))
        return p

    p = add("info", cmd_info, "summary statistics of a .3g file")
    p.add_argument("file")

    p = add("link", cmd_link, "emit the link graph of a vertex as .2g", report=False)
    p.add_argument("file")
    p.add_argument("vertex", type=int)

    p = add("components", cmd_components, "tight-component labeling of a .3g file")
    p.add_argument("file")

    p = add("match", cmd_match, "maximum matching of a .2g file")
    p.add_argument("file")

    p = add("egcheck", cmd_egcheck, "matching-threshold check on a .2g file")
    p.add_argument("file")
    p.add_argument("--k", type=int, help="check this k only (default or 0: every k with n >= 2k-1)")

    p = add("graphmeet", cmd_graphmeet, "dense-pair component verifier on two .2g files")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--observe", action="store_true",
                   help="run despite failed preconditions and flag the report")

    p = add("fracmatch", cmd_fracmatch, "tightly-connected perfect fractional matching")
    p.add_argument("file")

    p = add("maxfrac", cmd_maxmatch, "maximum fractional matching (optionally restricted)")
    p.add_argument("file")
    p.add_argument("--component", type=int, default=None)

    p = add("cycle", cmd_cycle, "exact longest tight cycle (n <= 22)")
    p.add_argument("file")

    p = add("validate", cmd_validate, "validate a vertex sequence as a tight cycle")
    p.add_argument("file")
    p.add_argument("sequence", help="comma- or space-separated vertices")

    p = add("extremal", cmd_extremal, "emit the extremal instance as .3g", report=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int)
    p.add_argument("--eta", help="choose a from an eta value instead of --a (read exactly)")

    p = add("random", cmd_random, "emit a random .3g (optionally degree-conditioned)", report=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--delta-target", type=int, dest="delta_target")
    p.add_argument("--max-attempts", type=int, default=1000, dest="max_attempts")

    p = add("slice", cmd_slice, "seeded weak slice of a .3g file")
    p.add_argument("file")
    p.add_argument("--t", type=int, default=DEFAULT_T)
    p.add_argument("--seed", type=int)

    p = add("reduce", cmd_reduce, "reduced graph with densities and labels")
    p.add_argument("file")
    p.add_argument("--t", type=int, default=DEFAULT_T)
    p.add_argument("--d", default=str(DEFAULT_D), help="density threshold (rational or decimal, read exactly)")
    p.add_argument("--eps", default=str(DEFAULT_EPS), help="regularity eps (rational or decimal, read exactly)")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int)

    p = add("pipeline", cmd_pipeline, "full reduction pipeline with staged report")
    p.add_argument("file")
    p.add_argument("--t", type=int, default=DEFAULT_T)
    p.add_argument("--d", default=str(DEFAULT_D))
    p.add_argument("--eps", default=str(DEFAULT_EPS))
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int)
    p.add_argument("--canonical", action="store_true",
                   help="emit the compact timing-free canonical report")

    p = add("verify", cmd_verify, "run a verification campaign")
    p.add_argument("campaign", choices=CAMPAIGNS)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)
    # Each campaign reads some of these; passing one it does not read exits 2.
    for dest in VERIFY_OPTIONS:
        read_by = ", ".join(f"{name} {reads[dest]}" for name, (reads, _) in CAMPAIGNS.items()
                            if dest in reads)
        p.add_argument(f"--{dest.replace('_', '-')}", type=int, dest=dest,
                       help=f"read by (campaign default): {read_by}")

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except TclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
