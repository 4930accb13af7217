"""Command-line surface.

Every subcommand wraps one library operation (`pipeline` and `verify`
run documented sequences).  Exit codes: 0 on success, 1 when a
verification verdict is false, 2 on usage, parse, or precondition errors,
3 when an internal proof step fails (InvariantViolation: a bug, not bad
input).
'-' names standard input for file arguments, so generators chain into
consumers.  The TCL_SEED environment variable supplies a seed when --seed
is not given.  --d, --eps and --eta are read exactly, as rationals.

A JSON report is byte for byte `json.dumps(payload, indent=2,
sort_keys=True)` followed by a newline: a 2-space indent, sorted keys and
ASCII escapes.  It is written in pieces, never held as one string; values
other than those reports are built from are written by `json.dumps`.  The
records of a long list, such as the {"c": ..., "e": [...]} labels of
`components`, fill one `%`-template built from the first record, one
`write` per record, so a report of 100k labels is never one string and a
reader that goes away stops the writer at the next record.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

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
from .matching import erdos_gallai_threshold, erdos_gallai_thresholds, graphmeet_verify, max_matching
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
        write = sys.stdout.write
        _write_json(payload, write, "\n", 2)
        write("\n")
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


# The JSON writer.  `json.dump(indent=2)` always runs the stdlib's
# pure-Python encoder; the functions below write the values reports are built
# from (exact ints and strs, lists and tuples, dicts with str keys) with less
# work per value.  Any other value is written by `json.dumps` itself with its
# indent shifted: the text of a value nested at indent `nl` is its top-level
# text with `nl` for each newline, and ASCII-escaped JSON has no newline
# inside a string.  `nl` is a newline followed by the indent of the line the
# value starts on.
#
# A report's long lists are lists of records, str-keyed dicts of exact ints
# and int tuples, all with the same keys and tuple lengths.  The first record
# of such a list gives a `%`-template, its text with `%d` for each int, and
# every record that fits it is that template filled in, so the keys are
# sorted and escaped once per list rather than once per record.  A record
# that does not fit is written by `_json_text`.  Each record is still its own
# `write`: the report is never held as one string, and a closed pipe stops
# the writer one record after it closes.


def _write_json(o, write, nl: str, depth: int) -> None:
    """Write `o` as `json.dumps` would at indent `nl`.  A non-empty list,
    tuple or str-keyed dict within `depth` levels of the top goes out one
    element per `write`, so a report's long lists are never held as one
    string."""
    t = type(o)
    if not (depth and o and (t is list or t is tuple
                             or t is dict and all(type(k) is str for k in o))):
        write(_json_text(o, nl))
        return
    inner = nl + "  "
    lead = inner
    if t is dict:
        write("{")
        for k, v in sorted(o.items()):
            write(lead + encode_basestring_ascii(k) + ": ")
            _write_json(v, write, inner, depth - 1)
            lead = "," + inner
        write(nl + "}")
    else:
        write("[")
        if depth == 1:
            _write_rows(o, write, inner)
        else:
            for v in o:
                write(lead)
                _write_json(v, write, inner, depth - 1)
                lead = "," + inner
        write(nl + "]")


def _write_rows(rows, write, nl: str) -> None:
    """Write the elements of a non-empty list at indent `nl`, one `write`
    each after that of its separator.  An element with the keys, tuple
    lengths and exact ints of the first one's record template is that
    template filled in; any other is `_json_text`."""
    shape, template = _record_template(rows[0], nl)
    lead = nl
    for r in rows:
        if shape and type(r) is dict and len(r) == len(shape):
            flat = []
            for key, size in shape:
                v = r.get(key)
                if size:
                    if type(v) is not tuple or len(v) != size:
                        break
                    flat += v
                else:
                    flat.append(v)
            else:
                if all(type(x) is int for x in flat):
                    write(lead)
                    write(template % tuple(flat))
                    lead = "," + nl
                    continue
        write(lead)
        write(_json_text(r, nl))
        lead = "," + nl


def _record_template(record, nl: str) -> tuple[list[tuple[str, int]], str]:
    """The `%`-template of a record at indent `nl`: a non-empty dict with str
    keys whose values are exact ints and non-empty tuples of exact ints.
    Returns its (key, tuple length or 0 for an int) pairs in sorted key
    order, and the template with a `%d` for each int; ([], "") for any other
    value."""
    if not (type(record) is dict and record and all(type(k) is str for k in record)):
        return [], ""
    inner = nl + "  "
    shape, fields = [], []
    for key in sorted(record):
        v = record[key]
        if type(v) is int:
            size, slot = 0, "%d"
        elif type(v) is tuple and v and all(type(x) is int for x in v):
            size = len(v)
            slot = "[" + inner + "  " + ("," + inner + "  ").join(["%d"] * size) + inner + "]"
        else:
            return [], ""
        shape.append((key, size))
        fields.append(encode_basestring_ascii(key).replace("%", "%%") + ": " + slot)
    return shape, "{" + inner + ("," + inner).join(fields) + nl + "}"


def _json_text(o, nl: str) -> str:
    t = type(o)
    if t is int:
        return int.__repr__(o)
    if t is str:
        return encode_basestring_ascii(o)
    if (t is list or t is tuple) and o:
        inner = nl + "  "
        if all(type(v) is int for v in o):
            body = ("," + inner).join(map(int.__repr__, o))
        else:
            body = ("," + inner).join([_json_text(v, inner) for v in o])
        return "[" + inner + body + nl + "]"
    if t is dict and o:
        inner = nl + "  "
        try:
            body = ("," + inner).join([encode_basestring_ascii(k) + ": " + _json_text(v, inner)
                                       for k, v in sorted(o.items())])
            return "{" + inner + body + nl + "}"
        except TypeError:
            pass  # keys that are not all str, or a value the stdlib refuses
    return json.dumps(o, indent=2, sort_keys=True).replace("\n", nl)


def _flatten(obj, prefix: str = ""):
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            yield from _flatten(obj[k], f"{prefix}{k}.")
    elif isinstance(obj, list):
        yield prefix.rstrip("."), json.dumps(obj)
    else:
        yield prefix.rstrip("."), obj


EXACT_OPTIONS = ("--d", "--eps", "--eta")


def _attach_exact_values(argv: list[str]) -> list[str]:
    """Write `--eps -1/2` as `--eps=-1/2`.  argparse takes a value that starts
    with "-" and is not a plain decimal for an option, so without this a
    negative rational never reaches its exact reader and the range checks."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in EXACT_OPTIONS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _parse_exact(text: str, option: str) -> Fraction:
    """A rational ("1/20") or a decimal ("0.05", "5e-2"), read exactly."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise TclError(f"{option} {text!r} is not a rational or a decimal")


def _report(payload: dict, fmt: str, ok: bool = True) -> int:
    """Print a report; exit 0, or 1 when its verdict is false."""
    _emit(payload, fmt)
    return EXIT_OK if ok else EXIT_VERDICT_FALSE


def cmd_info(args) -> int:
    H = read_hypergraph(_read_source(args.file))
    lab = tight_components(H)
    payload = {
        "n": H.n,
        "edges": len(H.edges),
        "min_degree_1": H.min_degree(1),
        "min_degree_2": H.min_degree(2),
        "density": str(density(H)),
        "tight_components": lab.component_count,
        "tightly_connected": lab.component_count == 1,
    }
    return _report(payload, args.format)


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
        "labels": [{"e": e, "c": c} for e, c in lab.labels.items()],
    }
    return _report(payload, args.format)


def cmd_match(args) -> int:
    G = read_graph(_read_source(args.file))
    mm = max_matching(G)
    return _report({"size": mm.size, "pairs": list(mm.pairs)}, args.format)


def cmd_egcheck(args) -> int:
    G = read_graph(_read_source(args.file))
    # --k 0 or absent: every k with n >= 2k-1; any other k needs its threshold
    thresholds = {args.k: erdos_gallai_threshold(G.n, args.k)} if args.k else erdos_gallai_thresholds(G.n)
    nu = max_matching(G).size
    e = len(G.edges)
    rows = []
    ok = True
    for k, thr in thresholds.items():
        above = e > thr
        guaranteed = not above or nu >= k
        ok = ok and guaranteed
        rows.append({"k": k, "threshold": thr, "edges_above": above, "matching_ok": guaranteed})
    return _report({"n": G.n, "edges": e, "matching_number": nu, "checks": rows}, args.format, ok)


def cmd_graphmeet(args) -> int:
    G1 = read_graph(_read_source(args.file1))
    G2 = read_graph(_read_source(args.file2))
    report = graphmeet_verify(G1, G2, observe=args.observe)
    return _report(report.to_json_dict(), args.format, report.all_verdicts())


def cmd_fracmatch(args) -> int:
    H = read_hypergraph(_read_source(args.file))
    result = tight_perfect_fractional_matching(H)
    payload = {
        "component": result.component,
        "subgraph_edges": len(result.subgraph_edges),
        "subgraph_min_degree": result.subgraph_min_degree,
        "matching": result.matching.to_json_dict(),
    }
    return _report(payload, args.format)


def cmd_maxfrac(args) -> int:
    H = read_hypergraph(_read_source(args.file))
    fm = max_fractional_matching(H, restrict_to=args.component)
    return _report(fm.to_json_dict(), args.format)


def cmd_cycle(args) -> int:
    H = read_hypergraph(_read_source(args.file))
    cycle = longest_tight_cycle(H)
    payload = {"cycle": None, "length": 0} if cycle is None else cycle.to_json_dict()
    return _report(payload, args.format)


def cmd_validate(args) -> int:
    H = read_hypergraph(_read_source(args.file))
    try:
        seq = [int(tok) for tok in args.sequence.replace(",", " ").split()]
    except ValueError:
        raise TclError(f"sequence {args.sequence!r} is not a list of integers")
    check = validate_cycle(H, seq)
    return _report(check.to_json_dict(), args.format, check.valid)


def cmd_extremal(args) -> int:
    if (args.eta is None) == (args.a is None):
        raise TclError("extremal needs exactly one of --a and --eta")
    if args.eta is not None:
        inst = extremal_from_eta(args.n, args.eta)
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
    return _report(S.to_json_dict(), args.format)


def cmd_reduce(args) -> int:
    H = read_hypergraph(_read_source(args.file))
    seed = _default_seed(args.seed)
    S = build_weak_slice(H, args.t, seed)
    # seeded as the reduce stage of `tcl pipeline --seed`
    d, eps = _parse_exact(args.d, "--d"), _parse_exact(args.eps, "--eps")
    R = build_reduced_graph(H, S, d, eps, args.samples, derive_seed(seed, 1))
    return _report(R.to_json_dict(), args.format)


def cmd_pipeline(args) -> int:
    H = read_hypergraph(_read_source(args.file))
    seed = _default_seed(args.seed)
    d, eps = _parse_exact(args.d, "--d"), _parse_exact(args.eps, "--eps")
    report = run_pipeline(H, args.t, d, eps, args.samples, seed)
    if args.canonical:  # compact JSON, not a --format report
        print(report.canonical_json())
        return EXIT_OK if report.ok else EXIT_VERDICT_FALSE
    return _report(report.to_json_dict(include_timings=True), args.format, report.ok)


# `tcl verify` campaign name -> (the campaign options it reads with their
# defaults, call(args, seed) returning a CampaignResult).  Each campaign is a
# sub-parser of `verify` that declares these options, --format, --seed and
# --jobs, so an option a campaign does not read is an unknown option.  Every
# campaign takes --seed and --jobs: a deterministic campaign has no use for
# the seed, a serial one runs the same at any --jobs, and a script may pass
# both to all eight.
CAMPAIGNS = {
    "graphmeet": ({"trials": 100, "n": 9}, lambda a, seed: campaigns.run_graphmeet_campaign(
        a.n, a.trials, seed, jobs=a.jobs)),
    "fracmatch": ({"trials": 100, "n": 9}, lambda a, seed: campaigns.run_fracmatch_campaign(
        a.n, a.trials, seed, jobs=a.jobs)),
    "farkas": ({"trials": 100}, lambda a, seed: campaigns.run_farkas_campaign(
        a.trials, seed, jobs=a.jobs)),
    "reduced-degree": ({"trials": 100}, lambda a, seed: campaigns.run_reduced_degree_campaign(
        a.trials, seed, jobs=a.jobs)),
    "erdos-gallai": ({"trials": 100, "max_n": 12, "exhaustive_n": 6},
                     lambda a, seed: campaigns.run_erdos_gallai_campaign(
                         a.exhaustive_n, a.trials, seed, a.max_n, a.jobs)),
    "extremal-bound": ({"max_n": 12}, lambda a, seed: campaigns.run_extremal_bound_campaign(a.max_n)),
    "cycle-oracle": ({"trials": 100, "max_n": campaigns.CYCLE_ORACLE_MAX_N},
                     lambda a, seed: campaigns.run_cycle_oracle_campaign(
                         a.trials, seed, a.max_n, a.jobs)),
    "pipeline": ({"n": 30, "t": DEFAULT_T}, lambda a, seed: campaigns.run_pipeline_determinism(
        n=a.n, t=a.t, seed=seed)),
}


def cmd_verify(args) -> int:
    reads, run = CAMPAIGNS[args.campaign]
    if "trials" in reads and args.trials < 0:
        raise TclError(f"--trials must be >= 0, got {args.trials}")
    if "n" in reads and args.n < 1:
        raise TclError(f"--n must be >= 1, got {args.n}")
    if args.jobs < 1:
        raise TclError(f"--jobs must be >= 1, got {args.jobs}")
    result = run(args, _default_seed(args.seed))
    return _report(result.to_json_dict(), args.format, result.passed)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="tcl",
        description="tight-cycle laboratory for 3-uniform hypergraphs",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, *positionals, report=True, group=sub):
        """A subcommand of `group` with its file arguments; one that prints a
        report takes --format."""
        p = group.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        for dest in positionals:
            p.add_argument(dest)
        if report:
            p.add_argument("--format", default="json", choices=("json", "text", "csv"))
        return p

    def stage(name, fn, help_, reduces=True):
        """A command that runs pipeline stages on a .3g file.  The slice
        reads --t and --seed, a reduction also --d, --eps and --samples;
        they are declared here once, so the commands agree."""
        p = add(name, fn, help_, "file")
        p.add_argument("--t", type=int, default=DEFAULT_T)
        if reduces:
            p.add_argument("--d", default=str(DEFAULT_D),
                           help="density threshold (rational or decimal, read exactly)")
            p.add_argument("--eps", default=str(DEFAULT_EPS),
                           help="regularity eps (rational or decimal, read exactly)")
            p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
        p.add_argument("--seed", type=int)
        return p

    add("info", cmd_info, "summary statistics of a .3g file", "file")

    p = add("link", cmd_link, "emit the link graph of a vertex as .2g", "file", report=False)
    p.add_argument("vertex", type=int)

    add("components", cmd_components, "tight-component labeling of a .3g file", "file")

    add("match", cmd_match, "maximum matching of a .2g file", "file")

    p = add("egcheck", cmd_egcheck, "matching-threshold check on a .2g file", "file")
    p.add_argument("--k", type=int, help="check this k only, which needs n >= 2k-1 (default or 0: every such k)")

    p = add("graphmeet", cmd_graphmeet, "dense-pair component verifier on two .2g files",
            "file1", "file2")
    p.add_argument("--observe", action="store_true",
                   help="run despite failed preconditions and flag the report")

    add("fracmatch", cmd_fracmatch, "tightly-connected perfect fractional matching", "file")

    p = add("maxfrac", cmd_maxfrac, "maximum fractional matching (optionally restricted)", "file")
    p.add_argument("--component", type=int, default=None)

    add("cycle", cmd_cycle, "exact longest tight cycle (n <= 22)", "file")

    p = add("validate", cmd_validate, "validate a vertex sequence as a tight cycle", "file")
    p.add_argument("sequence", help="comma- or space-separated vertices")

    p = add("extremal", cmd_extremal, "emit the extremal instance as .3g", report=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int)
    p.add_argument("--eta", help="choose a from an eta value instead of --a (read exactly); give exactly one")

    p = add("random", cmd_random, "emit a random .3g (optionally degree-conditioned)", report=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--delta-target", type=int, dest="delta_target")
    p.add_argument("--max-attempts", type=int, default=1000, dest="max_attempts")

    stage("slice", cmd_slice, "seeded weak slice of a .3g file", reduces=False)
    stage("reduce", cmd_reduce, "reduced graph with densities and labels")
    p = stage("pipeline", cmd_pipeline, "full reduction pipeline with staged report")
    p.add_argument("--canonical", action="store_true",
                   help="emit the compact timing-free canonical report")

    verify = sub.add_parser("verify", help="run a verification campaign")
    group = verify.add_subparsers(dest="campaign", required=True)
    for name, (reads, _) in CAMPAIGNS.items():
        p = add(name, cmd_verify, None, group=group)
        p.allow_abbrev = False  # or --t, which only `pipeline` reads, would mean --trials
        p.add_argument("--seed", type=int)
        p.add_argument("--jobs", type=int, default=1, help="default: %(default)s")
        for dest, default in reads.items():
            p.add_argument(f"--{dest.replace('_', '-')}", type=int, default=default,
                           help="default: %(default)s")

    return top


# `main` parses with one parser per process; a parse reads options into a
# fresh namespace and leaves the parser as it was.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(_attach_exact_values(sys.argv[1:] if argv is None else argv))
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
