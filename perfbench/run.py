"""Benchmark entry point.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Builds the workload's fixed operation list from the seed, times set-up in
fresh processes, then runs whole passes over the list in this one process
until the next pass would end after --seconds, checking every output.
A fixed reference kernel runs before every operation and around every
set-up, and the three timed end-to-end metrics are given at the kernel's
reference speed (see `speed_factor`); the times as measured go to standard
error and to the raw output.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
A readable summary goes to standard error, raw timings and spans to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from checks import CheckFailed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 7
MIN_PASSES = 2  # pipeline checks compare canonical reports across passes
REF_NOMINAL_S = 0.008  # the reference kernel's time at the reference speed


def ref_kernel() -> float:
    """Seconds for a fixed pure-Python kernel; moves only with the machine.

    It mixes what the program spends its time on: integer arithmetic, tuple
    keys in a dict, a sort and Fraction arithmetic.  The collector is off
    while it runs, so the size of the program's heap cannot reach it.
    """
    gc.disable()
    start = perf_counter()
    try:
        counts: dict = {}
        s = 0
        for i in range(12_000):
            key = (i % 97, i % 89, i % 83)
            counts[key] = counts.get(key, 0) + 1
            s += i * i % 7
        sorted(counts, key=lambda key: key[2])
        f = Fraction(0)
        for i in range(1, 120):
            f += Fraction(1, i) * Fraction(i + 1, i + 2)
        return perf_counter() - start
    finally:
        gc.enable()


def speed_factor(refs: list[float]) -> float:
    """How many times slower than the reference speed the machine ran.

    The CPUs of a shared virtual machine can switch between a fast and a
    slow state (about 1.6 times apart on the 2-vCPU VM in README.md) that
    last from seconds to minutes, so a whole run can fall in either.  The
    kernel runs next to the timed work, so the median of its times tracks
    the state that work ran in; dividing times by this factor (and
    multiplying rates) gives them at the reference speed.
    """
    return statistics.median(refs) / REF_NOMINAL_S


def setup_times(workload: str) -> tuple[list[float], list[float]]:
    """(set-up times, reference kernel times taken around them)."""
    times, refs = [], []
    for _ in range(SETUP_PROBES):
        refs.append(ref_kernel())
        start = perf_counter()
        subprocess.run([sys.executable, str(HERE / "probe.py"), workload], check=True, cwd=ROOT)
        times.append(perf_counter() - start)
        refs.append(ref_kernel())
    return times, refs


def run_pass(ops, tracer, refs, log) -> tuple[list[float], int, int]:
    """Run every operation once, each after one reference kernel whose time
    goes to `refs`: (durations, failed, wrong outputs)."""
    durations = []
    failed = wrong = 0
    for op in ops:
        refs.append(ref_kernel())
        start = perf_counter()
        try:
            result = tracer.call("op." + op.name, op.run) if tracer else op.run()
        except Exception:  # a raising operation counts as failed; the run goes on
            durations.append(perf_counter() - start)
            failed += 1
            log(f"{op.name}: raised\n{traceback.format_exc()}")
            continue
        durations.append(perf_counter() - start)
        try:
            op.check(result)
        except CheckFailed as exc:
            failed += 1
            wrong += 1
            log(f"{op.name}: wrong output: {exc}")
        if tracer and op.output_bytes:
            tracer.counts["cli.output_bytes"] += op.output_bytes(result)
    return durations, failed, wrong


def measure(ops, seconds, tracer, log):
    """Whole passes until the next one would end after `seconds` (at least
    MIN_PASSES).  With a tracer, passes alternate untraced and traced and the
    run ends on a traced one.  Returns (untraced pass durations, traced pass
    durations, ref kernel times of the untraced and of the traced passes,
    failed, wrong)."""
    plain, traced = [], []
    refs: dict[str, list[float]] = {"plain": [], "traced": []}
    failed = wrong = 0
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        use_tracer = tracer if tracer and len(plain) > len(traced) else None
        if use_tracer:
            tracer.install()
        try:
            durations, f, w = run_pass(ops, use_tracer, refs["traced" if use_tracer else "plain"],
                                       log)
        finally:
            if use_tracer:
                tracer.uninstall()
        (traced if use_tracer else plain).append(durations)
        failed += f
        wrong += w
        now = perf_counter()
        if (len(plain) + len(traced) >= MIN_PASSES and (not tracer or len(plain) == len(traced))
                and now - start + (now - pass_start) > seconds):
            return plain, traced, refs, failed, wrong


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    spec_path = ROOT / "BENCHMARK.json"
    src = ROOT / "src"
    if not spec_path.is_file() or not (src / "tightcycle" / "__init__.py").is_file():
        log(f"error: {ROOT} holds no BENCHMARK.json or no src/tightcycle to benchmark")
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(src))
    import tightcycle

    if Path(tightcycle.__file__).resolve().parent != (src / "tightcycle").resolve():
        log(f"error: imported tightcycle from {tightcycle.__file__}, not from {src}")
        return 2
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        log(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        start = perf_counter()
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        gen_s = perf_counter() - start
        probes, probe_refs = ([], []) if args.trace else setup_times(args.workload)

        tracer = spans.Tracer() if args.trace else None
        plain, traced, refs, failed, wrong = measure(ops, args.seconds, tracer, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(ops) * (len(plain) + len(traced))
    all_plain = [d for p in plain for d in p]
    shares = {}
    as_measured = {}
    if tracer:
        values = spans.per_layer_metrics(tracer.spans, tracer.counts, len(traced))
        values["machine.ref_kernel_s"] = statistics.median(refs["plain"] + refs["traced"])
        # both rates at the reference speed, so a pass in a slow stretch is no overhead
        rate = sum(map(len, plain)) / sum(all_plain) * speed_factor(refs["plain"])
        traced_rate = (sum(map(len, traced)) / sum(d for p in traced for d in p)
                       * speed_factor(refs["traced"]))
        values["trace.overhead_pct"] = 100 * (rate / traced_rate - 1)
        shares = spans.layer_shares(tracer.spans)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        log("layer shares of op time: " + ", ".join(
            f"{k} {100 * v:.1f}%" for k, v in shares.items() if v))
    else:
        as_measured = {
            # each operation's median over the passes, so one slow pass is outvoted
            "ops_per_s": len(ops) / sum(statistics.median(d) for d in zip(*plain)),
            "op_p50_s": statistics.median(all_plain),
            "setup_s": statistics.median(probes),
        }
        speed, setup_speed = speed_factor(refs["plain"]), speed_factor(probe_refs)
        log("as measured: " + ", ".join(f"{k} {v:.6g}" for k, v in as_measured.items())
            + f"; speed factor {speed:.4f}, at set-up {setup_speed:.4f}")
        values = {
            "ops_per_s": as_measured["ops_per_s"] * speed,
            "op_p50_s": as_measured["op_p50_s"] / speed,
            "setup_s": as_measured["setup_s"] / setup_speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    raw = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "ops": [op.name for op in ops], "input_generation_s": gen_s,
        "setup_probe_s": probes, "setup_ref_kernel_s": probe_refs, "ref_kernel_s": refs,
        "plain_passes": plain, "traced_passes": traced, "values": values,
        "as_measured": as_measured, "layer_shares": shares,
    }
    (OUT / f"run-{tag}.json").write_text(json.dumps(raw, indent=1), encoding="utf-8")

    metrics = {}
    for m in declared:
        if m["name"] not in values:
            log(f"error: declared metric {m['name']} was not measured")
            return 2
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    kernel_ms = 1000 * statistics.median(refs["plain"] + refs["traced"])
    log(f"{args.workload} seed {args.seed}: {len(plain) + len(traced)} passes of {len(ops)} ops,"
        f" inputs {gen_s:.2f} s, ref kernel {kernel_ms:.2f} ms")
    for name, m in metrics.items():
        log(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
