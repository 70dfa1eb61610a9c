"""gonil benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the root of a gonil checkout (the directory that holds ``src/``):

    python3 perfbench/run.py --workload go_audit --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1        # every workload, one process each
    python3 perfbench/run.py --selfcheck           # every workload at minimum size

One run sets up its inputs from the seed (several times, reporting the median
set-up time), then issues passes over the workload's fixed operation list back
to back until ``--seconds`` have passed and at least three passes are done.
With ``--trace 1`` it instead runs untraced passes for half the time, wraps
the gonil layers (see spans.py), sets up once more and runs traced passes for
the other half, and reports the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
SRC = Path("src")
OUT = Path(".bench_out")
SETUP_REPEATS = 3  # set up at least this often and for at least SETUP_SECONDS
SETUP_SECONDS = 2
MIN_PASSES = 3
# Workload and metric names, with units, as BENCHMARK.json declares them.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = tuple((m["name"], m["unit"]) for m in SPEC["end_to_end"])  # --trace 0
PER_LAYER = tuple((m["name"], m["unit"]) for m in SPEC["per_layer"])  # --trace 1, per traced pass

# Second names under which two end-to-end metrics are also printed, on the workload they describe.
ALIASES = {"go_audit": ("samples_per_s", "items_per_s"), "reduce_ladder": ("top_rung_s", "top_op_s")}


@dataclass
class Timed:
    """The operations of one phase's passes, with their intervals."""

    ops: list = field(default_factory=list)  # (pass number, label, speed.Interval)
    passes: int = 0
    items: int = 0
    attempted: int = 0
    failed: int = 0

    def times(self, time_of):
        """Per-pass times and per-label operation times, each interval timed by `time_of`."""
        pass_s = [0.0] * self.passes
        op_s = {}
        for pass_no, label, interval in self.ops:
            t = time_of(interval)
            pass_s[pass_no] += t
            op_s.setdefault(label, []).append(t)
        return pass_s, op_s


def attempt(op, timed: Timed) -> None:
    """Run one operation; a failure is counted and reported, and the run goes on."""
    timed.attempted += 1
    try:
        timed.items += op.run()
    except Exception:
        timed.failed += 1
        if timed.failed <= 3:
            print(f"FAILED {op.label}:\n{traceback.format_exc()}", file=sys.stderr)


def run_passes(plan, probe: speed.SpeedProbe, seconds: float, min_passes: int) -> Timed:
    """Issue whole passes back to back until `seconds` and `min_passes` are both reached."""
    timed = Timed()
    begin = time.perf_counter()
    while timed.passes < min_passes or time.perf_counter() - begin < seconds:
        gc.collect()
        for op in plan.ops:
            _, interval = probe.time(lambda: attempt(op, timed))
            timed.ops.append((timed.passes, op.label, interval))
        timed.passes += 1
    return timed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def fresh_workloads():
    """Import the workloads module and gonil anew, as a new process would."""
    for name in [k for k in sys.modules if k in ("workloads", "gonil") or k.startswith("gonil.")]:
        del sys.modules[name]
    return importlib.import_module("workloads")


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def run_workload(args) -> int:
    loadavg = os.getloadavg()
    if not (SRC / "gonil" / "__init__.py").is_file():
        print("error: run from the root of a gonil checkout (no src/gonil here)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))
    probe = speed.SpeedProbe()
    probe.start()

    def set_up():
        return fresh_workloads().WORKLOADS[args.workload](args.seed, args.size)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": loadavg,
        "src_lines": src_line_count(),
    }
    lines = []
    if not args.trace:
        setups = []
        begin = time.perf_counter()
        while len(setups) < SETUP_REPEATS or time.perf_counter() - begin < SETUP_SECONDS:
            plan = None  # the previous set-up's modules and inputs are garbage now
            gc.collect()
            plan, interval = probe.time(set_up)
            setups.append(interval)
        timed = run_passes(plan, probe, args.seconds, MIN_PASSES if args.size == "full" else 1)
        probe.stop()
        setup_s = [probe.scaled(interval) for interval in setups]
        pass_s, op_s = timed.times(probe.scaled)
        top = op_s[plan.top]
        # As measured, before scaling (wall time minus the probes inside); not gated.
        pass_wall_s, op_wall_s = timed.times(lambda interval: interval.work)
        meta["unscaled_s"] = {
            "setup_s": statistics.median(interval.work for interval in setups),
            "pass_s": statistics.median(pass_wall_s),
            "top_op_s": statistics.median(op_wall_s[plan.top]),
        }
        metrics = {
            "setup_s": statistics.median(setup_s),
            "pass_s": statistics.median(pass_s),
            "top_op_s": statistics.median(top),
            "items_per_s": timed.items / sum(pass_s),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        q1, q3 = quartiles(pass_s)
        t1, t3 = quartiles(top)
        notes = {
            "setup_s": f"median of n={len(setup_s)} imports and set-ups, min {min(setup_s):.4f} max {max(setup_s):.4f}",
            "pass_s": f"median of n={len(pass_s)} passes, q1={q1:.4f} q3={q3:.4f}",
            "top_op_s": f"{plan.top}, median of n={len(top)}, q1={t1:.4f} q3={t3:.4f}",
            "items_per_s": f"{timed.items} items in {sum(pass_s):.3f} s of passes",
        }
        spec = END_TO_END
    else:
        import spans

        untraced = run_passes(set_up(), probe, args.seconds / 2, 1)
        recorder = spans.Recorder()
        missing = spans.install(recorder)
        if missing:
            lines.append(f"warning: layer targets missing, reported as 0: {', '.join(missing)}")
        recorder.set_phase("setup")
        plan = sys.modules["workloads"].WORKLOADS[args.workload](args.seed, args.size)
        recorder.set_phase("pass")
        traced_from = time.perf_counter()
        timed = run_passes(plan, probe, args.seconds / 2, 1)
        traced_to = time.perf_counter()
        probe.stop()
        # Span times are wall times; scale them to reference speed like the rest.
        factor = speed.NOMINAL_S / probe.speed(traced_from, traced_to)
        agg = recorder.aggregate("pass")
        metrics = layer_metrics(agg, recorder.aggregate("setup"), timed, untraced, probe, factor)
        timed.attempted += untraced.attempted
        timed.failed += untraced.failed
        samples = agg["go_engine.certificate_at"]["calls"]
        if 0 < samples < 200:
            lines.append(f"warning: go_engine.sample_ms_p95 rests on {samples} samples (< 200)")
        OUT.mkdir(exist_ok=True)
        path = trace_path(args.workload, args.seed)
        count = recorder.write_jsonl(path)
        notes = {"trace.overhead_share": f"traced passes {timed.passes}, untraced passes {untraced.passes}"}
        lines.append(f"trace: {path} ({count} spans; times are wall times, per-layer metrics scaled by {factor:.4f})")
        spec = PER_LAYER

    print(f"workload: {args.workload}  seed: {args.seed}  size: {args.size}  trace: {args.trace}")
    units = dict(spec)
    for name, unit in spec:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name}: {metrics[name]:.6g} {unit}{note}")
    if args.workload in ALIASES and not args.trace:
        alias, source = ALIASES[args.workload]
        print(f"{alias}: {metrics[source]:.6g} {units[source]}  (= {source})")
    print(f"failed_share: {timed.failed / timed.attempted:.6g} ratio  ({timed.failed} of {timed.attempted} operations)")
    for line in lines:
        print(line)
    meta["probe_ms_median"] = statistics.median(probe.durations) * 1e3
    meta["probe_ms_mean"] = statistics.mean(probe.durations) * 1e3
    meta["probes"] = len(probe.durations)
    print("meta: " + json.dumps(meta))
    result = {
        "correct": timed.failed == 0,
        "attempted": timed.attempted,
        "failed": timed.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in spec},
    }
    print(json.dumps(result))
    return 0


def trace_path(workload: str, seed: int) -> Path:
    return OUT / f"trace-{workload}-seed{seed}.jsonl"


def layer_metrics(agg, setup, traced: Timed, untraced: Timed, probe, factor: float) -> dict:
    """Per-layer metrics from aggregated spans, per traced pass; span times scaled by `factor`."""
    n = traced.passes
    pass_ns = sum(interval.end - interval.start for _, _, interval in traced.ops) * 1e9
    out = {}
    for name, _unit in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        a = agg.get(layer)
        if stat == "calls":
            out[name] = a["calls"] / n
        elif stat == "self_s":
            out[name] = a["self_ns"] * factor / 1e9 / n
        elif stat == "pass_share":
            out[name] = a["total_ns"] / pass_ns
        elif stat == "cells":
            out[name] = a.get("cells", 0) / n
        elif stat == "max_bits":
            out[name] = a.get("max_bits", 0)
        elif stat == "infeasible_share":
            out[name] = a.get("infeasible", 0) / a["calls"] if a["calls"] else 0.0
    cert = agg["go_engine.certificate_at"]
    ms = sorted(d * factor / 1e6 for d in cert["durations_ns"])
    out["go_engine.sample_ms_p50"] = statistics.median(ms) if ms else 0.0
    out["go_engine.sample_ms_p95"] = (
        statistics.quantiles(ms, n=20, method="inclusive")[18] if len(ms) > 1 else (ms[0] if ms else 0.0)
    )
    out["go_engine.feasible_share"] = cert.get("feasible", 0) / cert["calls"] if cert["calls"] else 0.0
    out["catalog.build_example.total_s"] = setup["catalog.build_example"]["total_ns"] * factor / 1e9
    traced_s, untraced_s = traced.times(probe.scaled)[0], untraced.times(probe.scaled)[0]
    out["trace.overhead_share"] = statistics.median(traced_s) / statistics.median(untraced_s) - 1
    return out


def child_command(workload, seed, seconds, trace, size):
    return [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--size", size,
    ]


def run_child(cmd) -> tuple[int, str]:
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    return proc.returncode, proc.stdout


def run_all(args) -> int:
    """Every workload in its own process, so each peak memory is its own."""
    status = 0
    for workload in WORKLOAD_NAMES:
        code, out = run_child(child_command(workload, args.seed, args.seconds, args.trace, args.size))
        print(out, end="")
        status = status or code
    return status


def selfcheck() -> int:
    """Run each workload at minimum size, traced and untraced, and check the output."""
    problems = []
    expected = {0: END_TO_END, 1: PER_LAYER}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            code, out = run_child(child_command(workload, 1, 1, trace, "min"))
            result = json.loads(out.strip().splitlines()[-1]) if code == 0 else None
            if result is None:
                problems.append(f"{tag}: exit code {code}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: correct={result['correct']} failed={result['failed']}")
            metrics = result["metrics"]
            if set(metrics) != {name for name, _ in expected[trace]}:
                problems.append(f"{tag}: metric names differ from the declared list")
            for name, unit in expected[trace]:
                entry = metrics.get(name, {})
                value = entry.get("value")
                if entry.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{tag}: {name} printed as {entry!r}, expected a number in {unit}")
                elif f"\n{name}: " not in "\n" + out:
                    problems.append(f"{tag}: {name} has no human-readable line")
            if trace:
                problems += [f"{tag}: {p}" for p in check_trace(trace_path(workload, 1))]
            print(f"selfcheck {tag}: {'ok' if not problems else 'problems so far: ' + str(len(problems))}")
    for p in problems:
        print("PROBLEM " + p)
    print("selfcheck: " + ("PASS" if not problems else f"FAIL ({len(problems)} problems)"))
    return 0 if not problems else 1


def check_trace(path: Path) -> list[str]:
    """Every record parses, and every self time lies within [0, its duration]."""
    problems = []
    spans = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            try:
                rec = json.loads(line)
                spans.append((rec["id"], rec["name"], rec["phase"], rec["start_ns"], rec["end_ns"], rec["parent"]))
            except (ValueError, KeyError) as exc:
                problems.append(f"{path}:{lineno}: unparsable span record ({exc})")
    if not spans:
        problems.append(f"{path}: no spans")
    children = [0] * len(spans)
    for i, (sid, _name, _phase, start, end, parent) in enumerate(spans):
        if sid != i or end < start or parent >= i:
            problems.append(f"{path}: span {i} is malformed")
        elif parent >= 0:
            children[parent] += end - start
    totals = {}
    for (_, name, _, start, end, _), child in zip(spans, children):
        own = end - start - child
        if own < 0:
            problems.append(f"{path}: span {name} has negative self time")
        total = totals.setdefault(name, [0, 0])
        total[0] += end - start
        total[1] += own
    for name, (total, own) in totals.items():
        if not 0 <= own <= total:
            problems.append(f"{path}: {name} self {own} ns outside [0, total {total} ns]")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOAD_NAMES)
    mode.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    mode.add_argument("--selfcheck", action="store_true", help="run every workload at minimum size and check the output")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "min"), default="full")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck()
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
