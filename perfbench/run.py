"""Benchmark for logbg: closed-loop, in-process runs of the `logbg` CLI.

    python3 perfbench/run.py --workload enum-pn --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the repository root; logbg is imported from ./src, never from
an installed copy.  One client in one process calls logbg.cli.main(argv)
and starts each operation only after the previous one has finished.
Every operation's output is checked by the oracle (oracle.py).

With --trace 0 the run reports the end-to-end metrics of BENCHMARK.json
from untraced operations; with --trace 1 it reports the per-layer
metrics from traced operations (tracer.py) interleaved with untraced
ones, plus the pool probe on the enumerate workloads.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  Times are in reference seconds (calibrate.py).  Details,
raw samples and the run's environment go to .perfbench_out/.
spec.json defines every metric; test_oracle.py tests the oracle.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import workloads
from calibrate import InOperation, slowness
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 9
# A fresh interpreter times its own import of logbg.cli and the parser
# build, then calibrates.  Interpreter start-up is not logbg's work and
# is left out; calibrate is imported after the timed part, so logbg is
# charged for importing fractions.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import logbg.cli
logbg.cli.build_parser()
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import calibrate
print(elapsed, calibrate.slowness())
"""
# Exceptions a malformed output can raise inside an oracle check.
ORACLE_ERRORS = (KeyError, TypeError, ValueError, AttributeError, IndexError)


def load_cli():
    """Import logbg.cli from ./src, refusing any other copy."""
    package = os.path.join(SRC, "logbg")
    if not os.path.isfile(os.path.join(package, "cli.py")):
        raise SystemExit(f"run.py: {package} not found; "
                         "run from the root of a logbg checkout")
    sys.path.insert(0, SRC)
    import logbg.cli
    if os.path.dirname(os.path.abspath(logbg.cli.__file__)) != package:
        raise SystemExit(f"run.py: imported {logbg.cli.__file__}, "
                         f"not the package in {package}")
    return logbg.cli


@dataclass
class Op:
    wall: float  # raw seconds, in-operation samples taken out
    cpu: float
    lines: int
    bytes_out: int
    problems: list[str]
    samples: list[float]  # slowness sampled during the operation
    slowness: float = 1.0  # see calibrate.py

    @property
    def wall_ref(self) -> float:
        return self.wall / self.slowness

    @property
    def cpu_ref(self) -> float:
        return self.cpu / self.slowness


def run_op(cli, work: workloads.Workload, argv, sample: bool) -> Op:
    """One operation: main(argv) with stdout and stderr captured, timed
    (with in-operation calibration if `sample`), then checked."""
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    if work.stdin is not None:
        sys.stdin = io.StringIO(work.stdin)
    code = None
    sampler = InOperation()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with (sampler if sample else contextlib.nullcontext()), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:
        err.write(traceback.format_exc())
    finally:
        wall = time.perf_counter() - t0 - sampler.spent
        cpu = time.process_time() - c0 - sampler.spent
        sys.stdin = stdin
    text = out.getvalue()
    problems = []
    if code != 0:
        problems.append(f"exit code {code!r}")
    if "Traceback" in err.getvalue():
        problems.append("traceback: " + err.getvalue().strip()[-300:])
    try:
        problems += work.check(text)
    except ORACLE_ERRORS as exc:
        problems.append(f"output the oracle cannot read: {exc!r}")
    return Op(wall, cpu, len(text.splitlines()), len(text.encode()),
              problems, sampler.samples)


def setup_probe() -> tuple[float, float]:
    """(reference, raw) seconds a fresh interpreter takes to import
    logbg.cli and build the parser."""
    proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, SRC, HERE],
                          check=True, capture_output=True, text=True)
    raw, slow = map(float, proc.stdout.split())
    return raw / slow, raw


class Loop:
    """Operations taken back to back with a calibration between
    consecutive ones.  An operation's slowness is the median of the two
    calibrations around it and the samples taken during it."""

    def __init__(self, cli, work: workloads.Workload):
        self.cli, self.work = cli, work
        self.last = slowness()

    def op(self, argv=None, sample: bool = True,
           tracer: Tracer | None = None) -> Op:
        """One operation, traced if `tracer` is given.  The traced run
        samples nothing during operations: spans would include the
        samples, and pool workers would run beside them."""
        if tracer:
            tracer.install()
        try:
            op = run_op(self.cli, self.work, argv or self.work.argv, sample)
        finally:
            if tracer:
                tracer.uninstall()
        before, self.last = self.last, slowness()
        op.slowness = statistics.median(op.samples + [before, self.last])
        return op


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest nearest-rank percentile with at
    least ten samples beyond it, or the minimum when n <= 10."""
    xs = sorted(samples)
    k = max(len(xs) - 11, 0)
    return xs[k], 100 * (k + 1) / len(xs), len(xs)


def end_to_end(loop: Loop, seconds: float, first: Op, rss_mb: float):
    setup = [setup_probe() for _ in range(SETUP_PROBES)]
    ops = []
    deadline = time.perf_counter() + seconds
    while not ops or time.perf_counter() < deadline:
        ops.append(loop.op())
    walls = [op.wall_ref for op in ops]
    wall = statistics.median(walls)
    tail_value, pct, n = tail(walls)
    metrics = {
        "wall_s": wall,
        "wall_s_tail": tail_value,
        "cpu_s": statistics.median(op.cpu_ref for op in ops),
        "records_per_s": first.lines / wall,
        "setup_s": statistics.median(ref for ref, _ in setup),
        "peak_rss_mb": rss_mb,
    }
    notes = {"wall_s_tail": f"p{pct:.1f} of {n} samples",
             "raw_wall_s": statistics.median(op.wall for op in ops),
             "raw_wall_samples_s": [op.wall for op in ops],
             "raw_cpu_samples_s": [op.cpu for op in ops],
             "slowness_samples": [op.slowness for op in ops],
             "raw_setup_samples_s": [raw for _, raw in setup]}
    return metrics, ops, notes


COUNT_METRICS = ("search.generated", "search.screen_calls",
                 "search.verify_calls", "bg.full_report_calls",
                 "bg.predicate_calls", "logchern.log_c2_calls",
                 "chow.mul_calls", "chow.cycle_new_calls",
                 "models.tangent_chern_calls", "serialize.bytes_out")


def layer_metrics(tracer: Tracer, lo: int, hi: int, generated: int,
                  op: Op) -> dict[str, float]:
    """Per-layer metrics of the traced operation whose spans are
    [lo, hi); counts are ints, times reference seconds."""
    spans = tracer.summarize(lo, hi)
    ns = 1e9 * op.slowness

    def agg(field, *funcs, site=None, layer=None):
        total = 0
        for name, value in spans.items():
            func, _, at = name.partition("@")
            if ((func in funcs or (layer and func.startswith(layer + ".")))
                    and (site is None or at == site)):
                total += value[field]
        return total / ns if field != "calls" else total

    screens = ("search.pn_modes_closed_form", "search.hyp_modes_closed_form")
    screen_calls = agg("calls", *screens)
    verify_calls = agg("calls", "bg.full_report", site="search")
    predicates = ("bg.check_equality_n", "bg.check_equality_n_plus_1",
                  "bg.discriminant")
    return {
        "search.generated": generated,
        "search.screen_calls": screen_calls,
        "search.screen_s": agg("total_ns", *screens),
        "search.generate_s": agg("total_ns",
                                 "search.partitions_with_sum_at_most"),
        "search.verify_calls": verify_calls,
        "search.verify_s": agg("total_ns", "bg.full_report", site="search"),
        "search.self_s": agg("self_ns", layer="search"),
        "search.hit_ratio": verify_calls / screen_calls if screen_calls else 0,
        "bg.full_report_calls": agg("calls", "bg.full_report"),
        "bg.full_report_self_s": agg("self_ns", "bg.full_report"),
        "bg.predicate_calls": agg("calls", *predicates),
        "bg.predicate_s": tracer.outermost_ns(
            lo, hi, tuple(p + "@" for p in predicates)) / ns,
        "bg.evaluate_pair_s": agg("total_ns", "bg.evaluate_pair"),
        "logchern.log_c2_calls": agg("calls", "logchern.log_c2"),
        "logchern.log_c2_s": agg("total_ns", "logchern.log_c2"),
        "logchern.log_c1_s": agg("total_ns", "logchern.log_c1"),
        "logchern.pair_new_s": agg("total_ns", "logchern.LogPair.__init__"),
        "chow.mul_calls": agg("calls", "chow.mul"),
        "chow.mul_s": agg("total_ns", "chow.mul"),
        "chow.cycle_new_calls": agg("calls", "chow.CycleClass.__post_init__"),
        "chow.cycle_new_s": agg("total_ns", "chow.CycleClass.__post_init__"),
        "chow.pair_with_polarization_s": agg("total_ns",
                                             "chow.pair_with_polarization"),
        "models.tangent_chern_calls": agg("calls", "models.tangent_chern"),
        "models.tangent_chern_s": agg("total_ns", "models.tangent_chern"),
        "models.is_nef_s": agg("total_ns", "models.is_nef"),
        "serialize.parse_s": agg("total_ns", "serialize.parse_document"),
        "serialize.record_s": agg("total_ns", "serialize.report_record",
                                  "serialize.case_record"),
        "serialize.dump_s": agg("total_ns", "serialize.dump_record"),
        "serialize.bytes_out": op.bytes_out,
        "cli.self_s": agg("self_ns", "cli.main"),
        "fixtures.all_fixtures_s": agg("total_ns", "fixtures.all_fixtures"),
        "fixtures.self_s": agg("self_ns", layer="fixtures"),
    }


def per_layer(loop: Loop, seconds: float):
    """Traced operations interleaved with untraced ones, then (enumerate
    only) the pool probe; each phase runs at least to its deadline."""
    work = loop.work
    tracer = Tracer()
    start = time.perf_counter()
    trace_deadline = start + (seconds / 2 if work.pool else seconds)
    plain, traced, layers = [], [], []
    while len(traced) < 2 or time.perf_counter() < trace_deadline:
        plain.append(loop.op(sample=False))
        lo, generated = len(tracer.start), tracer.generated
        op = loop.op(sample=False, tracer=tracer)
        layers.append(layer_metrics(tracer, lo, len(tracer.start),
                                    tracer.generated - generated, op))
        counts = {k: layers[-1][k] for k in COUNT_METRICS}
        first = {k: layers[0][k] for k in COUNT_METRICS}
        if counts != first:
            op.problems.append(f"counts differ between traced operations: "
                               f"{counts} vs {first}")
        traced.append(op)
    metrics = {key: statistics.median(m[key] for m in layers)
               for key in layers[0]}
    metrics.update({k: layers[0][k] for k in COUNT_METRICS})
    # The two ratios compare operations that alternate in time, so they
    # use raw seconds: calibration would only add its own noise.
    metrics["trace.overhead_ratio"] = (
        statistics.median(op.wall for op in traced)
        / statistics.median(op.wall for op in plain))

    workers = min(2, os.cpu_count() or 1)
    pool = {1: [], workers: []}
    metrics["search.pool_speedup"] = 0
    if work.pool:
        deadline = start + seconds
        while not pool[1] or time.perf_counter() < deadline:
            order = (1, workers) if len(pool[1]) % 2 == 0 else (workers, 1)
            for w in order:
                pool[w].append(loop.op(work.with_workers(w), sample=False))
        metrics["search.pool_speedup"] = (
            statistics.median(op.wall for op in pool[1])
            / statistics.median(op.wall for op in pool[workers]))
    ops = plain + traced + [op for side in pool.values() for op in side]
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{work.name}.bin"))
    notes = {"traced_ops": len(traced), "pool_workers": workers,
             "pool_pairs": len(pool[1]),
             "raw_traced_wall_samples_s": [op.wall for op in traced],
             "raw_untraced_wall_samples_s": [op.wall for op in plain],
             "slowness_samples": [op.slowness for op in plain + traced]}
    return metrics, ops, notes


def environment() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": digest.hexdigest(), "loadavg_start": loadavg()}


def loadavg() -> str | None:
    try:
        with open("/proc/loadavg") as fh:
            return fh.read().strip()
    except OSError:
        return None


def declared_units(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> None:
    units = declared_units(bool(args.trace))
    cli = load_cli()
    work = workloads.build(args.workload, args.seed)
    env = environment()
    loop = Loop(cli, work)
    first = loop.op()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        metrics, ops, notes = per_layer(loop, args.seconds)
    else:
        metrics, ops, notes = end_to_end(loop, args.seconds, first,
                                         rss_mb)
    ops.insert(0, first)
    env["loadavg_end"] = loadavg()
    if set(metrics) != set(units):
        raise SystemExit(f"run.py: metrics {sorted(set(metrics) ^ set(units))}"
                         " are computed or declared but not both")
    failed = [op for op in ops if op.problems]
    result = {"correct": not failed, "attempted": len(ops),
              "failed": len(failed),
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units}}
    details = {"workload": work.name, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "environment": env, "notes": notes,
               "fail_ratio": len(failed) / len(ops),
               "problems": [p for op in failed for p in op.problems][:50],
               "result": result}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{work.name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(details, fh, indent=1)
    print(f"workload {work.name}  seed {args.seed}  trace {args.trace}  "
          f"operations {len(ops)}  failed {len(failed)}  "
          f"fail_ratio {len(failed) / len(ops):.4g}")
    for problem in details["problems"][:5]:
        print(f"  problem: {problem}")
    for name in units:
        note = notes.get(name)
        print(f"  {name:32} {metrics[name]:.6g} {units[name]}"
              + (f"  ({note})" if isinstance(note, str) else ""))
    if "raw_wall_s" in notes:
        print(f"  raw wall_s {notes['raw_wall_s']:.6g} s")
    print("  environment " + json.dumps(env))
    print(json.dumps(result))


def run_all(args) -> None:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"run.py: {name} --trace {trace} failed")
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
