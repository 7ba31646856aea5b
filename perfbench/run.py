"""starsym benchmark: one command, three workloads, closed-form checks.

Run from the root of a checkout (the directory holding src/starsym and
BENCHMARK.json):

    python3 perfbench/run.py --workload detect_mixed --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one client: each operation starts when the last
one ends; one process, plus one child at a time for cli_cold and for
timing set-up):

  detect_mixed   build a seeded body (n = 2..6) and run detect() over 100 poles
  sections_grid  section_curve + derivative_at_zero for one body, pole and kind
  cli_cold       one fresh `starsym` process per subcommand, in a fixed cycle

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics named in BENCHMARK.json; with --trace 1 it holds the
per-layer metrics, measured by running the same operations untraced and
then traced.  Lines before it give the machine, the oracle self-check,
sample counts and latency_p90_ms where a run has at least 100 operations.
Inputs come only from --seed.  A run performs a fixed number of cycles,
set by --seconds at a budgeted pace per cycle rather than by the clock,
so the same seed and --seconds give the same operations and the same
failures however fast the machine is that day.  Outputs and trace files
go to .perfbench_out/ inside the checkout.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 3
CAUSES = ("exception", "out_of_tol", "wrong_verdict")
CLI_SUBCOMMANDS = ("analyze", "sections", "verify", "harmonics")


# ---------------------------------------------------------------------------
# machine and set-up


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info():
    import numpy
    import scipy
    commit = None  # a checkout without .git records no commit
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except OSError:
            pass
    env = {k: os.environ[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                      "MKL_NUM_THREADS") if k in os.environ}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads(), "blas_env": env, "git_commit": commit,
            "platform": platform.platform()}


def time_setup():
    """Seconds from spawning a fresh interpreter to its 'ready' line."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), "setup"],
                            cwd=ROOT, env=dict(os.environ, PYTHONPATH=SRC),
                            stdout=subprocess.PIPE)
    line = proc.stdout.readline()
    seconds = time.perf_counter() - start
    proc.stdout.close()
    if proc.wait() != 0 or line.strip() != b"ready":
        raise RuntimeError("set-up child failed")
    return seconds


# ---------------------------------------------------------------------------
# closed-loop passes


class Workload:
    def __init__(self, cycle, op, cycle_seconds, period=1):
        self.cycle = cycle    # (generator, k) -> list of items
        self.op = op          # (item, index, tracer) -> (Outcome, note)
        self.cycle_seconds = cycle_seconds  # wall time budgeted per cycle
        self.period = period  # cycles after which the mix repeats

    def cycles(self, seconds):
        """Whole periods filling about `seconds` at the budgeted pace.

        The count depends on --seconds alone, not on how fast the machine
        runs today, so a seed always gives the same operations and the
        same failures."""
        periods = round(seconds / (self.cycle_seconds * self.period))
        return max(1, periods) * self.period


def measure(workload, generator, seconds):
    items, outcomes, notes = [], [], []
    for k in range(workload.cycles(seconds)):
        for item in workload.cycle(generator, k):
            outcome, note = workload.op(item, len(items), None)
            items.append(item)
            outcomes.append(outcome)
            if note:
                notes.append(note)
    return items, outcomes, notes


def replay(workload, items, tracer):
    outcomes = []
    for i, item in enumerate(items):
        tracer.op = i
        outcomes.append(workload.op(item, i, tracer)[0])
    return outcomes


# ---------------------------------------------------------------------------
# metrics


def latency_ms(outcomes):
    return [o.seconds * 1e3 for o in outcomes]


def median_hd(values):
    """Harrell-Davis estimate of the median: a beta-weighted mean of all
    order statistics.  Unlike the sample median it does not jump from one
    cluster to the next when a mix of slow and fast operations puts the
    middle of a small sample at a gap."""
    from scipy.stats import beta
    x = sorted(values)
    n = len(x)
    cdf = beta.cdf([i / n for i in range(n + 1)], (n + 1) / 2.0, (n + 1) / 2.0)
    return float(sum((cdf[i + 1] - cdf[i]) * x[i] for i in range(n)))


def end_to_end(outcomes, setup_times, peak_rss_kb):
    attempted = len(outcomes)
    failed = sum(o.cause is not None for o in outcomes)
    # values beyond tolerance already count as failures
    errors = [o.error for o in outcomes
              if o.error is not None and o.cause in (None, "wrong_verdict")]
    worst = max(errors, default=1.0)  # nothing accepted reads as 0 digits
    return {
        "throughput_ops_s": (attempted - failed) / sum(o.seconds for o in outcomes),
        "latency_p50_ms": median_hd(latency_ms(outcomes)),
        "success_frac": 1.0 - failed / attempted,
        "accuracy_digits": 16.0 if worst == 0.0 else min(16.0, -math.log10(worst)),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def failure_counts(outcomes):
    counts = collections.Counter(o.cause for o in outcomes)
    return {c: counts[c] for c in CAUSES}


def per_layer(tracer, setup_counts, untraced, traced, check_names):
    from tracing import span_totals
    ops = len(traced)
    every = span_totals(tracer.spans)
    run = span_totals(tracer.spans, ops=set(range(ops)))
    counts = tracer.counts.copy()
    counts.subtract(setup_counts)
    processes = max(1, tracer.counts["processes"])
    m = {}

    def per_op(name, column, scale=1e3):
        return run[name][column] * scale / ops

    for name in ("sphere_geom.make_frame", "slice_transforms.equator_transform",
                 "slice_transforms.hyperplane_section", "symmetry_detector.calibrate"):
        m[name + ".calls"] = per_op(name, 0, 1.0)
    for name in ("sphere_geom.make_frame", "sphere_geom.embed",
                 "slice_transforms.equator_transform", "slice_transforms.hyperplane_section",
                 "slice_transforms.slice_integral", "star_body.construct",
                 "star_body.evaluate", "star_body.gradient", "symmetry_detector.sweep"):
        m[name + ".self_ms"] = per_op(name, 2)
    for name in ("slice_transforms.derivative_at_zero", "symmetry_detector.odd_probe",
                 "harmonics.multiplier_table", "oracle.mc_hyperplane_section",
                 "oracle.mc_cone_section"):
        m[name + ".ms"] = per_op(name, 1)
    m["sphere_geom.sphere_rule.self_ms"] = every["sphere_geom.sphere_rule"][2] * 1e3 / processes
    m["sphere_geom.nodes_per_transform"] = (
        counts["equator_nodes"] / max(1, run["slice_transforms.equator_transform"][0]))
    m["slice_transforms.evals_per_hyperplane_section"] = (
        counts["hyperplane_evals"] / max(1, run["slice_transforms.hyperplane_section"][0]))
    m["star_body.eval_points"] = counts["eval_points"] / ops
    m["star_body.grad_points"] = counts["grad_points"] / ops
    m["star_body.fd_path_frac"] = counts["fd_bodies"] / max(1, counts["bodies"])
    m["symmetry_detector.calibrate.miss_frac"] = (
        counts["symmetry_detector.calibrate.misses"]
        / max(1, run["symmetry_detector.calibrate"][0]))
    for name in ("symmetry_detector.calibrate", "harmonics.real_harmonic"):
        cold = tracer.counts[name + ".misses"]
        m[name + ".cold_ms"] = tracer.counts[name + ".cold_s"] * 1e3 / max(1, cold)
    m["oracle.mc_samples"] = counts["mc_samples"] / ops
    for check in check_names:
        calls, total, _ = run[f"verify.{check}"]
        m[f"verify.{check}.ms"] = total * 1e3 / max(1, calls)
    m["cli.import_ms"] = tracer.counts["cli.import_s"] * 1e3 / processes
    for sub in CLI_SUBCOMMANDS:
        calls, total, _ = run[f"cli.{sub}"]
        m[f"cli.{sub}.ms"] = total * 1e3 / max(1, calls)
    for n in range(2, 7):
        times = [t for o, t in zip(untraced, latency_ms(untraced)) if o.dim == n]
        m[f"ops.n{n}.p50_ms"] = statistics.median(times) if times else 0.0
    for cause, count in failure_counts(untraced).items():
        m[f"failed.{cause}"] = count
    m["failed_frac"] = sum(o.cause is not None for o in untraced) / len(untraced)
    m["trace.overhead_frac"] = (sum(o.seconds for o in traced)
                                / sum(o.seconds for o in untraced) - 1.0)
    return m


# ---------------------------------------------------------------------------
# main


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "starsym", "__init__.py")):
        return fail(f"no starsym source under {SRC}; run from the root of a checkout")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        return fail(f"unknown workload {args.workload!r}; expected one of {workloads}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    sys.path.insert(0, SRC)
    import starsym as S
    if os.path.dirname(os.path.dirname(os.path.abspath(S.__file__))) != SRC:
        return fail(f"imported starsym from {S.__file__}, not from {SRC}")
    import child
    import gen
    import selfcheck
    import workloads as W
    from tracing import Tracer

    out_dir = os.path.join(ROOT, ".perfbench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    machine = machine_info()
    print("machine: " + json.dumps(machine, sort_keys=True))

    setup_times = []
    if not args.trace:
        setup_times = [time_setup() for _ in range(SETUP_SAMPLES)]

    tracer = Tracer() if args.trace else None
    cli = args.workload == "cli_cold"
    if not cli:
        if tracer is not None:
            tracer.install()
        child.setup(S)
        if tracer is not None:
            tracer.uninstall()
    passed, worst_case, worst_error, num_cases = selfcheck.run(S)
    print(f"selfcheck: {'pass' if passed else 'FAIL'} on {num_cases} fixed cases "
          f"(worst {worst_error:.3g}: {worst_case})")

    runner = W.CliRunner(ROOT, out_dir)

    def cli_op(item, index, tracer):
        sub, spec = item
        trace_path = None
        if tracer is not None:
            trace_path = os.path.join(out_dir, f"trace-op{index}.json")
        result = runner.run(index, sub, spec, trace_path)
        if tracer is not None:
            tracer.merge(trace_path, index)
        return result

    table = {
        "detect_mixed": Workload(gen.detect_cycle,
                                 lambda item, i, t: W.detect_op(S, item, t), 2.4),
        "sections_grid": Workload(gen.sections_cycle,
                                  lambda item, i, t: W.sections_op(S, item, t), 10.0),
        "cli_cold": Workload(gen.cli_cycle, cli_op, 5.0, gen.CLI_PERIOD),
    }
    workload = table[args.workload]
    generator = gen.Generator(args.seed, workloads.index(args.workload))
    seconds = args.seconds / 2.0 if args.trace else args.seconds
    items, outcomes, notes = measure(workload, generator, seconds)
    causes = failure_counts(outcomes)
    print(f"workload {args.workload} seed {args.seed}: {len(outcomes)} operations "
          f"in {sum(o.seconds for o in outcomes):.3f} s, failures {causes}")
    for note in sorted(set(notes))[:5]:
        print(f"  failure: {note}")

    if args.trace:
        setup_counts = tracer.counts.copy()
        if not cli:  # cli_cold children install their own recorder
            tracer.install()
        traced = replay(workload, items, tracer)
        tracer.uninstall()
        trace_path = os.path.join(out_dir, "trace.json")
        tracer.dump(trace_path)
        metrics = per_layer(tracer, setup_counts, outcomes, traced, S.check_names())
        specs = bench["per_layer"]
        print(f"trace: {len(tracer.spans)} spans written to {trace_path}")
    else:
        rss = runner.peak_rss_kb if cli else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(outcomes, setup_times, rss)
        specs = bench["end_to_end"]
        latencies = latency_ms(outcomes)
        print(f"  samples: {len(latencies)} operations; set-up samples "
              + ", ".join(f"{t:.4f} s" for t in setup_times))
        if len(latencies) >= 100:
            p90 = statistics.quantiles(latencies, n=10)[8]
            print(f"  latency_p90_ms = {p90:.6g} ms (n = {len(latencies)})")

    missing = [m["name"] for m in specs if m["name"] not in metrics]
    if missing:
        return fail(f"metrics not produced: {missing}")
    for m in specs:
        print(f"  {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    failed = sum(o.cause is not None for o in outcomes)
    result = {"correct": bool(passed), "attempted": len(outcomes), "failed": failed,
              "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                          for m in specs}}
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": machine, "failures": causes,
                   "latencies_ms": latency_ms(outcomes), "result": result}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
