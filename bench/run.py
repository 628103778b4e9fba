"""nearvec benchmark: closed-loop workloads against the public API and CLI.

    python3 bench/run.py --workload verify_all --seed 1 --seconds 40 --trace 0

One client, no threads: each op starts when the previous one returns.
A run repeats whole passes of a seeded op list; every pass rebuilds its
spaces from their configs, so no library cache carries from one pass to
the next.  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it runs one pass untraced and the same pass twice
traced, and reports the per-layer metrics, the tracing overhead and any
count that did not repeat.  The last line of stdout is the result JSON.
"""

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import tempfile
import types
from collections import defaultdict
from time import perf_counter

import layers
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH_DIR), "src")
MODULES = ("finite_field", "space", "structure", "near_field", "span", "verify", "cli")
SETUP_REPEATS = 7

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "finite_field.op_tables.s": "s",
    "finite_field.table_builds": "count",
    "finite_field.pow_table.s": "s",
    "finite_field.arith.calls": "count",
    "space.construct.calls": "count",
    "space.construct.self_s": "s",
    "space.add.calls": "count",
    "space.scalar_mul.calls": "count",
    "space.quasi_kernel.s": "s",
    "space.quasi_kernel_bruteforce.s": "s",
    "space.check_axioms.s": "s",
    "span.span_of.calls": "count",
    "span.span_of.s": "s",
    "span.span_members": "count",
    "span.linear_combinations.s": "s",
    "span.subspace_closure_oracle.s": "s",
    "span.closure_members": "count",
    "span.dim_of_vector.calls": "count",
    "span.dim_of_vector.s": "s",
    "span.extract_basis.s": "s",
    "span.coordinates_in_independent_set.s": "s",
    "structure.is_regular.s": "s",
    "structure.is_regular.pairs": "count",
    "structure.regularity_equivalences.self_s": "s",
    "structure.decompose.s": "s",
    "structure.induced_addition.s": "s",
    "structure.maximality_witness.calls": "count",
    "structure.maximality_witness.s": "s",
    "near_field.check_axioms.calls": "count",
    "near_field.check_axioms.s": "s",
    "verify.axioms.s": "s",
    "verify.vstheorem.s": "s",
    "verify.keylemma.s": "s",
    "verify.span-oracle.s": "s",
    "verify.decomposition.s": "s",
    "verify.quasi-kernel-oracle.s": "s",
    "cli.info.p50_ms": "ms",
    "cli.qk.p50_ms": "ms",
    "cli.decompose.p50_ms": "ms",
    "cli.span.p50_ms": "ms",
    "cli.dim.p50_ms": "ms",
    "cli.hom.p50_ms": "ms",
    "cli.emit.s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.count_mismatches": "count",
}


# -- set-up -----------------------------------------------------------------


def import_nearvec():
    """A fresh import of nearvec from this checkout's ``src``."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for key in [k for k in sys.modules if k == "nearvec" or k.startswith("nearvec.")]:
        del sys.modules[key]
    package = importlib.import_module("nearvec")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError(f"nearvec imported from {package.__file__}, not from {SRC}")
    nv = types.SimpleNamespace(package=package, MODULES=("package",) + MODULES)
    for name in MODULES:
        setattr(nv, name, importlib.import_module(f"nearvec.{name}"))
    return nv


def setup(workload, workdir, configs):
    """What a run pays before its first op: importing the library and
    writing the CLI's input files."""
    nv = import_nearvec()
    files = None
    if workload == "cli_queries":
        files = workloads.prepare_cli_files(workdir, configs)
    return nv, files


# -- the closed loop ----------------------------------------------------------


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies_ms = defaultdict(list)  # op key -> one entry per pass
        self.failures = []
        self.pass_seconds = []

    def record(self, op, seconds, error):
        self.attempted += 1
        self.latencies_ms[op.key].append(seconds * 1000)
        if error is not None:
            self.failed += 1
            self.failures.append(f"{op.name}: {error}")

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures += other.failures


def run_op(op):
    """Run one op; a raise, a nonzero exit or a wrong output is a failure."""
    start = perf_counter()
    try:
        result = op.run()
    except (Exception, SystemExit) as exc:  # the loop must go on
        return perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    try:
        return elapsed, op.check(result)
    except Exception as exc:  # a malformed output is a wrong output
        return elapsed, f"check raised {type(exc).__name__}: {exc}"


def pass_ops(nv, workload, seed, index, files, configs):
    rng = random.Random(f"{workload}:{seed}:{index}")
    return workloads.WORKLOADS[workload][0](nv, rng, configs, files)


def run_passes(nv, workload, seed, files, configs, seconds=0.0, passes=None, ops=None):
    """Whole passes until the next one would end after ``seconds``
    (at least one), or exactly ``passes`` passes.  ``ops`` replaces the
    generated op list."""
    tally = Tally()
    start = perf_counter()
    while True:
        index = len(tally.pass_seconds)
        op_list = ops if ops is not None else pass_ops(
            nv, workload, seed, index, files, configs
        )
        pass_seconds = 0.0
        for op in op_list:
            # Spaces hold reference cycles (space <-> quasi-kernel), so an
            # op's tables wait for the cycle collector, which would then run
            # inside whichever later op crossed its threshold.  Collect them
            # untimed, so that each op starts as a fresh process would: no
            # garbage of earlier ops, and the collector's counts at zero.
            gc.collect()
            op_seconds, error = run_op(op)
            tally.record(op, op_seconds, error)
            pass_seconds += op_seconds
        tally.pass_seconds.append(pass_seconds)
        elapsed = perf_counter() - start
        if passes is not None:
            if index + 1 >= passes:
                break
        elif elapsed + elapsed / (index + 1) > seconds:
            break
    return tally


def percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# -- the two kinds of run ---------------------------------------------------------


def measure(workload, seed, seconds, configs=None, ops=None):
    """End-to-end metrics, tracing off.  ``configs`` replaces the
    workload's spaces and ``ops`` its op list; the self-test uses both."""
    configs = configs or workloads.WORKLOADS[workload][1]
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as workdir:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            nv, files = setup(workload, workdir, configs)
            setup_times.append(perf_counter() - start)
        tally = run_passes(nv, workload, seed, files, configs, seconds=seconds, ops=ops)
    # Each op's latency is its median over the passes, so that a burst of
    # load from outside the process spoils at most one sample of each op.
    # The timings are those of one pass made of these medians.
    medians = [statistics.median(lat) for lat in tally.latencies_ms.values()]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": 1000 * len(medians) / sum(medians),
        "op_p50_ms": statistics.median(medians),
        "op_p90_ms": percentile(medians, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    context = {
        "pass_s": tally.pass_seconds,
        "error_rate": tally.failed / tally.attempted,
        "samples": {
            "setup_s": len(setup_times),
            "passes": len(tally.pass_seconds),
            "ops_per_pass": len(medians),
        },
    }
    return tally, metrics, END_TO_END, context


def measure_traced(workload, seed, configs=None):
    """Per-layer metrics: pass 0 untraced, then twice traced."""
    configs = configs or workloads.WORKLOADS[workload][1]
    with tempfile.TemporaryDirectory(prefix=".run-", dir=BENCH_DIR) as workdir:
        nv, files = setup(workload, workdir, configs)
        tally = run_passes(nv, workload, seed, files, configs, passes=1)
        untraced_s = tally.pass_seconds[0]
        tracers = []
        traced_s = []
        for _ in range(2):
            tracer = layers.Tracer()
            tracer.install(nv)
            try:
                traced = run_passes(nv, workload, seed, files, configs, passes=1)
            finally:
                tracer.uninstall()
            tally.merge(traced)
            tracers.append(tracer)
            traced_s.append(traced.pass_seconds[0])
    first, second = (t.repeatable_counts() for t in tracers)
    mismatches = {k: [first[k], second[k]] for k in first if first[k] != second[k]}
    found = tracers[0].layer_metrics()
    metrics = {name: found.get(name, 0) for name in PER_LAYER}
    metrics["trace.overhead_ratio"] = traced_s[0] / untraced_s - 1
    metrics["trace.count_mismatches"] = len(mismatches)
    context = {
        "untraced_pass_s": untraced_s,
        "traced_pass_s": traced_s,
        "repeatable_counts": first,
        "count_mismatches": mismatches,
        "missing_hooks": tracers[0].missing,
    }
    return tally, metrics, PER_LAYER, context


# -- reporting --------------------------------------------------------------------


def machine_facts():
    facts = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu_model"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                "unknown",
            )
        with open("/proc/loadavg") as fh:
            facts["loadavg"] = [float(x) for x in fh.read().split()[:3]]
    except OSError:
        facts.setdefault("cpu_model", "unknown")
        facts["loadavg"] = None
    return facts


def report(workload, seed, trace, tally, metrics, units, context):
    for name, unit in units.items():
        print(f"{workload:12s} {name:42s} {metrics[name]:14.6g} {unit}")
    if trace == 0:
        print(f"{workload:12s} {'error_rate':42s} {context['error_rate']:14.6g} ratio")
    for line in tally.failures[:20]:
        print(f"FAIL {line}")
    info = {"workload": workload, "seed": seed, "trace": trace, **machine_facts(), **context}
    print("context " + json.dumps(info, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_nearvec()
    except ImportError as exc:
        print(f"error: cannot import nearvec from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        outcome = measure_traced(args.workload, args.seed)
    else:
        outcome = measure(args.workload, args.seed, args.seconds)
    report(args.workload, args.seed, args.trace, *outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
