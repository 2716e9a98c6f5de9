"""Benchmark for gantrace: times the package's public functions from outside.

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  With ``--trace 0`` the run repeats its workload's
operations for ``--seconds`` seconds and reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it wraps the package's module
boundaries, makes a fixed number of passes and reports the per-layer
metrics.  Human-readable lines come first; the last line of standard
output is one JSON object.  A full record (samples, environment, span
summary) goes to ``perfbench/_out``.  Exit code 0 on a finished run, 2
when the checkout holds no package to measure.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"

# One BLAS thread: the matrices are small, the box may be shared, and more
# threads than cores would only add scheduling noise.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3

# A traced run makes this many whole passes, so its counts repeat exactly.
PASSES_TRACED = 1

# Pairs of untraced and traced calls of one sweep, to price the tracing.
OVERHEAD_SAMPLES = 3

# The speed probe: a fixed NumPy and Python kernel, independent of
# gantrace, timed before and after every measured operation.  Its median
# of PROBE_REPEATS runs took PROBE_REFERENCE_MS on the machine where
# baseline.json was measured.  Each timing is scaled by
# PROBE_REFERENCE_MS over the probe time around it (see Run.scaled).
PROBE_REPEATS = 11
PROBE_STEPS = 60
PROBE_REFERENCE_MS = 1.8

# Percentile choice: the highest one with at least this many samples beyond it.
TAIL_SAMPLES = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import gantrace from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "gantrace" / "__init__.py").is_file():
        raise ImportError(f"no gantrace package under {src}")
    for variable in BLAS_VARIABLES:
        os.environ[variable] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(src), str(HERE)]
    import gantrace

    if Path(gantrace.__file__).resolve().parent != (src / "gantrace").resolve():
        raise ImportError(f"imported gantrace from {gantrace.__file__}, not {src}")


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with TAIL_SAMPLES samples beyond it, count."""
    n = len(values)
    summary = {"p50": statistics.median(values), "n": n}
    tail = math.floor(100.0 * (1.0 - TAIL_SAMPLES / n))
    if tail > 50:
        summary[f"p{tail}"] = statistics.quantiles(values, n=100, method="inclusive")[tail - 1]
    return summary


def speed_probe() -> float:
    """Milliseconds for a fixed small-MLP kernel: median of PROBE_REPEATS runs."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.standard_normal((100, 10))
    w1 = rng.standard_normal((10, 32)) * 0.3
    w2 = rng.standard_normal((32, 2)) * 0.3
    times = []
    for _ in range(PROBE_REPEATS):
        w = w1
        start = time.perf_counter()
        for _ in range(PROBE_STEPS):
            h = np.tanh(x @ w)
            y = h @ w2
            g = ((y - 1.0) @ w2.T) * (1.0 - h * h)
            w = w - 1e-3 * (x.T @ g)
            sum(float(a.sum()) for a in (h, y, g))
        times.append(1e3 * (time.perf_counter() - start))
    return statistics.median(times)


class Run:
    """Counts attempted and failed operations and collects metric samples.

    The shared machine's speed drifts by up to a factor of two between and
    within runs, and the drift moves every timing alike.  So ``probe`` is
    called before each measured operation and once after the last, and
    ``scaled`` reports each sample multiplied by PROBE_REFERENCE_MS over
    the mean of the two probes around it: the time the operation would
    take on the reference machine at rest.
    """

    def __init__(self):
        self.samples: dict[str, list[tuple[float, int]]] = {}  # (raw, probe before)
        self.probes: list[float] = []
        self.durations: dict[str, list[float]] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def probe(self) -> None:
        # Garbage left by the previous operation would otherwise be
        # collected, at a varying cost, inside the next one.
        gc.collect()
        self.probes.append(speed_probe())

    def attempt(self, label: str, action, metric: str | None = None):
        from workloads import CheckFailed

        self.attempted += 1
        start = time.perf_counter()
        try:
            value = action()
        except CheckFailed as exc:
            self.failures.append(f"{label}: {exc}")
            print(f"check failed: {label}: {exc}", file=sys.stderr)
            return None
        except Exception:
            self.failures.append(f"{label}: {traceback.format_exc(limit=1).strip()}")
            traceback.print_exc()
            return None
        finally:
            self.durations.setdefault(label, []).append(time.perf_counter() - start)
        if metric is not None:
            self.samples.setdefault(metric, []).append((value, len(self.probes) - 1))
        return value

    def raw(self, metric: str) -> list[float]:
        return [value for value, _ in self.samples[metric]]

    def scaled(self, metric: str) -> list[float]:
        return [value * PROBE_REFERENCE_MS / (0.5 * (self.probes[b] + self.probes[b + 1]))
                for value, b in self.samples[metric]]


def interleave(plan) -> list[str]:
    """One pass: operations round-robin, each as often as the plan says."""
    rounds = max(count for _, count in plan)
    return [op for r in range(rounds) for op, count in plan if r < count]


def timed_passes(run: Run, ctx, workload, seconds: float, traced: bool) -> None:
    """First pass always runs whole; later ones only run what fits the deadline."""
    from workloads import OPERATIONS

    sequence = interleave(workload.plan)
    occurrences = dict.fromkeys(OPERATIONS, 0)
    deadline = time.perf_counter() + seconds
    passes = 0
    while True:
        ran = False
        for op in sequence:
            if passes > 0 and not traced:
                expected = statistics.median(run.durations[op])
                if time.perf_counter() + expected > deadline:
                    continue
            metric, function = OPERATIONS[op]
            run.probe()
            i = occurrences[op]
            occurrences[op] += 1
            run.attempt(op, lambda: function(ctx, i), metric)
            ran = True
        passes += 1
        if not ran or (traced and passes >= PASSES_TRACED):
            run.probe()
            return


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that NumPy loaded, if it can be found."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def environment(ctx) -> dict:
    import numpy
    import scipy

    import gantrace.training as training

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "machine": platform.machine(),
        "workload": ctx.workload.name,
        "config": ctx.config_path.name,
        "config_fingerprint": ctx.run.fingerprint,
        "trace_checksum": training.trace_checksum(ctx.run.trace),
    }


def measure_overhead(ctx) -> float:
    """Median traced over median untraced time of the k=1 sweep, minus one.

    Untraced and traced calls alternate, so drift in the machine's speed
    falls on both sides.
    """
    import tracing
    import workloads

    plain, traced = [], []
    for _ in range(OVERHEAD_SAMPLES):
        for samples, tracer in ((plain, None), (traced, tracing.Tracer())):
            if tracer:
                tracer.install()
            try:
                start = time.perf_counter()
                workloads.op_sweep_k1(ctx, 0)
                samples.append(time.perf_counter() - start)
            finally:
                if tracer:
                    tracer.uninstall()
    return statistics.median(traced) / statistics.median(plain) - 1.0


def layer_metrics(tracer, vjp_calls: int, overhead_frac: float) -> tuple[dict, dict]:
    """Per-layer values named as in BENCHMARK.json, plus extras for the record."""
    table = tracer.summary()
    counters = tracer.counters

    def calls(span):
        return table.get(span, {}).get("calls", 0)

    def self_s(span):
        return table.get(span, {}).get("self_s", 0.0)

    kinds = ("all", "is", "fid", "disc_loss")
    replayed = counters["oracle.replayed_steps"]
    evaluations = counters["metrics.kde_evaluations"]
    pairs = counters["metrics.kde_pairs_total"] / evaluations if evaluations else 0
    values = {
        "autodiff.vjp_of_gradient.calls": vjp_calls,
        "autodiff.vjp_of_gradient.self_s": self_s("autodiff.vjp_of_gradient"),
        "influence.traced_steps": counters["influence.traced_steps"],
        "models.joint_gradient.calls": calls("models.joint_gradient"),
        "models.joint_gradient.self_s": self_s("models.joint_gradient"),
        "models.data_term_scores.calls": calls("models.data_term_scores"),
        "models.data_term_scores.rows": counters["models.data_term_scores.rows"],
        "models.data_term_scores.self_s": self_s("models.data_term_scores"),
        "training.asgd_step.calls": calls("training.asgd_step"),
        "training.asgd_step.self_s": self_s("training.asgd_step"),
        "training.save_trace.self_s": self_s("training.save_trace"),
        "training.save_trace.bytes": counters["training.save_trace.bytes"],
        "training.load_trace.self_s": self_s("training.load_trace"),
        "training.load_trace.files": counters["training.load_trace.files"],
        "influence.propagate_query.calls": calls("influence.propagate_query"),
        "influence.propagate_query.self_s": self_s("influence.propagate_query"),
        "influence.infer_linear_influence.self_s": self_s("influence.infer_linear_influence"),
        "oracle.counterfactual_retrain.calls": calls("oracle.counterfactual_retrain"),
        "oracle.counterfactual_retrain.self_s": self_s("oracle.counterfactual_retrain"),
        "oracle.replayed_steps": replayed,
        "oracle.wasted_step_frac": counters["oracle.wasted_steps"] / replayed if replayed else 0.0,
        **{f"metrics.metric_value.{kind}.calls": calls(f"metrics.metric_value.{kind}")
           for kind in kinds},
        "metrics.metric_value.self_s": sum(self_s(f"metrics.metric_value.{kind}")
                                           for kind in kinds),
        "metrics.kde_pairs": pairs,
        "metrics.kde_bytes_computed": 8 * pairs,
        "metrics.build_query_vector.self_s": self_s("metrics.build_query_vector"),
        "metrics.generator_pullback.self_s": self_s("metrics.generator_pullback"),
        "experiments.prepare_seed_run.self_s": self_s("experiments.prepare_seed_run"),
        "cli.train.self_s": self_s("cli.train"),
        "cli.influence.self_s": self_s("cli.influence"),
        "cli.oracle.self_s": self_s("cli.oracle"),
        "cli.retrain_s": tracer.retrain_seconds(),
        "tracing.overhead_frac": overhead_frac,
    }
    # Layers only some workloads reach; recorded, but not BENCHMARK.json metrics.
    extras = {
        **{f"metrics.metric_value.{kind}.self_s": self_s(f"metrics.metric_value.{kind}")
           for kind in kinds},
        "metrics.Classifier.input_pullback.calls": calls("metrics.Classifier.input_pullback"),
        "metrics.Classifier.input_pullback.self_s": self_s("metrics.Classifier.input_pullback"),
        "metrics.train_classifier.self_s": self_s("metrics.train_classifier"),
        "experiments.permutation_test_tau.calls": calls("experiments.permutation_test_tau"),
        "experiments.permutation_test_tau.self_s": self_s("experiments.permutation_test_tau"),
    }
    return values, extras


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import gantrace.autodiff as autodiff
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    traced = bool(args.trace)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    run = Run()
    tracer = tracing.Tracer() if traced else None
    vjp_start = autodiff.vjp_gradient_call_count()
    try:
        if tracer:
            tracer.install()
        contexts = []

        def set_up():
            start = time.perf_counter()
            contexts.append(workloads.setup(workload, args.seed, work))
            return time.perf_counter() - start

        for repeat in range(SETUP_REPEATS):
            run.probe()
            run.attempt(f"setup[{repeat}]", set_up, "setup_s")
        run.probe()
        if not contexts:
            print("error: set-up failed on every attempt", file=sys.stderr)
            return 1
        ctx = contexts[-1]
        if tracer:
            ctx.span = tracer.span
        run.attempt("setup_is_deterministic", lambda: workloads.check(
            len({c.checksum for c in contexts}) == 1, "set-up traces differ across repeats"))
        run.attempt("replay_without_exclusion",
                    lambda: workloads.check_replay_without_exclusion(ctx))
        for target in workloads.final_step_targets(ctx):
            run.attempt(f"final_step_identity[{target}]",
                        lambda: workloads.check_final_step(ctx, target))

        timed_passes(run, ctx, workload, args.seconds, traced)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if tracer:
            vjp_calls = autodiff.vjp_gradient_call_count() - vjp_start
            tracer.uninstall()
            overhead = measure_overhead(ctx)
            run.attempt("vjp_calls_equal_traced_steps", lambda: workloads.check(
                vjp_calls == tracer.counters["influence.traced_steps"],
                f"{vjp_calls} vector-Jacobian products for "
                f"{tracer.counters['influence.traced_steps']} traced steps"))
            layers, layer_extras = layer_metrics(tracer, vjp_calls, overhead)
        env = environment(ctx)
    finally:
        if tracer:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    summaries = {name: summarize(run.scaled(name)) for name in run.samples}
    summaries["peak_rss_mb"] = summarize([peak_rss_mb])
    print(f"gantrace benchmark: workload {workload.name}, seed {args.seed}, "
          f"{f'traced, {PASSES_TRACED} pass' if traced else f'{args.seconds:g} s'}")
    print(f"  speed probe          p50={statistics.median(run.probes):.4g} ms "
          f"(reference {PROBE_REFERENCE_MS} ms)  n={len(run.probes)}")
    for name, summary in summaries.items():
        tails = "  ".join(f"{key}={value:.6g}" for key, value in summary.items()
                          if key not in ("p50", "n"))
        raw = f"raw p50={statistics.median(run.raw(name)):<10.6g}" if name in run.samples else ""
        print(f"  {name:<20} p50={summary['p50']:<12.6g} {units.get(name, ''):<6} "
              f"n={summary['n']:<4} {raw} {tails}")
    failed = len(run.failures)
    print(f"  failed_frac          {failed / run.attempted:.6g} ({failed} of {run.attempted} "
          "operations failed)")
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "attempted": run.attempted,
              "failed": failed, "failures": run.failures, "summaries": summaries,
              "probes_ms": run.probes, "peak_rss_mb": peak_rss_mb,
              "samples": {name: {"raw": run.raw(name), "scaled": run.scaled(name)}
                          for name in run.samples}}
    if traced:
        print("per-layer (one fixed pass; counts repeat exactly for a seed):")
        for name, value in {**layers, **layer_extras}.items():
            print(f"  {name:<42} {value:.6g}")
        record.update(layers=layers, layer_extras=layer_extras, spans=tracer.summary())
        tracer.write(OUT / f"spans-{tag}.jsonl")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        missing = [m["name"] for m in spec["end_to_end"] if m["name"] not in summaries]
        if missing:
            print(f"error: no successful sample of {', '.join(missing)}", file=sys.stderr)
            return 1
        metrics = {m["name"]: {"value": summaries[m["name"]]["p50"], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print("environment " + json.dumps(env, sort_keys=True))
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
