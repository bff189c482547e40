"""Benchmark of the CNT-interconnect reproduction: two workloads, one command.

Run from the repository root::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 10 --trace 0

``--workload`` is ``paper`` or ``service_jobs`` (see
``perf_workloads.py`` for what each one does and why).  ``--seed`` makes the
workload's inputs.  ``--seconds`` sets the size of a run: the op count is
``seconds`` times a nominal rate measured on a 2-vCPU host, so a run lasts
about that long there while the work stays fixed when the code gets faster
(``paper`` always runs one pass).  ``--trace 0`` prints the end-to-end
metrics, measured with all tracing off; ``--trace 1`` prints the per-layer
metrics from a traced run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 only when every op succeeded and every result matched its check.
"""

import os

# Pin BLAS/OpenMP to one thread before anything imports numpy.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
SETUP_PROBE = os.path.join(HERE, "setup_probe.py")

SETUP_SPAWNS = 3
# Ops run once on throwaway fixtures before timing, so that lazy imports
# and first-call set-up inside the program are done (the ``paper`` pass
# keeps them: a user reproducing the paper pays them once per process).
WARMUP_OPS = 12
CALIB_LOOPS = 300_000
CALIB_SAMPLES = 5
# Ops the traced run re-runs three ways (untraced, benchmark spans,
# repro.obs tracing) to measure the cost of tracing: a share of the
# workload's ops, or for ``paper`` its mid-sized experiments.
OVERHEAD_SHARE = 8
OVERHEAD_ROUNDS = 2
PAPER_OVERHEAD_OPS = ("crosstalk", "fig8a", "variability_delay")


def calibrate() -> list[float]:
    """Times (ms) of a fixed pure-Python loop, to show host drift."""
    samples = []
    for _ in range(CALIB_SAMPLES):
        start = time.perf_counter()
        total = 0
        for i in range(CALIB_LOOPS):
            total += i * i
        samples.append((time.perf_counter() - start) * 1e3)
    return samples


def measure_setup(workload: str, workdir: str, spawns: int) -> float:
    """Median time (s) for a fresh interpreter to import, register and build
    the workload's fixtures; one discarded spawn warms the page cache."""
    times = []
    for index in range(spawns + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, SETUP_PROBE, workload, workdir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdin.close()
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"setup probe for {workload} failed ({proc.returncode})")
        if index:
            times.append(elapsed)
    return statistics.median(times)


def run_ops(workload, ops, workdir, recorder=None):
    """Run ``ops`` in order on fresh fixtures: (latencies s, results, errors)."""
    latencies, results, errors = [], [], []
    fixtures = workload.open(workdir)
    # Write back dirty pages (and the discards of deleted files) now, so the
    # journal commits they cause do not land inside the timed ops.
    os.sync()
    try:
        for op in ops:
            start = time.perf_counter()
            try:
                if recorder is None:
                    result = workload.run_op(fixtures, op)
                else:
                    with recorder.span("bench.op", "bench"):
                        result = workload.run_op(fixtures, op)
            except Exception as error:  # one failed op must not end the run
                result = None
                errors.append(f"{type(error).__name__}: {error}")
            latencies.append(time.perf_counter() - start)
            results.append(result)
    finally:
        workload.close(fixtures)
    return latencies, results, errors


def warm_up(workload, ops, workdir) -> None:
    """Run the first ops untimed on throwaway fixtures (not for ``paper``)."""
    if not workload.pass_is_op:
        run_ops(workload, ops[:WARMUP_OPS], workdir)


def check(workload, ops, results) -> int:
    """Number of ops whose result is missing or differs from its check."""
    from repro.api.results import content_hash

    failed = 0
    for op, result in zip(ops, results):
        if result is None or workload.expected_hash(op, result) != content_hash(
            result.to_records()
        ):
            failed += 1
    return failed


def tracing_overhead(workload, ops, workdir):
    """(obs, bench) tracing overhead on ``ops``: traced wall / plain - 1."""
    from perf_layers import Instrumentation, SpanRecorder
    from repro.obs import configure_tracing

    walls = {"plain": 0.0, "bench": 0.0, "obs": 0.0}
    for _ in range(OVERHEAD_ROUNDS):
        walls["plain"] += sum(run_ops(workload, ops, workdir)[0])
        recorder = SpanRecorder()
        with Instrumentation(recorder):
            walls["bench"] += sum(run_ops(workload, ops, workdir, recorder)[0])
        configure_tracing(os.path.join(workdir, "obs-trace.jsonl"))
        try:
            walls["obs"] += sum(run_ops(workload, ops, workdir)[0])
        finally:
            configure_tracing(None)
    return walls["obs"] / walls["plain"] - 1.0, walls["bench"] / walls["plain"] - 1.0


def percentile_ms(latencies: list[float]) -> tuple[float, float, str]:
    """(median, tail, tail name) in ms.  The tail is p90 when at least ten
    ops lie beyond it, else the median."""
    p50 = statistics.median(latencies) * 1e3
    if len(latencies) >= 100:
        return p50, statistics.quantiles(latencies, n=10)[8] * 1e3, "p90"
    return p50, p50, "p50"


def run_benchmark(name, seed, seconds, trace, *, n_ops=None, workload=None,
                  setup_spawns=SETUP_SPAWNS):
    """One run; returns the result object printed as the last line."""
    import perf_workloads

    workload = workload or perf_workloads.WORKLOADS[name]()
    random.seed(seed)  # any jitter in the program (retry backoff) repeats
    if n_ops is None and workload.ops_per_second is not None:
        n_ops = max(1, round(seconds * workload.ops_per_second))
    ops = workload.plan(seed, n_ops)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        calib = calibrate()
        if trace:
            metrics, failed = traced_run(workload, ops, workdir, name)
        else:
            setup_s = measure_setup(name, workdir, setup_spawns)
            warm_up(workload, ops, workdir)
            latencies, results, errors = run_ops(workload, ops, workdir)
            failed = check(workload, ops, results)
            p50, tail, tail_name = percentile_ms(
                [sum(latencies)] if workload.pass_is_op else latencies
            )
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (sum(latencies), "s"),
                "op_p50_ms": (p50, "ms"),
                "op_tail_ms": (tail, "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
            print(f"{name}: {len(ops)} ops, op_tail_ms is {tail_name}")
            for error in errors:
                print(f"failed op: {error}")
        calib += calibrate()
        print("host.calib_ms samples: " + " ".join(f"{value:.2f}" for value in calib))
        if trace:
            metrics["host.calib_ms"] = (statistics.median(calib), "ms")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        os.sync()
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def traced_run(workload, ops, workdir, name):
    """Per-layer metrics: one run with benchmark spans around every public
    call of every layer, then the tracing-overhead probe."""
    from perf_layers import Instrumentation, SpanRecorder, layer_metrics

    warm_up(workload, ops, workdir)
    recorder = SpanRecorder()
    with Instrumentation(recorder):
        latencies, results, errors = run_ops(workload, ops, workdir, recorder)
    failed = check(workload, ops, results)
    recorder.write_jsonl(os.path.join(WORK, f"spans-{name}.jsonl"))
    for error in errors:
        print(f"failed op: {error}")
    if workload.pass_is_op:
        probe = [op for op in ops if op in PAPER_OVERHEAD_OPS] or ops[:1]
    else:
        probe = ops[: max(1, len(ops) // OVERHEAD_SHARE)]
    obs_overhead, bench_overhead = tracing_overhead(workload, probe, workdir)
    metrics = layer_metrics(recorder.spans)
    metrics["obs.trace_overhead_frac"] = (obs_overhead, "ratio")
    metrics["bench.span_overhead_frac"] = (bench_overhead, "ratio")
    return metrics, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper", "service_jobs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to benchmark: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    result = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
