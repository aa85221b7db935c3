"""Benchmark of the bosegas library and CLI.

Run from the repository root:

    python3 bench/run.py --workload curve --seed 1 --seconds 25 --trace 0

Each workload is a closed loop of one client in this process: the next op
starts when the previous one returns, until ``--seconds`` have passed.  Inputs
come from ``--seed`` (see workloads.py); the program receives only the
generated (c, h, T, x) values.  Every op's output is checked, and anchor
outputs at c = h = 1 are compared against ``reference.json``.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, in which every input is run once untraced and once traced and
the spans are written to ``.bench_out/spans-<workload>.jsonl``.  The lines
before it name every metric with its unit, the tail percentile and the
machine record.  The full result also goes to ``.bench_out/``.

The end-to-end op timings are put on one machine-speed scale with the speed
probe of probe.py, read between ops; the raw wall-clock values are printed
beside them and kept in the result file.  ``setup_s`` stays raw wall clock:
import time does not follow the probe.
"""

import argparse
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import spans  # stdlib only; workloads, which loads bosegas, comes later
# probe, which loads numpy, is imported in run_loop(), after main() has fixed
# the BLAS threads

# Fixed BLAS thread count, at most nproc.  main() sets it before numpy loads
# anywhere, including the set-up subprocesses, which inherit the environment.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS")

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# the keys of workloads.WORKLOADS, which loads bosegas, so not imported here
WORKLOAD_NAMES = ("curve", "scan", "excited", "verify")
# fresh-process imports of bosegas per run; setup_s is their median
SETUP_IMPORTS = 3
IMPORT_TIMER = ("import time; t = time.perf_counter(); import bosegas; "
                "print(time.perf_counter() - t)")
# the tail latency is the sample with this many samples beyond it
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_ops_per_s": "1/s",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
    "doubling_rel_err": "rel",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def fresh_import_seconds(env):
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env,
                          cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=120)
    return float(proc.stdout.strip().splitlines()[-1])


def import_breakdown(env):
    """Cumulative import seconds of SETUP_MODULES from ``-X importtime``;
    0 for a module that ``import bosegas`` no longer loads."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import bosegas"], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True,
                          timeout=120)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            cumulative.setdefault(parts[2].strip(), int(parts[1]) / 1e6)
    return {spans.setup_metric(m): cumulative.get(m, 0.0)
            for m in spans.SETUP_MODULES}


def _openblas_threads(numpy):
    """Thread count OpenBLAS reports, or None where it cannot be read."""
    import ctypes
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                          "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def machine_record():
    import numpy
    import scipy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas_name,
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": _openblas_threads(numpy),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def tail_latency(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it; the maximum where that percentile would not lie
    above the median (fewer than 2 * TAIL_BEYOND + 1 samples)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def run_loop(workload, seed, seconds, tracer=None):
    """Closed loop over fresh inputs.  With a tracer, each input runs once
    untraced and once traced, alternating which goes first.  A probe reading
    is taken before the first op and after every op; each record holds its
    op's raw ``seconds``, the mean ``probe_s`` of the readings around it and
    its ``scaled`` seconds at the reference speed."""
    import probe
    from workloads import run_op
    inputs = workload.inputs(seed)
    records, readings = [], [probe.reading()]
    start = perf_counter()
    for index, inp in enumerate(inputs):
        if perf_counter() - start >= seconds:
            break
        if tracer is None:
            order = (False,)
        else:
            order = (False, True) if index % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                tracer.op = index
                tracer.install()
            try:
                status, dt, reason = run_op(workload, inp, OUT_DIR)
            finally:
                if traced:
                    tracer.uninstall()
            readings.append(probe.reading(dt))
            probe_s = (readings[-2] + readings[-1]) / 2.0
            records.append({"op": index, "traced": traced, "status": status,
                            "seconds": dt, "reason": reason, "inputs": inp,
                            "probe_s": probe_s,
                            "scaled": dt * probe.factor(probe_s)})
    return records, perf_counter() - start


def end_to_end_metrics(records, setup_s, peak_rss_mb, doubling,
                       key="scaled"):
    """End-to-end metrics of an untraced run, and the tail's percentile.
    Op timings use each record's ``key``: ``scaled`` (reported) or
    ``seconds`` (raw wall clock, printed beside them)."""
    ok = [r[key] for r in records if r["status"] == "ok"] or [0.0]
    tail, tail_pct = tail_latency(ok)
    n_ok = sum(r["status"] == "ok" for r in records)
    return {
        "setup_s": statistics.median(setup_s),
        "latency_p50_s": statistics.median(ok),
        "latency_tail_s": tail,
        # ok ops per second spent in the program, over every attempted op
        "throughput_ops_per_s": n_ok / sum(r[key] for r in records),
        "ok_frac": n_ok / len(records),
        "peak_rss_mb": peak_rss_mb,
        "doubling_rel_err": doubling,
    }, tail_pct


def traced_metrics(tracer, records, env):
    """Per-layer metrics of a traced run; writes its spans to OUT_DIR."""
    traced = sum(r["seconds"] for r in records if r["traced"])
    untraced = sum(r["seconds"] for r in records if not r["traced"])
    n_traced = sum(r["traced"] for r in records)
    metrics = spans.layer_metrics(tracer.spans, n_traced, traced)
    metrics.update(import_breakdown(env))
    metrics["trace.overhead_frac"] = traced / untraced - 1.0
    return metrics


def write_spans(tracer, workload):
    with open(os.path.join(OUT_DIR, f"spans-{workload}.jsonl"), "w") as fh:
        fh.write(json.dumps(spans.Span.__slots__) + "\n")
        for span in tracer.spans:
            fh.write(json.dumps(span.row()) + "\n")


def main(argv=None):
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    if not os.path.isfile(os.path.join(SRC, "bosegas", "__init__.py")):
        print(f"error: no bosegas sources under {SRC}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    args = parse_args(argv)
    env = subprocess_env()
    setup_samples = [fresh_import_seconds(env) for _ in range(SETUP_IMPORTS)]
    sys.path.insert(0, SRC)
    import bosegas
    if not os.path.abspath(bosegas.__file__).startswith(SRC + os.sep):
        print(f"error: imported bosegas from {bosegas.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    import workloads
    os.makedirs(OUT_DIR, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]

    # the anchor op doubles as the warm-up: it fills lazy imports and caches
    anchor_mismatch = workloads.compare_anchor(
        args.workload, workload.anchor(OUT_DIR), workloads.load_reference())
    tracer = spans.Tracer() if args.trace else None
    records, loop_s = run_loop(workload, args.seed, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doubling, doubling_refused = workload.doubling()

    counts = {s: sum(r["status"] == s for r in records)
              for s in ("ok", "refused", "failed")}
    result = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "loop_s": loop_s,
              "trace": args.trace,
              "machine": machine_record(), "counts": counts,
              "setup_samples_s": setup_samples,
              "anchor_mismatch": anchor_mismatch,
              "doubling_refused_anchors": doubling_refused,
              "ops": records}
    notes = {}
    if args.trace:
        metrics = traced_metrics(tracer, records, env)
        write_spans(tracer, args.workload)
    else:
        doubling = max(doubling, workloads.DOUBLING_FLOOR)
        metrics, tail_pct = end_to_end_metrics(records, setup_samples,
                                               peak_rss_mb, doubling)
        raw, _ = end_to_end_metrics(records, setup_samples, peak_rss_mb,
                                    doubling, key="seconds")
        result["raw_wall_clock_metrics"] = raw
        result["latency_tail_percentile"] = tail_pct
        notes["latency_tail_s"] = f" (p{tail_pct:.1f} of {counts['ok']} ops)"
        for name in ("latency_p50_s", "latency_tail_s",
                     "throughput_ops_per_s"):
            notes[name] = (notes.get(name, "")
                           + f"; raw wall clock {raw[name]:.6g}")
    result["metrics"] = metrics
    units = {name: E2E_UNITS.get(name) or spans.unit(name)
             for name in metrics}
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"bosegas benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"ops: {len(records)} attempted, {counts['ok']} ok, "
          f"{counts['refused']} refused, {counts['failed']} failed; "
          f"fail_frac = {1.0 - counts['ok'] / len(records):.4f}")
    if anchor_mismatch:
        print(f"reference anchors differ: {', '.join(anchor_mismatch)}")
    if doubling_refused:
        print(f"doubling anchors refused: {doubling_refused}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}{notes.get(name, '')}")
    print("machine: " + json.dumps(result["machine"]))
    print(json.dumps({
        "correct": (counts["failed"] == 0 and counts["ok"] > 0
                    and not anchor_mismatch),
        "attempted": len(records), "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
