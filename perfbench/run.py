"""spinshuffle benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload fista-default --seed 0 \
        --seconds 30 --trace 0

Run from the root of a source checkout. Each run is a closed loop: one
client in this process starts the next job when the previous one ends, and
stops where the run ends closest to --seconds (at least two jobs always
run). With --trace 0 the jobs run unwrapped and the result holds the
end-to-end metrics; with --trace 1 an untraced warm-up job is followed by
traced and untraced jobs in ABBA order, and the result holds the per-layer
metrics of the traced jobs plus the tracing overhead. Every job's outputs
are checked; a job that raises or fails a check counts as failed.

The last line of standard output is the result object. A readable table
comes before it, and a record of the run (environment, every metric with its
unit, direction and sample count, and for traced runs every span) is written
under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(ROOT, ".perfbench")
MIN_JOBS = 2
SETUP_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")


def pin_threads() -> int:
    """Cap BLAS/OpenMP pools at the cores this process may use.

    Must run before numpy is imported; set-up probes inherit the setting.
    """
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cores)
    return cores


def import_package():
    """Import spinshuffle from this checkout's src/, never from elsewhere."""
    init = os.path.join(SRC, "spinshuffle", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"perfbench: no spinshuffle sources at {init}")
    sys.path.insert(0, SRC)
    import spinshuffle
    if os.path.abspath(spinshuffle.__file__) != init:
        raise SystemExit(f"perfbench: imported spinshuffle from "
                         f"{spinshuffle.__file__}, not {init}")
    return spinshuffle


def setup_probe(workload: str, seed: int, tiny: bool) -> float:
    """Set-up time in this (fresh) interpreter: import plus input building."""
    start = time.perf_counter()
    import_package()
    import workloads
    workloads.build(workload, seed, ROOT, os.devnull, tiny)
    return time.perf_counter() - start


def measure_setup(workload: str, seed: int, tiny: bool) -> list:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    if tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def _git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def _src_digest():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "spinshuffle")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches():
    """Cache sizes of the first core, e.g. {"L2 Unified": "2048K"}."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    out = {}
    try:
        for entry in sorted(os.listdir(base)):
            if not entry.startswith("index"):
                continue
            fields = {}
            for name in ("level", "type", "size"):
                with open(os.path.join(base, entry, name)) as fh:
                    fields[name] = fh.read().strip()
            out[f"L{fields['level']} {fields['type']}"] = fields["size"]
    except OSError:
        pass
    return out or None


def environment(threads: int, seed: int) -> dict:
    import importlib.metadata as md
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = md.version(pkg)
        except md.PackageNotFoundError:
            versions[pkg] = None
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        **versions,
        "blas": blas,
        "blas_threads": threads,
        "seed": seed,
    }


def _median(values):
    return statistics.median(values) if values else 0.0


def _tail_percentile(values):
    """Highest percentile with at least ten samples beyond it, if any."""
    for pct in (99, 95, 90, 75, 50):
        if len(values) * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(values, n=100)[pct - 1]
    return None


def run_jobs(wl, seconds: float, trace: bool):
    """Closed loop over jobs.

    Returns job times by kind (None for the warm-up, else whether traced),
    per-layer metrics of each traced job, failure messages, the last
    outputs, the spans and the jobs attempted.
    """
    import tracing
    timed = {None: [], False: [], True: []}
    per_layer, spans, failures = [], [], []
    outputs = None
    min_jobs = MIN_JOBS + trace
    start = time.perf_counter()
    i = 0
    while True:
        # traced runs open with an untraced warm-up job, timed apart, then
        # alternate traced and untraced jobs in ABBA order
        kind = (None if i == 0 else (i - 1) % 4 in (0, 3)) if trace else False
        traced = kind is True
        tracer = tracing.Tracer() if traced else None
        t0 = time.perf_counter()
        try:
            if traced:
                with tracer:
                    out = tracer.span("job", wl.job)()
            else:
                out = wl.job()
        except Exception:
            failures.append(traceback.format_exc())
            out = None
        elapsed = time.perf_counter() - t0
        if out is not None:
            timed[kind].append(elapsed)
            outputs = out
            problems = wl.check(out)
            if problems:
                failures.append("; ".join(problems))
            if traced:
                per_layer.append(tracing.layer_metrics(tracer.spans,
                                                       tracer.counts))
        if traced:
            spans.append({"spans": tracer.spans, "counts": tracer.counts})
        i += 1
        so_far = time.perf_counter() - start
        # stop where the run ends closest to --seconds: before a job that
        # would end later past it than the run now ends short of it
        if i >= min_jobs and so_far + 0.5 * so_far / i > seconds:
            break
    return timed, per_layer, failures, outputs, spans, i


def run(workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> dict:
    """One benchmark run; returns the full record of it."""
    threads = pin_threads()
    import_package()
    import workloads
    if workload not in workloads.NAMES:
        raise SystemExit(f"perfbench: unknown workload {workload!r}")
    import tracing

    setup = [] if trace else measure_setup(workload, seed, tiny)
    out_dir = os.path.join(RESULTS, f"out-{os.getpid()}")
    try:
        wl = workloads.build(workload, seed, ROOT, out_dir, tiny)
        timed, per_layer, failures, outputs, spans, attempted = run_jobs(
            wl, seconds, trace)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    metrics = {}

    def put(name, value, unit, better, samples):
        metrics[name] = {"value": value, "unit": unit, "better": better,
                         "samples": samples}

    untraced, traced = timed[False], timed[True]
    if trace:
        for name in tracing.layer_metrics([], {}):
            values = [job[name] for job in per_layer]
            put(name, _median(values), *tracing.LAYER_METRICS[name],
                len(values))
        put("trace.job_s", _median(traced),
            *tracing.LAYER_METRICS["trace.job_s"], len(traced))
        put("trace.overhead_s", _median(traced) - _median(untraced),
            *tracing.LAYER_METRICS["trace.overhead_s"],
            len(traced) + len(untraced))
    else:
        put("job_s", _median(untraced), "s", "lower", len(untraced))
        put("setup_s", _median(setup), "s", "lower", len(setup))
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        put("peak_rss_mb", rss * 1024 / 1e6, "MB", "lower", 1)
        put("failed_frac", len(failures) / attempted, "ratio", "lower",
            attempted)
        if outputs is not None:
            for name, (value, unit, better) in wl.quality(outputs).items():
                put(name, value, unit, better, 1)
    tail = _tail_percentile(untraced)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "tiny": tiny,
        "load_model": "closed loop, one client, one process",
        "environment": environment(threads, seed),
        "attempted": attempted, "failed": len(failures),
        "failures": failures, "metrics": metrics,
        "job_times_s": {"warm-up": timed[None], "untraced": untraced,
                        "traced": traced},
        "setup_samples_s": setup,
        "job_s_tail": ({"percentile": tail[0], "value": tail[1]}
                       if tail else None),
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}{'-tiny' if tiny else ''}"
    with open(os.path.join(RESULTS, f"record-{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if trace:
        with open(os.path.join(RESULTS, f"spans-{stem}.json"), "w") as fh:
            json.dump(spans, fh)
    return record


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def result_line(record: dict) -> dict:
    """The last-line result object: declared metrics only, value and unit."""
    declared = _declared()
    names = [m["name"] for m in
             declared["per_layer" if record["trace"] else "end_to_end"]]
    metrics = record["metrics"]
    return {"correct": record["failed"] == 0 and all(n in metrics
                                                     for n in names),
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {n: {"value": metrics[n]["value"],
                            "unit": metrics[n]["unit"]}
                        for n in names if n in metrics}}


def print_table(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"trace {record['trace']}  jobs {record['attempted']} "
          f"({record['failed']} failed)")
    for failure in record["failures"]:
        print(f"  failed: {failure.strip().splitlines()[-1]}")
    print(f"  {'metric':38s} {'value':>14s}  {'unit':6s} {'better':6s} n")
    for name, m in record["metrics"].items():
        print(f"  {name:38s} {m['value']:14.6g}  {m['unit']:6s} "
              f"{m['better']:6s} {m['samples']}")
    if record["job_s_tail"]:
        tail = record["job_s_tail"]
        print(f"  job_s p{tail['percentile']}: {tail['value']:.6g} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes (16x16, 4 echoes)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed, args.tiny)))
        return 0
    record = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.tiny)
    print_table(record)
    print(json.dumps(result_line(record)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
