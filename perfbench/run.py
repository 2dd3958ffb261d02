"""hypgas benchmark: one closed-loop client driving the public CLI in-process.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): sweep, certify_stream, profile_verify.

--trace 0 times the seeded request stream for --seconds seconds of request
time, ending on a whole cycle of request shapes, and reports the end-to-end
metrics.  Their times are calibrated for host speed by a fixed probe run
between requests (see REFERENCE_PROBE_S); raw wall-clock figures are on the
detail line.  --trace 1 runs a fixed number of requests from the start of the
stream, each once with every public function of interest wrapped
(tracing.py) and once without, and reports per-layer metrics; with a fixed
request count its counts repeat exactly for a seed.

Each request is `hypgas.cli.main(argv + ["--out", file])`.  Its output is
checked against references computed independently (reference.py).  The last
line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import numpy as np
from scipy.integrate import solve_ivp

import reference
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
SETUP_REPS = 5
# A timed run also stops after this many multiples of --seconds of wall
# time, so that output checks cannot stretch it past its time limit.
WALL_CAP = 3.0
# A timed run goes on until this many samples lie beyond its tail
# percentile, so the tail is never read from too few samples on a slow host.
MIN_BEYOND_TAIL = 10
# Host-speed calibration.  A shared VM runs this process at speeds up to 2x
# apart, switching within seconds, and every request type slows by about the
# same factor, so raw request times mostly measure the host.  A fixed ODE
# solve on scipy's solve_ivp (the integrator behind hypgas's scattering
# solve) runs between requests and slows the same way.  Each request's time
# is scaled by REFERENCE_PROBE_S / (mean of the probes just before and just
# after it): end-to-end latencies are milliseconds on a host where the probe
# takes REFERENCE_PROBE_S, about its time on this host's fast state (2.0 GHz
# Xeon vCPU).  Raw wall-clock figures are kept on the detail line.
REFERENCE_PROBE_S = 2.5e-3
CHECKERS = {
    "sweep": reference.check_sweep,
    "certify": reference.check_certify,
    "bound": reference.check_bound,
    "scatter": reference.check_scatter,
    "verify": reference.check_verify,
}


class Outcome:
    """Result of one request: latency, exit code, and the check verdict."""

    __slots__ = ("request", "seconds", "code", "failure", "wrong", "output_bytes")

    def __init__(self, request, seconds, code, failure=None, wrong=None, output_bytes=0):
        self.request = request
        self.seconds = seconds
        self.code = code
        self.failure = failure
        self.wrong = wrong
        self.output_bytes = output_bytes


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_hypgas():
    if not os.path.isfile(os.path.join(SRC, "hypgas", "__init__.py")):
        fail(f"no hypgas sources under {SRC}")
    sys.path.insert(0, SRC)
    import hypgas
    import hypgas.cli

    if not os.path.abspath(hypgas.__file__).startswith(SRC + os.sep):
        fail(f"imported hypgas from {hypgas.__file__}, not from {SRC}")
    return hypgas


def environment(hypgas):
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "hypgas": getattr(hypgas, "__version__", "unknown"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }


def git_sha():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(workload, seed, workdir):
    """Median over SETUP_REPS of a cold `import hypgas` plus writing the input pool.

    The fresh interpreter reports the clock when its import ends, then runs
    the probe itself: the import is calibrated by that probe, taken on the
    CPU the import ran on (perf_counter is the system-wide monotonic clock).
    Writing the pool is calibrated by the probes just before and after it.
    Returns (calibrated median seconds, raw medians of the whole set-up and
    of the import alone, the stream written by the last repetition).
    """
    code = (f"import sys, time; sys.path.insert(0, {SRC!r}); import hypgas; end = time.perf_counter(); "
            f"sys.path.insert(0, {HERE!r}); from run import probe; "
            "print(end, sorted(probe() for _ in range(3))[1])")
    times, raws, imports, stream = [], [], [], None
    probe()  # the first call warms the probe's own code paths
    for rep in range(SETUP_REPS):
        rep_dir = os.path.join(workdir, f"inputs{rep}")
        start = perf_counter()
        child = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, capture_output=True, text=True)
        end, child_probe = map(float, child.stdout.split())
        imports.append(end - start)
        before = probe()
        start = perf_counter()
        os.mkdir(rep_dir)
        stream = workloads.Stream(workload.make, seed, workload.name, rep_dir)
        stream.fill(workload.pool)
        pool = perf_counter() - start
        raws.append(imports[-1] + pool)
        times.append(REFERENCE_PROBE_S * (imports[-1] / child_probe + 2.0 * pool / (before + probe())))
        if rep < SETUP_REPS - 1:
            shutil.rmtree(rep_dir)
    return statistics.median(times), {"setup_s": statistics.median(raws), "import_s": statistics.median(imports)}, stream


def _probe_rhs(r, y):
    return [y[1], (1.0 + 0.5 * np.cos(r)) * y[0] - y[1] / (r + 1.0)]


def probe():
    """Seconds taken by the fixed calibration solve."""
    start = perf_counter()
    solve_ivp(_probe_rhs, (0.0, 3.0), [1.0, 0.0], rtol=1e-9, atol=1e-12)
    return perf_counter() - start


def execute(cli, request, out_path, tracer=None):
    """Run one request through the CLI and check its output."""
    if os.path.exists(out_path):
        os.unlink(out_path)
    argv = request.argv + ["--out", out_path]
    stderr = io.StringIO()
    failure = None
    with contextlib.redirect_stderr(stderr):
        if tracer is not None:
            tracer.command, tracer.active = request.command, True
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a raw exception is a failed request, not a crash
            code, failure = None, f"raised {type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        if tracer is not None:
            tracer.active = False
    if code not in (0, 1):
        failure = failure or f"exit {code}: {stderr.getvalue().strip()[:200]}"
        return Outcome(request, seconds, code, failure=failure)
    try:
        with open(out_path) as fh:
            text = fh.read()
        doc = text if request.command == "sweep" else json.loads(text)
        CHECKERS[request.command](request, code, doc, reference.ReferenceLengths())
    except (reference.CheckFailed, OSError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
        return Outcome(request, seconds, code, wrong=f"{type(exc).__name__}: {exc}")
    return Outcome(request, seconds, code, output_bytes=len(text.encode()))


def beyond(n, percentile):
    """Samples of n that lie beyond the nearest-rank percentile."""
    return n - max(1, math.ceil(percentile / 100.0 * n))


def nearest_rank(sorted_values, percentile):
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Tally:
    """Counts of attempted, failed and wrong requests, with the first problems."""

    def __init__(self):
        self.attempted = self.failed = self.wrong = 0
        self.problems = []

    def add(self, o):
        self.attempted += 1
        self.failed += bool(o.failure)
        self.wrong += bool(o.wrong)
        if (o.failure or o.wrong) and len(self.problems) < 10:
            self.problems.append(f"#{o.request.index} {o.request.command}: {o.failure or o.wrong}")

    def summary(self):
        return {"attempted": self.attempted, "failed": self.failed, "wrong": self.wrong,
                "problems": self.problems}


def latency_metrics(by_command, failed_seconds, busy, tail):
    """ops_per_s, p50 and tail latency from per-request seconds."""
    ok = sorted(t for v in by_command.values() for t in v)
    timed = ok or sorted(failed_seconds)  # latency of failures only if nothing succeeded
    return {
        "ops_per_s": (len(ok) / busy, "1/s"),
        "latency_p50_ms": (statistics.median(timed) * 1e3, "ms"),
        "latency_tail_ms": (nearest_rank(timed, tail) * 1e3, "ms"),
    }


def run_timed(cli, workload, stream, seconds, out_path):
    """Closed loop until the requests' own wall time reaches `seconds`.

    The run then finishes its current cycle of request shapes, so that every
    run measures the same request mix.  It also goes on until MIN_BEYOND_TAIL
    samples lie beyond the tail percentile.  A calibration probe runs before the
    first request and after each one; the metrics use calibrated times.
    """
    tally, by_command, failed_seconds = Tally(), {}, []
    raw_by_command, raw_failed = {}, []
    busy = calibrated_busy = 0.0
    i = 0
    probes = [probe()]
    tail = workload.tail_percentile
    deadline = perf_counter() + WALL_CAP * seconds

    def unfinished():
        return busy < seconds or beyond(i, tail) < MIN_BEYOND_TAIL or i % workload.cycle != 0

    while unfinished() and perf_counter() < deadline:
        o = execute(cli, stream[i], out_path)
        probes.append(probe())
        calibrated = o.seconds * 2.0 * REFERENCE_PROBE_S / (probes[-2] + probes[-1])
        tally.add(o)
        busy += o.seconds
        calibrated_busy += calibrated
        i += 1
        if o.failure:
            failed_seconds.append(calibrated)
            raw_failed.append(o.seconds)
        else:
            by_command.setdefault(o.request.command, []).append(calibrated)
            raw_by_command.setdefault(o.request.command, []).append(o.seconds)
    metrics = {"setup_s": None, **latency_metrics(by_command, failed_seconds, calibrated_busy, tail),
               "peak_rss_mb": None}
    raw = latency_metrics(raw_by_command, raw_failed, busy, tail)
    n_timed = sum(map(len, by_command.values())) or len(failed_seconds)
    summary = tally.summary()
    summary.update(
        busy_s=busy,
        wall_capped=unfinished(),
        tail_percentile=tail,
        beyond_tail=beyond(n_timed, tail),
        failed_ratio=tally.failed / tally.attempted,
        wrong_ratio=tally.wrong / tally.attempted,
        host_slowdown=statistics.median(probes) / REFERENCE_PROBE_S,
        raw_wall_clock={name: value for name, (value, _) in raw.items()},
        p50_ms_by_command={c: statistics.median(v) * 1e3 for c, v in sorted(by_command.items())},
        count_by_command={c: len(v) for c, v in sorted(by_command.items())},
    )
    return metrics, summary


def run_edge_probes(cli, seed, workdir, out_path):
    """Requests at the documented domain edges, outside the timed stream."""
    stream = workloads.Stream(workloads.edge_request, seed, "edge", workdir)
    report = []
    for i in range(workloads.EDGE_PROBES):
        o = execute(cli, stream[i], out_path)
        verdict = "failed: " + o.failure if o.failure else "wrong: " + o.wrong if o.wrong else "ok"
        report.append({"argv": o.request.argv[:1] + o.request.argv[3:], "r0": o.request.potential["r0"],
                       "outcome": verdict})
    return report


def run_traced(cli, workload, stream, out_path):
    """Each of the first M requests traced, then at once again untraced.

    Timing the same input both ways, back to back, makes trace.overhead the
    tracer's cost rather than a difference between inputs or a drift in
    machine speed.  The traced run goes first, so its counts are those of a
    single pass over the stream.  A cache kept across requests would favour
    the untraced repeat and make the overhead read high.
    """
    m = workload.traced_requests
    tracer = tracing.Tracer()
    traced, plain, probes = [], [], [probe()]
    for i in range(m):
        request = stream[i]
        tracer.install()
        try:
            traced.append(execute(cli, request, out_path, tracer))
        finally:
            tracer.uninstall()
        plain.append(execute(cli, request, out_path))
        probes.append(probe())
    tracer.output_bytes = sum(o.output_bytes for o in traced)
    overhead = sum(o.seconds for o in traced) / sum(o.seconds for o in plain)
    tally = Tally()
    for o in plain + traced:
        tally.add(o)
    summary = tally.summary()
    summary.update(
        traced_requests=m,
        missing=tracer.missing,
        per_call_ms=tracer.per_call_medians_ms(),
        host_slowdown=statistics.median(probes) / REFERENCE_PROBE_S,
    )
    return tracer.metrics(overhead), summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if "HYPGAS_THREADS" in os.environ:
        fail("HYPGAS_THREADS is set; it switches the sweep path, so unset it")
    hypgas = import_hypgas()
    workload = workloads.WORKLOADS[args.workload]

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        setup_s, raw_setup, stream = measure_setup(workload, args.seed, workdir)
        out_path = os.path.join(workdir, "out")
        warm_dir = os.path.join(workdir, "warmup")
        os.mkdir(warm_dir)
        warm = workloads.Stream(workload.make, args.seed, "warmup", warm_dir)
        warm_outcomes = [execute(hypgas.cli, warm[i], out_path) for i in range(workload.warmup)]
        if args.trace:
            metrics, summary = run_traced(hypgas.cli, workload, stream, out_path)
        else:
            metrics, summary = run_timed(hypgas.cli, workload, stream, args.seconds, out_path)
            metrics["setup_s"] = (setup_s, "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
            if workload.name == "certify_stream":
                summary["edge_probes"] = run_edge_probes(hypgas.cli, args.seed, warm_dir, out_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)

    warm_wrong = [o.wrong for o in warm_outcomes if o.wrong]
    correct = summary["wrong"] == 0 and not warm_wrong
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(hypgas), "raw_setup": raw_setup, "warmup_wrong": warm_wrong, **summary,
    }
    print(f"hypgas benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    if not args.trace:
        print(f"  {'failed_ratio':<40} {summary['failed_ratio']:.6g} ({summary['failed']}/{summary['attempted']})")
        print(f"  {'wrong_ratio':<40} {summary['wrong_ratio']:.6g} ({summary['wrong']}/{summary['attempted']})")
        print(f"  tail percentile p{workload.tail_percentile:g}, {summary['beyond_tail']} samples beyond it")
        print(f"  host slowdown {summary['host_slowdown']:.3g}; raw wall clock: "
              + ", ".join(f"{k} {v:.6g}" for k, v in {**summary["raw_wall_clock"], **raw_setup}.items()))
    print("detail " + json.dumps(detail, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
