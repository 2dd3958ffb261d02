"""Run the benchmark over several seeds and summarise it as a baseline record.

Usage, from the repository root:

    python3 perfbench/baseline.py --seeds 1-10 --seconds 25 --out baseline.json

For each workload this runs `run.py --trace 0` once per seed and
`run.py --trace 1` on the first seed, one run at a time.  It records each
end-to-end metric's values, median, quartiles and spread (interquartile
range / median, as `statistics.quantiles(values, n=4)` gives the quartiles),
the raw wall-clock figures and host slowdown of each run, the per-layer
metrics and per-call medians of the traced run, and a mapping of those
per-call medians onto the single-call timings listed as the baseline in
ROADMAP.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "certify_stream", "profile_verify")

# ROADMAP baseline row -> (workload, key in the traced run's per_call_ms)
TRACED_ROWS = {
    "scattering_length hardcore d=2": ("certify_stream", "scattering.scattering_length[hardcore d=2]"),
    "scattering_length hardcore d=3": ("certify_stream", "scattering.scattering_length[hardcore d=3]"),
    "scattering_length piecewise (1-8 cells) d=2":
        ("certify_stream", "scattering.scattering_length[piecewise_constant d=2]"),
    "scattering_length piecewise (1-8 cells) d=3":
        ("certify_stream", "scattering.scattering_length[piecewise_constant d=3]"),
    "quad_integrals hardcore profile d=2": ("profile_verify", "bounds.quad_integrals[hardcore d=2]"),
    "quad_integrals hardcore profile d=3": ("profile_verify", "bounds.quad_integrals[hardcore d=3]"),
    "discrete_minimizer hardcore h=(R-a)/400 d=2": ("profile_verify", "oracles.discrete_minimizer[hardcore d=2]"),
    "discrete_minimizer hardcore h=(R-a)/400 d=3": ("profile_verify", "oracles.discrete_minimizer[hardcore d=3]"),
    "certify_bec (all families, hardcore and piecewise)": ("certify_stream", "manifolds.certify_bec[all]"),
    "inequality_report(default_case_grid())": ("profile_verify", "oracles.inequality_report[all]"),
}
# ROADMAP CLI row -> (workload, command) from the untraced runs
CLI_ROWS = {
    "CLI sweep (6-point grid, piecewise)": ("sweep", "sweep"),
    "CLI verify": ("profile_verify", "verify"),
    "CLI scatter (~200 KB JSON)": ("profile_verify", "scatter"),
    "CLI certify": ("certify_stream", "certify"),
    "CLI bound": ("certify_stream", "bound"),
}


def parse_seeds(text):
    """Seeds from an inclusive range "lo-hi"."""
    lo, hi = text.split("-")
    return list(range(int(lo), int(hi) + 1))


def run_once(workload, seed, seconds, trace):
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1]), json.loads(lines[-2][len("detail "):])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def summarise(workload, seeds, seconds):
    runs = []
    for seed in seeds:
        result, detail = run_once(workload, seed, seconds, 0)
        runs.append((result, detail))
        print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
    traced, traced_detail = run_once(workload, seeds[0], seconds, 1)
    metrics = {name: spread([r["metrics"][name]["value"] for r, _ in runs]) for name in runs[0][0]["metrics"]}
    commands = sorted({c for _, d in runs for c in d["p50_ms_by_command"]})
    return {
        "correct": all(r["correct"] for r, _ in runs) and traced["correct"],
        "attempted": [r["attempted"] for r, _ in runs],
        "failed": [r["failed"] for r, _ in runs],
        "metrics": metrics,
        "tail_percentile": runs[0][1]["tail_percentile"],
        "beyond_tail": [d["beyond_tail"] for _, d in runs],
        "host_slowdown": [d["host_slowdown"] for _, d in runs],
        "raw_wall_clock": {name: spread([d[key][name] for _, d in runs])
                           for key in ("raw_wall_clock", "raw_setup") for name in runs[0][1][key]},
        "p50_ms_by_command": {
            c: statistics.median(d["p50_ms_by_command"][c] for _, d in runs if c in d["p50_ms_by_command"])
            for c in commands
        },
        "edge_probes": runs[0][1].get("edge_probes"),
        "environment": runs[0][1]["environment"],
        "traced": {
            "seed": seeds[0],
            "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_call_ms": traced_detail["per_call_ms"],
            "host_slowdown": traced_detail["host_slowdown"],
            "missing": traced_detail["missing"],
        },
    }


def roadmap_rows(by_workload):
    rows = {}
    for row, (workload, key) in TRACED_ROWS.items():
        traced = by_workload.get(workload, {}).get("traced", {})
        entry = traced.get("per_call_ms", {}).get(key)
        if entry:
            # on the calibrated scale of the untraced rows, by the traced run's median probe
            rows[row] = {"median_ms": entry["median_ms"] / traced["host_slowdown"], "n": entry["n"],
                         "source": f"traced {workload}, divided by its host_slowdown"}
    for row, (workload, command) in CLI_ROWS.items():
        value = by_workload.get(workload, {}).get("p50_ms_by_command", {}).get(command)
        if value is not None:
            rows[row] = {"median_ms": value, "source": f"untraced {workload}, median of per-run calibrated p50"}
    imports = [w["raw_wall_clock"]["import_s"]["median"] for w in by_workload.values()]
    if imports:
        rows["import hypgas, cold process"] = {"median_ms": statistics.median(imports) * 1e3,
                                               "source": "set-up of every run, raw wall clock"}
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    by_workload = {w: summarise(w, seeds, args.seconds) for w in WORKLOADS}
    record = {"seeds": seeds, "seconds": args.seconds, "workloads": by_workload,
              "roadmap_rows": roadmap_rows(by_workload)}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for w, summary in by_workload.items():
        for name, m in summary["metrics"].items():
            print(f"{w:15s} {name:16s} median={m['median']:.6g} spread={m['spread']:.4f}")


if __name__ == "__main__":
    main()
