"""Record a benchmark result file, diff two of them, or rebuild the fig1 reference.

    python3 perfbench/record.py record --out perfbench/results/NAME.json
    python3 perfbench/record.py diff perfbench/results/baseline.json perfbench/results/NAME.json
    python3 perfbench/record.py fig1-reference

``record`` runs every workload of BENCHMARK.json once for each of seeds 1-10
with tracing off and once with tracing on, each in its own process, and
writes the medians and quartiles of the end-to-end metrics and of the
whole-run figures from each run's report line, the per-layer metrics and the
environment.  It also prints each metric's spread (interquartile range over
median) next to its bound.  ``diff`` prints, per workload, every end-to-end
and whole-run median and every nonzero per-layer value of the two files, with
calls, times, errors and bytes divided by the traced operations, and flags
end-to-end changes beyond the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH_DIR / "reference" / "fig1.json"
REFERENCE_SEEDS = range(32)
SEEDS = list(range(1, 11))
# Whole-run figures from each run's report line: stored and diffed, not gated.
WHOLE_RUN = {"median_ops_per_s": "1/s", "latency_p50_us_all": "us", "latency_p99_us_all": "us"}
PER_OP_SUFFIXES = (".calls", ".self_s", ".total_s", ".errors", ".bytes")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(report_line)["report"], json.loads(result_line)


def summarize(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def cmd_record(args: argparse.Namespace) -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    result = {"run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, seed, seconds, 0) for seed in SEEDS]
        _, traced = run_once(workload, SEEDS[0], seconds, 1)
        result.setdefault("env", runs[0][0]["env"])
        result.setdefault("notes", runs[0][0]["notes"])
        e2e = {}
        for name in runs[0][1]["metrics"]:
            values = [r[1]["metrics"][name]["value"] for r in runs]
            e2e[name] = {"unit": runs[0][1]["metrics"][name]["unit"], **summarize(values), "values": values}
        result["workloads"][workload] = {
            "attempted": sum(r[1]["attempted"] for r in runs),
            "failed": sum(r[1]["failed"] for r in runs),
            "latency_samples": [r[0]["latency_samples"] for r in runs],
            "end_to_end": e2e,
            "whole_run": {name: {"unit": unit, **summarize([r[0][name] for r in runs])}
                          for name, unit in WHOLE_RUN.items()},
            "per_layer": traced["metrics"],
        }
        print(f"{workload}: attempted {result['workloads'][workload]['attempted']}, "
              f"failed {result['workloads'][workload]['failed']}")
        for name, m in e2e.items():
            flag = "" if m["spread"] < bounds[name] / 3.0 else "   <-- spread over bound/3"
            print(f"  {name:<18} median {m['median']:<14.6g} {m['unit']:<5} spread {m['spread']:.4f} "
                  f"(bound {bounds[name]}){flag}")
        for name, m in result["workloads"][workload]["whole_run"].items():
            print(f"  {name:<18} median {m['median']:<14.6g} {m['unit']:<5} spread {m['spread']:.4f} (not gated)")
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


def per_op(layers: dict, name: str) -> float:
    """A per-layer value; totals over the traced phase are divided by its operations."""
    value = layers[name]["value"]
    if name.endswith(PER_OP_SUFFIXES) and layers["trace.ops"]["value"]:
        return value / layers["trace.ops"]["value"]
    return value


def cmd_diff(args: argparse.Namespace) -> int:
    old = json.loads(Path(args.old).read_text(encoding="utf-8"))
    new = json.loads(Path(args.new).read_text(encoding="utf-8"))
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    print(f"old: {args.old} (git {old.get('env', {}).get('git_sha', '?')})")
    print(f"new: {args.new} (git {new.get('env', {}).get('git_sha', '?')})")
    worse_count = 0
    for workload in sorted(set(old["workloads"]) | set(new["workloads"])):
        a, b = old["workloads"].get(workload), new["workloads"].get(workload)
        if a is None or b is None:
            print(f"\n[{workload}] only in {'new' if a is None else 'old'} file")
            continue
        print(f"\n[{workload}] failed {a['failed']}/{a['attempted']} -> {b['failed']}/{b['attempted']}"
              "; per-layer calls, times, errors and bytes are per traced operation")
        for name in a["end_to_end"]:
            if name not in b["end_to_end"]:
                continue
            x, y = a["end_to_end"][name]["median"], b["end_to_end"][name]["median"]
            change = (y - x) / x if x else 0.0
            better = metrics[name]["better"] if name in metrics else "lower"
            worse = change > 0 if better == "lower" else change < 0
            flag = ""
            if name in metrics and worse and abs(change) > metrics[name]["bound"]:
                flag = "   WORSE BEYOND BOUND"
                worse_count += 1
            print(f"  {name:<40} {x:>14.6g} -> {y:<14.6g} {change:+8.2%}{flag}")
        for name in WHOLE_RUN:
            if name in a.get("whole_run", {}) and name in b.get("whole_run", {}):
                x, y = a["whole_run"][name]["median"], b["whole_run"][name]["median"]
                print(f"  {name:<40} {x:>14.6g} -> {y:<14.6g} {(y - x) / x if x else 0.0:+8.2%}   whole run, not gated")
        for name in sorted(set(a["per_layer"]) & set(b["per_layer"])):
            x, y = per_op(a["per_layer"], name), per_op(b["per_layer"], name)
            if x == y == 0.0:
                continue
            change = f"{(y - x) / x:+8.2%}" if x else ""
            print(f"  {name:<40} {x:>14.6g} -> {y:<14.6g} {change}")
    return 1 if worse_count else 0


def cmd_fig1_reference(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    import pinchrelay.cli
    from workloads import FIG1_ARGS, fig1_reference_rows

    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=BENCH_DIR / ".work"))
    try:
        seeds = {str(seed): fig1_reference_rows(pinchrelay.cli, seed, workdir) for seed in REFERENCE_SEEDS}
    finally:
        shutil.rmtree(workdir)
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps({"argv": list(FIG1_ARGS), "seeds": seeds}) + "\n", encoding="utf-8")
    print(f"wrote {len(seeds)} seeds to {REFERENCE}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("record", help="run every workload over seeds 1-10 and write a result file")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_record)
    p = sub.add_parser("diff", help="compare two result files")
    p.add_argument("old")
    p.add_argument("new")
    p.set_defaults(func=cmd_diff)
    p = sub.add_parser("fig1-reference", help="rebuild the stored fig1 means from src/")
    p.set_defaults(func=cmd_fig1_reference)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
