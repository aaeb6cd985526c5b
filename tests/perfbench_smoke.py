"""perfbench smoke: every workload runs traced and untraced, and the package names that perfbench
traces and calls still work.

Its six perfbench runs take about 20 s (2-vCPU Xeon), too long for tier-1, so CI runs it on CPython 3.11,
from the root of a checkout:

    python tests/perfbench_smoke.py

It exits 0, or 1 with the failing report on stderr.  pytest does not collect it.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def last_line(workload: str, trace: int) -> dict:
    """The JSON object on the last line of a 1 s perfbench run; the run must exit 0."""
    argv = ["perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"perfbench {workload} --trace {trace} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> None:
    for workload in ("sweep_fig1", "verify_oracle", "solve_point"):
        r = last_line(workload, 1)
        if not (r["correct"] is True and r["failed"] == 0):
            sys.exit(str(r))
        if workload == "solve_point":
            # every solve falls in one placement case, and some users have no real root (x2_m is None)
            m = r["metrics"]
            shares = {case: m[f"placement.{case}_share"]["value"] for case in ("feed", "interior", "far_end", "no_root")}
            if not (abs(sum(shares.values()) - 1.0) <= 1e-9 and shares["no_root"] > 0.0):
                sys.exit(str(shares))
        # the untraced run is the one whose end-to-end metrics are compared between commits
        r = last_line(workload, 0)
        m = r["metrics"]
        names = ("ops_per_s", "latency_p50_us", "peak_rss_mb", "setup_s")
        if not (r["correct"] is True and r["failed"] == 0 and all(math.isfinite(m[name]["value"]) for name in names)):
            sys.exit(str(r))


if __name__ == "__main__":
    main()
