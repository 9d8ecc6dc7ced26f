"""Run the benchmark on several seeds and summarise each metric's spread.

    python3 perfbench/repeat.py --workload sweep --seeds 1-10 \
        [--seconds 10] [--trace 0] [--out FILE]

For each workload and metric it reports the ten values, their median,
quartiles (statistics.quantiles, n=4) and the quartile distance as a share
of the median, the spread that BENCHMARK.json's bounds are judged against.
The summary is printed and, with --out, written as JSON together with the
environment of the first run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    summary, env = {}, None
    for workload in args.workload:
        runs = []
        for seed in _seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
                return 1
            env = env or json.loads(lines[-2])["environment"]
            result = json.loads(lines[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                if k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb", "trace.overhead_s")),
                f"correct={result['correct']}", file=sys.stderr)
        metrics = {name: summarise([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        summary[workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            if m["spread"] is not None and name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
                print(f"  {workload} {name}: median {m['median']:.6g} "
                      f"IQR/median {m['spread']:.4f}", file=sys.stderr)
    report = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "workloads": summary}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
