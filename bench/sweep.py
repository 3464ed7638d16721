"""Steady runner: repeated benchmark runs, one fresh process each, one at a time.

    python3 bench/sweep.py --workloads democracy-p4 norms-highp --seeds 1 2 3 4 5

Runs ``bench/run.py`` with the command-line shape BENCHMARK.json
declares, for every workload x seed, sequentially, with the BLAS and
OpenMP thread variables set to 1.  Prints, per workload and end-to-end
metric, the median, the quartiles and the quartile spread as a share
of the median next to a third of the metric's bound, and the same
spread for the unscaled CPU and wall-clock figures; writes every
result line, with its environment record, to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import THREAD_VARS  # noqa: E402

# the info line's figures before scaling to the reference speed
RAW_FIGURES = ("cpu_ops_per_s", "cpu_op_p50_ms", "cpu_op_tail_ms",
               "wall_ops_per_s", "wall_op_p50_ms")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env,
                          timeout=180, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])["info"]
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=str(ROOT / ".bench_out" / "sweep.json"))
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = []
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            res = run_once(workload, seed, args.seconds)
            runs.append(res)
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                             if k in bounds), flush=True)
        results.append({"workload": workload, "runs": runs})
        if len(runs) < 2:
            continue
        for name, bound in bounds.items():
            med, q1, q3, rel = spread([r["metrics"][name]["value"] for r in runs])
            flag = "ok" if rel < bound / 3 else "WIDE"
            print(f"  {name:12s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {rel:.4f} (bound/3 {bound / 3:.4f}) {flag}", flush=True)
        for name in RAW_FIGURES:
            med, q1, q3, rel = spread([r["info"][name] for r in runs])
            print(f"  {name:16s} median {med:.6g} spread {rel:.4f} (unscaled)", flush=True)
    out = Path(args.out)
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
