"""fogndt benchmark: run workloads through the CLI and print their metrics.

    python3 perfbench/run.py --workload gap_scan_12k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Each workload runs in its own worker process (one thread), so peak RSS
belongs to that workload.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.  The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Full results, with provenance, go to ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "bench_worker.py"
OUT_DIR = ROOT / ".perfbench"
WORKER_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import bench_workloads  # noqa: E402


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    args = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result_{name}_trace{trace}.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def summary(name: str, result: dict) -> list[str]:
    workload = bench_workloads.WORKLOADS[name]
    p = result["provenance"]
    lines = [f"{name}  seed={p['seed']}  git={p['git_sha'][:12]}  python={p['python']}"
             f"  numpy={p['numpy']}  nproc={p['nproc']}"]
    metrics = result["metrics"]
    for key, metric in sorted(metrics.items()):
        note = ""
        if key == "throughput_per_s":
            note = (f"  ({workload.throughput_name}: {workload.item_unit}/s, fastest of"
                    f" {result['ops']['untraced']} ops, per CLI call; median op"
                    f" {result['median_throughput_per_s']:.6g})")
        elif key == "setup_s":
            note = f"  (median of {len(result['setup_samples_s'])} processes)"
        lines.append(f"  {key:32s} {metric['value']:>16.6g} {metric['unit']}{note}")
    frac = result["failed"] / result["attempted"]
    lines.append(f"  {'failed_frac':32s} {frac:>16.6g} frac  ({result['failed']}/{result['attempted']} ops)")
    for failure in result["failures"][:3]:
        lines.append(f"  failure: {'; '.join(failure['problems'])}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *bench_workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fogndt" / "__init__.py").is_file():
        print(f"error: no fogndt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(bench_workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print("\n".join(summary(name, results[name])))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {name: r["metrics"] for name, r in results.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
