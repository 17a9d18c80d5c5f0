"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 [--workloads hull-wide,...]
                             [--trace 0|1] [--seconds N] [--out summary.json]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
prints per workload and metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
the distance between the quartiles as a share of the median, for the
reported metrics and for the unscaled latency figures ``run.py`` prints on
stderr.  The seconds per run default to ``run_seconds`` in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _stats(values: dict[str, list[float]], units: dict[str, str]) -> dict:
    metrics = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        metrics[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0, "samples": len(vals)}
    return metrics


def summarise(results: list[dict], raws: list[dict]) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for res in results:
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    raw_values: dict[str, list[float]] = {}
    for raw in raws:
        for name, v in raw.items():
            raw_values.setdefault(name, []).append(v)
    summary = {
        "runs": len(results),
        "all_correct": all(r["correct"] for r in results),
        "invocations_per_run": [r["attempted"] for r in results],
        "metrics": _stats(values, units),
    }
    if raw_values:  # the latency figures before speed scaling
        summary["unscaled_metrics"] = _stats(raw_values, units)
    return summary


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        results, raws = [], []
        for seed in _seeds(args.seeds):
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(res)
            raws += [json.loads(line[len("raw: "):]) for line in proc.stderr.splitlines()
                     if line.startswith("raw: ")]
            shown = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
            print(f"{workload} seed={seed} correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} {shown}", file=sys.stderr, flush=True)
        summary[workload] = summarise(results, raws)
        for kind, label in (("metrics", ""), ("unscaled_metrics", "unscaled")):
            for name, m in summary[workload].get(kind, {}).items():
                print(f"{workload:13s} {label:8s} {name:28s} median "
                      f"{m['median']:.6g} {m['unit']:6s} spread {m['spread']:.4f}",
                      file=sys.stderr, flush=True)
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
