"""Benchmark of the seqreg command line, one workload per run.

    python3 bench/run.py --workload hull-wide --seed 0 --seconds 30 --trace 0

Run from the root of a seqreg checkout (the program is imported from
``src/``).  The load is a closed loop with one client: the workload's
invocations of ``seqreg.cli.main`` run back to back, in-process, for
``--seconds`` seconds and until whole cycles of the workload hold
``MIN_OPS`` invocations.  Latencies are reported at a reference machine
speed (see ``speed.py``), and so is ``setup_s``.  Inputs are
generated from ``--seed`` (see ``corpus.py``) into a scratch directory in
the checkout, which is removed at the end.  Every invocation's exit code
and output are checked (``invoke.py``); on the default seed the output
bytes must also match the committed golden digests.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every
invocation of the cycle twice, untraced and with the spans of ``spans.py``
recorded, and prints the per-layer metrics.  The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from corpus import WORKLOADS, Plan, build_plan  # noqa: E402
from invoke import check_output, digest, invoke, op_argv  # noqa: E402
from speed import speed_factor  # noqa: E402

DEFAULT_SEED = 0
MIN_OPS = 100  # so that p90 has at least ten samples beyond it
RUN_LIMIT_S = 150.0  # the whole run stops measuring here, whatever --seconds says
SETUP_REPEATS = 9  # fresh interpreters per run, spread over it; setup_s is their median

LAYERS = ("cli", "sequences", "tails", "minorant", "weights", "phireg", "piecewise", "oracles")

# per-layer metric -> the spans (see spans.py) whose time it sums, in ms per
# invocation; a span inside another span of the same metric is not added again
SPAN_METRICS = {
    "cli.parse_ms": ("cli.parse",),
    "cli.emit_ms": ("cli.emit",),
    "sequences.classify_ms": ("sequences.classify_regime",),
    "sequences.convexity_ms": ("sequences.is_log_convex",),
    "tails.values_ms": ("tails.values",),
    "minorant.standard_ms": ("minorant.convex_minorant", "minorant.case1_regularize",
                             "minorant.log_convex_minorant"),
    "minorant.case2_ms": ("minorant.case2_regularize",),
    "minorant.trace_ms": ("minorant.trace_function",),
    "weights.omega_direct_ms": ("weights.omega_direct",),
    "weights.omega_piecewise_ms": ("weights.omega_piecewise",),
    "weights.omega_integral_ms": ("weights.omega_integral",),
    "weights.omega_shifted_ms": ("weights.omega_tilde", "weights.omega_double_tilde"),
    "phireg.sweep_ms": ("phireg.regularize_with_phi",),
    "phireg.record_eval_ms": ("phireg.trace_A_phi", "phireg.counting_m_phi"),
    "phireg.compare_ms": ("phireg.compare_regularizations",),
    "piecewise.eval_ms": ("piecewise.evaluate", "piecewise.conjugate_at"),
    "oracles.minorant_ms": ("oracles.brute_minorant",),
    "oracles.omega_ms": ("oracles.brute_omega",),
    "oracles.phi_sweep_ms": ("oracles.brute_phi_sweep",),
}
# sweep events: the jumps of the counting function of every phi regularization
OBSERVE = {"phireg.regularize_with_phi": ("phireg.events", lambda r: len(r.counting.jumps))}

# a fresh interpreter imports seqreg.cli and parses the corpus (the set-up)
_SETUP_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
import seqreg.cli
from seqreg import SequenceSpec
for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        doc = json.loads(fh.read())
    if isinstance(doc, dict):
        SequenceSpec.from_json(doc)
"""


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of values.

    A weighted mean of all order statistics, weighted by the
    Beta(q (n+1), (1-q) (n+1)) probability of each rank interval.  Latencies
    here spread over three orders of magnitude, so neighbouring order
    statistics differ by several per cent; a single order statistic jumps
    to its neighbour when one sample changes rank, this estimate moves
    smoothly.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    per_rank = 64  # midpoint-rule steps per rank interval
    weights, acc = [], 0.0
    for j in range(per_rank * n):
        x = (j + 0.5) / (per_rank * n)
        acc += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        if (j + 1) % per_rank == 0:
            weights.append(acc)
            acc = 0.0
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def setup_once(paths: list[str]) -> float:
    """Wall time of one fresh interpreter that does the set-up."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), *paths], cwd=ROOT,
                   check=True, capture_output=True, timeout=60)
    return perf_counter() - start


def extreal_probe(seqreg, plan: Plan) -> float:
    """Mean ns per ExtReal + - * / < over finite values taken from the corpus."""
    vals = []
    for doc in plan.docs.values():
        if isinstance(doc, dict):
            spec = seqreg.SequenceSpec.from_json(doc)
            vals.extend(v for v in spec.values(seqreg.resolve_window(spec, 64)) if v.is_finite)
    random.Random(plan.seed).shuffle(vals)
    vals = vals[:257]
    pairs = list(zip(vals, vals[1:]))
    zero = seqreg.ZERO

    def batch() -> tuple[float, int]:
        n = 0
        start = perf_counter()
        for x, y in pairs:
            x + y
            x - y
            x * y
            x < y
            n += 4
            if y != zero:
                x / y
                n += 1
        return perf_counter() - start, n

    batch()
    samples = [batch() for _ in range(7)]
    return statistics.median(t / n for t, n in samples) * 1e9


class Runner:
    def __init__(self, plan: Plan, corpus_dir: Path, seqreg, cli_main, golden):
        self.plan = plan
        self.dir = str(corpus_dir)
        self.seqreg = seqreg
        self.main = cli_main
        self.golden = golden
        self.failures: list[str] = []

    def cli(self, index: int, scope=contextlib.nullcontext) -> float:
        """One checked CLI invocation of cycle slot ``index``, run inside
        ``scope()``; returns its wall time."""
        op = self.plan.ops[index]
        argv = op_argv(op, self.dir)
        with scope():
            start = perf_counter()
            code, out, err = invoke(self.main, argv)
            elapsed = perf_counter() - start
        problem = check_output(self.seqreg, op, self.plan.docs, code, out)
        expected = None if self.golden is None else self.golden[index]
        if problem is None and expected is not None and digest(code, out) != expected:
            problem = "output differs from the golden digest"
        if problem is not None:
            self.failures.append(f"{op.label}: {problem} {err.strip()[:200]}")
        return elapsed

    @property
    def failed(self) -> int:
        return len(self.failures)


def latency_metrics(latencies: list[float]) -> dict:
    return {
        "ops_per_s": _metric(len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": _metric(hd_quantile(latencies, 0.5) * 1e3, "ms"),
        "latency_p90_ms": _metric(hd_quantile(latencies, 0.9) * 1e3, "ms"),
    }


def run_plain(runner: Runner, seconds: float, deadline: float,
              setup) -> tuple[int, dict, dict]:
    """The timed closed loop.  Between invocations, ``setup()`` (one fresh
    set-up interpreter) runs every ``seconds / SETUP_REPEATS`` of loop time,
    so the set-up samples span the run; their time is not loop time.
    ``setup_s`` is their median over the mean speed factor of the run: the
    machine's speed changes within one set-up, so a probe next to each fits
    it worse than the run's mean."""
    ops = runner.plan.ops
    runner.cli(0)  # warm-up, untimed: lazy imports and first-call set-up in the process
    cycle = len(ops)
    timed = []  # (latency, speed factor around it)
    setups = []
    paused = 0.0  # time spent in set-up interpreters
    before = speed_factor()
    start = perf_counter()
    while True:
        whole = len(timed) // cycle * cycle
        now = perf_counter()
        if (now - start - paused >= seconds and whole >= MIN_OPS) or now >= deadline:
            break
        if len(setups) < SETUP_REPEATS and \
                now - start - paused >= len(setups) * seconds / SETUP_REPEATS:
            setups.append(setup())
            paused += perf_counter() - now
            before = speed_factor()
        elapsed = runner.cli(len(timed) % cycle)
        after = speed_factor()
        timed.append((elapsed, (before + after) / 2))
        before = after
    while len(setups) < SETUP_REPEATS:  # the loop ended early, at the deadline
        setups.append(setup())
    attempted = len(timed) + 1
    if whole:  # statistics over whole cycles only, so every run weighs the same mix
        timed = timed[:whole]
    metrics = latency_metrics([elapsed / factor for elapsed, factor in timed])
    metrics["ok_frac"] = _metric((attempted - runner.failed) / attempted, "frac")
    setup_raw = statistics.median(setups)
    metrics["setup_s"] = _metric(setup_raw / statistics.fmean(f for _, f in timed), "s")
    raw = {k: m["value"] for k, m in latency_metrics([e for e, _ in timed]).items()}
    raw["setup_s"] = setup_raw
    print(f"speed factor: median {statistics.median(f for _, f in timed):.3f}", file=sys.stderr)
    return attempted, metrics, raw


def _metric_of_span(names: list[str], parents: list[int]) -> list[str | None]:
    """The SPAN_METRICS metric each span counts toward, or None when it has
    none or lies inside a span of the same metric."""
    metric_of = {span: m for m, spans in SPAN_METRICS.items() for span in spans}
    out: list[str | None] = []
    for name, parent in zip(names, parents):
        m = metric_of.get(name)
        p = parent
        while m is not None and p >= 0:
            if metric_of.get(names[p]) == m:
                m = None
            p = parents[p]
        out.append(m)
    return out


def run_traced(runner: Runner, seconds: float, deadline: float,
               spans_file: str | None) -> tuple[int, dict]:
    from spans import Tracer

    tracer = Tracer(OBSERVE)
    ops = runner.plan.ops
    plain_wall = traced_wall = 0.0
    n = 0
    start = perf_counter()
    while True:
        now = perf_counter()
        if (now - start >= seconds and n >= 1) or now >= deadline:
            break
        index = n % len(ops)
        # every invocation runs untraced and traced, in alternating order, so
        # that neither always inherits the other's garbage and cache state
        for traced in (n % 2 == 0, n % 2 == 1):
            if traced:
                traced_wall += runner.cli(index, lambda: tracer.recording(n))
            else:
                plain_wall += runner.cli(index)
        n += 1

    spans = tracer.spans
    if spans_file:
        with open(spans_file, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "raised"],
                       "spans": spans, "ops": tracer.ops}, fh)
    names = [sp[0] for sp in spans]
    parents = [sp[3] for sp in spans]
    durations = [sp[2] - sp[1] for sp in spans]
    child_time = [0.0] * len(spans)
    for parent, d in zip(parents, durations):
        if parent >= 0:
            child_time[parent] += d
    totals = dict.fromkeys(SPAN_METRICS, 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    errors = dict.fromkeys(LAYERS, 0)
    covered = 0.0
    for i, m in enumerate(_metric_of_span(names, parents)):
        layer = names[i].split(".")[0]
        if m is not None:
            totals[m] += durations[i]
        layer_self[layer] += durations[i] - child_time[i]
        calls[layer] += 1
        errors[layer] += spans[i][5]
        if parents[i] < 0:
            covered += durations[i]
    op_cpu = sum(cpu for _, _, cpu in tracer.ops)
    layer_self["cli"] += op_cpu - covered  # click, dispatch, the thread pool
    metrics = {k: _metric(v * 1e3 / n, "ms") for k, v in totals.items()}
    metrics["cli.self_ms"] = _metric((op_cpu - covered) * 1e3 / n, "ms")
    metrics["sequences.calls"] = _metric(calls["sequences"] / n, "count")
    metrics["minorant.calls"] = _metric(calls["minorant"] / n, "count")
    metrics["weights.errors"] = _metric(errors["weights"] / n, "count")
    metrics["phireg.events"] = _metric(tracer.counts.get("phireg.events", 0) / n, "count")
    metrics["extreal.op_ns"] = _metric(extreal_probe(runner.seqreg, runner.plan), "ns")
    metrics["trace.coverage"] = _metric(covered / op_cpu, "frac")
    metrics["trace.overhead_frac"] = _metric((traced_wall - plain_wall) / plain_wall, "frac")
    for layer in LAYERS:
        metrics[f"share.{layer}"] = _metric(layer_self[layer] / op_cpu, "frac")
    top = max(LAYERS, key=layer_self.get)
    print(f"traced {n} invocations, {len(spans)} spans; largest self-time share: {top} "
          f"({layer_self[top] / op_cpu:.2f})", file=sys.stderr)
    return 2 * n, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", metavar="FILE",
                    help="with --trace 1, also write every span to FILE as JSON")
    args = ap.parse_args(argv)

    if not (SRC / "seqreg" / "cli.py").is_file():
        print(f"error: no seqreg sources under {SRC}; run from a seqreg checkout",
              file=sys.stderr)
        return 2
    deadline = perf_counter() + RUN_LIMIT_S
    os.environ.pop("SEQREG_TOLERANCE", None)  # every op runs at the default --tol

    plan = build_plan(args.workload, args.seed)
    corpus_dir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    corpus_dir.mkdir(parents=True)
    try:
        paths = []
        for name, doc in plan.docs.items():
            path = corpus_dir / name
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(str(path))
        if not args.trace:
            setup_once(paths)  # unmeasured: the first interpreter compiles the bytecode caches

        sys.path.insert(0, str(SRC))
        import seqreg
        import seqreg.cli

        golden = None
        if args.seed == DEFAULT_SEED:
            golden_file = BENCH / "golden" / f"{args.workload}.json"
            golden = json.loads(golden_file.read_text(encoding="utf-8"))["digests"]
        runner = Runner(plan, corpus_dir, seqreg, seqreg.cli.main, golden)
        if args.trace:
            attempted, metrics = run_traced(runner, args.seconds, deadline, args.spans)
        else:
            attempted, metrics, raw = run_plain(runner, args.seconds, deadline,
                                                lambda: setup_once(paths))
            print(f"raw: {json.dumps(raw)}", file=sys.stderr)  # unscaled figures, see collect.py
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = _metric(peak_kb / 1024.0, "MB")
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)
        try:
            corpus_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    for line in runner.failures[:20]:
        print("FAIL " + line, file=sys.stderr)
    print(json.dumps({"correct": runner.failed == 0, "attempted": attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
