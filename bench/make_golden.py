"""Write the golden output digests for the default seed.

    python3 bench/make_golden.py [workload ...]

Runs every invocation of each workload's cycle once on the default seed,
checks it, and stores the SHA-256 of its exit code and stdout bytes in
``bench/golden/<workload>.json``.  An invocation that fails its checks gets
``null`` (no digest to match) and is listed on stderr; the benchmark still
counts it as failed through the checks.  Regenerate only from code whose
output is known to be right: the benchmark fails any run whose bytes differ.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import BENCH, DEFAULT_SEED, ROOT, SRC
from corpus import WORKLOADS, build_plan
from invoke import check_output, digest, invoke, op_argv


def main(names: list[str]) -> int:
    sys.path.insert(0, str(SRC))
    import seqreg
    import seqreg.cli

    failing = 0
    for workload in names or WORKLOADS:
        plan = build_plan(workload, DEFAULT_SEED)
        corpus_dir = ROOT / ".bench_work" / f"golden-{workload}-{os.getpid()}"
        corpus_dir.mkdir(parents=True)
        try:
            for name, doc in plan.docs.items():
                (corpus_dir / name).write_text(json.dumps(doc), encoding="utf-8")
            digests = []
            for op in plan.ops:
                code, out, err = invoke(seqreg.cli.main, op_argv(op, str(corpus_dir)))
                problem = check_output(seqreg, op, plan.docs, code, out)
                if problem is None:
                    digests.append(digest(code, out))
                else:
                    print(f"{workload} {op.label}: FAILS: {problem} {err.strip()[:200]}",
                          file=sys.stderr)
                    failing += 1
                    digests.append(None)
        finally:
            shutil.rmtree(corpus_dir, ignore_errors=True)
        out_file = BENCH / "golden" / f"{workload}.json"
        out_file.parent.mkdir(exist_ok=True)
        out_file.write_text(json.dumps({"workload": workload, "seed": DEFAULT_SEED,
                                        "digests": digests}, indent=1) + "\n")
        print(f"{workload}: {len(digests)} digests -> {out_file.relative_to(ROOT)}")
    if failing:
        print(f"{failing} invocations fail on the default seed; they have no digest",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
