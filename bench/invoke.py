"""In-process CLI invocation and the output checks of the benchmark.

``invoke`` runs ``seqreg.cli.main(args, standalone_mode=False)`` with stdout
and stderr captured and returns the exit code and the stdout bytes.
``check_output`` validates one invocation's output against exact
invariants that hold for every seed; ``digest`` gives the bytes' SHA-256
for the golden comparison on the default seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from corpus import Op

CLI_TOL = 1e-9  # the CLI's default --tol, which every benchmark op uses
SWEEP_STEP = 1e-3  # grid step of the CLI's phireg sweep oracle
CRASHED = -1  # exit code recorded when the CLI raises instead of exiting


def op_argv(op: Op, corpus_dir: str) -> list[str]:
    args = [a.replace("{d}", corpus_dir) for a in op.args]
    return args + [f"{corpus_dir}/{name}" for name in op.files]


def invoke(main, argv: list[str]) -> tuple[int, bytes, str]:
    """Run the click group in-process; returns (exit code, stdout, stderr)."""
    import click

    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8", write_through=True)
    err = io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        main(argv, standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        code = exc.exit_code
        err.write(exc.format_message())
    except Exception as exc:  # a crash of the program is a failed invocation
        code = CRASHED
        err.write(f"uncaught {type(exc).__name__}: {exc}")
    finally:
        out.flush()
        sys.stdout, sys.stderr = saved
    return code, buf.getvalue(), err.getvalue()


def digest(code: int, stdout: bytes) -> str:
    h = hashlib.sha256()
    h.update(f"exit={code}\n".encode())
    h.update(stdout)
    return h.hexdigest()


# -- exact invariants ------------------------------------------------------------


def _parse_number(v):
    """CLI JSON number -> Fraction (exact) or float; None passes through."""
    if v is None or isinstance(v, float):
        return v
    if isinstance(v, int):
        return Fraction(v)
    if v == "inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    return Fraction(v)


def _le(x, y) -> bool:
    """x <= y, exact on rationals, with 1e-9 relative slack once floats enter."""
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x <= y
    fx, fy = float(x), float(y)
    if fx <= fy:
        return True
    return math.isfinite(fx) and math.isfinite(fy) and fx - fy <= 1e-9 * max(1.0, abs(fx), abs(fy))


def _same(x, y, exact: bool) -> bool:
    if x is None or y is None:
        return x is None and y is None
    if exact or not (math.isfinite(float(x)) and math.isfinite(float(y))):
        return x == y
    return abs(float(x) - float(y)) <= 1e-9 * max(1.0, abs(float(x)), abs(float(y)))


class CheckError(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def input_values(seqreg, doc: dict, scale: str, window: int) -> list:
    """Raw entries (Fraction / float) of an input document over the window."""
    spec = seqreg.SequenceSpec.from_json(doc)
    spec = seqreg.to_log_scale(spec) if scale == "log" else seqreg.to_weight_scale(spec)
    return [v.raw for v in spec.values(window)]


def _check_verify_blocks(blocks: list, bound: float) -> None:
    for block in blocks:
        dev = block["max_abs_deviation"]
        _require(dev <= bound, f"oracle deviation {dev} above {bound}")


def _check_minorant(seqreg, doc: dict, payload: dict) -> None:
    for key in ("regularized", "principal_indices", "trace_breakpoints", "regime"):
        _require(key in payload, f"minorant payload lacks {key}")
    w = payload["window"]
    out = [_parse_number(v) for v in payload["regularized"]]
    _require(len(out) == w, "regularized length differs from the window")
    orig = input_values(seqreg, doc, payload["scale"], w)
    for p, (x, a) in enumerate(zip(out, orig)):
        _require(_le(x, a), f"minorant above the input at p={p}: {x} > {a}")
    for p in payload["principal_indices"]:
        _require(_same(out[p], orig[p], isinstance(orig[p], Fraction)),
                 f"minorant leaves the input at principal index {p}")


def _check_trace(payload: dict) -> None:
    bps = payload["trace"]["breakpoints"]
    xs = [_parse_number(bp["x"]) for bp in bps]
    _require(all(a < b for a, b in zip(xs, xs[1:])), "trace breakpoints not increasing")
    _require("regime" in payload["regime"], "trace payload lacks the regime")


def _check_phireg_json(seqreg, doc: dict, payload: dict) -> None:
    w = payload["window"]
    out = [_parse_number(v) for v in payload["regularized"]]
    orig = input_values(seqreg, doc, "log", w)
    for p, (x, a) in enumerate(zip(out, orig)):
        _require(_le(x, a), f"phireg above the input at p={p}: {x} > {a}")
    jumps = [_parse_number(j[0]) for j in payload["counting"]["jumps"]]
    _require(all(a < b for a, b in zip(jumps, jumps[1:])), "event times not increasing")


def _check_phireg_csv(text: str) -> None:
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    _require(lines[0] == "t,m,A", "phireg csv header")
    last_t, last_m = -math.inf, -1
    for ln in lines[1:]:
        t, m, _a = ln.split(",")
        t = float(t)
        _require(t > last_t, "phireg csv slopes not increasing")
        if m:
            _require(int(m) >= last_m, "counting function decreases")
            last_m = int(m)
        last_t = t


def _check_assoc_rows(rows: list, exact_t: bool) -> None:
    for row in rows:
        _require(len(row) == 6, "assoc row width")
        _require(_same(row[2], row[3], exact_t),
                 f"omega_piecewise {row[2]} != omega_integral {row[3]} at t={row[0]}")


def _assoc_csv_rows(text: str) -> tuple[list, list]:
    rows, blocks = [], []
    lines = text.splitlines()
    _require(lines[0] == "t,omega_direct,omega_piecewise,omega_integral,omega_tilde,"
             "omega_double_tilde", "assoc csv header")
    for ln in lines[1:]:
        if ln.startswith("# verify: "):
            blocks.append(json.loads(ln[len("# verify: "):]))
            continue
        rows.append([None if c == "" else float(c) for c in ln.split(",")])
    return rows, blocks


def check_output(seqreg, op: Op, docs: dict, code: int, stdout: bytes) -> Optional[str]:
    """None when the output passes every invariant, else the first failure."""
    try:
        _require(code == 0, f"exit code {code}")
        text = stdout.decode("utf-8")
        cmd = op.args[0]
        verify = "--verify" in op.args
        emit = op.args[op.args.index("--emit") + 1] if "--emit" in op.args else None
        emit = emit or {"assoc": "csv", "phireg": "json"}.get(cmd)
        if cmd == "assoc" and emit == "csv":
            # one CSV block per file, each starting with the header line
            chunks = text.split("t,omega_direct")[1:]
            _require(len(chunks) == len(op.files), "one csv block per input")
            for chunk in chunks:
                rows, blocks = _assoc_csv_rows("t,omega_direct" + chunk)
                _check_assoc_rows(rows, exact_t="--grid" in op.args)
                _require(blocks or not verify, "missing verify comment")
                _check_verify_blocks(blocks, CLI_TOL)
            return None
        if cmd == "phireg" and emit == "csv":
            chunks = text.split("t,m,A\n")[1:]
            _require(len(chunks) == len(op.files), "one csv block per input")
            for chunk in chunks:
                _check_phireg_csv("t,m,A\n" + chunk)
            return None
        lines = text.splitlines()
        _require(len(lines) == len(op.files), "one output line per input")
        for name, line in zip(op.files, lines):
            payload = json.loads(line)
            doc = docs[name]
            if verify:
                bound = CLI_TOL
                if cmd == "phireg":
                    bound = max(CLI_TOL, 8.0 * payload["window"] * SWEEP_STEP)
                _require("verify" in payload, "missing verify block")
                _check_verify_blocks(payload["verify"], bound)
            if cmd == "minorant":
                _check_minorant(seqreg, doc, payload)
            elif cmd == "trace":
                _check_trace(payload)
            elif cmd == "classify":
                _require(isinstance(payload["convexity"]["log_convex"], bool), "classify shape")
                _require(payload["classification"]["regime"] in
                         ("standard", "case1", "case2", "indeterminate"), "classify regime")
            elif cmd == "phireg":
                _check_phireg_json(seqreg, doc, payload)
            elif cmd == "assoc":
                rows = [[_parse_number(v) for v in row] for row in payload["rows"]]
                _check_assoc_rows(rows, exact_t="--grid" in op.args)
            elif cmd == "compare":
                _require(payload["larger"] == op.larger, f"larger is {payload['larger']}")
                _require(payload["ordered_ok"] is True, "regularizations out of order")
                # with a blowup phi the sweep stops at T and may end below the
                # ungated minorant, so the floor is asserted for unbounded phis only
                if not op.args[op.args.index("--phi") + 1].startswith("blowup"):
                    _require(payload["convex_floor_ok"] is True, "convex floor violated")
        return None
    except CheckError as exc:
        return str(exc)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {exc!r}"
