"""Command-line front end.

Subcommands: classify | minorant | assoc | trace | phireg | compare.
Results go to stdout as canonical JSON (sorted keys, compact separators,
one document per input file) or as CSV plot data; diagnostics go to
stderr.  Exit codes: 0 success, 1 parse failure, 2 regime or precondition
failure, 3 verify-mode deviation beyond the tolerance.

Multiple input files are processed one after another; outputs appear in
input order and the exit code is the worst over all files.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from typing import Callable, Optional

import click

from .errors import ParseError, SeqRegError, Unprintable
from .extreal import ExtReal, _inf_sign, _to_float, ext, raw_add, raw_mul
from .minorant import MinorantResult, _real, regularize
from .oracles import (
    OracleReport,
    brute_minorant,
    brute_omega,
    brute_phi_sweep,
    brute_trace,
    compare_values,
)
from .phireg import (
    compare_regularizations,
    make_phi,
    regularize_with_phi,
)
from .sequences import (
    CASE1,
    CASE2,
    SequenceSpec,
    classify_regime,
    is_log_convex,
    resolve_window,
    to_log_scale,
)
from .weights import OmegaTable

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_VERIFY = 3

_SWEEP_STEP = 1e-3  # grid step used by the phireg verify oracle
_SWEEP_TIE = 1e-9  # and its tie tolerance


# ---------------------------------------------------------------------------
# option plumbing


def _check_window(ctx, param, value):
    if value < 4:
        raise click.BadParameter("window must be >= 4")
    return value


def _check_tol(ctx, param, value):
    if not (0.0 < value <= 1e-3):
        raise click.BadParameter("tolerance must lie in (0, 1e-3]")
    return value


def _common(fn):
    fn = click.argument("files", nargs=-1, required=True, type=click.Path())(fn)
    fn = click.option(
        "--window", type=int, default=64, show_default=True,
        callback=_check_window, help="Evaluation window length.")(fn)
    fn = click.option(
        "--tol", type=float, default=1e-9, show_default=True,
        envvar="SEQREG_TOLERANCE", callback=_check_tol,
        help="Numerical tolerance (env SEQREG_TOLERANCE).")(fn)
    return fn


def _canonical(payload) -> str:
    try:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except ValueError:  # an exact integer too long to print
        raise Unprintable() from None


def _float_literal(text: str) -> float:
    """A float literal or a constant (NaN, Infinity, -Infinity), refused past the float range."""
    x = float(text)
    if math.isinf(x):
        raise ParseError(f"the number literal {text} is past the float range; "
                         f"a string such as \"1e400\" reads exactly")
    return x


# a module-level decoder: json.loads with keyword arguments builds one per call
_DECODER = json.JSONDecoder(parse_float=_float_literal, parse_constant=_float_literal)


def _load_spec(path: str) -> SequenceSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8: byte 0x{exc.object[exc.start]:02x} "
                         f"at offset {exc.start}") from None
    try:
        payload = _DECODER.decode(raw)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except ValueError:  # an integer literal too long to read
        raise ParseError(f"{path}: an integer in the document has more than "
                         f"{sys.get_int_max_str_digits()} digits, Python's limit "
                         f"for reading an integer") from None
    except RecursionError:
        raise ParseError(f"{path}: the document nests arrays or objects too deeply") from None
    try:
        return SequenceSpec.from_json(payload)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}")


def _run_files(files, worker: Callable[[str], tuple[str, int, list[str]]]) -> None:
    """Run worker per file, emit outputs in input order."""

    def guarded(path: str) -> tuple[str, int, list[str]]:
        try:
            return worker(path)
        except ParseError as exc:
            return "", EXIT_PARSE, [f"{path}: parse error: {exc}"]
        except SeqRegError as exc:
            return "", EXIT_PRECONDITION, [f"{path}: {exc}"]

    results = [guarded(p) for p in files]
    code = EXIT_OK
    out = click.get_text_stream("stdout")
    for text, status, diagnostics in results:
        if text:
            out.write(text)
        for line in diagnostics:
            click.echo(line, err=True)
        code = max(code, status)
    out.flush()
    if code != EXIT_OK:
        raise SystemExit(code)


def _parse_grid(spec: str) -> list[Fraction]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise click.BadParameter("grid must look like start:stop:step")
    try:
        start, stop, step = (Fraction(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise click.BadParameter(f"bad grid numbers in {spec!r}")
    if step <= 0 or stop < start:
        raise click.BadParameter("grid needs step > 0 and stop >= start")
    ts = []
    t = start
    while t <= stop:
        ts.append(t)
        t += step
    return ts


def _parse_loggrid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise click.BadParameter("loggrid must look like start:stop:count")
    try:
        start, stop = Fraction(parts[0]), Fraction(parts[1])
        count = int(parts[2])
    except (ValueError, ZeroDivisionError):
        raise click.BadParameter(f"bad loggrid numbers in {spec!r}")
    if start <= 0 or stop < start or count < 2:
        raise click.BadParameter("loggrid needs 0 < start <= stop and count >= 2")
    try:
        lo, hi = math.log(float(start)), math.log(float(stop))
    except (OverflowError, ValueError):  # an end past the float range, or rounding to 0.0
        raise click.BadParameter(f"loggrid ends must be positive floats in {spec!r}")
    return [math.exp(lo + (hi - lo) * i / (count - 1)) for i in range(count)]


def _csv_cell(value) -> str:
    """An ExtReal, a raw payload or None as a CSV cell: inf, -inf or repr(float)."""
    v = value.raw if isinstance(value, ExtReal) else value
    sign = _inf_sign(v)
    return "" if v is None else repr(_to_float(v)) if not sign else "inf" if sign > 0 else "-inf"


# ---------------------------------------------------------------------------
# group


@click.group()
def main() -> None:
    """Regularization toolkit for weight sequences and their traces."""


# ---------------------------------------------------------------------------
# classify


@main.command()
@_common
def classify(files, window, tol):
    """Report the growth regime and convexity of each sequence."""

    def worker(path: str):
        seq = _load_spec(path)
        regime = classify_regime(seq, window=window, tol=tol)
        convexity = is_log_convex(seq, window=window, tol=tol)
        payload = {
            "classification": regime.to_json(),
            "convexity": convexity.to_json(),
            "window": resolve_window(to_log_scale(seq), window),
        }
        return _canonical(payload) + "\n", EXIT_OK, []

    _run_files(files, worker)


# ---------------------------------------------------------------------------
# minorant


def _minorant_payload(result: MinorantResult) -> dict:
    """The keys of ``result.to_json()`` that ``minorant`` prints; the trace's breakpoints."""
    return {**result._printed(), "trace_breakpoints": result._trace_json()["breakpoints"]}


def _verify_minorant(seq: SequenceSpec, result: MinorantResult,
                     tol: float) -> tuple[OracleReport, bool]:
    log_in = to_log_scale(seq)
    if result.regime.regime == CASE1:
        # degenerate output; only the anchor is comparable
        report = compare_values(
            "minorant anchor vs input",
            [(to_log_scale(result.regularized).prefix[0], log_in.value(0))])
        return report, report.within(tol)
    original = log_in.values(result.window)
    engine = to_log_scale(result.regularized).prefix
    cap = result.regime.a_iota if result.regime.regime == CASE2 else None
    oracle = brute_minorant(list(original), cap, _tail_point(result.tail_end, log_in))
    stable = min(len(engine), result.stable_prefix + 1)
    report = compare_values(
        "minorant stable prefix vs pairwise-line oracle",
        list(zip(engine[:stable], oracle[:stable])),
    )
    # past the stable prefix the values are provisional, but over the whole
    # window the result lies at or below the input, meets it at every
    # principal index, and misses no principal index of the oracle's
    off = [(x, a) for x, a in zip(engine, original) if x > a]
    off += [(engine[p], original[p]) for p in result.principal_indices]
    return report, (report.within(tol) and compare_values("", off).within(tol)
                    and not _misses_principal(result.principal_indices, original, oracle, cap))


def _misses_principal(principal: tuple[int, ...], original: list[ExtReal],
                      oracle: list[ExtReal], cap: Optional[ExtReal]) -> bool:
    """Whether an index where the oracle meets the input exactly is not principal.
    Such an index is on the hull up to the last principal index, and past it
    wherever it lies strictly below the line of slope cap through that index."""
    last = principal[-1]
    capped = cap is not None and cap.is_finite
    return any(a.is_finite and o.raw == a.raw and p not in principal and (
        p < last or not capped
        or Fraction(o.raw) < Fraction(oracle[last].raw) + Fraction(cap.raw) * (p - last))
        for p, (o, a) in enumerate(zip(oracle, original)))


def _tail_point(tail_end: Optional[int], log_seq: SequenceSpec) -> list:
    """The sweep's far end past the window, as an oracle's ``beyond`` points."""
    return [] if tail_end is None else [(tail_end, log_seq.value(tail_end))]


@main.command()
@_common
@click.option("--verify", is_flag=True, help="Cross-check against the brute oracle.")
def minorant(files, window, tol, verify):
    """Largest convex (log-convex) minorant, regime-dispatched."""

    def worker(path: str):
        seq = _load_spec(path)
        result = regularize(seq, window=window, tol=tol)
        payload = _minorant_payload(result)
        status = EXIT_OK
        diagnostics: list[str] = []
        if verify:
            report, ok = _verify_minorant(seq, result, tol)
            payload["verify"] = [report.to_json()]
            if not ok:
                status = EXIT_VERIFY
                diagnostics.append(
                    f"{path}: verify deviation {report.max_abs_deviation} exceeds tolerance {tol}"
                    if not report.within(tol) else f"{path}: the minorant lies above the input, "
                    "off it at a principal index, or on it at an index that is not principal")
        return _canonical(payload) + "\n", status, diagnostics

    _run_files(files, worker)


# ---------------------------------------------------------------------------
# assoc


_ASSOC_COLUMNS = (
    "t",
    "omega_direct",
    "omega_piecewise",
    "omega_integral",
    "omega_tilde",
    "omega_double_tilde",
)


def _assoc_row(table: OmegaTable, t) -> list[Optional[ExtReal]]:
    te = ext(t)
    row: list[Optional[ExtReal]] = [te]
    for route in (lambda t: table.direct(t).value, table.piecewise, table.integral,
                  table.tilde, table.double_tilde):
        try:
            row.append(route(te))
        except SeqRegError:
            row.append(None)
    return row


@main.command()
@_common
@click.option("--grid", "grid_spec", default="0:10:1/2", show_default=True,
              help="Evaluation grid start:stop:step.")
@click.option("--loggrid", "loggrid_spec", default=None,
              help="Log-spaced grid start:stop:count (overrides --grid).")
@click.option("--emit", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True, help="Output format.")
@click.option("--verify", is_flag=True, help="Cross-check against the loop oracle.")
def assoc(files, window, tol, grid_spec, loggrid_spec, emit, verify):
    """Associated function values over a grid (plot-ready)."""

    if loggrid_spec is not None:
        ts = _parse_loggrid(loggrid_spec)
    else:
        ts = _parse_grid(grid_spec)

    def worker(path: str):
        seq = _load_spec(path)
        table = OmegaTable(seq, window, tol)
        rows = [_assoc_row(table, t) for t in ts]
        status = EXIT_OK
        diagnostics: list[str] = []
        reports: list[OracleReport] = []
        if verify:
            mvals = table.weight_view.values(table.w)
            finite_end = next((i for i, m in enumerate(mvals) if not m.is_finite), len(mvals))
            pairs = []
            witnesses = []
            for row in rows:
                t = row[0]
                # the truncated loop cannot see analytic divergence, so +inf
                # engine values are outside the comparison domain
                if row[1] is None or row[1].is_pos_inf:
                    continue
                try:
                    oracle = brute_omega(mvals[:finite_end], t, p_max=finite_end - 1)
                except ValueError:
                    continue
                pairs.append((row[1], oracle))
                witnesses.append(float(t))
            report = compare_values("omega_direct vs plain-loop oracle", pairs, witnesses)
            reports.append(report)
            if not report.within(tol):
                status = EXIT_VERIFY
                diagnostics.append(
                    f"{path}: verify deviation {report.max_abs_deviation} "
                    f"exceeds tolerance {tol}")
        if emit == "json":
            payload = {
                "columns": list(_ASSOC_COLUMNS),
                "rows": [
                    [None if v is None else v.to_json() for v in row] for row in rows
                ],
                "window": window,
            }
            if verify:
                payload["verify"] = [r.to_json() for r in reports]
            return _canonical(payload) + "\n", status, diagnostics
        lines = [",".join(_ASSOC_COLUMNS)]
        for row in rows:
            lines.append(",".join(_csv_cell(v) for v in row))
        for r in reports:
            lines.append("# verify: " + _canonical(r.to_json()))
        return "\n".join(lines) + "\n", status, diagnostics

    _run_files(files, worker)


# ---------------------------------------------------------------------------
# trace


@main.command()
@_common
@click.option("--verify", is_flag=True, help="Cross-check against the direct sup.")
def trace(files, window, tol, verify):
    """Trace function A(k) = sup_p (p k - a_p) as breakpoint JSON."""

    def worker(path: str):
        log_seq = to_log_scale(_load_spec(path))
        result = _real(regularize(log_seq, window=window, tol=tol))  # refuses Case 1
        payload = {"trace": result._trace_json(), "regime": result.regime.to_json()}
        status = EXIT_OK
        diagnostics: list[str] = []
        if verify:
            fn = result.trace
            slopes = _trace_sample_slopes(fn)
            pairs = []
            witnesses = []
            beyond = _tail_point(result.tail_end, log_seq)
            for k, direct in zip(slopes, brute_trace(log_seq.values(result.window), slopes, beyond)):
                try:
                    engine = fn.evaluate(k)
                except SeqRegError:
                    continue
                pairs.append((engine, direct))
                witnesses.append(float(k))
            report = compare_values("trace vs direct sup", pairs, witnesses)
            payload["verify"] = [report.to_json()]
            if not report.within(tol):
                status = EXIT_VERIFY
                diagnostics.append(
                    f"{path}: verify deviation {report.max_abs_deviation} "
                    f"exceeds tolerance {tol}")
        return _canonical(payload) + "\n", status, diagnostics

    _run_files(files, worker)


def _trace_sample_slopes(fn) -> list[ExtReal]:
    xs = [bp.x for bp in fn.breakpoints if bp.x.is_finite]
    if not xs:  # around 0, and inside the domain as below
        return [k for k in (ext(Fraction(n, 2)) for n in range(-4, 5)) if fn.domain.contains(k)]
    lo, hi = xs[0], xs[-1]
    span = hi - lo
    if span == ext(0):
        span = ext(1)
    out = list(xs)
    for i in range(1, 8):
        out.append(lo + span * Fraction(i, 8))
    out.append(lo - span * Fraction(1, 4))
    seen = fn.domain
    return [k for k in out if seen.contains(k)]


# ---------------------------------------------------------------------------
# phireg


def _resolve_phi_or_exit(descriptor: str):
    try:
        return _resolve_phi(descriptor)
    except ParseError as exc:
        click.echo(f"bad --phi descriptor: {exc}", err=True)
        raise SystemExit(EXIT_PARSE)
    except SeqRegError as exc:
        click.echo(f"bad --phi descriptor: {exc}", err=True)
        raise SystemExit(EXIT_PRECONDITION)


def _resolve_phi(descriptor: str):
    if descriptor.startswith("piecewise:"):
        payload = descriptor.split(":", 1)[1]
        if os.path.isfile(payload):
            try:
                with open(payload, "r", encoding="utf-8") as fh:
                    payload = fh.read()
            except OSError as exc:
                raise ParseError(f"{descriptor}: {exc.strerror or exc}")
        return make_phi("piecewise:" + payload)
    return make_phi(descriptor)


@main.command()
@_common
@click.option("--phi", "phi_descriptor", default="exp", show_default=True,
              help="exp | expaffine:a,b | blowup:T | infinite | piecewise:file")
@click.option("--emit", type=click.Choice(["json", "csv"]), default="json",
              show_default=True, help="Output format.")
@click.option("--grid", "grid_spec", default=None,
              help="Extra CSV sample slopes start:stop:step.")
@click.option("--extended", is_flag=True,
              help="Evaluate outside the natural domain as +inf.")
@click.option("--verify", is_flag=True, help="Cross-check against the sweep oracle.")
def phireg(files, window, tol, phi_descriptor, emit, grid_spec, extended, verify):
    """Stripe-limited regularization driven by a regularizing function."""

    phi = _resolve_phi_or_exit(phi_descriptor)
    grid = _parse_grid(grid_spec) if grid_spec else None

    def worker(path: str):
        seq = _load_spec(path)
        result = regularize_with_phi(seq, phi, window=window, tol=tol)
        status = EXIT_OK
        diagnostics: list[str] = []
        reports: list[OracleReport] = []
        if verify:
            report, failed = _verify_phireg(seq, phi, result, window, tol)
            reports.append(report)
            if failed:
                status = EXIT_VERIFY
                diagnostics += [f"{path}: {line}" for line in failed]
        if emit == "json":
            payload = result.to_json()
            if verify:
                payload["verify"] = [r.to_json() for r in reports]
            return _canonical(payload) + "\n", status, diagnostics
        # the sample slopes as raw payloads, by ExtReal's rules (raw_add, raw_mul)
        ts = [x for x, *_ in result._bps if not _inf_sign(x)]
        if grid is not None:
            ts.extend(grid)
        elif ts:
            lo, hi = ts[0], ts[-1]
            span = raw_add(hi, -lo) if hi > lo else Fraction(1)
            ts.extend(raw_add(lo, raw_mul(span, Fraction(i, 16))) for i in range(-4, 21))
        ts = sorted(set(ts))
        lines = ["t,m,A"]
        for t, (m, a) in zip(ts, result._samples(ts, extended)):
            lines.append(f"{_csv_cell(t)},{'' if m is None else m},{'' if a is None else repr(a)}")
        for r in reports:
            lines.append("# verify: " + _canonical(r.to_json()))
        return "\n".join(lines) + "\n", status, diagnostics

    _run_files(files, worker)


def _verify_phireg(seq: SequenceSpec, phi, result, window: int,
                   tol: float) -> tuple[OracleReport, list[str]]:
    """The sweep oracle's report, and one line for each check that failed."""
    log_seq = to_log_scale(seq)
    w = resolve_window(log_seq, window)
    vals = log_seq.values(w)
    if (phi.infinite and result.J_right.is_finite) or result.J_right.is_neg_inf:
        # slope-capped and collapsing runs have no uncapped sweep analogue
        report = compare_values("phireg vs sweep oracle (skipped: capped regime)", [])
        return report, []
    # at slopes t >= T a blow-up phi admits every point, which J = (-inf, T) never does
    t_max = None if phi.blowup_T is None else float(phi.blowup_T) - _SWEEP_STEP / 2
    try:
        sweep = brute_phi_sweep(vals, phi, _SWEEP_STEP, t_max=t_max, tie_tol=_SWEEP_TIE,
                                beyond=_tail_point(result.tail_end, log_seq))
    except (ValueError, OverflowError) as exc:  # OverflowError: an entry past the float range
        raise SeqRegError(f"phireg --verify: the sweep oracle refused the input: {exc}") from exc
    pairs = list(zip(result.regularized.prefix, sweep.regularized))
    report = compare_values("phireg regularized vs sweep oracle", pairs)
    failed = []
    # the sweep is exact only up to its grid resolution
    if not report.max_abs_deviation <= max(tol, 8.0 * w * _SWEEP_STEP):
        failed.append(f"verify deviation {report.max_abs_deviation} "
                      "exceeds the sweep resolution bound")
    # the grid ties within _SWEEP_TIE, so it may add an index lying just above
    # the engine's line; it must not miss one that stays on top for long
    wide = ext(2 * _SWEEP_STEP)
    extra = set(sweep.principal_indices) - set(result.principal_indices)
    if not all(_near_tie(vals[p], p, result.segments) for p in extra) or any(
            interval.end - interval.start > wide and p not in sweep.principal_indices
            for p, interval in zip(result.principal_indices, result.intervals)):
        failed.append(f"verify: principal indices {list(result.principal_indices)} "
                      f"differ from the sweep oracle's {sweep.principal_indices}")
    return report, failed


def _near_tie(a: ExtReal, p: int, segments) -> bool:
    """Whether a_p, at its binary value, lies strictly above the engine's fill
    line over p, and by at most the oracle's tie tolerance scaled as the
    oracle scales it: by the line's value at index 0, or 1 if that is smaller."""
    seg = next((s for s in segments if s.span_start <= p < s.span_end), None)
    if seg is None or not (a.is_finite and seg.slope.is_finite):
        return False
    slope, anchor = Fraction(seg.slope.raw), Fraction(seg.anchor_value.raw)
    above = Fraction(a.raw) - anchor - slope * (p - seg.anchor_index)
    return 0 < above <= Fraction(_SWEEP_TIE) * max(1, abs(anchor - slope * seg.anchor_index))


# ---------------------------------------------------------------------------
# compare


@main.command()
@_common
@click.option("--phi", "phi_descriptor", required=True,
              help="First regularizing function.")
@click.option("--phi2", "phi2_descriptor", required=True,
              help="Second regularizing function.")
def compare(files, window, tol, phi_descriptor, phi2_descriptor):
    """Order two regularizations against each other and the convex floor."""

    phi1 = _resolve_phi_or_exit(phi_descriptor)
    phi2 = _resolve_phi_or_exit(phi2_descriptor)

    def worker(path: str):
        seq = _load_spec(path)
        report = compare_regularizations(seq, phi1, phi2, window=window, tol=tol)
        return _canonical(report.to_json()) + "\n", EXIT_OK, []

    _run_files(files, worker)


if __name__ == "__main__":
    main()
