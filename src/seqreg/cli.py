"""Command-line front end.

Subcommands: classify | minorant | assoc | trace | phireg | compare.
Results go to stdout as canonical JSON (sorted keys, compact separators,
one document per input file) or as CSV plot data; diagnostics go to
stderr.  Exit codes: 0 success, 1 parse failure, 2 regime or precondition
failure, 3 verify-mode deviation beyond the tolerance.

Each subcommand computes, per parsed document, its output body (a JSON
payload or a list of CSV lines) and its ``--verify`` checks, each an oracle
report with the lines of the checks that failed; ``_run_files`` attaches the
reports, prints and exits for all of them.  Multiple input files are
processed one after another; outputs appear in input order and the exit
code is the worst over all files.
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
from .extreal import ExtReal, _inf_sign, _parse_number, _to_float, ext, raw_add, raw_mul
from .minorant import MinorantResult, _real, regularize
from .oracles import (
    OracleReport,
    brute_minorant,
    brute_omega_grid,
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
_MAX_GRID_POINTS = 1_000_000  # of --grid and --loggrid

# a --verify check: the oracle report, and one line for each check that failed
Check = tuple[OracleReport, list[str]]


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


def _run_files(files, compute: Callable[[SequenceSpec], tuple[dict | list[str], list[Check]]]) -> None:
    """Parse each file and compute its output body and checks; print the bodies
    in input order, each with its reports, and exit with the worst status."""

    def run(path: str) -> tuple[str, int, list[str]]:
        try:
            body, checks = compute(_load_spec(path))
            reports = [report.to_json() for report, _ in checks]
            if isinstance(body, list):  # CSV lines
                text = "\n".join(body + ["# verify: " + _canonical(r) for r in reports])
            else:
                if checks:
                    body["verify"] = reports
                text = _canonical(body)
        except ParseError as exc:
            return "", EXIT_PARSE, [f"{path}: parse error: {exc}"]
        except SeqRegError as exc:
            return "", EXIT_PRECONDITION, [f"{path}: {exc}"]
        failed = [f"{path}: {line}" for _, lines in checks for line in lines]
        return text + "\n", EXIT_VERIFY if failed else EXIT_OK, failed

    results = [run(p) for p in files]
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


def _deviation(report: OracleReport, tol: float) -> list[str]:
    """The check's failed lines: one if the report's pairs deviate beyond tol."""
    return [] if report.within(tol) else [
        f"verify deviation {report.max_abs_deviation} exceeds tolerance {tol}"]


def _grid_number(text: str, spec: str, name: str) -> Fraction:
    """A finite number read as a document's number literal is, so that a huge
    power of ten is refused at once."""
    try:
        x = _parse_number(text)
    except ValueError:
        x = None
    if type(x) is not Fraction:  # unreadable, or an infinity
        raise click.BadParameter(f"bad {name} numbers in {spec!r}")
    return x


def _check_points(count: int) -> None:
    if count > _MAX_GRID_POINTS:
        size = f"{count} points" if count <= 10**15 else "more than 10**15 points"
        raise click.BadParameter(f"a grid of {size} exceeds the limit of {_MAX_GRID_POINTS}")


def _parse_grid(spec: str) -> list[Fraction]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise click.BadParameter("grid must look like start:stop:step")
    start, stop, step = (_grid_number(p, spec, "grid") for p in parts)
    if step <= 0 or stop < start:
        raise click.BadParameter("grid needs step > 0 and stop >= start")
    count = math.floor((stop - start) / step) + 1
    _check_points(count)  # before any point is built
    return [start + step * i for i in range(count)]


def _parse_loggrid(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 3:
        raise click.BadParameter("loggrid must look like start:stop:count")
    start, stop = (_grid_number(p, spec, "loggrid") for p in parts[:2])
    try:
        count = int(parts[2])
    except ValueError:
        raise click.BadParameter(f"bad loggrid numbers in {spec!r}")
    if start <= 0 or stop < start or count < 2:
        raise click.BadParameter("loggrid needs 0 < start <= stop and count >= 2")
    _check_points(count)
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

    def compute(seq: SequenceSpec):
        regime = classify_regime(seq, window=window, tol=tol)
        convexity = is_log_convex(seq, window=window, tol=tol)
        return {
            "classification": regime.to_json(),
            "convexity": convexity.to_json(),
            "window": resolve_window(to_log_scale(seq), window),
        }, []

    _run_files(files, compute)


# ---------------------------------------------------------------------------
# minorant


def _minorant_payload(result: MinorantResult) -> dict:
    """The keys of ``result.to_json()`` that ``minorant`` prints; the trace's breakpoints."""
    return {**result._printed(), "trace_breakpoints": result._trace_json()["breakpoints"]}


def _verify_minorant(seq: SequenceSpec, result: MinorantResult, tol: float) -> Check:
    log_in = to_log_scale(seq)
    if result.regime.regime == CASE1:
        # degenerate output; only the anchor is comparable
        report = compare_values(
            "minorant anchor vs input",
            [(to_log_scale(result.regularized).prefix[0], log_in.value(0))])
        return report, _deviation(report, tol)
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
    if not report.within(tol):
        return report, _deviation(report, tol)
    if compare_values("", off).within(tol) and not _misses_principal(
            result.principal_indices, original, oracle, cap):
        return report, []
    return report, ["the minorant lies above the input, off it at a principal index, "
                    "or on it at an index that is not principal"]


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

    def compute(seq: SequenceSpec):
        result = regularize(seq, window=window, tol=tol)
        payload = _minorant_payload(result)
        return payload, [_verify_minorant(seq, result, tol)] if verify else []

    _run_files(files, compute)


# ---------------------------------------------------------------------------
# assoc


_ASSOC_COLUMNS = (  # OmegaTable.rows gives them in this order
    "t",
    "omega_direct",
    "omega_piecewise",
    "omega_integral",
    "omega_tilde",
    "omega_double_tilde",
)


def _verify_assoc(table: OmegaTable, rows: list[list[Optional[ExtReal]]], tol: float) -> Check:
    mvals = table.weight_view.values(table.w)
    finite_end = next((i for i, m in enumerate(mvals) if not m.is_finite), len(mvals))
    # the truncated loop cannot see analytic divergence, so +inf
    # engine values are outside the comparison domain
    rows = [row for row in rows if row[1] is not None and not row[1].is_pos_inf]
    oracle = brute_omega_grid(mvals[:finite_end], [row[0] for row in rows], p_max=finite_end - 1)
    checked = [(row, value) for row, value in zip(rows, oracle) if value is not None]
    report = compare_values("omega_direct vs plain-loop oracle",
                            [(row[1], value) for row, value in checked],
                            [float(row[0]) for row, _ in checked])
    return report, _deviation(report, tol)


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

    def compute(seq: SequenceSpec):
        table = OmegaTable(seq, window, tol)
        rows = table.rows(ts)
        checks = [_verify_assoc(table, rows, tol)] if verify else []
        if emit == "json":
            return {
                "columns": list(_ASSOC_COLUMNS),
                "rows": [
                    [None if v is None else v.to_json() for v in row] for row in rows
                ],
                "window": window,
            }, checks
        return [",".join(_ASSOC_COLUMNS)] + [
            ",".join(_csv_cell(v) for v in row) for row in rows], checks

    _run_files(files, compute)


# ---------------------------------------------------------------------------
# trace


@main.command()
@_common
@click.option("--verify", is_flag=True, help="Cross-check against the direct sup.")
def trace(files, window, tol, verify):
    """Trace function A(k) = sup_p (p k - a_p) as breakpoint JSON."""

    def compute(seq: SequenceSpec):
        log_seq = to_log_scale(seq)
        result = _real(regularize(log_seq, window=window, tol=tol))  # refuses Case 1
        payload = {"trace": result._trace_json(), "regime": result.regime.to_json()}
        return payload, [_verify_trace(log_seq, result, tol)] if verify else []

    _run_files(files, compute)


def _verify_trace(log_seq: SequenceSpec, result: MinorantResult, tol: float) -> Check:
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
    return report, _deviation(report, tol)


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
    """The regularizing function a --phi descriptor names (``piecewise:`` may
    name a file of knots), or its error line and exit 1 or 2."""
    try:
        text = descriptor
        kind, _, path = descriptor.partition(":")
        if kind == "piecewise" and os.path.isfile(path):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    text = "piecewise:" + fh.read()
            except OSError as exc:
                raise ParseError(f"{descriptor}: {exc.strerror or exc}")
        return make_phi(text)
    except SeqRegError as exc:
        click.echo(f"bad --phi descriptor: {exc}", err=True)
        raise SystemExit(EXIT_PARSE if isinstance(exc, ParseError) else EXIT_PRECONDITION)


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

    def compute(seq: SequenceSpec):
        result = regularize_with_phi(seq, phi, window=window, tol=tol)
        checks = [_verify_phireg(seq, phi, result, tol)] if verify else []
        if emit == "json":
            return result.to_json(), checks
        # the sample slopes as raw payloads, by ExtReal's rules (raw_add, raw_mul)
        ts = [x for x, *_ in result._bps if not _inf_sign(x)]
        if grid is not None:
            ts.extend(grid)
        elif ts:
            lo, hi = ts[0], ts[-1]
            span = raw_add(hi, -lo) if hi > lo else Fraction(1)
            ts.extend(raw_add(lo, raw_mul(span, Fraction(i, 16))) for i in range(-4, 21))
        ts = sorted(set(ts))
        return ["t,m,A"] + [
            f"{_csv_cell(t)},{'' if m is None else m},{'' if a is None else repr(a)}"
            for t, (m, a) in zip(ts, result._samples(ts, extended))], checks

    _run_files(files, compute)


def _verify_phireg(seq: SequenceSpec, phi, result, tol: float) -> Check:
    """The sweep oracle's report, and one line for each check that failed."""
    log_seq = to_log_scale(seq)
    w = result.window
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

    def compute(seq: SequenceSpec):
        return compare_regularizations(seq, phi1, phi2, window=window, tol=tol).to_json(), []

    _run_files(files, compute)


if __name__ == "__main__":
    main()
