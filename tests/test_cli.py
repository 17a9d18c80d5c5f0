"""End-to-end command-line behavior: formats, exit codes, verification."""

import dataclasses
import json
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

import seqreg.cli as cli_mod
import seqreg.sequences as sequences_mod
from seqreg import (
    SeqRegError,
    ext,
    omega_direct,
    omega_double_tilde,
    omega_integral,
    omega_piecewise,
    omega_tilde,
)
from seqreg.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def factorial_file(tmp_path):
    path = tmp_path / "factorial.json"
    path.write_text(json.dumps({
        "kind": "weight", "prefix": [1],
        "tail": {"type": "factorial_power", "s": 1, "c": 1},
    }))
    return str(path)


@pytest.fixture
def rough_file(tmp_path):
    path = tmp_path / "rough.json"
    path.write_text(json.dumps({
        "kind": "log", "prefix": [0, 5, 1, 3, 9, 20],
        "tail": {"type": "explicit_only"},
        "declared_regime": {"regime": "standard", "source": "declared",
                            "evidence_window": [0, 6]},
    }))
    return str(path)


@pytest.fixture
def collapsing_file(tmp_path):
    path = tmp_path / "collapsing.json"
    path.write_text(json.dumps({
        "kind": "log", "prefix": [0, "-inf", -4, -9],
        "tail": {"type": "explicit_only"},
    }))
    return str(path)


@pytest.fixture
def bounded_file(tmp_path):
    path = tmp_path / "bounded.json"
    path.write_text(json.dumps({
        "kind": "weight", "prefix": [1], "tail": {"type": "geometric", "d": 2},
    }))
    return str(path)


def parse_line(output, index=0):
    lines = [ln for ln in output.splitlines() if ln and not ln.startswith("#")]
    return json.loads(lines[index])


# -- classify ---------------------------------------------------------------------


def test_classify_shape(runner, factorial_file):
    res = runner.invoke(main, ["classify", factorial_file])
    assert res.exit_code == 0
    doc = parse_line(res.stdout)
    assert set(doc) == {"classification", "convexity", "window"}
    assert doc["classification"]["regime"] == "standard"
    assert doc["convexity"]["log_convex"] is True
    assert doc["window"] == 64


def test_classify_case2(runner, bounded_file):
    doc = parse_line(runner.invoke(main, ["classify", bounded_file]).stdout)
    assert doc["classification"]["regime"] == "case2"
    assert doc["classification"]["a_iota"] == pytest.approx(math.log(2))


# -- minorant ---------------------------------------------------------------------


MINORANT_KEYS = {"regularized", "scale", "principal_indices", "slopes",
                 "trace_breakpoints", "regime", "stable_prefix",
                 "provisional_from", "window"}


def test_minorant_payload_keys(runner, rough_file):
    res = runner.invoke(main, ["minorant", rough_file])
    assert res.exit_code == 0
    doc = parse_line(res.stdout)
    assert set(doc) == MINORANT_KEYS
    assert doc["scale"] == "log"
    assert doc["regularized"] == [0, "1/2", 1, 3, 9, 20]
    assert doc["principal_indices"] == [0, 2, 3, 4, 5]


def test_minorant_weight_scale_output(runner, factorial_file):
    doc = parse_line(runner.invoke(main, ["minorant", factorial_file,
                                          "--window", "6"]).stdout)
    assert doc["scale"] == "weight"
    assert doc["regularized"] == [1, 1, 2, 6, 24, 120]


def test_minorant_byte_determinism(runner, rough_file):
    a = runner.invoke(main, ["minorant", rough_file]).stdout
    b = runner.invoke(main, ["minorant", rough_file]).stdout
    assert a == b
    assert a.endswith("\n")


def test_minorant_round_trip_idempotent(runner, rough_file, tmp_path):
    doc = parse_line(runner.invoke(main, ["minorant", rough_file]).stdout)
    again = tmp_path / "again.json"
    again.write_text(json.dumps({
        "kind": doc["scale"], "prefix": doc["regularized"],
        "tail": {"type": "explicit_only"},
        "declared_regime": {"regime": "standard", "source": "declared",
                            "evidence_window": [0, len(doc["regularized"])]},
    }))
    doc2 = parse_line(runner.invoke(main, ["minorant", str(again)]).stdout)
    assert doc2["regularized"] == doc["regularized"]


def test_minorant_case1_dispatch(runner, collapsing_file):
    res = runner.invoke(main, ["minorant", collapsing_file])
    assert res.exit_code == 0
    doc = parse_line(res.stdout)
    assert doc["regularized"] == [0, "-inf", "-inf", "-inf"]
    assert doc["regime"]["regime"] == "case1"


def test_minorant_verify_passes(runner, rough_file):
    res = runner.invoke(main, ["minorant", rough_file, "--verify"])
    assert res.exit_code == 0
    doc = parse_line(res.stdout)
    assert doc["regularized"] == [0, "1/2", 1, 3, 9, 20]


def test_minorant_multi_file_order(runner, rough_file, factorial_file):
    res = runner.invoke(main, ["minorant", rough_file, factorial_file])
    assert res.exit_code == 0
    first = parse_line(res.stdout, 0)
    second = parse_line(res.stdout, 1)
    assert first["scale"] == "log"
    assert second["scale"] == "weight"


@pytest.mark.parametrize("command", ["minorant", "trace"])
def test_geometric_tail_case2_exits_zero(runner, tmp_path, command):
    # the tail values p log(3/2) are floats: collinear over the reals, not in
    # binary; comparing their chord slopes after rounding used to crash here
    path = tmp_path / "geometric.json"
    path.write_text(json.dumps({
        "kind": "log", "prefix": [0], "tail": {"type": "geometric", "d": "3/2"},
    }))
    res = runner.invoke(main, [command, str(path), "--window", "256"])
    assert res.exception is None
    assert res.exit_code == 0
    doc = parse_line(res.stdout)
    bps = doc["trace"]["breakpoints"] if command == "trace" else doc["trace_breakpoints"]
    # a slope whose float rounds up to the cap is taken exactly and prints as "n/d"
    xs = [Fraction(bp["x"]) for bp in bps]
    assert xs
    assert all(x < y for x, y in zip(xs, xs[1:]))
    if command == "minorant":
        # the exact slopes from 170 on are below the cap, which their floats reach
        assert doc["principal_indices"] == [0, 85, 170, 197, 224]


@pytest.mark.parametrize("args", [["minorant"], ["trace"], ["phireg", "--phi", "infinite"]])
def test_declared_regime_with_neg_inf_entry_exits_two(runner, tmp_path, args):
    # a -inf entry collapses the sequence (case 1), whatever the declaration says
    path = tmp_path / "declared.json"
    path.write_text(json.dumps({
        "kind": "log", "prefix": [0, 1, "-inf", 3, 9],
        "declared_regime": {"regime": "standard", "source": "declared",
                            "evidence_window": [0, 5]},
    }))
    res = runner.invoke(main, args + [str(path)])
    assert res.exit_code == 2
    assert "a_2 = -inf" in res.stderr


def test_cli_import_leaves_numpy_unloaded():
    # numpy serves only the sweep oracle; the CLI must not pay for it at start-up
    code = "import sys, seqreg.cli; print('numpy' in sys.modules)"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def run_cli(tmp_path, doc, *args, timeout=30):
    """Run the CLI in a fresh interpreter on one input document, memory capped."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))

    def cap_memory():  # a hang would otherwise take the machine's memory with it
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run([sys.executable, "-m", "seqreg.cli", *args, str(path)],
                          env=env, capture_output=True, text=True, timeout=timeout,
                          preexec_fn=cap_memory)


@pytest.mark.parametrize("command", ["classify", "minorant"])
def test_exploding_formula_exits_cleanly(tmp_path, command):
    # 2**(2**p) outgrows any memory within the window; the formula's bit
    # budget turns it into a parse error instead of a hang
    res = run_cli(tmp_path, {"kind": "log", "prefix": [0],
                             "tail": {"type": "expression", "formula": "2**(2**p)"}}, command)
    assert res.returncode in (0, 1)
    assert "Traceback" not in res.stderr


@pytest.mark.parametrize("command", ["classify", "minorant"])
@pytest.mark.parametrize("doc", [
    {"kind": "log", "prefix": [0], "tail": {"type": "expression", "formula": "exp(p*p)"}},
    {"kind": "log", "prefix": [0], "tail": {"type": "expression", "formula": "2.0**(2**p)"}},
    {"kind": "weight", "prefix": [1],
     "tail": {"type": "expression", "formula": "-p*p", "native": "weight"}},
    {"kind": "log", "prefix": [0], "tail": {"type": "expression", "formula": "inf-inf"}},
] + [
    {"kind": "log", "prefix": [0], "tail": {"type": "expression", "formula": formula}}
    for formula in ("log(0-p)", "sqrt(0-p)", "lgamma(0-p)", "p/0", "0**(0-p)",
                    "factorial(p/2)", "(0-p)**0.5")
])
def test_formula_out_of_range_is_a_parse_error(tmp_path, command, doc):
    # a float overflow, a negative weight, nan, a domain error or a complex
    # value is bad input rather than a crash
    res = run_cli(tmp_path, doc, command)
    assert res.returncode == 1
    assert "parse error" in res.stderr
    assert "Traceback" not in res.stderr
    assert len(res.stderr.splitlines()) == 1


def test_integer_too_long_to_print_is_a_parse_error(tmp_path):
    doc = {"kind": "log", "prefix": [0], "tail": {"type": "expression", "formula": "2**(p*p)"}}
    res = run_cli(tmp_path, doc, "minorant", "--window", "200")
    assert res.returncode == 1
    assert f"{sys.get_int_max_str_digits()} digits" in res.stderr
    assert len(res.stderr.splitlines()) == 1


HALF_FACTORIAL = {"kind": "weight", "prefix": [1],
                  "tail": {"type": "factorial_power", "s": "1/2", "c": 1}}


@pytest.mark.parametrize("args", [
    ["classify", "--window", "400"],
    ["minorant", "--window", "400"],
    ["assoc", "--window", "400", "--grid", "0:2:1"],
    ["assoc", "--grid", "0:24:12"],
])
def test_factorial_weights_past_the_float_range(tmp_path, args):
    # (p!)^(1/2) overflows a float near p = 300: the weight reads +inf, and the
    # closed-form omega cells that would need it come out empty
    res = run_cli(tmp_path, HALF_FACTORIAL, *args)
    assert res.returncode == 0, res.stderr
    assert "-inf" not in res.stdout
    if args[0] == "assoc":
        rows = [line.split(",") for line in res.stdout.splitlines()[1:]]
        assert all(row[1] for row in rows)  # the direct route needs no weight
        assert rows[-1][2] == rows[-1][3] == ""


HUGE_FACTORS = [
    {"kind": kind, "prefix": [1], "tail": tail}
    for kind in ("log", "weight")
    for tail in ({"type": "factorial_power", "s": 1, "c": 1e308},
                 {"type": "geometric", "d": 1e308})
]


@pytest.mark.parametrize("args", [["assoc"], ["assoc", "--verify", "--loggrid", "0.5:1e300:10"]])
@pytest.mark.parametrize("doc", HUGE_FACTORS)
def test_exact_weights_past_the_float_range_meet_floats(tmp_path, doc, args):
    # M_p = 1e308 p! (or 1e308^p) is exact and past the float range, while
    # e^1 and the loggrid are floats: the mix stays exact instead of raising
    # OverflowError, and oracle terms past the float range are not compared
    res = run_cli(tmp_path, doc, *args)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    if doc["kind"] == "log" and doc["tail"]["type"] == "factorial_power" and len(args) == 1:
        # M_1^2 = 1e616 > M_0 M_2 = 2e308 e: not log-convex, so no piecewise cells
        rows = [line.split(",") for line in res.stdout.splitlines()[1:]]
        assert rows and all(row[2] == row[3] == "" for row in rows)


@pytest.mark.parametrize("command", ["classify", "minorant"])
def test_factorial_weight_past_the_exact_budget_is_a_parse_error(tmp_path, command):
    # M_2 = 49 (2!)^(10^308) has 10^308 bits: building it exactly never finished
    doc = {"kind": "weight", "prefix": [112],
           "tail": {"type": "factorial_power", "s": 1e308, "c": 49}}
    res = run_cli(tmp_path, doc, command, "--window", "18", timeout=20)
    assert res.returncode == 1
    assert "exceeds 1048576 bits" in res.stderr
    assert len(res.stderr.splitlines()) == 1


def test_deep_dip_over_factorial_tail_is_fast(tmp_path):
    # every hull vertex asks the tail for its lowest chord, which lies some
    # 10^4 indices out; a linear scan took about half a minute on a 2-vCPU machine
    prefix = [0] + [-150000 + p * p / 1000 for p in range(1, 20)]
    doc = {"kind": "log", "prefix": prefix,
           "tail": {"type": "factorial_power", "s": 1, "c": 1}}
    res = run_cli(tmp_path, doc, "minorant", "--window", "20", timeout=20)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["principal_indices"] == list(range(20))
    assert out["stable_prefix"] == 19


# the lowest line from a_0 = -2040 runs past a 6-point window to a_q = 2 log q!
FACTORIAL_DIP = {"kind": "log", "prefix": [-2040],
                 "tail": {"type": "factorial_power", "s": 2, "c": 1}}


def test_minorant_verify_sees_the_tail_end(tmp_path):
    # an oracle that saw the window alone would put its hull through the
    # window's points, above that line, and reject the engine's result
    res = run_cli(tmp_path, FACTORIAL_DIP, "minorant", "--verify", "--window", "6")
    assert res.returncode == 0, res.stderr
    (report,) = json.loads(res.stdout)["verify"]
    assert report["max_abs_deviation"] <= 1e-9


def test_minorant_verify_still_rejects_a_wrong_value(tmp_path, runner, monkeypatch):
    dispatch = cli_mod.regularize

    def perturbed(seq, window, tol):
        result = dispatch(seq, window, tol)
        prefix = list(result.regularized.prefix)
        prefix[3] = prefix[3] - ext(1e-3)
        return dataclasses.replace(
            result, regularized=dataclasses.replace(result.regularized, prefix=tuple(prefix)))

    monkeypatch.setattr(cli_mod, "regularize", perturbed)
    path = tmp_path / "dip.json"
    path.write_text(json.dumps(FACTORIAL_DIP))
    res = runner.invoke(main, ["minorant", "--verify", "--window", "6", str(path)])
    assert res.exit_code == 3
    assert "verify deviation" in res.stderr


@pytest.mark.parametrize("shift", [1, -1])
def test_minorant_verify_checks_past_the_stable_prefix(tmp_path, runner, monkeypatch, shift):
    # the oracle sees the stable prefix only; past it, a result above the input
    # (shift 1) or off it at a principal index (shift -1) must still fail
    dispatch = cli_mod.regularize

    def raised(seq, window, tol):
        result = dispatch(seq, window, tol)
        prefix = list(result.regularized.prefix)
        prefix[-1] = prefix[-1] + ext(shift)
        return dataclasses.replace(
            result, regularized=dataclasses.replace(result.regularized, prefix=tuple(prefix)))

    monkeypatch.setattr(cli_mod, "regularize", raised)
    path = tmp_path / "rough.json"
    path.write_text(json.dumps({"kind": "log", "prefix": [0, 5, 1, 3, 9, 20],
                                "tail": {"type": "explicit_only"}}))
    res = runner.invoke(main, ["minorant", "--verify", str(path)])
    out = parse_line(res.stdout)
    assert out["stable_prefix"] < 5 and 5 in out["principal_indices"]
    assert res.exit_code == 3
    assert "above the input" in res.stderr


# the exact slope from 0 to 5 is below the cap 1, but its float is 1.0
FLOAT_CAP = {"kind": "log", "prefix": [2.6, "inf", "inf", "inf", "inf", 7.6],
             "tail": {"type": "explicit_only"},
             "declared_regime": {"regime": "case2", "source": "declared",
                                 "evidence_window": [0, 6], "a_iota": 1}}


def test_minorant_verify_passes_a_float_slope_below_the_cap(tmp_path):
    res = run_cli(tmp_path, FLOAT_CAP, "minorant", "--verify")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["principal_indices"] == [0, 5]


def test_minorant_verify_rejects_a_missed_principal_index(tmp_path, runner, monkeypatch):
    # the values are right, but index 5, where the oracle meets the input
    # below the cap line through 0, is dropped from the principal indices
    dispatch = cli_mod.regularize

    def dropped(seq, window, tol):
        result = dispatch(seq, window, tol)
        return dataclasses.replace(result, principal_indices=(0,), slopes=())

    monkeypatch.setattr(cli_mod, "regularize", dropped)
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(FLOAT_CAP))
    res = runner.invoke(main, ["minorant", "--verify", str(path)])
    assert res.exit_code == 3
    assert "not principal" in res.stderr


def test_minorant_verify_rejects_a_result_above_the_input(tmp_path):
    # the slope from a_0 to a_1 overflows a float; the walk then filled +inf
    # above a_1, and the stable prefix (index 0) could not show it
    doc = {"kind": "log", "prefix": [-1.7e308, 1.7e308], "tail": {"type": "explicit_only"}}
    res = run_cli(tmp_path, doc, "minorant", "--verify")
    out = json.loads(res.stdout)
    above = out["regularized"][1] == "inf" or out["regularized"][1] > 1.7e308
    assert res.returncode == (3 if above else 0), res.stderr
    assert set(out["verify"][0]) == {"quantity", "main_value", "oracle_value", "max_abs_deviation",
                                     "max_rel_deviation", "witness"}


# a_1 - a_0 overflows a float: the float kernels take the slope as +inf
OVERFLOWING_SLOPE = {"kind": "log", "prefix": [-1.7e308, 1.7e308],
                     "tail": {"type": "explicit_only"}}


# the sweep decides the slope on the floats' exact values, so both points are
# principal; blowup:3 caps the sweep below the slope, and only a_0 is
@pytest.mark.parametrize("phi, principal", [
    ("exp", [0, 1]), ("infinite", [0, 1]), ("expaffine:1,1", [0, 1]),
    ("piecewise:[[0,0],[1,2]]", [0, 1]), ("blowup:3", [0]),
])
def test_phireg_on_an_overflowing_slope_exits_cleanly(tmp_path, phi, principal):
    res = run_cli(tmp_path, OVERFLOWING_SLOPE, "phireg", "--phi", phi, "--window", "4")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["principal_indices"] == principal


def test_compare_on_an_overflowing_slope_exits_cleanly(tmp_path):
    res = run_cli(tmp_path, OVERFLOWING_SLOPE, "compare", "--phi", "exp", "--phi2",
                  "expaffine:1,1", "--window", "4")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["ordered_ok"] is True


def test_minorant_on_an_overflowing_slope_keeps_both_points(tmp_path):
    res = run_cli(tmp_path, OVERFLOWING_SLOPE, "minorant")
    assert json.loads(res.stdout)["principal_indices"] == [0, 1]


def test_an_overflowing_slope_is_taken_exactly(tmp_path):
    # the slope (a_2 - a_0) / 2 = 1.7e308 is printed as the exact integer, and
    # the line value at 1 is 0, not +inf above a_1
    doc = dict(OVERFLOWING_SLOPE, prefix=[-1.7e308, 1.7e308, 1.7e308])
    out = json.loads(run_cli(tmp_path, doc, "minorant").stdout)
    assert out["regularized"] == [-1.7e308, 0, 1.7e308]
    assert out["principal_indices"] == [0, 2]
    assert out["slopes"] == [int(Fraction(1.7e308))]
    trace = json.loads(run_cli(tmp_path, OVERFLOWING_SLOPE, "trace").stdout)["trace"]
    assert [bp["x"] for bp in trace["breakpoints"]] == [int(Fraction(1.7e308) * 2)]


@pytest.mark.parametrize("prefix", [[-1.7e308, 1.7e308], [-1.7e308, 1.7e308, 1.7e308]])
def test_minorant_verify_passes_on_an_overflowing_slope(tmp_path, prefix):
    res = run_cli(tmp_path, dict(OVERFLOWING_SLOPE, prefix=prefix), "minorant", "--verify")
    assert res.returncode == 0, res.stderr


@pytest.mark.parametrize("doc, args", [
    # the trace's last edge runs to a point past the 4-point window
    ({"kind": "log", "prefix": [0, "inf", "inf", "inf", "-93/52", 149, -287, "inf", "inf",
                                "-288/79"],
      "tail": {"type": "factorial_power", "s": 1, "c": "1/2"}}, ("--window", "4")),
    # no finite breakpoint, and +inf past a_iota = log 3
    ({"kind": "log", "prefix": ["-392", "inf", "278/9", "inf"],
      "tail": {"type": "geometric", "d": 3}}, ()),
])
def test_trace_verify_accepts_correct_traces(tmp_path, doc, args):
    res = run_cli(tmp_path, doc, "trace", "--verify", *args)
    assert res.returncode == 0, res.stderr
    (report,) = json.loads(res.stdout)["verify"]
    assert report["max_abs_deviation"] <= 1e-9


@pytest.mark.parametrize("command", ["minorant", "trace"])
@pytest.mark.parametrize("doc", [
    {"kind": "log", "prefix": [0, 5, 1, 3, 9, 20], "tail": {"type": "explicit_only"}},
    {"kind": "log", "prefix": [0, -1], "tail": {"type": "affine_log", "c": 2}},
    {"kind": "weight", "prefix": [1], "tail": {"type": "factorial_power", "s": 1, "c": 1}},
    {"kind": "weight", "prefix": [1, 3, 2, 9], "tail": {"type": "explicit_only"}},
])
def test_regime_is_classified_once_per_invocation(tmp_path, runner, monkeypatch,
                                                  command, doc):
    original = sequences_mod.classify_regime
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "seqreg" and getattr(module, "classify_regime", None) is original:
            monkeypatch.setattr(module, "classify_regime", counted)
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, [command, "--window", "8", str(path)])
    assert res.exit_code == 0, res.output
    assert len(calls) == 1


# the minorant runs from 1.7e308 down to -1.7e308: its float values differ from
# the oracle's in the last bit, which is 2e292 in absolute terms
FLOAT_RANGE = {"kind": "log",
               "prefix": [1.7e308, 3, 1.7e308, 3, 0, 0, "inf", 0.0, 4, -0.0, 0, -1.7e308],
               "tail": {"type": "geometric", "d": 3}}


def test_minorant_verify_scales_the_deviation_by_the_values(tmp_path):
    res = run_cli(tmp_path, FLOAT_RANGE, "minorant", "--verify")
    assert res.returncode == 0, res.stderr
    (report,) = json.loads(res.stdout)["verify"]
    assert report["max_abs_deviation"] > 1e290


@pytest.mark.parametrize("prefix, index, error", [
    ([0, 1e300, 3e300, 6e300], 2, lambda v: v * ext(1e-6)),  # relative 1e-6 at 1e300
    ([0, "1/2", 1, 2], 2, lambda v: ext(1e-8)),  # 1e-8 at magnitude 1
])
def test_minorant_verify_still_rejects_a_small_relative_error(tmp_path, runner, monkeypatch,
                                                               prefix, index, error):
    dispatch = cli_mod.regularize

    def perturbed(seq, window, tol):
        result = dispatch(seq, window, tol)
        values = list(result.regularized.prefix)
        values[index] = values[index] + error(values[index])
        return dataclasses.replace(
            result, regularized=dataclasses.replace(result.regularized, prefix=tuple(values)))

    path = tmp_path / "convex.json"
    doc = {"kind": "log", "prefix": prefix, "tail": {"type": "explicit_only"}}
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["minorant", "--verify", str(path)])
    assert res.exit_code == 0, res.output
    monkeypatch.setattr(cli_mod, "regularize", perturbed)
    res = runner.invoke(main, ["minorant", "--verify", str(path)])
    assert res.exit_code == 3
    assert "verify deviation" in res.stderr


# under blowup:20 the engine gives a_10 = 99/4 = lim_{t -> 20} (t + 19/4), a
# value reached only as the slopes approach the blow-up point T = 20
BLOWUP_PREFIX = {"kind": "log", "prefix": [-1, -3, 8, "-9/2", 6, "1/2", -11, "21/4", 36,
                                           "19/4", 31],
                 "tail": {"type": "explicit_only"}}


def test_phireg_verify_under_blowup_stops_short_of_T(tmp_path):
    # slopes t >= T admit every point; a grid that reaches them recovers a_10 = 31
    res = run_cli(tmp_path, BLOWUP_PREFIX, "phireg", "--verify", "--phi", "blowup:20")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout)
    assert out["regularized"][10] == "99/4"
    (report,) = out["verify"]
    assert report["max_abs_deviation"] <= 2e-3


def perturb_phireg(monkeypatch, at):
    """Make phireg's engine return a_at - 1 in place of a_at."""
    engine = cli_mod.regularize_with_phi

    def perturbed(*args, **kwargs):
        result = engine(*args, **kwargs)
        prefix = list(result.regularized.prefix)
        prefix[at] = prefix[at] - ext(1)
        # the record builds regularized on first access; the perturbed one takes its place
        object.__setattr__(result, "regularized",
                           dataclasses.replace(result.regularized, prefix=tuple(prefix)))
        return result

    monkeypatch.setattr(cli_mod, "regularize_with_phi", perturbed)


def test_phireg_verify_under_blowup_still_rejects_a_wrong_value(tmp_path, runner, monkeypatch):
    perturb_phireg(monkeypatch, 8)
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(BLOWUP_PREFIX))
    res = runner.invoke(main, ["phireg", "--verify", "--phi", "blowup:20", str(path)])
    assert res.exit_code == 3
    assert "verify deviation" in res.stderr


# +inf entries are points that never take over: an uncapped ungated window
# stays +inf past its last finite entry, and blowup closes it with its cap line
@pytest.mark.parametrize("prefix, phi, at", [
    ([0, 10, "inf", 0, 10], "exp", 2), ([0, 10, "inf", 0, 10], "infinite", 2),
    ([1, "inf"], "blowup:3", 1), ([0, 4, "inf", 3, "inf", "inf"], "blowup:3", 5),
    ([0, 4, "inf", 3, "inf", "inf"], "infinite", 1),
])
def test_phireg_verify_runs_the_oracle_on_inf_entries(tmp_path, runner, monkeypatch, prefix, phi,
                                                      at):
    path = tmp_path / "inf.json"
    doc = {"kind": "log", "prefix": prefix, "tail": {"type": "explicit_only"}}
    path.write_text(json.dumps(doc))
    args = ["phireg", "--verify", "--phi", phi, str(path)]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.stderr
    (report,) = json.loads(res.stdout)["verify"]
    assert "skipped" not in report["quantity"]
    perturb_phireg(monkeypatch, at)
    res = runner.invoke(main, args)
    assert res.exit_code == 3
    assert "verify deviation" in res.stderr


# a_5 = -10.0 lies 2^-51 above the float hull edge from index 2 to index 6: the
# grid oracle, which ties within 1e-9, calls 5 principal, the engine does not
NEAR_TIE = {"kind": "log", "prefix": [-2.0, -6.8, -10.6, -8.4, -10.0, -10.0, -9.8, "inf", -5.0,
                                      -1.8, -2.2, 1.0, 12.8, 15.8],
            "tail": {"type": "explicit_only"}}
COLLINEAR = {"kind": "log", "prefix": [0, 1, 2, 3, 5, 9], "tail": {"type": "explicit_only"}}


def drop_principal(monkeypatch, index):
    """Make phireg's engine leave index out of its principal indices."""
    engine = cli_mod.regularize_with_phi

    def dropped(*args, **kwargs):
        result = engine(*args, **kwargs)
        kept = tuple(p for p in result.principal_indices if p != index)
        object.__setattr__(result, "principal_indices", kept)
        return result

    monkeypatch.setattr(cli_mod, "regularize_with_phi", dropped)


def test_phireg_verify_accepts_a_float_near_tie(tmp_path):
    res = run_cli(tmp_path, NEAR_TIE, "phireg", "--verify", "--phi", "infinite")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["principal_indices"] == [0, 1, 2, 6, 10, 11, 13]


@pytest.mark.parametrize("doc, phi, index", [
    (NEAR_TIE, "infinite", 6),  # a hull vertex
    (NEAR_TIE, "infinite", 2),
    (COLLINEAR, "infinite", 2),  # a_2 lies on the engine's line, exactly
    (COLLINEAR, "exp", 1),
], ids=["near-tie-vertex", "near-tie-edge-end", "collinear-infinite", "collinear-exp"])
def test_phireg_verify_rejects_a_dropped_principal_index(tmp_path, runner, monkeypatch, doc,
                                                         phi, index):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    args = ["phireg", "--verify", "--phi", phi, str(path)]
    assert runner.invoke(main, args).exit_code == 0
    drop_principal(monkeypatch, index)
    res = runner.invoke(main, args)
    assert res.exit_code == 3
    # the values are right: the message names the principal set, not a deviation
    (line,) = res.stderr.splitlines()
    assert "principal indices" in line and "verify deviation" not in line


def test_phireg_verify_names_each_failed_check(tmp_path, runner, monkeypatch):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(COLLINEAR))
    perturb_phireg(monkeypatch, 2)
    drop_principal(monkeypatch, 4)
    res = runner.invoke(main, ["phireg", "--verify", "--phi", "infinite", str(path)])
    assert res.exit_code == 3
    deviation, principal = res.stderr.splitlines()
    assert "verify deviation" in deviation and "principal indices" in principal


@pytest.mark.parametrize("prefix, reason", [
    ([0, 1, 3, 10000, 40000], "grid of 30001001 points"),
    ([0, 1e308, -1e308, 1e308], "grid of unbounded size"),
    ([0, 1, 3, 10**400], "too large for a float"),
])
def test_phireg_verify_reports_an_input_the_oracle_refuses(tmp_path, prefix, reason):
    # the float oracle cannot take the input; the check says so instead of
    # passing or crashing
    doc = {"kind": "log", "prefix": prefix, "tail": {"type": "explicit_only"}}
    res = run_cli(tmp_path, doc, "phireg", "--verify")
    assert res.returncode == 2
    assert reason in res.stderr
    assert "Traceback" not in res.stderr
    assert len(res.stderr.splitlines()) == 1


def test_factorial_search_past_its_cap_exits_two(tmp_path):
    # the lowest chord from the dip lies near q = 10^7, past the search cap
    doc = {"kind": "log", "prefix": [0, 0, 0, -10000000],
           "tail": {"type": "factorial_power", "s": 1, "c": 1}}
    res = run_cli(tmp_path, doc, "minorant", "--window", "5", timeout=20)
    assert res.returncode == 2
    assert "200000 indices" in res.stderr
    assert "Traceback" not in res.stderr


# -- exit codes ---------------------------------------------------------------------


def test_parse_error_reports_position(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "weight", "prefix": [1,,]}')
    res = runner.invoke(main, ["classify", str(bad)])
    assert res.exit_code == 1
    assert "line 1" in res.stderr
    assert "column" in res.stderr


def test_missing_file_is_parse_error(runner, tmp_path):
    res = runner.invoke(main, ["classify", str(tmp_path / "nope.json")])
    assert res.exit_code == 1


def test_precondition_violation_names_regime(runner, collapsing_file):
    res = runner.invoke(main, ["trace", collapsing_file])
    assert res.exit_code == 2
    assert "Case 1" in res.stderr


def test_window_option_validated(runner, rough_file):
    res = runner.invoke(main, ["minorant", rough_file, "--window", "2"])
    assert res.exit_code == 2


def test_tol_option_validated(runner, rough_file):
    res = runner.invoke(main, ["minorant", rough_file, "--tol", "1"])
    assert res.exit_code == 2


def test_tol_env_var(runner, rough_file):
    ok = runner.invoke(main, ["minorant", rough_file],
                       env={"SEQREG_TOLERANCE": "1e-6"})
    assert ok.exit_code == 0
    bad = runner.invoke(main, ["minorant", rough_file],
                        env={"SEQREG_TOLERANCE": "0.5"})
    assert bad.exit_code == 2


def test_verification_failure_exits_three(runner, factorial_file, monkeypatch):
    monkeypatch.setattr(cli_mod, "brute_omega",
                        lambda M, t, p_max: ext(12345))
    res = runner.invoke(main, ["assoc", factorial_file, "--verify",
                               "--grid", "1:3:1"])
    assert res.exit_code == 3
    assert "deviates" in res.stderr or "verify" in res.stderr


def test_exit_code_is_max_over_files(runner, rough_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    res = runner.invoke(main, ["minorant", rough_file, str(bad)])
    assert res.exit_code == 1
    assert parse_line(res.stdout)["scale"] == "log"  # good file still emitted


# -- assoc ------------------------------------------------------------------------


def test_assoc_csv_shape(runner, factorial_file):
    res = runner.invoke(main, ["assoc", factorial_file, "--grid", "0:3:1/2"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "t,omega_direct,omega_piecewise,omega_integral," \
        "omega_tilde,omega_double_tilde"
    cells = lines[1].split(",")
    assert float(cells[0]) == 0.0
    assert cells[5] == ""  # double tilde undefined at t = 0
    row3 = next(ln for ln in lines if ln.startswith("3")
                and float(ln.split(",")[0]) == 3.0)
    assert float(row3.split(",")[1]) == pytest.approx(math.log(4.5), abs=1e-12)


def test_assoc_json_emit(runner, factorial_file):
    res = runner.invoke(main, ["assoc", factorial_file, "--emit", "json",
                               "--grid", "0:2:1"])
    doc = parse_line(res.stdout)
    assert set(doc) >= {"columns", "rows", "window"}
    assert len(doc["rows"]) == 3


def test_assoc_loggrid(runner, factorial_file):
    res = runner.invoke(main, ["assoc", factorial_file, "--loggrid", "1:100:5"])
    lines = [ln for ln in res.stdout.splitlines() if ln and not ln.startswith("#")]
    assert len(lines) == 1 + 5


def test_integral_route_at_large_t_is_fast(tmp_path):
    # the segment index is about 4000, far past the window; multiplying the
    # telescoped factors one Fraction at a time took about 16 s per run on a
    # shared 2-vCPU machine
    doc = {"kind": "weight", "prefix": [1], "tail": {"type": "factorial_power", "s": 1, "c": 1}}
    res = run_cli(tmp_path, doc, "assoc", "--grid", "3990:4000:10", timeout=10)
    assert res.returncode == 0, res.stderr
    rows = [line.split(",") for line in res.stdout.splitlines()[1:]]
    assert len(rows) == 2
    assert all(row[3] == row[2] != "" for row in rows)  # integral equals piecewise


@pytest.mark.parametrize("prefix", [
    [1, 1e-10, 1e-30, 1e-60],
    ["1", "1/10000000000", "1/" + "1" + "0" * 30, "1/" + "1" + "0" * 60],
])
def test_small_weights_that_are_not_log_convex(tmp_path, prefix):
    # floats below 1 get the rationals' answer, not an absolute 1e-12 slack
    doc = {"kind": "weight", "prefix": prefix, "tail": {"type": "explicit_only"}}
    res = run_cli(tmp_path, doc, "classify", "--window", "4")
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["convexity"] == {"log_convex": False, "violation_index": 1}


def test_assoc_verify_appends_comment(runner, factorial_file):
    res = runner.invoke(main, ["assoc", factorial_file, "--verify",
                               "--grid", "0:3:1"])
    assert res.exit_code == 0
    assert any(ln.startswith("# verify:") for ln in res.stdout.splitlines())


def test_assoc_verify_json_block(runner, factorial_file):
    res = runner.invoke(main, ["assoc", factorial_file, "--verify",
                               "--emit", "json", "--grid", "1:3:1"])
    doc = parse_line(res.stdout)
    assert "verify" in doc
    assert doc["verify"]  # one report per checked grid point
    assert all(entry["max_abs_deviation"] <= 1e-9 for entry in doc["verify"])


def _assoc_row_by_public_functions(seq, t, window, tol):
    te = ext(t)
    routes = (
        lambda: omega_direct(seq, te, window=window).value,
        lambda: omega_piecewise(seq, te, window=window, tol=tol),
        lambda: omega_integral(seq, te, window=window, tol=tol),
        lambda: omega_tilde(seq, te, window=window),
        lambda: omega_double_tilde(seq, te, window=window),
    )
    row = [te]
    for route in routes:
        try:
            row.append(route())
        except SeqRegError:
            row.append(None)
    return row


@pytest.mark.parametrize("doc, grid, code", [
    ({"kind": "weight", "prefix": [1, 1, 2, 6, 24, 120, 720, 5040],
      "tail": {"type": "explicit_only"}}, "0:9:1/2", 0),  # log-convex
    ({"kind": "weight", "prefix": [1, 3, 2, 8, 9, 30],
      "tail": {"type": "explicit_only"}}, "0:5:1/2", 0),  # not log-convex: empty cells
    ({"kind": "weight", "prefix": [1], "tail": {"type": "geometric", "d": 2}},
     "0:4:1/2", 0),  # t >= C = 2 is outside the closed forms' domain: empty cells
    # mu_p = p: from t = 15 on the factorial tail is scanned past the window,
    # where the window-bounded loop oracle cannot follow (exit 3)
    ({"kind": "weight", "prefix": [1], "tail": {"type": "factorial_power", "s": 1, "c": 2}},
     "0:40:5/2", 3),
    ({"kind": "weight", "prefix": [1], "tail": {"type": "geometric", "d": 3},
      "declared_regime": {"regime": "standard", "source": "declared",
                          "evidence_window": [0, 8]}}, "0:4:1/2", 0),  # inconsistent
], ids=["log-convex", "not-log-convex", "geometric", "factorial", "inconsistent"])
@pytest.mark.parametrize("emit", ["csv", "json"])
def test_assoc_table_matches_public_functions(runner, tmp_path, doc, grid, code, emit):
    # one table serves the whole grid; no state may leak between grid points
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(doc))
    window, tol = 16, 1e-9
    res = runner.invoke(main, ["assoc", str(path), "--verify", "--emit", emit,
                               "--grid", grid, "--window", str(window)])
    assert res.exit_code == code
    seq = cli_mod._load_spec(str(path))
    rows = [_assoc_row_by_public_functions(seq, t, window, tol)
            for t in cli_mod._parse_grid(grid)]
    if emit == "json":
        expected = [[None if v is None else v.to_json() for v in row] for row in rows]
        assert parse_line(res.stdout)["rows"] == expected
    else:
        lines = [ln for ln in res.stdout.splitlines() if not ln.startswith("#")]
        assert lines[1:] == [",".join(cli_mod._csv_cell(v) for v in row) for row in rows]


# -- trace -------------------------------------------------------------------------


def test_trace_payload(runner, rough_file):
    res = runner.invoke(main, ["trace", rough_file])
    assert res.exit_code == 0
    doc = parse_line(res.stdout)
    assert set(doc) == {"trace", "regime"}
    assert doc["trace"]["breakpoints"]


def test_trace_verify(runner, rough_file):
    res = runner.invoke(main, ["trace", rough_file, "--verify"])
    assert res.exit_code == 0


# -- phireg ------------------------------------------------------------------------


@pytest.fixture
def jumpy_file(tmp_path):
    path = tmp_path / "jumpy.json"
    path.write_text(json.dumps({
        "kind": "log", "prefix": [0, 10, 10, 0, 10],
        "tail": {"type": "explicit_only"},
    }))
    return str(path)


def test_phireg_json(runner, jumpy_file):
    res = runner.invoke(main, ["phireg", jumpy_file, "--phi", "exp"])
    assert res.exit_code == 0
    doc = parse_line(res.stdout)
    assert doc["principal_indices"] == [0, 3, 4]
    assert doc["discontinuity_indices"] == [3]
    assert doc["J_right"] == "inf"


def test_phireg_csv(runner, jumpy_file):
    res = runner.invoke(main, ["phireg", jumpy_file, "--phi", "exp",
                               "--emit", "csv"])
    lines = res.stdout.splitlines()
    assert lines[0] == "t,m,A"
    assert len(lines) > 3


def test_phireg_csv_extended_past_the_blowup_point(runner, tmp_path):
    # t = 3 and t = 4 lie on and past the blow-up point, outside J = (-inf, 3):
    # --extended reads A there as +inf, and m stays empty with or without it
    path = tmp_path / "triangular.json"
    path.write_text(json.dumps({"kind": "log", "prefix": [0, 1, 3, 6, 10, 15, 21, 28],
                                "tail": {"type": "explicit_only"}}))
    args = ["phireg", str(path), "--phi", "blowup:3", "--window", "8", "--emit", "csv",
            "--grid", "0:4:1"]
    plain = runner.invoke(main, args)
    extended = runner.invoke(main, args + ["--extended"])
    assert plain.exit_code == extended.exit_code == 0
    assert plain.stdout.splitlines()[-2:] == ["3.0,,", "4.0,,"]
    assert extended.stdout.splitlines()[-2:] == ["3.0,,inf", "4.0,,inf"]
    assert extended.stdout.splitlines()[:-2] == plain.stdout.splitlines()[:-2]


def test_phireg_csv_grid_on_a_case1_record(runner, collapsing_file):
    # a collapsing sequence leaves J empty, so every grid slope lies outside it
    args = ["phireg", collapsing_file, "--phi", "infinite", "--emit", "csv", "--grid", "0:2:1"]
    plain = runner.invoke(main, args)
    extended = runner.invoke(main, args + ["--extended"])
    assert plain.exit_code == extended.exit_code == 0
    assert plain.stdout.splitlines() == ["t,m,A", "0.0,,", "1.0,,", "2.0,,"]
    assert extended.stdout.splitlines() == ["t,m,A", "0.0,,inf", "1.0,,inf", "2.0,,inf"]


def test_phireg_verify(runner, jumpy_file):
    res = runner.invoke(main, ["phireg", jumpy_file, "--phi", "exp", "--verify"])
    assert res.exit_code == 0
    doc = parse_line(res.stdout)
    assert "verify" in doc


def test_phireg_piecewise_file(runner, jumpy_file, tmp_path):
    knots = tmp_path / "knots.json"
    knots.write_text(json.dumps([[0, 0], [1, 2]]))
    res = runner.invoke(main, ["phireg", jumpy_file,
                               "--phi", f"piecewise:{knots}"])
    assert res.exit_code == 0
    doc = parse_line(res.stdout)
    assert doc["phi"].startswith("piecewise:")


def test_phireg_infinite_float_tie_exits_zero(runner, tmp_path):
    # -1.5 - 1 * (-1.8) rounds to 0.30000000000000004 > a_0 = 0.3: the only
    # entering intercept lies above the old one by rounding alone
    path = tmp_path / "rounded.json"
    path.write_text(json.dumps({
        "kind": "log", "prefix": [0.3, -1.5], "tail": {"type": "explicit_only"},
    }))
    res = runner.invoke(main, ["phireg", str(path), "--phi", "infinite"])
    assert res.exit_code == 0
    doc = parse_line(res.stdout)
    assert doc["principal_indices"] == [0, 1]
    assert doc["discontinuity_indices"] == []
    (bp,) = doc["trace"]["breakpoints"]
    assert bp["left_value"] == bp["right_value"] == -0.3


def test_phireg_infinite_float_rounding_is_no_jump(runner, tmp_path):
    # -3.9 - 1 * (-7.6) rounds to 3.6999999999999997 < a_0 = 3.7: the entering
    # intercept lies below the old one by rounding alone, and the ungated
    # sweep is the convex minorant, which cannot jump
    path = tmp_path / "rounded.json"
    path.write_text(json.dumps({
        "kind": "log", "prefix": [3.7, -3.9], "tail": {"type": "explicit_only"},
    }))
    res = runner.invoke(main, ["phireg", str(path), "--phi", "infinite"])
    assert res.exit_code == 0
    doc = parse_line(res.stdout)
    assert doc["discontinuity_indices"] == []
    (bp,) = doc["trace"]["breakpoints"]
    assert bp["left_value"] == bp["right_value"] == -3.7


def test_phireg_bad_phi_descriptor(runner, jumpy_file):
    res = runner.invoke(main, ["phireg", jumpy_file, "--phi", "tanh"])
    assert res.exit_code == 1


@pytest.mark.parametrize("args, message", [
    # a power of ten past 2^20 bits is refused before it is built
    (("phireg", "--phi", "blowup:1e3000000"), "power of ten exceeds 1048576 bits"),
    (("phireg", "--phi", "expaffine:1,1e-400000"), "power of ten exceeds 1048576 bits"),
    # a parameter the record could not print
    (("phireg", "--phi", "blowup:1e5000"), "Python's limit for printing"),
    (("phireg", "--emit", "csv", "--phi", "blowup:1e5000"), "Python's limit for printing"),
    (("phireg", "--phi", "expaffine:-1e5000,0"), "Python's limit for printing"),
    (("compare", "--phi", "exp", "--phi2", "expaffine:1,1e-5000"), "Python's limit for printing"),
    (("phireg", "--phi", 'piecewise:[[0,0],["1e5000",1]]'), "Python's limit for printing"),
    (("phireg", "--phi", "blowup:inf"), "it is not finite"),
], ids=["blowup-exponent", "expaffine-exponent", "blowup-digits", "blowup-digits-csv",
        "expaffine-digits", "compare-digits", "piecewise-digits", "blowup-inf"])
def test_phi_parameters_past_the_limits_exit_1_in_one_line(tmp_path, args, message):
    res = run_cli(tmp_path, {"kind": "log", "prefix": [0, 5, 1, 3, 9]}, *args, timeout=20)
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    (line,) = res.stderr.splitlines()
    assert line.startswith("bad --phi descriptor: cannot read") and message in line


def test_phireg_axiom_violation_exits_two(runner, jumpy_file):
    res = runner.invoke(main, ["phireg", jumpy_file, "--phi", "expaffine:-1,0"])
    assert res.exit_code == 2


# -- compare -----------------------------------------------------------------------


def test_compare_keys(runner, jumpy_file):
    res = runner.invoke(main, ["compare", jumpy_file, "--phi", "exp",
                               "--phi2", "expaffine:1,1"])
    assert res.exit_code == 0
    doc = parse_line(res.stdout)
    assert set(doc) == {"larger", "ordered_ok", "convex_floor_ok",
                        "witness_index"}
    assert doc["larger"] == "phi2"
    assert doc["ordered_ok"] is True


def test_compare_crossing_pair_exits_two(runner, jumpy_file):
    res = runner.invoke(main, ["compare", jumpy_file, "--phi", "exp",
                               "--phi2", "expaffine:2,1"])
    assert res.exit_code == 2
