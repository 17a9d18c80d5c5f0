"""Seeded input corpus and invocation plans for the seqreg CLI benchmark.

``build_plan(workload, seed)`` returns a :class:`Plan`: the JSON documents
the benchmark writes to disk, and the ordered cycle of CLI invocations that
read them.  The seed decides every value in the documents; the shape of a
cycle (windows, tail kinds, grid lengths, phis, commands) is fixed per
workload, so runs on different seeds do comparable work and their timings
can be compared.  Window and grid sizes are stratified over their ranges
and visited in bit-reversed order, so any prefix of a cycle is already a
spread-out sample of the full size mix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("hull-wide", "assoc-grid", "gated-sweep", "verify-batch")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``seqreg <args> <files...>``.

    ``args`` may contain ``{d}``, replaced by the corpus directory (used by
    ``--phi piecewise:{d}/<file>``); ``files`` name documents of the plan.
    ``larger`` is the phi a ``compare`` invocation must report as larger.
    """

    label: str
    args: tuple[str, ...]
    files: tuple[str, ...]
    larger: str = ""


@dataclass
class Plan:
    workload: str
    seed: int
    docs: dict[str, object] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)


# -- number formatting ---------------------------------------------------------


def _num(x: Fraction):
    """JSON form of an exact rational: int when integral, else "p/q"."""
    x = Fraction(x)
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def _bitrev_order(n: int) -> list[int]:
    """0..n-1 in bit-reversed (van der Corput) order, any n."""
    bits = max(1, (n - 1).bit_length())
    keyed = []
    for i in range(1 << bits):
        r = int(format(i, f"0{bits}b")[::-1], 2)
        if r < n:
            keyed.append(r)
    return keyed


def _spread_order(n: int, inner: int) -> list[int]:
    """Visiting order of slots 0..n-1 where slot = inner * group + member.

    Members (the low part: input kind, command) rotate on every step;
    groups (the size strata) are visited in bit-reversed order.
    """
    groups = _bitrev_order(n // inner)
    return [inner * groups[j // inner] + j % inner for j in range(n)]


def _log_strata(lo: int, hi: int, count: int) -> list[int]:
    """count sizes at the midpoints of equal log-width strata of [lo, hi]."""
    ratio = hi / lo
    return [round(lo * ratio ** ((i + 0.5) / count)) for i in range(count)]


def _lin_strata(lo: int, hi: int, count: int) -> list[int]:
    return [lo + round((hi - lo) * (i + 0.5) / count) for i in range(count)]


# -- sequence generators (all exact rationals unless a tail rule says otherwise)


_STANDARD = {"regime": "standard", "source": "declared"}


def rough_standard(rng: random.Random, n: int, declare: bool, noise: int = 80) -> dict:
    """Explicit log sequence: p^2/4 plus noise in [-noise/8, noise/8] (standard regime)."""
    vals = [Fraction(p * p, 4) + Fraction(rng.randint(-noise, noise), 8) for p in range(n)]
    doc = {"kind": "log", "prefix": [_num(v) for v in vals],
           "tail": {"type": "explicit_only"}}
    if declare:
        doc["declared_regime"] = dict(_STANDARD, evidence_window=[0, n])
    return doc


def jumpy_standard(rng: random.Random, n: int) -> dict:
    """Rough quadratic trend with a deep dip every 8th index: gated runs get jumps."""
    vals = []
    for p in range(n):
        v = Fraction(p * p, 4) + Fraction(rng.randint(-40, 40), 8)
        if p % 8 == 5:
            v -= rng.randint(20, 40)
        vals.append(v)
    return {"kind": "log", "prefix": [_num(v) for v in vals],
            "tail": {"type": "explicit_only"},
            "declared_regime": dict(_STANDARD, evidence_window=[0, n])}


def case2_explicit(rng: random.Random, n: int, cap: int, depth: int = 20) -> dict:
    """Explicit log sequence with a_p / p rising to a declared cap a_iota."""
    vals = [cap * p - Fraction(depth * p, p + 5) + Fraction(rng.randint(0, 24), 8)
            for p in range(n)]
    vals[0] = Fraction(0)
    return {"kind": "log", "prefix": [_num(v) for v in vals],
            "tail": {"type": "explicit_only"},
            "declared_regime": {"regime": "case2", "a_iota": cap, "source": "declared",
                                "evidence_window": [0, n]}}


def factorial_tail_log(rng: random.Random, s: Fraction, c: Fraction, k: int = 6) -> dict:
    """Rough log prefix of length k followed by log(c (p!)^s)."""
    prefix = [Fraction(0)]
    for p in range(1, k):
        base = float(s) * math.lgamma(p + 1) + math.log(float(c))
        prefix.append(Fraction(round(base * 8) + rng.randint(0, 16), 8))
    return {"kind": "log", "prefix": [_num(v) for v in prefix],
            "tail": {"type": "factorial_power", "s": _num(s), "c": _num(c)}}


def geometric_tail_log(rng: random.Random, n: int, d: Fraction) -> dict:
    """Rough log prefix above the line p log d, then the geometric tail (case 2)."""
    ld = math.log(float(d))
    k = max(4, n // 2)
    prefix = [Fraction(0)]
    for p in range(1, k):
        prefix.append(Fraction(round(p * ld * 8) + rng.randint(0, 40), 8))
    return {"kind": "log", "prefix": [_num(v) for v in prefix],
            "tail": {"type": "geometric", "d": _num(d)}}


def affine_tail_log(rng: random.Random, n: int, c: Fraction) -> dict:
    """Rough log prefix above the line c p, then the affine_log tail a_p = c p (case 2).

    The exact counterpart of a geometric tail with d = e^c: every value is
    rational, where the geometric rule gives float logarithms.
    """
    k = max(4, n // 2)
    prefix = [Fraction(0)] + [c * p + Fraction(rng.randint(0, 40), 8) for p in range(1, k)]
    return {"kind": "log", "prefix": [_num(v) for v in prefix],
            "tail": {"type": "affine_log", "c": _num(c)}}


def factorial_weight(s: int, c: Fraction) -> dict:
    return {"kind": "weight", "prefix": [_num(c)],
            "tail": {"type": "factorial_power", "s": s, "c": _num(c)}}


def geometric_weight(d: Fraction) -> dict:
    return {"kind": "weight", "prefix": [1], "tail": {"type": "geometric", "d": _num(d)}}


def logconvex_weight(rng: random.Random, n: int) -> dict:
    """Explicit weights with non-decreasing rational quotients (log-convex)."""
    mu = Fraction(rng.randint(2, 5), 4)
    m = Fraction(rng.randint(1, 3))
    vals = [m]
    for _ in range(1, n):
        m *= mu
        vals.append(m)
        mu += Fraction(rng.randint(0, 8), 4)
    return {"kind": "weight", "prefix": [_num(v) for v in vals],
            "tail": {"type": "explicit_only"}}


def piecewise_knots(rng: random.Random, scale: int) -> list:
    """Knots [[x, v], ...] of an admissible piecewise-linear phi: three
    segments of slope about scale/2, scale and 2 scale, jittered."""
    x, v = Fraction(-2) + Fraction(rng.randint(-2, 2), 8), Fraction(0)
    knots = [[_num(x), 0]]
    for slope in (Fraction(scale, 2), Fraction(scale), Fraction(2 * scale)):
        dx = 2 + Fraction(rng.randint(-2, 2), 8)
        x, v = x + dx, v + slope * dx
        knots.append([_num(x), _num(v)])
    return knots


# -- workload plans ------------------------------------------------------------


def _hull_wide(plan: Plan, rng: random.Random) -> None:
    # 104 log-uniform windows in [64, 512], one invocation each: the cost
    # grows like the window squared, so fewer distinct windows would leave
    # gaps in the latency distribution that make its median jump.  Stratum s = 4 t + k runs input
    # kind k with command commands[t] and shape parameter t mod 4, so every
    # (kind, command) pair and every shape spreads over the whole range.
    # classify is cheap: at one call in six, the median latency falls among
    # the hull computations rather than at the edge of the cheap calls.
    windows = _log_strata(64, 512, 104)
    caps = (2, 3, 4, 5)
    factorial = ((1, 1), (2, 2), (Fraction(3, 2), Fraction(1, 2)), (1, 3))
    ratios = (2, 3, Fraction(5, 2), Fraction(3, 2))
    # a_p = c p with c near log d of the ratios above
    slopes = (Fraction(7, 10), Fraction(11, 10), Fraction(9, 10), Fraction(2, 5))
    kinds = ("rough", "case2", "factorial", "geometric")
    commands = ("minorant", "trace", "minorant", "trace", "classify", "minorant", "trace",
                "minorant", "trace", "classify", "minorant", "trace", "minorant") * 2
    for slot in _spread_order(104, 4):
        w = windows[slot]
        t, k = divmod(slot, 4)
        kind, cmd, shape = kinds[k], commands[t], t % 4
        if kind == "geometric" and cmd != "classify":
            # minorant and trace raise on float geometric tails ("breakpoints
            # must be strictly increasing"); they get the exact affine_log
            # tail of the same growth instead
            kind = "affine"
        name = f"hull_{slot:02d}_{kind}.json"
        if kind == "rough":
            doc = rough_standard(rng, w, declare=shape % 2 == 0)
        elif kind == "case2":
            doc = case2_explicit(rng, w, caps[shape])
        elif kind == "factorial":
            doc = factorial_tail_log(rng, *factorial[shape])
        elif kind == "affine":
            doc = affine_tail_log(rng, w, slopes[shape])
        else:
            doc = geometric_tail_log(rng, w, ratios[shape])
        plan.docs[name] = doc
        plan.ops.append(Op(f"{cmd}/{kind}/w{w}", (cmd, "--window", str(w)), (name,)))


def _assoc_grid(plan: Plan, rng: random.Random) -> None:
    # window 64; three log-convex families x {linear, log} grid x {csv, json};
    # grid lengths stratified over 10..40.
    families = ("factorial", "geometric", "logconvex")
    lengths = _lin_strata(10, 40, 12)
    order = _bitrev_order(12)
    for j, slot in enumerate(order):
        family = families[j % 3]
        gridkind = ("grid", "loggrid")[(j // 3) % 2]
        emit = ("csv", "json")[(j // 6) % 2]
        count = lengths[slot]
        name = f"assoc_{j:02d}_{family}.json"
        shape = j // 3
        if family == "factorial":
            doc = factorial_weight((1, 2)[shape % 2], (1, 2, Fraction(1, 2), 3)[shape])
            stop = 24
        elif family == "geometric":
            doc = geometric_weight((2, 3, Fraction(5, 2), Fraction(7, 2))[shape])
            stop = 6
        else:
            doc = logconvex_weight(rng, 64)
            stop = 32
        plan.docs[name] = doc
        if gridkind == "grid":
            spec = ("--grid", f"0:{stop}:{Fraction(stop, count - 1)}")
        else:
            spec = ("--loggrid", f"1/8:{stop}:{count}")
        args = ("assoc", "--window", "64", *spec, "--emit", emit)
        plan.ops.append(Op(f"assoc/{family}/{gridkind}/{emit}/n{count}", args, (name,)))


def _gated_sweep(plan: Plan, rng: random.Random) -> None:
    # 104 log-uniform windows in [64, 256], one invocation each; rough and
    # jumpy inputs alternate; phireg --emit json, phireg --emit csv and
    # compare rotate, each cycling through its phis.
    windows = _log_strata(64, 256, 104)
    for i in range(4):
        plan.docs[f"knots_{i}.json"] = piecewise_knots(rng, 2 + 2 * i)
    phis = ("exp", "expaffine:1,1", "blowup:12", "piecewise:{d}/knots_0.json",
            "exp", "expaffine:2,-1", "blowup:30", "piecewise:{d}/knots_1.json",
            "exp", "expaffine:3,2", "blowup:20", "piecewise:{d}/knots_2.json",
            "exp", "expaffine:1,-2", "blowup:8", "piecewise:{d}/knots_3.json")
    # (phi, phi2, the one that dominates)
    pairs = (("exp", "expaffine:1,1", "phi2"),
             ("expaffine:2,0", "expaffine:2,1", "phi2"),
             ("blowup:10", "blowup:30", "phi1"),
             ("exp", "expaffine:1,2", "phi2"),
             ("expaffine:2,-1", "expaffine:2,2", "phi2"),
             ("blowup:6", "blowup:24", "phi1"))
    for slot in _spread_order(104, 2):
        w = windows[slot]
        kind = ("rough", "jumpy")[slot % 2]
        group = slot // 2
        mode = group % 3
        name = f"gated_{slot:02d}_{kind}.json"
        if kind == "rough":
            plan.docs[name] = rough_standard(rng, w, declare=True)
        else:
            plan.docs[name] = jumpy_standard(rng, w)
        larger = ""
        if mode == 2:
            phi1, phi2, larger = pairs[(group // 3 + slot) % len(pairs)]
            args = ("compare", "--window", str(w), "--phi", phi1, "--phi2", phi2)
            label = f"compare/{phi1.split(':')[0]}/{kind}/w{w}"
        else:
            phi = phis[(group + slot) % len(phis)]
            emit = ("json", "csv")[mode]
            args = ("phireg", "--window", str(w), "--phi", phi, "--emit", emit)
            label = f"phireg-{emit}/{phi.split(':')[0]}/{kind}/w{w}"
        plan.ops.append(Op(label, args, (name,), larger))


def _verify_batch(plan: Plan, rng: random.Random) -> None:
    # many small inputs (n = 8..20), two files per invocation, every command
    # with --verify.  The inputs carry little noise, so the sweep oracle's
    # slope grid (set by the spread of the differences) has about the same
    # size on every seed.
    sizes = _lin_strata(8, 20, 32)
    commands = ("minorant", "trace", "assoc", "phireg")
    phis = ("exp", "infinite")
    for slot in _spread_order(32, 4):
        cmd = commands[slot % 4]
        files = []
        for k, stratum in enumerate((slot, (7 * slot + 5) % 32)):
            n = sizes[stratum]
            name = f"vb_{slot:02d}_{k}.json"
            if cmd == "assoc":
                plan.docs[name] = logconvex_weight(rng, n)
            else:
                plan.docs[name] = rough_standard(rng, n, declare=True, noise=16)
            files.append(name)
        args: tuple[str, ...] = (cmd, "--verify")
        if cmd == "assoc":
            args += ("--grid", f"0:{4 + slot % 8}:1/2")
        elif cmd == "phireg":
            args += ("--phi", phis[(slot // 4) % 2])
        sizes_label = "+".join(str(len(plan.docs[f]["prefix"])) for f in files)
        plan.ops.append(Op(f"{cmd}-verify/n{sizes_label}", args, tuple(files)))


_BUILDERS = {
    "hull-wide": _hull_wide,
    "assoc-grid": _assoc_grid,
    "gated-sweep": _gated_sweep,
    "verify-batch": _verify_batch,
}


def build_plan(workload: str, seed: int) -> Plan:
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    plan = Plan(workload, seed)
    _BUILDERS[workload](plan, random.Random(f"{workload}:{seed}"))
    return plan
