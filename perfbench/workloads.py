"""Seeded workloads of the nlosc benchmark.

Each workload turns a seed into a list of cases, one list per sweep.  A case
is one user-facing op (one ``shoot_eigenvalue``, one ``gram_matrix`` or one
CLI command in a fresh process) plus the check its output must pass.  The
strata and the number of cases per stratum are fixed; the seed draws values
only inside each cell of the design, so the cost of a sweep stays comparable
across seeds while the inputs differ.

The checks use closed forms written out here, not the package's own
functions, so an op is never checked by the code path it exercises.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

# The acceptance gates of the package (README, tests/test_acceptance.py).
EIGENVALUE_GATE = 1e-6
GRAM_GATE = 1e-8
HARMONIC_LIMIT_GATE = 1.5e-2

CLI_TIMEOUT_S = 60.0


class CheckFailed(Exception):
    """An op returned, but its output failed the workload's check."""


@dataclass
class Case:
    stratum: str
    params: dict
    argv: list = field(default_factory=list)  # CLI arguments, cli_tabulate only


def energy(n, L, lam):
    """Closed-form dimensionless energy e(n, L) of the radial problem."""
    return -2.0 * lam * n * n - 2.0 * L * lam * n - 2.0 * lam * n - L * lam / 2.0 + 2.0 * n + L + 1.5


def admissible(n, L, lam):
    return lam <= 0 or lam * (2 * n + 1 + L) < 1.0


def state_count(lam, L):
    """Number of admissible n for lam > 0."""
    return max(0, math.ceil((1.0 / lam - 1.0 - L) / 2.0))


# --------------------------------------------------------------------------
# oracle_sweep: shoot_eigenvalue at its default rtol against the closed form

# Four cells per stratum, each L in 0..3 once per stratum.  A cell fixes L, n
# (or the top admissible n) and a Lambda interval; the seed draws Lambda
# uniformly inside it.  The seven cells whose ops verify were chosen by their
# RK45 step count, which does not depend on the machine: five take 36,000-
# 39,000 steps per op, the other two about 34,000 and 42,000 (2.3-3.2 s at the
# seed commit on a 2-CPU Xeon).  The median of the seven verified op times
# then falls on one of five cells of nearly equal cost, so it follows the
# machine's speed and not which cell the seed made cheapest.  Each cell's
# interval keeps its outcome (pass, gate miss or BracketInvalid) the same
# over the whole interval.  The second stratum stops at -0.29 and the
# Lambda > 0 strata start at 0.06: closer to 0 one shoot costs 5-25 s (the
# domain grows as 1/sqrt(|Lambda|), or the power-law tail flattens), which
# would leave a run with a handful of ops.  The failing cells are the known
# oracle defects (endpoint bias for Lambda < -1; cutoff bias and the collapsed
# bracket for the highest states at Lambda > 0) and stay in the draw.
ORACLE_CELLS = [
    # stratum, L, n (or "top"), (Lambda lo, Lambda hi)
    ("lambda<-1", 0, 3, (-3.0, -2.6)),
    ("lambda<-1", 1, 2, (-2.5, -2.1)),
    ("lambda<-1", 2, 0, (-1.3, -1.0)),
    ("lambda<-1", 3, 1, (-2.0, -1.8)),
    ("-1<=lambda<0", 0, 3, (-0.32, -0.30)),
    ("-1<=lambda<0", 1, 2, (-0.31, -0.29)),
    ("-1<=lambda<0", 2, 1, (-0.65, -0.55)),
    ("-1<=lambda<0", 3, 0, (-1.0, -0.8)),
    ("lambda>0 interior n", 0, 6, (0.060, 0.065)),
    ("lambda>0 interior n", 1, 4, (0.080, 0.083)),
    ("lambda>0 interior n", 2, 0, (0.100, 0.120)),
    ("lambda>0 interior n", 3, 0, (0.140, 0.160)),
    ("lambda>0 top n", 0, "top", (0.120, 0.123)),
    ("lambda>0 top n", 1, "top", (0.400, 0.460)),
    ("lambda>0 top n", 2, "top", (0.079, 0.082)),
    ("lambda>0 top n", 3, "top", (0.1005, 0.104)),
]

# Strata whose failures are the known oracle defects listed in ROADMAP.md.
# Their failures are counted in `failed` like any other; a failure anywhere
# else marks the run incorrect.
KNOWN_DEFECT_STRATA = {"lambda<-1", "lambda>0 interior n", "lambda>0 top n"}


def oracle_cases(rng):
    """One sweep, the strata interleaved (one cell of each in turn), so the
    verified ops are spread over the run instead of bunched in two stretches."""
    cases = []
    for stratum, L, n, (lo, hi) in ORACLE_CELLS:
        lam = rng.uniform(lo, hi)
        if n == "top":
            n = state_count(lam, L) - 1
        cases.append(Case(stratum, {"Lambda": lam, "L": L, "n": n}))
    return [case for j in range(4) for case in cases[j::4]]


def oracle_op(nlosc, case):
    p = case.params
    return nlosc.shoot_eigenvalue(p["Lambda"], p["L"], p["n"])


def oracle_check(case, result):
    p = case.params
    err = abs(result.e_numeric - energy(p["n"], p["L"], p["Lambda"]))
    if not err < EIGENVALUE_GATE:
        raise CheckFailed(f"|e_numeric - e_closed| = {err:.3g} >= {EIGENVALUE_GATE}")


# --------------------------------------------------------------------------
# gram_exact: exact-rational Gram matrices, no ODE kernel

# Half the cells at Lambda < 0, half at small Lambda > 0.  For Lambda > 0 the
# interval keeps n_max + 1 admissible states, so the matrix size is fixed by
# the cell and the seed moves only the exact rational Lambda.  n_max is
# chosen per cell so that every op costs about the same (0.35-0.6 s at the
# seed commit on a 2-CPU Xeon); cost grows roughly as n_max**4.5, and with
# mixed sizes the median op time would sit in the gap between two sizes.
GRAM_CELLS = [
    # stratum, L, n_max, (Lambda lo, Lambda hi)
    ("lambda<0", 0, 16, (-1.0, -0.5)),
    ("lambda<0", 1, 16, (-2.0, -1.0)),
    ("lambda<0", 2, 15, (-0.5, -0.2)),
    ("lambda<0", 3, 15, (-0.2, -0.05)),
    ("lambda>0", 0, 13, (0.010, 0.020)),
    ("lambda>0", 1, 12, (0.015, 0.025)),
    ("lambda>0", 2, 12, (0.015, 0.025)),
    ("lambda>0", 3, 12, (0.020, 0.028)),
]


def gram_cases(rng):
    return [
        Case(stratum, {"L": L, "Lambda": rng.uniform(lo, hi), "n_max": n_max})
        for stratum, L, n_max, (lo, hi) in GRAM_CELLS
    ]


def gram_op(nlosc, case):
    p = case.params
    return nlosc.gram_matrix(p["L"], p["Lambda"], p["n_max"])


def gram_check(case, g):
    p = case.params
    size = p["n_max"] + 1
    if p["Lambda"] > 0:
        size = min(size, state_count(p["Lambda"], p["L"]))
    if np.shape(g) != (size, size):
        raise CheckFailed(f"shape {np.shape(g)}, expected ({size}, {size})")
    dev = float(np.max(np.abs(np.asarray(g) - np.eye(size))))
    if not dev < GRAM_GATE:
        raise CheckFailed(f"max|G - I| = {dev:.3g} >= {GRAM_GATE}")


# --------------------------------------------------------------------------
# cli_tabulate: one fresh process per command

CLI_ENTRY = "from nlosc.cli import main; main()"


def _grid(lo, hi, pts):
    return f"{lo!r}:{hi!r}:{pts}"


def cli_cases(rng):
    """One round: every subcommand once, classical in both modes."""
    cases = []

    L = rng.randrange(4)
    lam = rng.uniform(-2.0, 0.2)
    cases.append(Case("spectrum", {"Lambda": lam, "L": L, "n_max": 400},
                      ["spectrum", "--lambda", repr(lam), "--L", str(L), "--n-max", "400"]))

    L, n = rng.randrange(4), rng.randrange(5)
    # Lambda ranges where the trapezoid rule on the grid is good to 1e-4:
    # below -0.7 the weight's endpoint singularity and above 0.045 the slow
    # tail beyond the grid make the check itself miss by more
    if rng.random() < 0.5:
        lam = rng.uniform(-0.7, -0.1)
        hi = math.sqrt(-1.0 / lam) * (1.0 - 1e-9)
    else:
        lam = rng.uniform(0.02, 0.045)
        hi = 20.0
    cases.append(Case("states", {"Lambda": lam},
                      ["states", "--lambda", repr(lam), "--L", str(L), "--n", str(n), "--grid", _grid(1e-3, hi, 4001)]))

    L = rng.randrange(4)
    lam, m, alpha = rng.uniform(-1.0, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    r_hi = 0.95 / math.sqrt(-lam) if lam < 0 else 5.0
    cases.append(Case("veff", {"lam": lam, "L": L, "m": m, "alpha": alpha},
                      ["veff", "--lambda", repr(lam), "--L", str(L), "--m", repr(m), "--alpha", repr(alpha),
                       "--grid", _grid(0.05, r_hi, 4000)]))

    L, n = rng.randrange(3), rng.randrange(3)
    lam = rng.choice((-1.0, 1.0)) * rng.uniform(5e-4, 1e-3)
    cases.append(Case("limit", {},
                      ["limit", "--lambda", repr(lam), "--L", str(L), "--n", str(n)]))

    lam, m, alpha = rng.uniform(0.3, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    x0, v0, t_end = rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0), rng.uniform(150.0, 250.0)
    cases.append(Case("classical 1d", {"lam": lam, "m": m, "alpha": alpha},
                      ["classical", "--mode", "1d", "--lambda", repr(lam), "--m", repr(m), "--alpha", repr(alpha),
                       "--x0", repr(x0), "--v0", repr(v0), "--t-end", repr(t_end), "--samples", "4000"]))

    lam, m, alpha = rng.uniform(0.3, 2.0), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    r0, rdot0, C = rng.uniform(0.8, 1.5), rng.uniform(-0.5, 0.5), rng.uniform(0.5, 1.5)
    t_end = rng.uniform(100.0, 200.0)
    cases.append(Case("classical planar", {"lam": lam, "m": m, "alpha": alpha},
                      ["classical", "--mode", "planar", "--lambda", repr(lam), "--m", repr(m),
                       "--alpha", repr(alpha), "--r0", repr(r0), "--rdot0", repr(rdot0), "--C", repr(C),
                       "--t-end", repr(t_end), "--samples", "4000"]))
    return cases


class ChildFailed(Exception):
    """A CLI command exited with a nonzero code; ``kind`` names the error."""

    def __init__(self, kind, message):
        super().__init__(message)
        self.kind = kind


@dataclass
class CliResult:
    stdout: str
    spans: list


def cli_op(env, out_dir, case, traced):
    """Run one command in a fresh interpreter; return its output and spans.

    Untraced, the child is the ``nlosc`` console-script entry point.  Traced,
    it is ``cli_child.py``, which installs the tracer and writes its spans to
    a file.
    """
    spans_path = os.path.join(out_dir, f"spans-child-{os.getpid()}.json")
    if traced:
        child = [os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py"), spans_path]
    else:
        child = ["-c", CLI_ENTRY]
    proc = subprocess.run([sys.executable, *child, *case.argv], env=env, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        kind = last[0].split(":")[1].strip() if last[0].startswith("error:") else f"Exit{proc.returncode}"
        raise ChildFailed(kind, last[0])
    spans = []
    if traced:
        with open(spans_path) as fh:
            spans = json.load(fh)
        os.remove(spans_path)
    return CliResult(proc.stdout, spans)


def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def _col(rows, key):
    return np.array([float(r[key]) for r in rows])


def _close(got, want, rtol, what):
    dev = float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))
    if not dev < rtol:
        raise CheckFailed(f"{what}: relative deviation {dev:.3g} >= {rtol}")


def _spread(values, rtol, what):
    dev = float(np.max(np.abs(values - values[0])) / max(abs(values[0]), 1e-300))
    if not dev < rtol:
        raise CheckFailed(f"{what} spread {dev:.3g} >= {rtol}")


def cli_check(case, result):
    rows = _rows(result.stdout)
    if not rows:
        raise CheckFailed("no rows")
    p = case.params
    kind = case.stratum
    if kind == "spectrum":
        ns = _col(rows, "n").astype(int)
        if list(ns) != list(range(p["n_max"] + 1)):
            raise CheckFailed("rows do not cover n = 0..n_max")
        _close(_col(rows, "e"), np.array([energy(n, p["L"], p["Lambda"]) for n in ns]), 1e-13, "energy")
        want = [admissible(n, p["L"], p["Lambda"]) for n in ns]
        if [r["admissible"] == "true" for r in rows] != want:
            raise CheckFailed("admissibility differs from lambda*(2n+1+L) < 1")
    elif kind == "states":
        y, R, w = _col(rows, "y"), _col(rows, "R"), _col(rows, "weight")
        mu = y * y / np.sqrt(p["Lambda"] * y * y + 1.0)
        _close(w, mu, 1e-13, "weight")
        norm = float(np.sum(0.5 * (R[1:] ** 2 * mu[1:] + R[:-1] ** 2 * mu[:-1]) * np.diff(y)))
        if not abs(norm - 1.0) < 1e-4:
            raise CheckFailed(f"trapezoid weighted norm {norm:.8f}, expected 1")
        if not R[0] > 0:
            raise CheckFailed(f"R = {R[0]} <= 0 near y = 0")
    elif kind == "veff":
        r = _col(rows, "r")
        w = p["lam"] * r * r + 1.0
        want = 0.5 * p["m"] * p["alpha"] ** 2 * r * r / w + p["L"] * (p["L"] + 1) * w / (2.0 * p["m"] * r * r)
        _close(_col(rows, "V_eff"), want, 1e-13, "V_eff")
    elif kind == "limit":
        dev = float(rows[0]["deviation"])
        if not 0.0 < dev < HARMONIC_LIMIT_GATE:
            raise CheckFailed(f"harmonic-limit deviation {dev:.3g} outside (0, {HARMONIC_LIMIT_GATE})")
    elif kind == "classical 1d":
        x, v = _col(rows, "x"), _col(rows, "v")
        w = p["lam"] * x * x + 1.0
        _spread(0.5 * p["m"] * (v * v + p["alpha"] ** 2 * x * x) / w, 1e-6, "H")
    else:
        r, rd, td = _col(rows, "r"), _col(rows, "rdot"), _col(rows, "thetadot")
        w = p["lam"] * r * r + 1.0
        _spread(0.5 * p["m"] * (rd * rd + (r * td) ** 2 + p["alpha"] ** 2 * r * r) / w, 1e-6, "H")
        _spread(r * r * td, 1e-9, "angmom")
