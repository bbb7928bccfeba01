"""Deterministic command-line front end.

Every capability of the library is reachable from one of the subcommands
{spectrum, states, gram, shoot, limit, classical, veff}.  Each subcommand
returns its parameters and its table as named columns: an ordered dict of
equal-length, non-empty lists of Python bools, ints or floats, one type per
column.
:func:`serialize` is the one place that checks finiteness and formats
numbers, as CSV (17 significant digits) or JSON, on stdout or --out.

Exit codes: 0 success, 1 computation error, 2 usage error.  A computation
error prints exactly one line on stderr, ``error: <type>: <message>``; numpy
floating-point warnings are kept off stderr while a command runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import classical, oracle, radial
from .errors import NloscError, NonFiniteValue, NotAdmissible
from .params import check_finite, domain, make_model
from .spectrum import bound_state_count, energy_dimless, is_admissible

Columns = Dict[str, list]


def _cells(column: list) -> list:
    """The CSV text of one column: true/false, integers, or 17 significant digits."""
    if isinstance(column[0], bool):
        return ["true" if v else "false" for v in column]
    if isinstance(column[0], int):
        return list(map(str, column))
    return ["%.17g" % v for v in column]


def serialize(command: str, params: dict, columns: Columns, fmt: str) -> str:
    """Render named columns as CSV (header + one line per row) or a JSON document."""
    keys = list(columns)
    bad = [k for k, col in columns.items() if isinstance(col[0], float) and not all(map(math.isfinite, col))]
    for row in zip(*(columns[k] for k in bad)):  # the first non-finite cell in row order
        for key, val in zip(bad, row):
            if not math.isfinite(val):
                raise NonFiniteValue(f"non-finite value in column '{key}'")
    if fmt == "csv":
        lines = map(",".join, zip(*map(_cells, columns.values())))
        return "\n".join([",".join(keys), *lines]) + "\n"
    doc = {"command": command, "params": params, "data": [dict(zip(keys, row)) for row in zip(*columns.values())]}
    return json.dumps(doc, indent=2) + "\n"


def _parse_grid(text: str) -> Tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be min:max:points, got '{text}'")
    lo, hi, pts = float(parts[0]), float(parts[1]), int(parts[2])
    if pts < 2:
        raise argparse.ArgumentTypeError("grid needs at least 2 points")
    if not lo < hi:
        raise argparse.ArgumentTypeError("grid needs min < max")
    return lo, hi, pts


def _default_grid(Lambda: float) -> Tuple[float, float, int]:
    if Lambda < 0:
        return 0.01, domain(Lambda).upper - 1e-9, 200
    return 0.01, 10.0, 200


def _cmd_spectrum(args) -> Tuple[dict, Columns]:
    if args.n_max < 0:
        raise ValueError(f"--n-max must be >= 0 (the highest state index), got {args.n_max}")
    count = bound_state_count(args.Lambda, args.L)
    if not count.unbounded and count.count == 0:
        raise NotAdmissible(f"no bound states for Lambda = {args.Lambda}, L = {args.L}")
    ns = list(range(args.n_max + 1))
    columns = {
        "n": ns,
        "L": [args.L] * len(ns),
        "Lambda": [args.Lambda] * len(ns),
        "e": [energy_dimless(n, args.L, args.Lambda) for n in ns],
        "admissible": [is_admissible(n, args.L, args.Lambda) for n in ns],
    }
    return {"Lambda": args.Lambda, "L": args.L, "n_max": args.n_max}, columns


def _weight_column(ys: np.ndarray, Lambda: float) -> np.ndarray:
    """``radial.weight`` on the grid, with its limit 0.0 at y = 0 (where R is defined)."""
    inner = ys != 0
    ws = np.zeros_like(ys)
    ws[inner] = radial.weight(ys[inner], Lambda)
    return ws


def _cmd_states(args) -> Tuple[dict, Columns]:
    harmonic = abs(args.Lambda) <= radial.LAMBDA_SWITCH
    # the harmonic state lives on the half-line, not on a tiny Lambda < 0 ball of radius 1/sqrt(|Lambda|)
    grid = args.grid or _default_grid(0.0 if harmonic else args.Lambda)
    ys = np.linspace(grid[0], grid[1], grid[2])
    if harmonic:  # harmonic-oscillator branch for vanishing nonlinearity
        f = oracle.ho_wavefunction(args.n, args.L)
        c = 1.0 / math.sqrt(oracle.ho_norm_sq(args.n, args.L))
        rs = c * f(ys)
        ws = _weight_column(ys, 0.0)
    else:
        state = radial.normalize(radial.build_state(args.n, args.L, args.Lambda))
        rs = radial.eval_state(state, ys)
        ws = _weight_column(ys, args.Lambda)
    params = {"Lambda": args.Lambda, "L": args.L, "n": args.n, "grid": list(grid)}
    return params, {"y": ys.tolist(), "R": rs.tolist(), "weight": ws.tolist()}


def _cmd_gram(args) -> Tuple[dict, Columns]:
    g = radial.gram_matrix(args.L, args.Lambda, args.n_max)
    i, j = np.indices(g.shape)
    params = {"Lambda": args.Lambda, "L": args.L, "n_max": args.n_max, "size": int(g.shape[0])}
    return params, {"i": i.ravel().tolist(), "j": j.ravel().tolist(), "value": g.ravel().tolist()}


def _cmd_shoot(args) -> Tuple[dict, Columns]:
    res = oracle.shoot_eigenvalue(args.Lambda, args.L, args.n, rtol=args.tol)
    e_closed = energy_dimless(args.n, args.L, args.Lambda)
    columns = {
        "n": [args.n],
        "L": [args.L],
        "Lambda": [args.Lambda],
        "e_closed": [e_closed],
        "e_shoot": [res.e_numeric],
        "abs_diff": [abs(res.e_numeric - e_closed)],
        "iterations": [res.iterations],
        "terminal_mismatch": [res.terminal_mismatch],
    }
    return {"Lambda": args.Lambda, "L": args.L, "n": args.n, "tol": args.tol}, columns


def _cmd_limit(args) -> Tuple[dict, Columns]:
    dev = oracle.limit_compare(args.n, args.L, args.Lambda)
    columns = {"n": [args.n], "L": [args.L], "Lambda": [args.Lambda], "deviation": [dev]}
    return {"Lambda": args.Lambda, "L": args.L, "n": args.n}, columns


def _cmd_classical(args) -> Tuple[dict, Columns]:
    params = make_model(args.m, args.alpha, args.Lambda, args.hbar)
    if args.mode == "1d":
        traj = classical.integrate_1d(args.x0, args.v0, params, args.t_end, args.tol, args.samples)
        arrays = {"t": traj.t, "x": traj.x, "v": traj.v, "H": traj.H}
    else:
        traj = classical.integrate_planar(args.r0, args.rdot0, args.C, params, args.t_end, args.tol, args.samples)
        arrays = {"t": traj.t, "r": traj.x, "rdot": traj.v, "theta": traj.theta, "thetadot": traj.thetadot,
                  "H": traj.H, "angmom": traj.angmom}
    meta = {
        "mode": args.mode,
        "lambda": args.Lambda,
        "m": args.m,
        "alpha": args.alpha,
        "t_end": args.t_end,
        "tol": args.tol,
    }
    return meta, {key: a.tolist() for key, a in arrays.items()}


def _cmd_veff(args) -> Tuple[dict, Columns]:
    params = make_model(args.m, args.alpha, args.Lambda, args.hbar)
    grid = args.grid or _default_grid(params.lam)
    rs = np.linspace(grid[0], grid[1], grid[2])
    vs = radial.effective_potential(rs, params, args.L)
    meta = {"lambda": args.Lambda, "L": args.L, "m": args.m, "alpha": args.alpha, "grid": list(grid)}
    return meta, {"r": rs.tolist(), "V_eff": vs.tolist()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlosc",
        description="Bound states and classical dynamics of the nonlinear oscillator "
        "with position-dependent mass.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, L=True, n=False, n_max=False, grid=False, model=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--lambda", dest="Lambda", type=float, required=True, help="nonlinearity parameter")
        if L:
            p.add_argument("--L", type=int, default=0, help="angular momentum quantum number")
        if n:
            p.add_argument("--n", type=int, required=True, help="state index")
        if n_max:
            p.add_argument("--n-max", dest="n_max", type=int, required=True, help="highest state index")
        if grid:
            p.add_argument("--grid", type=_parse_grid, default=None, help="sampling grid min:max:points")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        if model:
            for flag in ("--m", "--alpha", "--hbar"):
                p.add_argument(flag, type=float, default=1.0)
        return p

    command("spectrum", "closed-form energies and admissibility", n_max=True)
    command("states", "normalized radial eigenfunction samples", n=True, grid=True)
    command("gram", "matrix of normalized inner products", n_max=True)
    command("shoot", "independent numerical eigenvalue vs closed form", n=True).add_argument(
        "--tol", type=float, default=1e-10, help="largest relative change of the eigenvalue when the mesh is doubled"
    )
    command("limit", "deviation from the harmonic-oscillator limit", n=True)

    p_cl = command("classical", "integrate the classical equations of motion", L=False, model=True)
    p_cl.add_argument("--mode", choices=("1d", "planar"), default="1d")
    p_cl.add_argument("--x0", type=float, default=1.0)
    p_cl.add_argument("--v0", type=float, default=0.0)
    p_cl.add_argument("--r0", type=float, default=1.0)
    p_cl.add_argument("--rdot0", type=float, default=0.0)
    p_cl.add_argument("--C", type=float, default=0.5, help="angular momentum r**2*thetadot")
    p_cl.add_argument("--t-end", dest="t_end", type=float, default=10.0)
    p_cl.add_argument("--tol", type=float, default=1e-10)
    p_cl.add_argument("--samples", type=int, default=200)

    command("veff", "effective radial potential samples", grid=True, model=True)
    return parser


_DISPATCH = {
    "spectrum": _cmd_spectrum,
    "states": _cmd_states,
    "gram": _cmd_gram,
    "shoot": _cmd_shoot,
    "limit": _cmd_limit,
    "classical": _cmd_classical,
    "veff": _cmd_veff,
}


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _glue_negative_values(argv: Sequence[str]) -> List[str]:
    """Join a negative number to the long option before it: ``--lambda -1e-3``
    becomes ``--lambda=-1e-3``.  argparse takes ``-1e-3`` (or ``-inf``) after a
    space for an option, because it recognizes only the ``-1`` and ``-0.5``
    forms as negative numbers."""
    out: List[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and len(prev) > 2 and "=" not in prev and tok.startswith("-") and _is_float(tok):
            out[-1] = f"{prev}={tok}"
        else:
            out.append(tok)
    return out


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_glue_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        check_finite(Lambda=args.Lambda)
        with np.errstate(all="ignore"):
            params, columns = _DISPATCH[args.command](args)
            text = serialize(args.command, params, columns, args.format)
    except NloscError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: ValueError: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:  # an integer argument too large for a float
        print(f"error: OverflowError: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
