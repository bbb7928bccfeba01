"""Deterministic command-line front end.

Every capability of the library is reachable from one of the subcommands
{spectrum, states, gram, shoot, limit, classical, veff}.  Output is CSV (17
significant digits) or JSON on stdout or --out; exit codes: 0 success, 1
computation error (one-line message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import classical, oracle, radial, spectrum
from .errors import NloscError, NonFiniteValue, NotAdmissible
from .params import domain, make_model
from .spectrum import bound_state_count, energy_dimless, is_admissible


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _check_finite(rows: List[dict]) -> None:
    for row in rows:
        for key, val in row.items():
            if isinstance(val, (float, np.floating)) and not math.isfinite(val):
                raise NonFiniteValue(f"non-finite value in column '{key}'")


def serialize(command: str, params: dict, rows: List[dict], fmt: str) -> str:
    """Render rows as CSV (header + data) or a JSON document."""
    _check_finite(rows)
    if fmt == "csv":
        if not rows:
            return ""
        header = ",".join(rows[0].keys())
        lines = [header]
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row.values()))
        return "\n".join(lines) + "\n"
    doc = {"command": command, "params": params, "data": rows}
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


def _cmd_spectrum(args) -> Tuple[dict, List[dict]]:
    if args.n_max < 0:
        raise ValueError(f"--n-max must be >= 0 (the highest state index), got {args.n_max}")
    count = bound_state_count(args.Lambda, args.L)
    if not count.unbounded and count.count == 0:
        raise NotAdmissible(f"no bound states for Lambda = {args.Lambda}, L = {args.L}")
    rows = []
    for n in range(args.n_max + 1):
        rows.append(
            {
                "n": n,
                "L": args.L,
                "Lambda": args.Lambda,
                "e": energy_dimless(n, args.L, args.Lambda),
                "admissible": is_admissible(n, args.L, args.Lambda),
            }
        )
    return {"Lambda": args.Lambda, "L": args.L, "n_max": args.n_max}, rows


def _cmd_states(args) -> Tuple[dict, List[dict]]:
    grid = args.grid or _default_grid(args.Lambda)
    ys = np.linspace(grid[0], grid[1], grid[2])
    if abs(args.Lambda) <= radial.LAMBDA_SWITCH:
        # harmonic-oscillator branch for vanishing nonlinearity
        f = oracle.ho_wavefunction(args.n, args.L)
        c = 1.0 / math.sqrt(oracle.ho_norm_sq(args.n, args.L))
        rs = c * f(ys)
        ws = radial.weight(ys, 0.0)
    else:
        state = radial.normalize(radial.build_state(args.n, args.L, args.Lambda))
        rs = radial.eval_state(state, ys)
        ws = radial.weight(ys, args.Lambda)
    rows = [{"y": float(y), "R": float(r), "weight": float(w)} for y, r, w in zip(ys, rs, ws)]
    params = {"Lambda": args.Lambda, "L": args.L, "n": args.n, "grid": list(grid)}
    return params, rows


def _cmd_gram(args) -> Tuple[dict, List[dict]]:
    g = radial.gram_matrix(args.L, args.Lambda, args.n_max)
    rows = []
    for i in range(g.shape[0]):
        for j in range(g.shape[1]):
            rows.append({"i": i, "j": j, "value": float(g[i, j])})
    params = {"Lambda": args.Lambda, "L": args.L, "n_max": args.n_max, "size": int(g.shape[0])}
    return params, rows


def _cmd_shoot(args) -> Tuple[dict, List[dict]]:
    res = oracle.shoot_eigenvalue(args.Lambda, args.L, args.n, rtol=args.tol)
    e_closed = energy_dimless(args.n, args.L, args.Lambda)
    rows = [
        {
            "n": args.n,
            "L": args.L,
            "Lambda": args.Lambda,
            "e_closed": e_closed,
            "e_shoot": res.e_numeric,
            "abs_diff": abs(res.e_numeric - e_closed),
            "iterations": res.iterations,
            "terminal_mismatch": res.terminal_mismatch,
        }
    ]
    return {"Lambda": args.Lambda, "L": args.L, "n": args.n, "tol": args.tol}, rows


def _cmd_limit(args) -> Tuple[dict, List[dict]]:
    dev = oracle.limit_compare(args.n, args.L, args.Lambda)
    rows = [{"n": args.n, "L": args.L, "Lambda": args.Lambda, "deviation": dev}]
    return {"Lambda": args.Lambda, "L": args.L, "n": args.n}, rows


def _cmd_classical(args) -> Tuple[dict, List[dict]]:
    params = make_model(args.m, args.alpha, args.Lambda, args.hbar)
    if args.mode == "1d":
        traj = classical.integrate_1d(args.x0, args.v0, params, args.t_end, args.tol, args.samples)
        rows = [
            {"t": float(t), "x": float(x), "v": float(v), "H": float(h)}
            for t, x, v, h in zip(traj.t, traj.x, traj.v, traj.H)
        ]
    else:
        traj = classical.integrate_planar(args.r0, args.rdot0, args.C, params, args.t_end, args.tol, args.samples)
        rows = [
            {
                "t": float(t),
                "r": float(r),
                "rdot": float(rd),
                "theta": float(th),
                "thetadot": float(td),
                "H": float(h),
                "angmom": float(am),
            }
            for t, r, rd, th, td, h, am in zip(
                traj.t, traj.x, traj.v, traj.theta, traj.thetadot, traj.H, traj.angmom
            )
        ]
    meta = {
        "mode": args.mode,
        "lambda": args.Lambda,
        "m": args.m,
        "alpha": args.alpha,
        "t_end": args.t_end,
        "tol": args.tol,
    }
    return meta, rows


def _cmd_veff(args) -> Tuple[dict, List[dict]]:
    params = make_model(args.m, args.alpha, args.Lambda, args.hbar)
    grid = args.grid or _default_grid(params.lam)
    rs = np.linspace(grid[0], grid[1], grid[2])
    vs = radial.effective_potential(rs, params, args.L)
    rows = [{"r": float(r), "V_eff": float(v)} for r, v in zip(rs, vs)]
    meta = {"lambda": args.Lambda, "L": args.L, "m": args.m, "alpha": args.alpha, "grid": list(grid)}
    return meta, rows


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlosc",
        description="Bound states and classical dynamics of the nonlinear oscillator "
        "with position-dependent mass.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_n=False, need_nmax=False, grid=False):
        p.add_argument("--lambda", dest="Lambda", type=float, required=True, help="nonlinearity parameter")
        p.add_argument("--L", type=int, default=0, help="angular momentum quantum number")
        if need_n:
            p.add_argument("--n", type=int, required=True, help="state index")
        if need_nmax:
            p.add_argument("--n-max", dest="n_max", type=int, required=True, help="highest state index")
        if grid:
            p.add_argument("--grid", type=_parse_grid, default=None, help="sampling grid min:max:points")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")

    common(sub.add_parser("spectrum", help="closed-form energies and admissibility"), need_nmax=True)
    common(sub.add_parser("states", help="normalized radial eigenfunction samples"), need_n=True, grid=True)
    common(sub.add_parser("gram", help="matrix of normalized inner products"), need_nmax=True)
    p_shoot = sub.add_parser("shoot", help="independent numerical eigenvalue vs closed form")
    common(p_shoot, need_n=True)
    p_shoot.add_argument(
        "--tol", type=float, default=1e-10, help="largest relative change of the eigenvalue when the mesh is doubled"
    )
    common(sub.add_parser("limit", help="deviation from the harmonic-oscillator limit"), need_n=True)

    p_cl = sub.add_parser("classical", help="integrate the classical equations of motion")
    p_cl.add_argument("--mode", choices=("1d", "planar"), default="1d")
    p_cl.add_argument("--lambda", dest="Lambda", type=float, required=True, help="nonlinearity parameter")
    p_cl.add_argument("--m", type=float, default=1.0)
    p_cl.add_argument("--alpha", type=float, default=1.0)
    p_cl.add_argument("--hbar", type=float, default=1.0)
    p_cl.add_argument("--x0", type=float, default=1.0)
    p_cl.add_argument("--v0", type=float, default=0.0)
    p_cl.add_argument("--r0", type=float, default=1.0)
    p_cl.add_argument("--rdot0", type=float, default=0.0)
    p_cl.add_argument("--C", type=float, default=0.5, help="angular momentum r**2*thetadot")
    p_cl.add_argument("--t-end", dest="t_end", type=float, default=10.0)
    p_cl.add_argument("--tol", type=float, default=1e-10)
    p_cl.add_argument("--samples", type=int, default=200)
    p_cl.add_argument("--format", choices=("csv", "json"), default="csv")
    p_cl.add_argument("--out", default=None)

    p_v = sub.add_parser("veff", help="effective radial potential samples")
    common(p_v, grid=True)
    p_v.add_argument("--m", type=float, default=1.0)
    p_v.add_argument("--alpha", type=float, default=1.0)
    p_v.add_argument("--hbar", type=float, default=1.0)
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
        params, rows = _DISPATCH[args.command](args)
        text = serialize(args.command, params, rows, args.format)
    except NloscError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: ValueError: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run())
