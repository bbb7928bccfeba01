"""Benchmark of nlosc: seeded workloads, end-to-end metrics, traced layer metrics.

Run from the repository root (the directory that holds ``src/nlosc``)::

    python3 perfbench/run.py --workload oracle_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--workload`` takes one name, a comma-separated list or ``all``.  One
process on one thread issues the ops in a closed loop: each op starts after
the previous one returns.  A run repeats whole sweeps of the workload's cases
and starts another sweep only while it fits in ``--seconds``; the first sweep
always runs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each case
twice, once plain and once with the layer tracer installed (alternating which
goes first), and prints the per-layer metrics and the tracing overhead
(traced minus plain).  Spans are written to ``.perfbench_out/`` when the run
ends.  The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it, starting with
``report``, holds the machine facts, per-stratum failures and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

import workloads as wl
from tracing import Tracer, layer_metrics

SETUP_SAMPLES = 4  # timed imports on each side of the measured loop
TAIL_MIN_OPS = 50  # the tail percentile must be at least p80
OUT_DIR = ".perfbench_out"


@dataclass
class Workload:
    cases: Callable  # rng -> list of Case, one sweep
    op: Callable  # (case, traced) -> output
    check: Callable  # (case, output) -> None, raises CheckFailed
    warmup: Optional[Callable]  # untimed call before the first op
    known_defects: frozenset = frozenset()


@dataclass
class Record:
    stratum: str
    subcommand: Optional[str]
    wall: float
    error: Optional[str] = None
    message: str = ""


def build_workloads(nlosc, env, out_dir):
    return {
        "oracle_sweep": Workload(
            wl.oracle_cases,
            lambda case, traced: wl.oracle_op(nlosc, case),
            wl.oracle_check,
            lambda: nlosc.shoot_eigenvalue(-1.0, 0, 0, rtol=1e-6),
            frozenset(wl.KNOWN_DEFECT_STRATA),
        ),
        "gram_exact": Workload(
            wl.gram_cases,
            lambda case, traced: wl.gram_op(nlosc, case),
            wl.gram_check,
            lambda: nlosc.gram_matrix(0, -0.5, 3),
        ),
        "cli_tabulate": Workload(
            wl.cli_cases,
            lambda case, traced: wl.cli_op(env, out_dir, case, traced),
            wl.cli_check,
            None,
        ),
    }


def run_op(workload, case, tracer, op_id):
    """One op and its check; a failure is recorded, never raised."""
    in_process = tracer is not None and not case.argv
    if in_process:
        tracer.op = op_id
        tracer.install()
    sub = case.argv[0] if case.argv else None
    start = time.perf_counter()
    try:
        out = workload.op(case, tracer is not None)
    except Exception as exc:  # the op's failure is the measurement; the run goes on
        return Record(case.stratum, sub, time.perf_counter() - start, getattr(exc, "kind", type(exc).__name__), str(exc))
    finally:
        if in_process:
            tracer.uninstall()
    wall = time.perf_counter() - start
    if tracer is not None and case.argv:
        adopt(tracer, out.spans, op_id)
    try:
        workload.check(case, out)
    except wl.CheckFailed as exc:
        return Record(case.stratum, sub, wall, "CheckFailed", str(exc))
    return Record(case.stratum, sub, wall)


def adopt(tracer, spans, op_id):
    """Append a child process's spans with ids shifted past the existing ones."""
    offset = len(tracer.spans)
    for s in spans:
        s["id"] += offset
        if s["parent"] is not None:
            s["parent"] += offset
        s["op"] = op_id
        tracer.spans.append(s)


def measure(workload, rng, seconds, tracer):
    """Closed loop over whole sweeps; returns (plain records, traced records, wall)."""
    plain, traced = [], []
    op_id = 0
    start = time.perf_counter()
    while True:
        sweep_start = time.perf_counter()
        for case in workload.cases(rng):
            if tracer is None:
                plain.append(run_op(workload, case, None, op_id))
            else:
                pair = {}
                for use in ((False, True) if op_id % 2 == 0 else (True, False)):
                    pair[use] = run_op(workload, case, tracer if use else None, op_id)
                plain.append(pair[False])
                traced.append(pair[True])
            op_id += 1
        now = time.perf_counter()
        if now - start + (now - sweep_start) > seconds:
            return plain, traced, now - start


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


_IMPORT_TIMER = "import time; t = time.perf_counter(); import nlosc; print(repr(time.perf_counter() - t))"


def time_imports(env, count):
    """Wall times of ``import nlosc``, each in a fresh interpreter."""
    samples = []
    for _ in range(count):
        out = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], env=env, capture_output=True, text=True,
                             check=True, timeout=60)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def measure_import_breakdown(env):
    """(scipy self time summed over its modules, cumulative nlosc time), in s,
    from ``python -X importtime``."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nlosc"], env=env,
                         capture_output=True, text=True, check=True, timeout=60)
    scipy_us = nlosc_us = 0
    for line in out.stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[0].split(":")[1].strip().isdigit():
            continue
        self_us, cum_us, name = int(parts[0].split(":")[1]), int(parts[1]), parts[2].strip()
        if name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
        if name == "nlosc":
            nlosc_us = cum_us
    return scipy_us / 1e6, nlosc_us / 1e6


def machine_facts(nlosc, seed):
    import numpy
    import scipy

    accel = sys.modules.get("nlosc._accel")
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_active": bool(getattr(accel, "USE_NUMBA", False)),
        "seed": seed,
    }


def strata_summary(records):
    out = {}
    for r in records:
        s = out.setdefault(r.stratum, {"attempted": 0, "failed": 0, "errors": {}})
        s["attempted"] += 1
        if r.error:
            s["failed"] += 1
            s["errors"][r.error] = s["errors"].get(r.error, 0) + 1
    return out


def end_to_end(records, total_s, setup, in_process):
    walls = sorted(r.wall for r in records if r.error is None)
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    metrics = {
        "setup_s": (setup, "s"),
        "ops_per_s": (len(walls) / total_s, "op/s"),
        "op_s.p50": (statistics.median(walls) if walls else 0.0, "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    n = len(walls)
    if n >= TAIL_MIN_OPS:
        tail = {"value": walls[n - 11], "unit": "s", "percentile": 100.0 * (n - 10) / n, "beyond": 10, "samples": n}
    else:
        tail = {"omitted": f"{n} verified ops; a tail needs at least {TAIL_MIN_OPS}", "samples": n}
    return metrics, tail


def run_workload(name, workload, seed, seconds, trace, env, out_dir, facts):
    rng = random.Random(f"{name}/{seed}")
    setup_samples = None
    if trace:
        scipy_s, nlosc_s = measure_import_breakdown(env)
    else:
        time_imports(env, 1)  # untimed: fills the bytecode and file caches
        setup_samples = time_imports(env, SETUP_SAMPLES)
    if workload.warmup is not None:
        workload.warmup()
    tracer = Tracer() if trace else None
    plain, traced, total_s = measure(workload, rng, seconds, tracer)
    records = plain + traced
    failed = sum(1 for r in records if r.error)
    unexpected = [r for r in records if r.error and r.stratum not in workload.known_defects]
    correct = not unexpected and any(r.error is None for r in records)
    report = {
        "workload": name,
        "trace": trace,
        "facts": facts,
        "wall_s": total_s,
        "strata": strata_summary(records),
        "fail_frac": {"value": failed / len(records), "unit": "ratio", "failed": failed, "attempted": len(records)},
        "unexpected_failures": [f"{r.stratum}: {r.error}: {r.message}" for r in unexpected[:5]],
        "ops": [[r.stratum, round(r.wall, 4), r.error] for r in records],
    }
    if trace:
        walls = {}
        for r in traced:
            if r.subcommand and r.error is None:
                walls.setdefault(r.subcommand, []).append(r.wall)
        metrics = layer_metrics(tracer.spans, walls)
        metrics["import.scipy_s"] = (scipy_s, "s")
        metrics["import.nlosc_s"] = (nlosc_s, "s")
        t_sum, p_sum = sum(r.wall for r in traced), sum(r.wall for r in plain)
        metrics["trace.overhead_s"] = ((t_sum - p_sum) / len(plain), "s/op")
        metrics["trace.overhead_frac"] = ((t_sum - p_sum) / p_sum, "ratio")
        spans_path = os.path.join(out_dir, f"spans-{name}-seed{seed}.json")
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
        report["spans_file"] = spans_path
        report["spans"] = len(tracer.spans)
    else:
        # set-up is timed again after the loop, so its median spans the same
        # stretch of the machine's speed as the ops do
        setup_samples += time_imports(env, SETUP_SAMPLES)
        metrics, tail = end_to_end(records, total_s, statistics.median(setup_samples), name != "cli_tabulate")
        report["op_s.tail"] = tail
        report["setup_samples_s"] = setup_samples
        report["verified_ops"] = len(records) - failed
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def summary(report, result):
    """Human-readable lines: every metric with its unit, and the counts."""
    ff = report["fail_frac"]
    lines = [
        f"{report['workload']} seed={report['facts']['seed']} trace={report['trace']}: "
        f"{ff['attempted']} ops attempted, {ff['failed']} failed, {report['wall_s']:.1f} s, "
        f"correct={result['correct']}, numba_active={report['facts']['numba_active']}"
    ]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:<45} {m['value']:.6g} {m['unit']}")
    lines.append(f"  {'fail_frac':<45} {ff['value']:.6g} ratio ({ff['failed']} of {ff['attempted']})")
    tail = report.get("op_s.tail")
    if tail is not None:
        if "value" in tail:
            lines.append(f"  {'op_s.tail':<45} {tail['value']:.6g} s (p{tail['percentile']:.1f} of {tail['samples']})")
        else:
            lines.append(f"  {'op_s.tail':<45} omitted: {tail['omitted']}")
    for stratum, s in report["strata"].items():
        if s["failed"]:
            lines.append(f"  failed in {stratum}: {s['failed']} of {s['attempted']} {s['errors']}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="oracle_sweep, gram_exact, cli_tabulate, a comma list or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "nlosc", "__init__.py")):
        print(f"perfbench: no src/nlosc under {root}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import nlosc

    if not os.path.abspath(nlosc.__file__).startswith(src + os.sep):
        print(f"perfbench: imported nlosc from {nlosc.__file__}, not from {src}", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    env = child_env(src)
    table = build_workloads(nlosc, env, out_dir)
    names = list(table) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in table]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {sorted(table)}")
    facts = machine_facts(nlosc, args.seed)
    results = {}
    for name in names:
        report, result = run_workload(name, table[name], args.seed, args.seconds, args.trace, env, out_dir, facts)
        print(summary(report, result))
        print("report " + json.dumps(report), flush=True)
        if len(names) > 1:
            print(json.dumps(result), flush=True)
        results[name] = result
    if len(names) > 1:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
