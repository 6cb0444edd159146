"""The wittcalc benchmark.

    python3 perfbench/run.py --workload {counts,forms,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; wittcalc is imported from src/.
With --trace 0 it measures one workload end to end and prints the
end-to-end metrics; with --trace 1 it runs the traced passes and prints
the per-layer metrics.  The last line of stdout is the result object; the
line before it holds the run's metadata.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from mixes import WORKLOADS
from worker import CAL_REF_MS, calibrate, child_env

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 7
START_REPEATS = 7
CHILD_TIMEOUT_S = 170
# The highest percentile with at least 10 samples beyond it in a 25 s run
# when the benchmark was added.  It is fixed, so that a change that runs
# more calls in the same time is still compared at the same percentile.
TAIL_PERCENTILE = {"counts": 95.0, "forms": 95.0, "cli": 90.0}

# per-layer metric -> (unit, the workload whose end-to-end metric it should
# move; the traced run measures it there)
LAYERS: dict[str, tuple[str, str]] = {
    "fields.squarefree_part.calls": ("count", "counts"),
    "fields.squarefree_part.self_s": ("s", "counts"),
    "fields.canonical_entry.calls": ("count", "counts"),
    "fields.canonical_entry.self_s": ("s", "counts"),
    "fields.factorize.calls": ("count", "forms"),
    "fields.factorize.self_s": ("s", "forms"),
    "fields.factorize.hit_ratio": ("ratio", "forms"),
    "fields.is_prime.self_s": ("s", "forms"),
    "gwcore.GWClass.make.calls": ("count", "counts"),
    "gwcore.GWClass.make.self_s": ("s", "counts"),
    "gwcore.GWClass.make.peak_entries": ("count", "counts"),
    "gwcore.gw_mul.calls": ("count", "counts"),
    "gwcore.gw_mul.self_s": ("s", "counts"),
    "gwcore.gw_add.self_s": ("s", "counts"),
    "gwcore.QForm.make.self_s": ("s", "counts"),
    "gwcore.diagonalize.calls": ("count", "forms"),
    "gwcore.diagonalize.self_s": ("s", "forms"),
    "gwcore.hilbert_symbol.calls": ("count", "forms"),
    "gwcore.hilbert_symbol.self_s": ("s", "forms"),
    "gwcore.invariants.self_s": ("s", "forms"),
    "gwcore.is_isometric.self_s": ("s", "forms"),
    "gwcore.witt_class.self_s": ("s", "forms"),
    "gwcore.second_residue.self_s": ("s", "forms"),
    "gwcore.format.self_s": ("s", "cli"),
    "gwcore.parse.self_s": ("s", "cli"),
    "qpoly.mul.calls": ("count", "forms"),
    "qpoly.mul.self_s": ("s", "forms"),
    "qpoly.add.calls": ("count", "forms"),
    "qpoly.add.self_s": ("s", "forms"),
    "qpoly.pdivmod.calls": ("count", "forms"),
    "qpoly.pdivmod.self_s": ("s", "forms"),
    "traceform.cyclotomic_poly.self_s": ("s", "forms"),
    "traceform.real_cyclotomic_minpoly.self_s": ("s", "forms"),
    "traceform.trace_gram.self_s": ("s", "forms"),
    "a1deg.build_G.self_s": ("s", "forms"),
    "a1deg.bezout_form.self_s": ("s", "forms"),
    "charclass.WittPoly.mul.calls": ("count", "counts"),
    "charclass.WittPoly.mul.self_s": ("s", "counts"),
    "charclass.WittPoly.peak_terms": ("count", "counts"),
    "charclass.parse_bundle.self_s": ("s", "counts"),
    "charclass.euler.self_s": ("s", "counts"),
    "charclass.pontryagin_total.self_s": ("s", "counts"),
    "enumgeo.lines_count.self_s": ("s", "counts"),
    "enumgeo.quadratic_lines_class.self_s": ("s", "counts"),
    "enumgeo.cellular_euler.self_s": ("s", "counts"),
}


class BenchError(Exception):
    pass


def spawn(argv: list[str]) -> tuple[str, float]:
    """Run a child to completion; return its stdout and wall time."""
    start = time.perf_counter()
    try:
        p = subprocess.run(
            [sys.executable, *argv],
            capture_output=True,
            text=True,
            env=child_env(),
            cwd=ROOT,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {argv[:3]} timed out") from exc
    wall = time.perf_counter() - start
    if p.returncode != 0:
        raise BenchError(f"child {argv[:3]} exited {p.returncode}: {p.stderr[-2000:]}")
    return p.stdout, wall


def worker(*args: str) -> dict:
    out, _ = spawn([str(HERE / "worker.py"), *args])
    return json.loads(out.strip().splitlines()[-1])


def repeat_scaled(argv: list[str], n: int) -> list[tuple[str, float, float]]:
    """Run a child n times: (stdout, wall time, speed scale) of each, the
    scale taken from calibrations just before and just after it."""
    out = []
    cal = calibrate()
    for _ in range(n):
        stdout, wall = spawn(argv)
        after = calibrate()
        out.append((stdout, wall, CAL_REF_MS / ((cal + after) / 2)))
        cal = after
    return out


def percentile(values: list[float], p: float) -> tuple[float, int]:
    """(value, samples beyond it): the p-th percentile by nearest rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, meta: dict) -> tuple[dict, dict]:
    setup_argv = [str(HERE / "worker.py"), "--setup", "--workload", workload, "--seed", str(seed)]
    setups = [wall * scale for _, wall, scale in repeat_scaled(setup_argv, SETUP_REPEATS)]
    res = worker("--workload", workload, "--seed", str(seed), "--seconds", str(seconds))
    lat = res["latencies_ms"]
    pct = TAIL_PERCENTILE[workload]
    tail_ms, beyond = percentile(lat, pct)
    attempted, failed = res["attempted"], res["failed"]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "ops_per_s": metric(statistics.median(res["round_ops_per_s"]), "1/s"),
        "call_p50_ms": metric(statistics.median(lat), "ms"),
        "call_tail_ms": metric(tail_ms, "ms"),
        "peak_rss_mib": metric(res["peak_rss_mib"], "MiB"),
        "failed_ratio": metric(failed / attempted, "ratio"),
    }
    meta.update(
        speed_scale=res["speed_scale"],
        raw_call_s=res["raw_call_s"],
        rounds=res["rounds"],
        probes=res["probes"],
        non_probe_failures=res["bad"],
        digest=res["digest"],
        samples={"setup_s": len(setups), "ops_per_s": res["rounds"], "call_p50_ms": len(lat),
                 "call_tail_ms": len(lat), "peak_rss_mib": 1, "failed_ratio": attempted},
        call_tail_percentile=pct,
        call_tail_samples_beyond=beyond,
        failed_ratio_counts={"failed": failed, "attempted": attempted},
    )
    return metrics, res


def per_layer(seed: int, seconds: float, meta: dict) -> tuple[dict, dict]:
    """Untraced and traced passes of every workload over the same calls,
    each in a fresh process; every layer metric is read from its workload."""
    values: dict[str, float] = {}
    untraced_s = traced_s = 0.0
    attempted = failed = 0
    bad: list[str] = []
    digests_equal = restored = True
    main_ms = None
    for w in WORKLOADS:
        mode = ["--in-process"] if w == "cli" else []
        base = ["--workload", w, "--seed", str(seed), *mode]
        plain = worker(*base, "--seconds", str(seconds / 6))
        traced = worker(*base, "--rounds", str(plain["rounds"]), "--trace")
        digests_equal &= plain["digest"] == traced["digest"]
        restored &= traced["restored"]
        untraced_s += sum(plain["latencies_ms"])
        traced_s += sum(traced["latencies_ms"])
        attempted += traced["attempted"]
        failed += traced["failed"]
        bad += traced["bad"]
        for name, (unit, home) in LAYERS.items():
            if home == w:
                values[name] = traced["layers"][name]
        if w == "cli":
            main_ms = statistics.median(plain["latencies_ms"])
    interp = [wall * scale * 1e3 for _, wall, scale in repeat_scaled(["-c", "pass"], START_REPEATS)]
    imports = [
        json.loads(out)["import_ms"] * scale
        for out, _, scale in repeat_scaled([str(HERE / "worker.py"), "--import-ms"], START_REPEATS)
    ]
    metrics = {name: metric(values[name], unit) for name, (unit, _) in LAYERS.items()}
    metrics["cli.interp_ms"] = metric(statistics.median(interp), "ms")
    metrics["cli.import_ms"] = metric(statistics.median(imports), "ms")
    metrics["cli.main_ms"] = metric(main_ms, "ms")
    metrics["trace.overhead_ratio"] = metric(traced_s / untraced_s, "ratio")
    meta.update(
        digests_equal=digests_equal,
        bindings_restored=restored,
        non_probe_failures=bad,
        samples={"cli.interp_ms": len(interp), "cli.import_ms": len(imports)},
    )
    summary = {"attempted": attempted, "failed": failed, "bad": bad, "ok": digests_equal and restored}
    return metrics, summary


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description="wittcalc benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    needed = [ROOT / "src" / "wittcalc" / "__init__.py", ROOT / "tests" / "fixtures" / "lines_counts.txt"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a wittcalc checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "git_sha": git_sha(),
    }
    try:
        # compile the byte code once, so no measured start-up pays for it
        spawn([str(HERE / "worker.py"), "--setup", "--workload", args.workload, "--seed", str(args.seed)])
        if args.trace:
            metrics, res = per_layer(args.seed, args.seconds, meta)
            correct = res["ok"] and not res["bad"]
        else:
            metrics, res = end_to_end(args.workload, args.seed, args.seconds, meta)
            correct = not res["bad"]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
