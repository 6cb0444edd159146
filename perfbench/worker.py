"""One benchmark pass in a fresh process, so wittcalc's caches start empty.

    python3 perfbench/worker.py --setup --workload W --seed N
    python3 perfbench/worker.py --workload W --seed N --seconds S [--rounds R]
                                [--in-process] [--trace]
    python3 perfbench/worker.py --import-ms

A pass runs whole rounds of the workload in a closed loop until the time
spent inside calls reaches --seconds (or for exactly --rounds rounds), and
prints one JSON object.  Checks, digests and pin comparisons run outside
the timed region, with the tracer paused.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time
import traceback

import mixes

# Every pass runs under this address-space limit, which its own cli
# processes inherit: an over-allocation then fails at once instead of
# swapping on a shared machine.
ADDRESS_LIMIT = 1 << 30
CLI_TIMEOUT_S = 60

# On a shared host the interpreter's speed drifts by a third over seconds
# to minutes.  A fixed piece of interpreter work is timed after every call,
# and each latency is scaled to the speed at which that work takes
# CAL_REF_MS, using the timings just before and just after the call.
CAL_REF_MS = 1.0
CAL_REPS = 5


def _calibration_work() -> int:
    xs = [(i * 2654435761) % 1000003 for i in range(4000)]
    xs.sort()
    buckets: dict[int, int] = {}
    for x in xs:
        buckets[x % 97] = buckets.get(x % 97, 0) + x
    n = 1
    for i in range(1, 400):
        n = n * (i | 1) % (1 << 256)
    return len(buckets) + n % 7


def calibrate() -> float:
    """Median time of the calibration work, in ms."""
    times = []
    for _ in range(CAL_REPS):
        start = time.perf_counter_ns()
        _calibration_work()
        times.append(time.perf_counter_ns() - start)
    return sorted(times)[CAL_REPS // 2] / 1e6


class Deadline(Exception):
    """A call ran past its deadline."""


def _on_alarm(signum, frame):
    raise Deadline("deadline exceeded")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(mixes.ROOT / "src")
    return env


def run_cli_cold(argv: tuple[str, ...]) -> mixes.CliOutcome:
    p = subprocess.run(
        [sys.executable, "-m", "wittcalc", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        cwd=mixes.ROOT,
        timeout=CLI_TIMEOUT_S,
    )
    return mixes.CliOutcome(p.returncode, p.stdout, p.stderr)


def run_cli_in_process(argv: tuple[str, ...]) -> mixes.CliOutcome:
    from wittcalc import cli

    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except Exception:  # what a cold process would print as a traceback
        err.write(traceback.format_exc(limit=3))
        code = 1
    return mixes.CliOutcome(code, out.getvalue(), err.getvalue())


class Pass:
    def __init__(self, workload: str, seed: int, in_process: bool, tracer=None):
        import wittcalc

        self.rounds = mixes.build(workload, seed)
        self.pins = mixes.load_pins()[workload]
        self.in_process = in_process
        self.tracer = tracer
        self.domain_error = wittcalc.DomainError
        self.latencies_ns: list[float] = []  # of calls that are not probes, scaled
        self.raw_ns: list[int] = []  # the same, as measured
        self.scales: list[float] = []
        self.cal = calibrate()
        self.attempted = 0
        self.failed = 0
        self.probes = 0
        self.bad: list[str] = []  # non-probe failures
        self.digest = hashlib.sha256()

    def call(self, c: mixes.Call) -> None:
        err = None
        out = None
        if c.deadline_s:
            signal.setitimer(signal.ITIMER_REAL, c.deadline_s)
        traced = self.tracer is not None and not c.probe
        if traced:
            self.tracer.start()
        start = time.perf_counter_ns()
        try:
            if c.argv is None:
                out = c.run()
            elif self.in_process:
                out = run_cli_in_process(c.argv)
            else:
                out = run_cli_cold(c.argv)
        except Exception as exc:
            err = exc
        finally:
            elapsed = time.perf_counter_ns() - start
            if c.deadline_s:
                signal.setitimer(signal.ITIMER_REAL, 0)
            if traced:
                self.tracer.stop()
        cal = calibrate()
        scale = CAL_REF_MS / ((self.cal + cal) / 2)
        self.cal = cal
        if c.probe:
            self.probes += 1
        else:
            self.latencies_ns.append(elapsed * scale)
            self.raw_ns.append(elapsed)
            self.scales.append(scale)
        self.attempted += 1
        if err is not None:
            text = f"error {type(err).__name__}"
            passed = c.probe and isinstance(err, self.domain_error)
        else:
            text = out.text() if c.argv is not None else mixes.describe(out)
            try:
                passed = bool(c.check(out))
            except Exception:
                passed = False
            if passed and not c.probe:
                passed = self.pins.get(mixes.pin_key(c)) == mixes.result_digest(text)
                if not passed:
                    text += " [differs from pinned result]"
        self.digest.update(f"{c.kind}:{c.key}\n{text}\n".encode())
        if not passed:
            self.failed += 1
            if not c.probe and len(self.bad) < 10:
                self.bad.append(f"{c.kind} {c.key[:80]}: {text[:200]}")

    def run(self, seconds: float, max_rounds: int | None) -> list[float]:
        """Run whole rounds; return each round's calls per second."""
        budget = int(seconds * 1e9)
        rates: list[float] = []
        spent = 0
        while (len(rates) < max_rounds) if max_rounds else (spent < budget or not rates):
            first = len(self.latencies_ns)
            for c in self.rounds.round(len(rates)):
                self.call(c)
            spent += sum(self.raw_ns[first:])
            rates.append((len(self.latencies_ns) - first) / sum(self.latencies_ns[first:]) * 1e9)
        return rates


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=mixes.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--setup", action="store_true")
    ap.add_argument("--import-ms", action="store_true")
    ap.add_argument("--in-process", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))
    if args.import_ms:
        start = time.perf_counter()
        import wittcalc.cli  # noqa: F401

        print(json.dumps({"import_ms": (time.perf_counter() - start) * 1e3}))
        return 0
    if args.setup:
        import wittcalc  # noqa: F401

        if args.workload == "cli":
            import wittcalc.cli  # noqa: F401
        mixes.build(args.workload, args.seed).round(0)
        mixes.load_pins()
        return 0

    signal.signal(signal.SIGALRM, _on_alarm)
    import wittcalc.cli  # noqa: F401  (imported before patching, so it is patched too)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    p = Pass(args.workload, args.seed, args.in_process, tracer)
    rates = p.run(args.seconds, args.rounds)
    result = {
        "rounds": len(rates),
        "round_ops_per_s": rates,
        "latencies_ms": [ns / 1e6 for ns in p.latencies_ns],
        "raw_call_s": sum(p.raw_ns) / 1e9,
        "speed_scale": sorted(p.scales)[len(p.scales) // 2],
        "attempted": p.attempted,
        "failed": p.failed,
        "probes": p.probes,
        "bad": p.bad,
        "digest": p.digest.hexdigest(),
    }
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" and not args.in_process else resource.RUSAGE_SELF
    result["peak_rss_mib"] = resource.getrusage(who).ru_maxrss / 1024
    if tracer:
        tracer.restore()
        result["layers"] = tracer.metrics()
        result["restored"] = tracer.bindings_restored()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
