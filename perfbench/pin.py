"""Regenerate pinned.json: the result digest of every call in every pool.

    PYTHONPATH=src python3 perfbench/pin.py

Run it only on a commit whose outputs are the reference.  Known-defect
probes are not pinned.  Every pinned call must also pass its own check.
"""
from __future__ import annotations

import json
import sys

import mixes
from worker import run_cli_in_process


def main() -> int:
    pins: dict[str, dict[str, str]] = {}
    bad = 0
    for workload in mixes.WORKLOADS:
        table = pins[workload] = {}
        for c in mixes.build(workload, 0).all_calls():
            if c.probe:
                continue
            out = run_cli_in_process(c.argv) if c.argv else c.run()
            text = out.text() if c.argv else mixes.describe(out)
            if not c.check(out):
                bad += 1
                print(f"check failed: {workload} {c.kind} {c.key[:80]}: {text[:200]}", file=sys.stderr)
            key = mixes.pin_key(c)
            if table.setdefault(key, mixes.result_digest(text)) != mixes.result_digest(text):
                bad += 1
                print(f"key collision: {workload} {c.kind} {c.key[:80]}", file=sys.stderr)
        print(f"{workload}: {len(table)} pins", file=sys.stderr)
    mixes.PINNED.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
