#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that the generators are byte-identical for a seed, that every line
matches the independent reference, that a corrupted reference total raises
the failed share, and that traced and untraced calls print the same report
bytes.  Takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import sys

import reference
import run
import workloads

TINY = {
    "batch-dense": lambda seed: workloads.batch_dense(
        seed, lines={6: 1, 7: 1}, special=((9, 7, 1),)),
    "batch-wide": lambda seed: workloads.batch_wide(seed, lines={10: 2, 12: 1}),
}
TINY_SWEEP = ["verify", "recursion", "--n-max", "3", "--b-max", "2", "--json"]


def check(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"FAIL: {message}")
    print(f"ok: {message}")


def call(argv, kind: str, trace: bool, run_dir) -> tuple[bytes, dict]:
    job = run.make_job(argv, kind, trace, "selftest", run_dir / "spans.bin")
    with open(run_dir / "stderr.txt", "wb") as stderr:
        result = run.run_worker(job, run_dir, stderr)
    check(result["rc"] == 0, f"{argv[:2]} traced={trace} exits 0")
    if trace:
        check(result["layers"]["cli.report_bytes"] > 0, "the traced call reports its layers")
    return (run_dir / "report.txt").read_bytes(), result


def main() -> int:
    run_dir = run.WORK / "selftest"
    run_dir.mkdir(parents=True, exist_ok=True)
    for name, generate in workloads.GENERATORS.items():
        first = workloads.batch_bytes(generate(7))
        check(first == workloads.batch_bytes(generate(7)), f"{name}: same seed, same bytes")
        check(first != workloads.batch_bytes(generate(8)), f"{name}: other seed, other bytes")

        requests = TINY[name](3)
        path = run_dir / "requests.jsonl"
        path.write_bytes(workloads.batch_bytes(requests))
        argv = ["batch", str(path)]
        expected = reference.batch_totals(requests)
        plain, result = call(argv, "batch", False, run_dir)
        check(len(result["stamps_ns"]) == len(requests), f"{name}: one timestamp per line")
        check(run.check_batch(run_dir / "report.txt", expected) == 0,
              f"{name}: every line matches the reference")
        corrupted = [str(int(expected[0]) + 1)] + expected[1:]
        check(run.check_batch(run_dir / "report.txt", corrupted) == 1,
              f"{name}: a corrupted reference total fails its line")
        check(call(argv, "batch", True, run_dir)[0] == plain,
              f"{name}: traced and untraced reports are byte-identical")

    report = run_dir / "report.txt"
    _, result = call(TINY_SWEEP, "verify", False, run_dir)
    plain = run.report_digest(report, "verify")
    checked = sum(r["checked"] for r in json.loads(report.read_text(encoding="utf-8")))
    check(len(result["stamps_ns"]) == checked, "verify: one timestamp per check")
    check(run.check_verify(report, checked) == 0, "verify: every check passes")
    check(run.check_verify(report, checked + 1) == 1, "verify: a missing check fails")
    call(TINY_SWEEP, "verify", True, run_dir)
    check(run.report_digest(run_dir / "report.txt", "verify") == plain,
          "verify: traced and untraced reports agree")
    shutil.rmtree(run_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
