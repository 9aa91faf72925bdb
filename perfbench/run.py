#!/usr/bin/env python3
"""Benchmark of the isoresidual CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Each run is one closed-loop client: fresh worker interpreters, one at a
time and each with cold caches as a CLI user gets them, run the workload's
CLI call until the next one would overrun ``--seconds``.  Every worker's
output is checked against reference totals.  Info lines come first; the last
line of stdout is the JSON result, with the end-to-end metrics when
``--trace 0`` and the per-layer metrics when ``--trace 1``.  The full record
of a run, environment included, goes under ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# Set-up-only starts before each untimed call; spread over the run, so
# their median is not taken in one slow or fast spell of the host.
SETUP_PROBES_PER_CALL = 2
WORKER_TIMEOUT_S = 150
TAIL_BEYOND = 10
# The host speed the timings are scaled to: worker.probe_work in 1 ms, about
# its typical time between the program's work on a 2-vCPU Xeon at 2 GHz.
PROBE_REF_NS = 1_000_000


class WorkerFailed(Exception):
    pass


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: moves with the host, not the code."""
    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - start


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in info
                 if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def start_worker(args: list[str], stderr):
    """Start a worker; returns it with its set-up time in seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), str(SRC), *args],
        stdout=subprocess.PIPE, stderr=stderr, cwd=ROOT,
    )
    ready = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if ready != b"ready\n":
        proc.wait()
        raise WorkerFailed(f"worker did not start (exit {proc.returncode})")
    return proc, setup_s


def finish(proc) -> int:
    try:
        proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerFailed(f"worker ran over {WORKER_TIMEOUT_S} s") from None
    finally:
        proc.stdout.close()
    return proc.returncode


def check_batch(report: Path, expected: list[str]) -> int:
    """Failed lines: missing, an error, a mismatch or a wrong total."""
    seen = {}
    with open(report, encoding="utf-8") as lines:
        for text in lines:
            try:
                obj = json.loads(text)
            except json.JSONDecodeError:
                continue  # its request counts as missing
            if isinstance(obj, dict):
                seen[obj.get("line")] = obj
    failed = 0
    for line, want in enumerate(expected, start=1):
        got = seen.get(line)
        if (
            got is None
            or "error" in got
            or got.get("total") != want
            or any(got.get(k, {}).get("match") is False for k in ("recursive", "oracle"))
        ):
            failed += 1
    return failed


def sweep_results(report: Path) -> list[dict] | None:
    """The JSON list a sweep prints, or None if the report is not one."""
    try:
        results = json.loads(report.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    if isinstance(results, list) and all(
        isinstance(r, dict) and isinstance(r.get("checked"), int)
        and isinstance(r.get("failures"), int) for r in results
    ):
        return results
    return None


def check_verify(report: Path, want_checked: int) -> int:
    """Failed checks: the sweep's own failures plus checks gone missing."""
    results = sweep_results(report)
    if results is None:
        return want_checked
    checked = sum(r["checked"] for r in results)
    return sum(r["failures"] for r in results) + abs(want_checked - checked)


def report_digest(report: Path, kind: str) -> str:
    """Digest of the report bytes; a sweep's timings are left out."""
    data = report.read_bytes()
    results = sweep_results(report) if kind == "verify" else None
    if results is not None:
        for r in results:
            r.pop("seconds", None)
        data = json.dumps(results).encode()
    return hashlib.sha256(data).hexdigest()


def prepare(workload: str, seed: int, run_dir: Path) -> tuple[list[str], int, object]:
    """The CLI arguments, the operations attempted per call and the expected
    output: batch totals per line, or the sweep's check count."""
    spec = workloads.WORKLOADS[workload]
    if spec["kind"] == "verify":
        return spec["argv"], spec["checked"], spec["checked"]
    requests = workloads.GENERATORS[workload](seed)
    path = run_dir / "requests.jsonl"
    path.write_bytes(workloads.batch_bytes(requests))
    return ["batch", str(path)], len(requests), reference.batch_totals(requests)


def make_job(argv, kind: str, trace: bool, run_id: str, spans) -> dict:
    return {"argv": argv, "op": "line" if kind == "batch" else "check",
            "trace": trace, "run_id": run_id, "spans": str(spans)}


def run_worker(job: dict, run_dir: Path, stderr) -> dict:
    job = dict(job, report=str(run_dir / "report.txt"),
               result=str(run_dir / "result.json"))
    job_path = run_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    started = time.perf_counter()
    proc, setup_s = start_worker([str(job_path)], stderr)
    if finish(proc) != 0:
        raise WorkerFailed(f"worker exited with {proc.returncode}")
    result = json.loads((run_dir / "result.json").read_text(encoding="utf-8"))
    result.update(setup_s=setup_s, wall_s=time.perf_counter() - started,
                  traced=job["trace"])
    return result


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile; 0 when nothing completed."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def latencies_ms(stamps_ns: list[int]) -> list[float]:
    """Per-operation latency: the gap since the previous operation ended, the
    first one timed from the call."""
    return [(b - a) / 1e6 for a, b in zip([0] + stamps_ns, stamps_ns)]


def tail_percentile(ops: int) -> int:
    """Highest whole percentile with at least ten operations beyond it."""
    return max(0, math.floor(100 * (ops - TAIL_BEYOND) / ops)) if ops else 0


def host_slowdown(probes_ns: list[int]) -> float:
    """Mean probe time over PROBE_REF_NS, without the slowest and fastest
    tenth: a probe that sets off the collection of the program's heap, or is
    cut by another interrupt, reads far too slow.  A mean, not a median,
    because the program's time adds up over fast and slow spells alike."""
    if not probes_ns:
        return 1.0
    trim = len(probes_ns) // 10
    kept = sorted(probes_ns)[trim:len(probes_ns) - trim]
    return statistics.mean(kept) / PROBE_REF_NS


def end_to_end(workers: list[dict], setups: list[float], ops_per_call: int) -> tuple[dict, dict]:
    """Run-level metrics, and the info lines that go with them.

    Latencies are pooled over the calls of the run; the tail percentile
    leaves at least ten operations of a call beyond it, so it is the same
    percentile in every run of a workload.  Times are scaled by how slowly
    the host ran (host_slowdown).
    """
    tail_p = tail_percentile(ops_per_call)
    lat = sorted(x for w in workers for x in latencies_ms(w["stamps_ns"]))
    slowdown = host_slowdown([x for w in workers for x in w["probe_ns"]])
    raw = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(lat) / (sum(w["elapsed_ns"] for w in workers) / 1e9),
        "op_p50_ms": percentile(lat, 50),
        "op_tail_ms": percentile(lat, tail_p),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
    }
    values = {
        "setup_s": raw["setup_s"] / slowdown,
        "ops_per_s": raw["ops_per_s"] * slowdown,
        "op_p50_ms": raw["op_p50_ms"] / slowdown,
        "op_tail_ms": raw["op_tail_ms"] / slowdown,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    info = {"tail_percentile": tail_p, "latency_samples": len(lat),
            "host_slowdown": slowdown, "unscaled": raw}
    return values, info


def per_layer(traced: list[dict], names) -> dict:
    return {
        name: statistics.median(w["layers"].get(name, 0) for w in traced)
        for name in names
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "isoresidual" / "cli.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    spec = workloads.WORKLOADS[args.workload]
    started_ns = time.time_ns()
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-{started_ns}"
    run_dir = WORK / "runs" / run_id
    run_dir.mkdir(parents=True)
    (WORK / "spans").mkdir(exist_ok=True)
    env = environment()
    calibration_s = calibrate()
    try:
        with open(run_dir / "stderr.txt", "wb") as stderr:
            record = measure(args, spec, bench, run_dir, run_id, stderr)
    except WorkerFailed as exc:
        print(f"error: {exc}; see {run_dir / 'stderr.txt'}", file=sys.stderr)
        return 1
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, run_id=run_id, started_ns=started_ns,
                  environment=env,
                  calibration_s=calibration_s)
    results = WORK / "results" / args.workload
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_id}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(run_dir)

    print(f"environment: {json.dumps(env)}")
    print(f"calibration_s: {calibration_s:.4f}")
    for key, value in record["info"].items():
        print(f"{key}: {json.dumps(value)}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, value in record["metrics"].items():
        print(f"{name} {value} {units[name]}")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in record["metrics"].items()
        },
    }))
    return 0


def measure(args, spec, bench, run_dir: Path, run_id: str, stderr) -> dict:
    argv, ops_per_call, expected = prepare(args.workload, args.seed, run_dir)
    kind = spec["kind"]
    # The first start compiles the bytecode of a fresh checkout; untimed.
    finish(start_worker([], stderr)[0])

    setups: list[float] = []
    workers: list[dict] = []
    attempted = failed = 0
    digest = None
    begin = time.perf_counter()
    while True:
        lap = time.perf_counter()
        for _ in range(0 if args.trace else SETUP_PROBES_PER_CALL):
            proc, setup_s = start_worker([], stderr)
            finish(proc)
            setups.append(setup_s)
        # A traced run starts with one untraced call, the base of the overhead.
        call_id = f"{run_id}-call{len(workers)}"
        job = make_job(argv, kind, bool(args.trace) and bool(workers),
                       call_id, WORK / "spans" / f"{call_id}.bin")
        worker = run_worker(job, run_dir, stderr)
        workers.append(worker)
        report = run_dir / "report.txt"
        if worker["rc"] != 0:  # a nonzero exit fails the whole call
            bad = ops_per_call
        elif kind == "batch":
            bad = check_batch(report, expected)
        else:
            bad = check_verify(report, expected)
        this_digest = report_digest(report, kind) if worker["rc"] == 0 else None
        digest = digest or this_digest
        if this_digest != digest:  # every call must print the same report
            bad = ops_per_call
        attempted += ops_per_call
        failed += min(bad, ops_per_call)
        now = time.perf_counter()
        # Stop when one more round like the last would overrun the run.
        if len(workers) >= 1 + args.trace and 2 * now - begin - lap > args.seconds:
            break

    untraced = [w for w in workers if not w["traced"]]
    traced = [w for w in workers if w["traced"]]
    values, info = end_to_end(untraced, setups + [w["setup_s"] for w in workers],
                              ops_per_call)
    info.update(calls=len(workers), ops_per_call=ops_per_call,
                failed_frac=failed / attempted)
    if args.trace:
        # Unscaled on both sides: traced calls run no probe.
        _, traced_info = end_to_end(traced, [0.0], ops_per_call)
        info["trace_overhead"] = (info["unscaled"]["ops_per_s"]
                                  / traced_info["unscaled"]["ops_per_s"])
        info["module_self_s"] = {
            module: statistics.median(w["module_self_s"].get(module, 0.0) for w in traced)
            for module in traced[0]["module_self_s"]
        }
        metrics = per_layer(traced, [m["name"] for m in bench["per_layer"]])
    else:
        metrics = {m["name"]: values[m["name"]] for m in bench["end_to_end"]}
    for w in workers:
        w.pop("stamps_ns")
    return {"metrics": metrics, "info": info, "attempted": attempted,
            "failed": failed, "workers": workers}


if __name__ == "__main__":
    sys.exit(main())
