"""One benchmark worker: a fresh interpreter running one CLI invocation.

    python3 worker.py SRC_DIR              set-up probe: import, build, exit
    python3 worker.py SRC_DIR JOB.json     run the job JSON describes

The worker prints ``ready`` on its stdout as soon as ``isoresidual.cli`` is
imported and its parser is built, which is where the parent stops the
set-up clock.  It then calls ``cli.main`` in-process with the program's
stdout sent to the job's report file, timestamps every completed operation
(a report line for ``batch``, a sweep check for ``verify``) and writes a
result JSON.  Nothing is printed after ``ready``.

An untraced call also times a fixed piece of work, ``probe_work``, every
``PROBE_PERIOD_S`` from a timer signal, so the run can tell how fast the
host ran while the program did.  The probe's time is left out of every
timestamp and of the call's elapsed time.
"""

import os
import signal
import sys
from fractions import Fraction
from time import perf_counter_ns

PROBE_PERIOD_S = 0.02


def setup(src: str):
    """What every CLI call pays before any work: import and parser."""
    sys.path.insert(0, src)
    from isoresidual import cli

    if not cli.__file__.startswith(os.path.abspath(src)):
        sys.exit(f"error: imported {cli.__file__}, not the copy in {src}")
    cli.build_parser()
    print("ready", flush=True)
    return cli


def probe_work() -> int:
    """Fixed pure-Python work of the program's kind (exact fractions, integer
    masks, sets and dicts); about 0.5 ms on a 2 GHz Xeon."""
    total = Fraction(0)
    seen = {}
    for mask in range(1, 128):
        low = mask & -mask
        total += Fraction(mask % 7 - 3, low.bit_length() + 1)
        key = frozenset(i for i in range(7) if mask >> i & 1)
        seen[key] = seen.get(key, 0) + 1
    return total.numerator + len(seen)


class HostProbe:
    """Times probe_work from a SIGALRM handler, between the program's
    bytecodes; ``clock`` is perf_counter_ns without the probes' time."""

    def __init__(self):
        self.times_ns: list[int] = []
        self.paused_ns = 0

    def _on_alarm(self, signum, frame):
        start = perf_counter_ns()
        probe_work()
        spent = perf_counter_ns() - start
        self.times_ns.append(spent)
        self.paused_ns += spent

    def clock(self) -> int:
        return perf_counter_ns() - self.paused_ns

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


class LineClock:
    """Text sink that timestamps every line written through it."""

    def __init__(self, stream, stamps: list, clock):
        self.stream = stream
        self.stamps = stamps
        self.clock = clock

    def write(self, text: str) -> int:
        self.stream.write(text)
        for _ in range(text.count("\n")):
            self.stamps.append(self.clock())
        return len(text)

    def flush(self):
        self.stream.flush()


def clock_checks(verification, stamps: list, clock) -> None:
    """Timestamp each sweep check: every increment of SuiteResult.checked."""

    class TimedSuiteResult(verification.SuiteResult):
        @property
        def checked(self):
            return self._checked

        @checked.setter
        def checked(self, value):
            if value > getattr(self, "_checked", 0):
                stamps.append(clock())
            self._checked = value

    verification.SuiteResult = TimedSuiteResult


def peak_rss_mb() -> float:
    """The process's own high-water RSS.  Not ru_maxrss: on Linux that keeps
    the RSS of the parent process the worker was spawned from."""
    with open("/proc/self/status", encoding="ascii") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    return int(kb) / 1024


def run(cli, job: dict) -> dict:
    import traceback

    from isoresidual import verification

    stamps: list[int] = []
    main = cli.main
    tracer = probe = None
    if job["trace"]:  # no probe: its time would land in the spans
        import tracing

        tracer = tracing.Tracer(job["run_id"])
        main = tracing.install(tracer, cli)
        clock = perf_counter_ns
    else:
        probe = HostProbe()
        clock = probe.clock
    if job["op"] == "check":
        clock_checks(verification, stamps, clock)
    with open(job["report"], "w", encoding="utf-8", newline="\n") as report:
        sink = LineClock(report, stamps, clock) if job["op"] == "line" else report
        stdout, sys.stdout = sys.stdout, sink
        if probe is not None:
            probe.start()
        start = clock()
        try:
            rc = main(job["argv"])
        except Exception:  # the worker must still report the failed run
            traceback.print_exc()
            rc = -1
        finally:
            end = clock()
            if probe is not None:
                probe.stop()
            sys.stdout = stdout
        report_bytes = report.tell()
    result = {
        "rc": rc,
        "elapsed_ns": end - start,
        "stamps_ns": [t - start for t in stamps],
        "probe_ns": probe.times_ns if probe is not None else [],
        "report_bytes": report_bytes,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = tracer.layers(report_bytes)
        result["module_self_s"] = tracer.module_self_s()
        tracer.write(job["spans"])
    return result


if __name__ == "__main__":
    cli_module = setup(sys.argv[1])
    if len(sys.argv) > 2:
        import json

        with open(sys.argv[2], encoding="utf-8") as handle:
            job = json.load(handle)
        outcome = run(cli_module, job)
        with open(job["result"], "w", encoding="utf-8") as handle:
            json.dump(outcome, handle)
