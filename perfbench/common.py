"""Shared machinery: the run context, verdict checks, process handling."""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

#: Input sizes.  ``full`` keeps the shapes the workloads are defined
#: by (two long dumps; a corpus of short dumps; many 500-tick pushes
#: over 2 connections plus 32- and 256-lane corpora), scaled so a run
#: fits its time budget; ``smoke`` runs every path in seconds.
SIZES = {
    "full": dict(vcd_ticks=100_000, corpus_dumps=128, corpus_ticks=4_000,
                 streams=8, stream_ticks=50_000, push_ticks=500,
                 lanes=(32, 256), lane_ticks=1_000, corpus_rounds=6,
                 serve_phases=2, min_rounds=3),
    "smoke": dict(vcd_ticks=1_500, corpus_dumps=6, corpus_ticks=300,
                  streams=4, stream_ticks=1_200, push_ticks=200,
                  lanes=(32, 256), lane_ticks=20, corpus_rounds=1,
                  serve_phases=1, min_rounds=1),
}

#: Connections the serve client drives (the host has 2 cores).
SERVE_CONNECTIONS = 2

#: A command or request still pending after this long is abandoned.
CLI_TIMEOUT_S = 60

#: The speed probe: a fresh interpreter that imports a few modules and
#: tokenizes a VCD-like text, the kind of work the measured commands
#: spend their time on.  It is the benchmark's own code, so a change to
#: the program never moves it.
_PROBE = """\
import argparse, json, re
text = " ".join("#%d %d! %db%d" % (i, i & 1, i & 3, i & 7)
                for i in range(40000))
values, now = {}, 0
for token in text.split():
    head = token[0]
    if head == "#":
        now = int(token[1:])
    elif head in "01":
        values[token[1:]] = head
    else:
        values[token] = now
"""

#: The probe's time on the reference host (2-core x86-64 VM, Xeon at
#: 2.1 GHz, CPython 3).  Scaled times are seconds at that speed.
PROBE_REFERENCE_S = 0.11


class Context:
    """Where a run lives and what it was asked for."""

    def __init__(self, root: str, workdir: str, seed: int, seconds: float,
                 size: str, corrupt_reference: bool):
        self.root = root
        self.src = os.path.join(root, "src")
        self.workdir = workdir
        self.seed = seed
        self.seconds = seconds
        self.size = SIZES[size]
        self.corrupt_reference = corrupt_reference
        tmp = os.path.join(workdir, "tmp")
        os.makedirs(tmp, exist_ok=True)
        # Private SO cache and temp dir: no state shared with other
        # runs, and nothing written outside the checkout.
        self.env = dict(os.environ, PYTHONPATH=self.src, TMPDIR=tmp,
                        REPRO_NATIVE_CACHE=os.path.join(workdir, "so"))
        self.env.pop("REPRO_NO_CC", None)
        self.env.pop("REPRO_NO_NUMPY", None)
        self.tally = Tally()

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def expect(self, detections: List[int]) -> List[int]:
        """The reference as the checks see it (shifted when corrupted)."""
        if self.corrupt_reference:
            return [tick + 1 for tick in detections]
        return detections


class Tally:
    """Ops attempted and failed: the benchmark's fail ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_failure: Optional[str] = None

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = what
        return ok


# -- verdict comparison ---------------------------------------------------
def detections_match(shown: Sequence[int], count: Optional[int],
                     reference: Sequence[int]) -> bool:
    """``shown`` is a prefix of the reference and accounts for all of it.

    A report may list every detection tick, or the first N plus the
    exact count; both check against the full reference list.
    """
    if list(shown) != list(reference[:len(shown)]):
        return False
    total = count if count is not None else len(shown)
    return total == len(reference)


_TICKS = re.compile(r"(\d+) ticks")
_LIST = re.compile(r"\[([\d,\s]*)\]")
_COUNT = re.compile(r"\bof (\d+)\b|\b(\d+) detections\b")


def parse_check_output(text: str) -> Dict[str, tuple]:
    """``repro check`` stdout -> {dump path: (ticks, shown, count)}.

    Any line that is not a per-dump report (a missing-lane note, an
    error, a traceback) makes the whole output unparseable.
    """
    reports = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        path, sep, rest = line.partition(": ")
        ticks, shown = _TICKS.search(rest), _LIST.search(rest)
        if not sep or ticks is None or shown is None:
            raise ValueError(f"unexpected output line: {line[:120]!r}")
        tail = rest[shown.end():]
        count = _COUNT.search(tail) or _COUNT.search(rest[:shown.start()])
        numbers = shown.group(1).replace(",", " ").split()
        reports[path] = (
            int(ticks.group(1)),
            [int(n) for n in numbers],
            int(next(g for g in count.groups() if g)) if count else None,
        )
    return reports


def check_reports_ok(text: str, status: int,
                     expected: Dict[str, tuple]) -> bool:
    """Exit status plus per-dump ticks and detections vs the reference.

    ``expected`` maps each dump path to ``(ticks, reference detections)``.
    """
    try:
        reports = parse_check_output(text)
    except ValueError:
        return False
    if set(reports) != set(expected):
        return False
    for path, (ticks, reference) in expected.items():
        got_ticks, shown, count = reports[path]
        if got_ticks != ticks or not detections_match(shown, count,
                                                       reference):
            return False
    want = 0 if all(ref for _, ref in expected.values()) else 3
    return status == want


# -- subprocesses ---------------------------------------------------------
def repro_argv(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


#: ``python -m repro`` that writes its own peak RSS in kB (``VmHWM``) to
#: the file named by ``PERFBENCH_PEAK_RSS`` when it exits.  ``wait4``
#: cannot give that figure: a child shares its parent's memory until it
#: execs, and the kernel counts the parent's peak as the child's.
_REPRO_MAIN = """\
import atexit, os, runpy

def _peak_rss():
    with open("/proc/self/status") as status:
        peak = next(line.split()[1] for line in status
                    if line.startswith("VmHWM:"))
    with open(os.environ["PERFBENCH_PEAK_RSS"], "w") as out:
        out.write(peak)

atexit.register(_peak_rss)
runpy.run_module("repro", run_name="__main__", alter_sys=True)
"""


def run_cli(ctx: Context, args: Sequence[str]):
    """One ``repro`` invocation: ``(wall_s, status, stdout, peak_rss_kb)``.

    Wall time runs from spawn to reap, start-up included.  The peak RSS
    is the program's own; 0 when it exited without reporting it.
    """
    peak_path = ctx.path("peak-rss")
    if os.path.exists(peak_path):
        os.remove(peak_path)
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-c", _REPRO_MAIN, *args], stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, env=dict(ctx.env,
                                           PERFBENCH_PEAK_RSS=peak_path),
        cwd=ctx.root)
    # A hung command must not outlive the run's time limit.
    watchdog = threading.Timer(CLI_TIMEOUT_S, child.kill)
    watchdog.start()
    try:
        output = child.stdout.read()
    finally:
        watchdog.cancel()
        child.stdout.close()
        child.wait()
    wall = time.perf_counter() - start
    peak_kb = 0
    if os.path.exists(peak_path):
        with open(peak_path) as stream:
            peak_kb = int(stream.read())
    return wall, child.returncode, output.decode("utf-8", "replace"), \
        peak_kb


# -- host speed -----------------------------------------------------------
def pin_to_one_cpu() -> int:
    """Pin this process, and so every child, to one CPU; return it.

    On a shared VM each virtual CPU's speed drifts on its own (a tight
    loop ran at 12 ms on one and 18 ms on the other for tens of seconds,
    then both at 12 ms), so a probe says nothing about an operation that
    ran on the other CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedClock:
    """Wall times scaled to the reference host's speed.

    Each timed operation runs between two speed probes on the same CPU,
    and its wall time is multiplied by ``PROBE_REFERENCE_S`` over the
    mean of the two.  Consecutive operations share the probe between
    them.  A program change never moves the probe, so it still moves
    the scaled time by its own share.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.probes: List[float] = []

    def probe(self) -> float:
        start = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", _PROBE],
                                 env=self.ctx.env, cwd=self.ctx.root)
        # A blocking wait: one with a timeout polls, and its sleeps of
        # up to 50 ms would land in the measured time.
        watchdog = threading.Timer(CLI_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            status = child.wait()
        finally:
            watchdog.cancel()
        if status != 0:
            raise RuntimeError(f"speed probe exited {status}")
        self.probes.append(time.perf_counter() - start)
        return self.probes[-1]

    def scale(self) -> float:
        """Factor for the operation since the last probe; probes again."""
        before = self.probes[-1]
        return PROBE_REFERENCE_S / ((before + self.probe()) / 2)


_BANNER = re.compile(r" on (\S+):(\d+) ")


class ServeProcess:
    """A ``repro serve --port 0`` child, stopped by PID with SIGTERM."""

    def __init__(self, ctx: Context, spec: str, chart: str):
        start = time.perf_counter()
        self.child = subprocess.Popen(
            repro_argv("serve", spec, chart, "--port", "0"),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=ctx.env,
            cwd=ctx.root)
        banner = self.child.stdout.readline().decode("utf-8", "replace")
        self.startup_s = time.perf_counter() - start
        found = _BANNER.search(banner)
        if found is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start: {banner!r}")
        self.host, self.port = found.group(1), int(found.group(2))

    def peak_rss_kb(self) -> int:
        with open(f"/proc/{self.child.pid}/status") as stream:
            for line in stream:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        child = self.child
        if child.poll() is None:
            child.send_signal(signal.SIGTERM)
            try:
                child.wait(timeout=15)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        child.stdout.close()


async def connect(host: str, port: int):
    # Corpus responses carry per-lane detection lists: lift the
    # default 64 KiB line limit.
    return await asyncio.open_connection(host, port, limit=1 << 26)


async def request(reader, writer, line: bytes) -> tuple:
    """Send one request line; ``(latency_s, response dict)``."""
    start = time.perf_counter()
    writer.write(line)
    await writer.drain()
    answer = await asyncio.wait_for(reader.readline(), CLI_TIMEOUT_S)
    latency = time.perf_counter() - start
    return latency, json.loads(answer)


# -- statistics -----------------------------------------------------------
def note(label: str, **samples: Sequence[float]) -> None:
    """Per-sample timings to stderr, for reading a run's spread."""
    parts = " ".join(f"{name}=[{', '.join(f'{v:.4g}' for v in values)}]"
                     for name, values in samples.items())
    print(f"perfbench: {label}: {parts}", file=sys.stderr)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}
