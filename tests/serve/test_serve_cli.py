"""End-to-end CLI test: a real ``repro serve`` process vs ``repro check``.

Spawns the server the way an operator would (``python -m repro.cli
serve``), drives concurrent streams parsed from OCP protocol fixture
dumps, and asserts the service's verdicts are identical to what the
batch ``repro check`` CLI prints for the same dumps — the contract the
CI serve-smoke job enforces at larger scale.
"""

import asyncio
import io
import json
import os
import re
import select
import signal
import subprocess
import sys

import pytest

from repro.cli import main
from repro.protocols.fixtures import ocp_simple_vcd
from repro.trace.vcd_reader import VcdReader

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
_SPEC = os.path.join(_REPO, "examples", "ocp_simple_read.cesc")
_CHART = "ocp_simple_read"
_STREAMS = 8


@pytest.fixture()
def dumps(tmp_path):
    paths = []
    for seed in range(_STREAMS):
        path = tmp_path / f"ocp{seed}.vcd"
        path.write_text(ocp_simple_vcd(seed=seed, faulty=seed == 0))
        paths.append(str(path))
    return paths


def _check_cli(path):
    """(status, detections) as the batch ``repro check`` CLI reports."""
    out = io.StringIO()
    status = main(["check", _SPEC, _CHART, "--vcd", path,
                   "--clock", "clk", "--engine", "vector"], out=out)
    match = re.search(r"detections at (\[[^\]]*\])", out.getvalue())
    assert match, out.getvalue()
    return status, json.loads(match.group(1))


def _read_banner(process, timeout=60):
    """First stdout line, without blocking forever on a dead server."""
    buffer = b""
    stream = process.stdout
    os.set_blocking(stream.fileno(), False)
    waited = 0.0
    while b"\n" not in buffer and waited < timeout:
        if process.poll() is not None:
            break
        ready, _, _ = select.select([stream], [], [], 0.25)
        waited += 0.25
        if ready:
            chunk = stream.read()
            if chunk:
                buffer += chunk
    return buffer.decode(errors="replace")


def test_serve_cli_matches_check_cli_across_concurrent_streams(dumps):
    expected = [_check_cli(path) for path in dumps]
    assert any(status == 3 for status, _ in expected)  # the faulty dump
    assert any(status == 0 for status, _ in expected)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_REPO, "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", _SPEC, _CHART,
         "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        cwd=_REPO, env=env,
    )
    try:
        banner = _read_banner(process)
        match = re.search(r"serving .* on ([\d.]+):(\d+)", banner)
        assert match, f"no banner from server: {banner!r}"
        host, port = match.group(1), int(match.group(2))

        async def one_stream(index, path):
            with VcdReader(path) as reader:
                ticks = [sorted(v.true)
                         for v in reader.valuations(clock="clk")]
            reader_s, writer = await asyncio.open_connection(host, port)
            try:
                for message in (
                    {"op": "open", "stream": f"s{index}"},
                    {"op": "push", "stream": f"s{index}", "ticks": ticks},
                ):
                    writer.write(json.dumps(message).encode() + b"\n")
                    await writer.drain()
                    answer = json.loads(await reader_s.readline())
                    assert answer["ok"], answer
                writer.write(json.dumps(
                    {"op": "close", "stream": f"s{index}"}
                ).encode() + b"\n")
                await writer.drain()
                closed = json.loads(await reader_s.readline())
                assert closed["ok"], closed
                return closed["report"]
            finally:
                writer.close()

        async def drive():
            reports = await asyncio.gather(*(
                one_stream(index, path)
                for index, path in enumerate(dumps)))
            reader_s, writer = await asyncio.open_connection(host, port)
            writer.write(b"GET /health HTTP/1.1\r\n\r\n")
            await writer.drain()
            raw = await reader_s.read()
            writer.close()
            return reports, raw

        reports, health_raw = asyncio.run(
            asyncio.wait_for(drive(), timeout=120))
        for report, (status, detections) in zip(reports, expected):
            assert report["detections"] == detections
            assert report["accepted"] == (status == 0)
        health = json.loads(health_raw.partition(b"\r\n\r\n")[2])
        assert health["status"] == "ok"
        assert health["monitors"] == [_CHART]
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=15)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=15)
