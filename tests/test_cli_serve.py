"""``repro serve`` as a real daemon: boot, serve a client, stop on
SIGINT with exit 0, restart on the same data directory."""

import asyncio
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

from repro.core import make_configuration
from repro.live import LiveRuntime

SRC = str(Path(__file__).resolve().parent.parent / "src")
LISTENING = re.compile(r"listening on ([\d.]+):(\d+)")
CONFIG = make_configuration("served", [("daemon", 1)], 1, 1)


def ignore_sigint():
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def boot(data_dir):
    """Start ``repro serve`` the way a script's background job starts
    (SIGINT ignored) and return the process and its address."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--name", "daemon",
         "--port", "0", "--data-dir", str(data_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        preexec_fn=ignore_sigint)
    match = LISTENING.search(proc.stdout.readline())
    assert match, proc.stderr.read()
    return proc, match.group(1), int(match.group(2))


def stop(proc):
    """SIGINT, the way an operator stops the daemon: a clean exit 0."""
    proc.send_signal(signal.SIGINT)
    try:
        assert proc.wait(timeout=5) == 0, proc.stderr.read()
    finally:
        proc.kill()
        proc.stdout.close()
        proc.stderr.close()


def against(host, port, operation):
    async def scenario():
        runtime = LiveRuntime(obs=False)
        runtime.register_server("daemon", host, port)
        try:
            return await operation(runtime)
        finally:
            await runtime.close()
    return asyncio.run(scenario())


def test_serve_stops_on_sigint_and_keeps_its_data(tmp_path):
    proc, host, port = boot(tmp_path)
    try:
        async def install_and_write(runtime):
            suite = await runtime.install(CONFIG, b"first")
            return await runtime.write(suite, b"kept across restarts")

        assert against(host, port, install_and_write).version == 2
    finally:
        stop(proc)

    proc, host, port = boot(tmp_path)
    try:
        async def read_back(runtime):
            return await runtime.read(runtime.suite(CONFIG))

        result = against(host, port, read_back)
    finally:
        stop(proc)
    assert (result.data, result.version) == (b"kept across restarts", 2)
