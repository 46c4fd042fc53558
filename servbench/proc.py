"""The server under test, in its own process.

:class:`ServerProcess` spawns ``python -m repro.cli serve`` (or the traced
launcher) on port 0, times the spawn until the ``READY`` line and reads
the server's CPU time and peak memory from ``/proc``.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

#: Flags every benchmark server runs with: HRA sketches, no wall-clock
#: checkpoint or scrub timers (the generator checkpoints by count).
BASE_ARGS = ["--port", "0", "--hra", "--snapshot-interval", "0", "--scrub-interval", "0"]

READY_TIMEOUT_S = 60.0


class ServerError(RuntimeError):
    pass


class ServerProcess:
    """One ``serve`` process over ``data_dir``; ready when constructed."""

    def __init__(
        self,
        root: Path,
        data_dir: Path,
        extra_args: List[str],
        *,
        log_path: Path,
        trace_out: Optional[Path] = None,
    ) -> None:
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve"]
        else:
            cmd = [sys.executable, str(root / "servbench" / "traced_server.py"),
                   str(trace_out), "serve"]
        cmd += BASE_ARGS + ["--data-dir", str(data_dir)] + list(extra_args)
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.data_dir = data_dir
        self.log_path = log_path
        self._log = open(log_path, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=self._log,
        )
        try:
            self.port = self._await_ready(started)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - started

    def _await_ready(self, started: float) -> int:
        fd = self.proc.stdout.fileno()
        buffer = b""
        while True:
            remaining = READY_TIMEOUT_S - (time.perf_counter() - started)
            if remaining <= 0:
                raise ServerError(f"server not READY within {READY_TIMEOUT_S:.0f}s")
            readable, _, _ = select.select([fd], [], [], remaining)
            if not readable:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise ServerError(
                    f"server exited before READY (code {self.proc.wait()}); "
                    f"see {self.log_path}"
                )
            buffer += chunk
            for line in buffer.split(b"\n")[:-1]:
                if line.startswith(b"READY "):
                    fields = dict(part.split(b"=", 1) for part in line.split()[1:])
                    return int(fields[b"port"])

    def cpu_seconds(self) -> float:
        """User + system CPU of every thread of the server so far."""
        with open(f"/proc/{self.proc.pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServerError("VmHWM missing from /proc status")

    def signal(self, signum: int) -> None:
        self.proc.send_signal(signum)

    def kill(self) -> None:
        """Crash-stop (SIGKILL) and reap the process."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
