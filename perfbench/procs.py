"""Child-process plumbing: start, read a line with a deadline, sample
CPU and peak RSS from ``/proc``, stop and reap."""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: corpus cache, stores, reports.
WORK = os.path.join(ROOT, ".perfbench-work")

_TICKS = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def start(args: list[str], **kwargs) -> subprocess.Popen:
    """A Python child with the program's sources on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return subprocess.Popen([sys.executable] + args, cwd=ROOT, env=env,
                            text=True, **kwargs)


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """The child's next stdout line, or ``BenchError`` when it exits or
    stays silent for ``timeout`` seconds."""
    ready, _, _ = select.select([proc.stdout], [], [], max(0.0, timeout))
    line = proc.stdout.readline() if ready else ""
    if not line:
        raise BenchError(f"{' '.join(proc.args[1:3])} printed nothing "
                         f"(exit code {proc.poll()})")
    return line.strip()


def stop(proc: subprocess.Popen, timeout: float = 20.0) -> int:
    """Interrupt the child (it cleans up on SIGINT), kill it if it does
    not exit in time, and reap it either way."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()
    return proc.returncode


def cpu_seconds(pid: int) -> float:
    """User + system CPU the process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def peak_rss_mb(pid: int) -> float:
    """The process's resident-set high-water mark (``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")
