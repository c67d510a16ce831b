"""Child-process control for the benchmark: spawn, observe, reap.

Everything the benchmark measures as "the system under test" runs in a
child process tree it starts itself: a ``repro`` CLI run, or a
``repro serve`` process with its pool workers and multiprocessing
resource tracker.  This module spawns those trees in their own session
(so the whole tree can be signalled at once), reads their CPU time and
peak resident memory from ``/proc`` while they are alive, and reaps
every process of the tree before the next run starts — a server left
behind by one run would otherwise share the two CPUs with the next.
"""

from __future__ import annotations

import ctypes
import os
import re
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
_PR_SET_CHILD_SUBREAPER = 36
_BANNER = re.compile(r"listening on ([0-9.]+):(\d+)")


def become_subreaper() -> None:
    """Adopt orphaned descendants so they can be waited for.

    A server's pool workers and resource tracker outlive the server by
    a few milliseconds; as a subreaper this process inherits them and
    :func:`wait_gone` can reap each instead of guessing.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        pass


def wait_gone(pids: Sequence[int], timeout: float) -> bool:
    """Wait until each of ``pids`` has exited; False on timeout.

    An adopted descendant is reaped here; one that is not (yet) this
    process's child counts as gone once ``/proc`` shows it dead.
    """
    pending = set(pids)
    deadline = time.monotonic() + timeout
    while pending:
        for pid in list(pending):
            try:
                if os.waitpid(pid, os.WNOHANG)[0]:
                    pending.discard(pid)
            except ChildProcessError:
                fields = _stat_fields(pid)
                if fields is None or fields[0] == "Z":
                    pending.discard(pid)
        if pending:
            if time.monotonic() > deadline:
                return False
            time.sleep(0.01)
    return True


def stop_own_children(timeout: float = 10.0) -> None:
    """Stop what this process started itself and wait for it.

    Shared-memory probes start multiprocessing's resource tracker as a
    child of this process; it would otherwise outlive the benchmark.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    if not wait_gone(descendants(os.getpid()), timeout):
        raise RuntimeError("child processes did not exit in time")


def _stat_fields(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` fields after the command name, or None."""
    try:
        raw = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return raw[raw.rindex(")") + 2:].split()


def descendants(root: int) -> List[int]:
    """Every process (zombies too) whose parent chain leads to ``root``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat_fields(int(entry))
        if fields is None:
            continue
        children.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return found


def cpu_seconds(pids: Sequence[int]) -> float:
    """User + system CPU seconds of ``pids`` so far (dead ones count 0)."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _CLOCK_TICKS


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Summed ``VmHWM`` (peak resident set) of ``pids``, in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except (FileNotFoundError, ProcessLookupError):
            continue
        match = re.search(r"^VmHWM:\s+(\d+) kB", status, re.MULTILINE)
        if match:
            total_kb += int(match.group(1))
    return total_kb / 1024.0


@dataclass
class ChildResult:
    """One finished child: wall time, CPU time, peak RSS, exit code."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    output: str


def run_child(
    argv: Sequence[str], env: Dict[str, str], log: Path, timeout: float = 120.0
) -> ChildResult:
    """Run ``argv`` to completion, output to ``log``; rusage from ``wait4``.

    The output goes to a file rather than a pipe so a chatty child can
    never block on a full pipe while the clock runs; a watchdog kills
    the child's session if it outlives ``timeout``.
    """
    with open(log, "wb") as sink:
        started = time.perf_counter()
        proc = subprocess.Popen(
            list(argv),
            env=env,
            stdout=sink,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        watchdog = threading.Timer(timeout, _kill_session, (proc.pid,))
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        output=log.read_text(errors="replace"),
    )


def _kill_session(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class ServerProcess:
    """A ``repro serve`` child, timed from spawn to its banner.

    ``setup_s`` is the wall from ``Popen`` to the moment the
    ``listening on HOST:PORT`` line is read.  A reader thread keeps
    draining the server's output afterwards so it can never block on a
    full pipe.
    """

    def __init__(
        self, argv: Sequence[str], env: Dict[str, str], timeout: float = 60.0
    ) -> None:
        self.lines: List[str] = []
        self._ready = threading.Event()
        self.host = ""
        self.port = 0
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv),
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        self._ready_at = 0.0
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        if not self._ready.wait(timeout) or not self.port:
            self.stop()
            raise RuntimeError(
                "repro serve did not come up:\n" + "".join(self.lines[-20:])
            )
        self.setup_s = self._ready_at - started

    def _drain(self) -> None:
        for raw in self.proc.stdout:
            line = raw.decode(errors="replace")
            self.lines.append(line)
            if not self._ready.is_set():
                match = _BANNER.search(line)
                if match:
                    self._ready_at = time.perf_counter()
                    self.host, self.port = match.group(1), int(match.group(2))
                    self._ready.set()
        self._ready.set()  # EOF: unblock a waiter on a dead server

    def tree(self) -> List[int]:
        """The server and every live descendant (pool, tracker)."""
        return [self.proc.pid] + descendants(self.proc.pid)

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM, wait, then kill and reap whatever is left."""
        family = descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                _kill_session(self.proc.pid)
                self.proc.wait()
        if not wait_gone(family, 10.0):
            _kill_session(self.proc.pid)
            if not wait_gone(family, 10.0):
                raise RuntimeError(f"server processes {family} did not exit")
        self._reader.join(timeout=10.0)
        self.proc.stdout.close()
