"""Starting, talking to and stopping the program process of a run.

Every program process runs from the checkout's ``src`` with the run
ledger off and its working directory, flight dumps and span files in a
scratch directory the run deletes when it ends, so a run leaves the
checkout as it found it.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import urllib.request
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"

#: How long a program process may take to become ready.
READY_TIMEOUT_S = 120.0

#: How long a program process may take to exit once asked to.
STOP_TIMEOUT_S = 30.0


def _split_cpus():
    """``(driver, program)``: the program gets the last CPU to itself.

    Each process then keeps one CPU's caches and the host's current
    speed of that CPU, which :mod:`reference` measures.  With a single
    CPU nothing is pinned (``program`` is empty).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set()
    return set(cpus[:-1]), {cpus[-1]}


DRIVER_CPUS, PROGRAM_CPUS = _split_cpus()


def pin_driver() -> None:
    """Keep the driver off the program's CPU."""
    if PROGRAM_CPUS:
        os.sched_setaffinity(0, DRIVER_CPUS)


def _pin_program() -> None:
    if PROGRAM_CPUS:
        os.sched_setaffinity(0, PROGRAM_CPUS)


class ProgramError(RuntimeError):
    """The program process failed to start, answer or stop."""


def child_env(scratch: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_LEDGER"] = "0"
    env["REPRO_FLIGHT_DIR"] = str(scratch / "flight")
    return env


def peak_rss_mb(pid: int) -> float:
    """Peak resident set size of a live process (Linux ``VmHWM``)."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ProgramError(f"no VmHWM for pid {pid}")


def cpu_s(pid: int) -> float:
    """CPU time of a live process's threads, in seconds.

    The sum of ``/proc/PID/task/*/schedstat`` run times: nanosecond
    resolution, and on a kernel with paravirtual time accounting it
    leaves out the time the host ran something else on the CPU (steal).
    A thread that already ended is not counted.
    """
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (OSError, ValueError, IndexError):
            pass  # the thread ended while we read
    return total / 1e9


def _readline(proc: subprocess.Popen, timeout_s: float) -> str:
    """One stdout line, or ProgramError when the process dies or stalls."""
    import selectors

    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout_s):
            raise ProgramError(f"no output within {timeout_s:g}s")
    line = proc.stdout.readline()
    if not line:
        raise ProgramError(f"program exited with code {proc.wait()}")
    return line


class _Program:
    proc: subprocess.Popen

    def _spawn(self, argv: List[str], scratch: Path, stdin) -> None:
        self.log_path = scratch / f"program-{len(list(scratch.glob('program-*')))}.log"
        self._log = open(self.log_path, "wb")
        # A shell that starts a job in the background makes it ignore
        # SIGINT, and an ignored signal stays ignored across exec: the
        # program could then not be stopped the way an operator stops
        # ``repro serve``.  A Python-level handler is reset to the default
        # in the child instead.
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            self.proc = subprocess.Popen(
                argv,
                cwd=scratch,
                env=child_env(scratch),
                stdin=stdin,
                stdout=subprocess.PIPE,
                stderr=self._log,
                text=True,
                preexec_fn=_pin_program,
            )
        finally:
            signal.signal(signal.SIGINT, previous)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def cpu_s(self) -> float:
        return cpu_s(self.proc.pid)

    def _reap(self) -> int:
        try:
            return self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()
        finally:
            self.proc.stdout.close()
            self._log.close()

    def kill(self) -> None:
        """Stop unconditionally (error paths)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self._reap()

    def error_tail(self) -> str:
        return self.log_path.read_text(errors="replace")[-2000:]


class ServeProgram(_Program):
    """``python -m repro serve`` (or its traced twin) on an ephemeral port."""

    def __init__(self, scratch: Path, flags: List[str], spans_path: Optional[Path] = None) -> None:
        if spans_path is None:
            argv = [sys.executable, "-m", "repro", "serve", *flags]
        else:
            argv = [sys.executable, str(CHILD), "serve", "--spans", str(spans_path), *flags]
        self._spawn(argv, scratch, subprocess.DEVNULL)
        try:
            line = _readline(self.proc, READY_TIMEOUT_S)
        except ProgramError as exc:
            self.kill()
            raise ProgramError(f"repro serve did not start: {exc}\n{self.error_tail()}") from None
        if "listening on http://" not in line:
            self.kill()
            raise ProgramError(f"unexpected first line from repro serve: {line!r}")
        address = line.split("http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)

    def stats(self) -> Dict:
        url = f"http://{self.host}:{self.port}/stats"
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            return json.loads(resp.read())

    def stop(self) -> int:
        """SIGINT, the way an operator stops the service; returns its exit code."""
        self.proc.send_signal(signal.SIGINT)
        return self._reap()


class ClaimsProgram(_Program):
    """The claim-monitor child of ``child.py claims``."""

    def __init__(self, scratch: Path, spans_path: Optional[Path] = None) -> None:
        argv = [sys.executable, str(CHILD), "claims"]
        if spans_path is not None:
            argv += ["--spans", str(spans_path)]
        self._spawn(argv, scratch, subprocess.PIPE)
        try:
            self.ready = json.loads(_readline(self.proc, READY_TIMEOUT_S))
        except (ProgramError, ValueError) as exc:
            self.kill()
            raise ProgramError(f"claims program did not start: {exc}\n{self.error_tail()}") from None

    def evaluate(self, name: str, timeout_s: float) -> Dict:
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        return json.loads(_readline(self.proc, timeout_s))

    def stop(self) -> int:
        self.proc.stdin.write("exit\n")
        self.proc.stdin.close()
        return self._reap()
