"""The system under test of the distributed workloads: one broker, N workers.

Everything is started through the public CLIs (``python -m
repro.distributed.broker`` / ``.worker``), exactly as a user deploys the
stack, with the working directory set to the benchmark's work directory so
nothing lands in the checkout (the broker's default journal location is
relative to its cwd).  Every child gets its own session, so a stuck one is
killed by process group, and ``stop`` always reaps what ``start`` spawned.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import Iterator, List, Optional

from repro.distributed.protocol import connect, recv_frame, send_frame

#: Seconds the broker gets to print its listening banner.
BANNER_TIMEOUT_S = 20.0

_BANNER = "repro-broker listening on "

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


class SystemStartError(RuntimeError):
    """The broker or a worker did not come up (or died) — never retried."""


def child_env() -> dict:
    """The environment of every subprocess: ``src`` importable, no leaks.

    Fault plans and store overrides of the calling shell must not reach
    the system under test.
    """
    env = dict(os.environ)
    env.pop("REPRO_FAULT_PLAN", None)
    env.pop("REPRO_RUNS_DIR", None)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + inherited if inherited else "")
    return env


def default_workers() -> int:
    """``min(2, nproc)``: never more workers than cores on a small host."""
    return min(2, os.cpu_count() or 1)


@contextmanager
def short_unix_address(path: Path) -> Iterator[str]:
    """A ``unix:`` address of socket file ``path`` that fits ``sun_path``.

    ``sun_path`` holds 108 bytes and a work directory can lie deeper than
    that, so the socket is named through an open descriptor of its
    directory.  The file is removed on exit.
    """
    directory = os.open(path.parent, os.O_RDONLY | os.O_DIRECTORY)
    try:
        yield f"unix:/proc/self/fd/{directory}/{path.name}"
    finally:
        os.close(directory)
        path.unlink(missing_ok=True)


class BrokerSystem:
    """One ``repro-broker`` plus ``workers`` ``repro-worker`` processes.

    ``transport`` is ``"tcp"`` (``127.0.0.1`` on an ephemeral port, the
    default deployment) or ``"unix"`` (a socket file inside ``workdir``);
    ``journal`` keeps the broker's write-ahead journal on (its default)
    under ``workdir/journal`` or turns it off.  Workers share no RunStore.
    """

    def __init__(self, workdir: Path, transport: str = "tcp",
                 journal: bool = True, workers: Optional[int] = None) -> None:
        self.workdir = Path(workdir)
        self.transport = transport
        self.journal = journal
        self.workers = workers if workers is not None else default_workers()
        self.address = ""
        self._processes: List[subprocess.Popen] = []
        self._logs: List[object] = []
        self._address_scope = ExitStack()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> str:
        """Start everything; returns the address clients connect to."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        listen = "127.0.0.1:0" if self.transport == "tcp" else "unix:broker.sock"
        args = ["repro.distributed.broker", "--listen", listen]
        args += (["--journal", "journal"] if self.journal else ["--no-journal"])
        try:
            broker = self._spawn("broker", args, stdout=subprocess.PIPE)
            bound = self._read_banner(broker)
            for index in range(self.workers):
                self._spawn(f"worker{index}", [
                    "repro.distributed.worker", "--broker", bound,
                    "--name", f"bench-w{index}"])
        except BaseException:
            self.kill()
            raise
        if self.transport == "tcp":
            self.address = bound
        else:
            # The children resolve the socket relative to their cwd (the
            # work directory); this process is somewhere else.
            self.address = self._address_scope.enter_context(
                short_unix_address(self.workdir / "broker.sock"))
        return self.address

    def check_alive(self) -> None:
        """Raise (with the log tail) if any child has already exited."""
        for process in self._processes:
            if process.poll() is not None:
                raise SystemStartError(
                    f"{process.args[2]} exited with code {process.returncode}"
                    f"; log tail:\n{self._log_tail()}")

    def stop(self) -> None:
        """Shut the broker down cleanly, then reap (or kill) every child."""
        if self.address and self._processes \
                and self._processes[0].poll() is None:
            try:
                conn = connect(self.address, timeout=2.0)
                try:
                    send_frame(conn, {"type": "shutdown"})
                    recv_frame(conn)
                finally:
                    conn.close()
            except (OSError, RuntimeError):
                pass  # fall through to the kill below
        for process in self._processes:
            try:
                process.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self._kill(process)
                process.wait()
            if process.stdout is not None:
                process.stdout.close()
        self._processes = []
        for handle in self._logs:
            handle.close()
        self._logs = []
        self._address_scope.close()
        self.address = ""

    def kill(self) -> None:
        """Watchdog path: SIGKILL every child's process group, then reap."""
        for process in self._processes:
            self._kill(process)
        self.stop()

    # -- internals -----------------------------------------------------
    def _spawn(self, name: str, args: List[str],
               stdout: Optional[int] = None) -> subprocess.Popen:
        log = open(self.workdir / f"{name}.log", "w", encoding="utf-8")
        self._logs.append(log)
        process = subprocess.Popen(
            [sys.executable, "-m"] + args, cwd=self.workdir, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=stdout if stdout else log,
            stderr=log, text=True, start_new_session=True)
        self._processes.append(process)
        return process

    def _read_banner(self, broker: subprocess.Popen) -> str:
        ready, _, _ = select.select([broker.stdout], [], [], BANNER_TIMEOUT_S)
        line = broker.stdout.readline() if ready else ""
        if not line.startswith(_BANNER):
            raise SystemStartError(
                f"broker printed no listening banner within "
                f"{BANNER_TIMEOUT_S:g}s (got {line!r}); log tail:\n"
                f"{self._log_tail()}")
        return line[len(_BANNER):].strip()

    @staticmethod
    def _kill(process: subprocess.Popen) -> None:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    def _log_tail(self, lines: int = 5) -> str:
        tail = []
        for handle in self._logs:
            handle.flush()
            text = Path(handle.name).read_text(encoding="utf-8").splitlines()
            tail += [f"  {Path(handle.name).name}: {line}"
                     for line in text[-lines:]]
        return "\n".join(tail) or "  (logs empty)"
