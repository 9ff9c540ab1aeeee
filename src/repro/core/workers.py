"""Supervised worker processes: the one place the repo starts them.

Populations of chips, seeds and operating points fan out over
processes in three places — the sweep engine (one process per
campaign), the fleet executor (long-lived shard workers behind a
per-step barrier) and the hrm A/B (one process per node chunk).  They
all start, watch and stop workers through this module:

* :func:`mp_context` — ``fork`` where available (workers inherit the
  parent's interpreter configuration, so jobs-1 and jobs-N runs agree
  byte-for-byte), else ``spawn``;
* :class:`Worker` — one process plus the parent's end of a duplex
  pipe, with a receive that never blocks on a dead, silent or wedged
  worker (it raises :class:`~repro.core.exceptions.WorkerError`) and a
  ``close`` that escalates join → terminate → kill;
* :func:`farm` — one fresh worker per task, at most ``jobs`` alive at
  once, bounded retries, outcomes returned in input order.

What the workers compute, and what a failure means, stays with the
caller: the fleet's replay/quarantine protocol and the sweep's
failure rows live in their own packages.
"""

from __future__ import annotations

import logging
import multiprocessing
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import wait
from typing import Any, Callable, Dict, List, Optional, Sequence

from .exceptions import WorkerError

logger = logging.getLogger(__name__)

#: Seconds between liveness checks while a receive waits for a reply.
POLL_S = 0.05


def mp_context():
    """Prefer ``fork`` (workers inherit interpreter configuration, so
    jobs-1 and jobs-N agree byte-for-byte); fall back to ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


class Worker:
    """One supervised worker process and the parent's end of its pipe.

    The child runs ``target(*args, conn)`` with its end of a duplex
    pipe.  ``name`` prefixes every :class:`WorkerError` message.
    """

    def __init__(self, target: Callable, args: Sequence = (),
                 name: str = "worker") -> None:
        ctx = mp_context()
        self.name = name
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=target, args=(*args, child),
                                   daemon=True)
        self.process.start()
        child.close()

    def alive(self) -> bool:
        return self.process.is_alive()

    def send(self, message) -> None:
        """Send without raising: a dead worker surfaces at :meth:`recv`."""
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError):
            pass

    def recv(self, timeout: Optional[float] = None):
        """The next reply; raises :class:`WorkerError` when the worker
        closes its pipe, dies, or sends nothing within ``timeout``
        seconds (``None`` waits as long as it stays alive)."""
        conn, process = self.conn, self.process
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                if conn.poll(POLL_S):
                    return conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerError(
                    f"{self.name} closed its pipe ({exc})") from exc
            if not process.is_alive():
                try:  # drain a final buffered reply, if any
                    if conn.poll(0):
                        return conn.recv()
                except (EOFError, OSError):
                    pass
                raise WorkerError(
                    f"{self.name} died (exit code {process.exitcode})")
            if deadline is not None and time.monotonic() >= deadline:
                raise WorkerError(
                    f"{self.name} wedged: no reply within {timeout:.1f}s")

    def kill(self) -> None:
        """SIGKILL the worker if it is alive (no reaping)."""
        if self.process.is_alive():
            self.process.kill()

    def close(self, patience_s: float = 10.0) -> None:
        """Reap the worker, escalating join → terminate → kill when it
        does not exit within ``patience_s`` (then half that), and close
        the pipe."""
        process = self.process
        process.join(timeout=patience_s)
        if process.is_alive():
            logger.warning("%s still running after %.1fs; terminating",
                           self.name, patience_s)
            process.terminate()
            process.join(timeout=patience_s / 2)
        if process.is_alive():
            logger.warning("%s survived terminate; killing", self.name)
            process.kill()
            process.join()
        self.conn.close()


@dataclass
class Attempt:
    """How one farmed task ended: the last attempt's result, or why its
    worker died without one."""

    result: Any = None
    #: ``"worker crashed (exit code N)"`` when the last attempt's worker
    #: died without a result; None when it returned one.
    error: Optional[str] = None
    attempts: int = 0


def _farm_main(fn: Callable, item, conn) -> None:
    """Farm worker entry: run one task, ship its result back, exit."""
    conn.send(fn(item))
    conn.close()


def farm(fn: Callable[[Any], Any], items: Sequence, jobs: int = 1,
         max_retries: int = 0,
         ok: Optional[Callable[[Any], bool]] = None,
         on_attempt: Optional[Callable[[int, Attempt, bool], None]] = None,
         ) -> List[Attempt]:
    """Run ``fn(item)`` for every item, each in a fresh worker process.

    At most ``jobs`` workers are alive at once.  An attempt fails when
    its worker dies without a result or ``ok(result)`` is false; a
    failed task is queued again until it has run ``max_retries + 1``
    times.  ``on_attempt(index, attempt, retrying)`` sees every
    finished attempt in completion order.  The returned attempts are in
    input order whatever the completion order.
    """
    outcomes = [Attempt() for _ in items]
    pending = deque(range(len(items)))
    running: Dict[int, Worker] = {}
    while pending or running:
        while pending and len(running) < jobs:
            index = pending.popleft()
            outcomes[index].attempts += 1
            running[index] = Worker(_farm_main, (fn, items[index]),
                                    name=f"task {index} worker")
        ready = wait([worker.conn for worker in running.values()],
                     timeout=0.25)
        for index, worker in list(running.items()):
            if worker.conn not in ready and worker.alive():
                continue
            try:
                result, crashed = worker.recv(), False
            except WorkerError:
                result, crashed = None, True
            worker.close()
            del running[index]
            outcome = outcomes[index]
            outcome.result = result
            outcome.error = (f"worker crashed (exit code "
                             f"{worker.process.exitcode})"
                             if crashed else None)
            failed = outcome.error is not None or (
                ok is not None and not ok(outcome.result))
            retrying = failed and outcome.attempts <= max_retries
            if retrying:
                pending.append(index)
            if on_attempt is not None:
                on_attempt(index, outcome, retrying)
    return outcomes
