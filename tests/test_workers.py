"""Tests for the shared supervised worker module (``repro.core.workers``)."""

import multiprocessing
import os
import signal
import time

import pytest

import repro.hrm.ab as hrm_ab
from repro.core.exceptions import WorkerError
from repro.core.workers import Worker, farm
from repro.hrm import HrmConfig, run_hrm_ab

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the test workers are local functions; they need fork")

_SENTINEL_ENV = "REPRO_WORKERS_TEST_SENTINEL"


def _exit_worker(conn):
    os._exit(3)


def _echo_worker(conn):
    while True:
        message = conn.recv()
        if message is None:
            break
        conn.send(message)


def _square_slowly(item):
    """Later items finish first; item 2 dies on its first attempt."""
    time.sleep(0.05 * (4 - item))
    sentinel = f"{os.environ[_SENTINEL_ENV]}.{item}"
    if item == 2 and not os.path.exists(sentinel):
        with open(sentinel, "w", encoding="utf-8"):
            pass
        os._exit(7)
    return item * item


def _exit_with_item(item):
    os._exit(item)


class TestWorker:
    def test_round_trip_and_clean_close(self):
        worker = Worker(_echo_worker)
        worker.send(("ping", 1))
        assert worker.recv(timeout=10) == ("ping", 1)
        worker.send(None)
        worker.close()
        assert worker.process.exitcode == 0

    def test_exit_raises_named_error(self):
        worker = Worker(_exit_worker, name="doomed worker")
        with pytest.raises(WorkerError, match="doomed worker"):
            worker.recv(timeout=10)
        worker.close()
        assert worker.process.exitcode == 3

    def test_sigstopped_worker_trips_the_deadline(self):
        worker = Worker(_echo_worker)
        try:
            os.kill(worker.process.pid, signal.SIGSTOP)
            worker.send("ping")
            start = time.monotonic()
            with pytest.raises(WorkerError, match="no reply within"):
                worker.recv(timeout=0.3)
            assert time.monotonic() - start < 5
        finally:
            worker.kill()
            worker.close()

    def test_close_escalates_to_sigkill(self):
        worker = Worker(_echo_worker)
        # A stopped worker ignores both a polite exit and SIGTERM.
        os.kill(worker.process.pid, signal.SIGSTOP)
        worker.close(patience_s=0.2)
        assert not worker.alive()
        assert worker.process.exitcode == -signal.SIGKILL


class TestFarm:
    def test_input_order_and_one_retry(self, tmp_path, monkeypatch):
        monkeypatch.setenv(_SENTINEL_ENV, str(tmp_path / "sentinel"))
        seen = []
        outcomes = farm(
            _square_slowly, [0, 1, 2, 3], jobs=2, max_retries=1,
            on_attempt=lambda index, attempt, retrying:
                seen.append((index, retrying)))
        assert [o.result for o in outcomes] == [0, 1, 4, 9]
        assert [o.attempts for o in outcomes] == [1, 1, 2, 1]
        assert all(o.error is None for o in outcomes)
        assert sorted(seen) == [(0, False), (1, False), (2, False),
                                (2, True), (3, False)]

    def test_rejected_results_are_retried(self):
        outcomes = farm(abs, [-1, 2], max_retries=2,
                        ok=lambda result: result > 1)
        assert [o.attempts for o in outcomes] == [3, 1]
        assert [o.result for o in outcomes] == [1, 2]
        assert all(o.error is None for o in outcomes)

    def test_exhausted_crash_is_reported(self):
        [outcome] = farm(_exit_with_item, [5], max_retries=1)
        assert outcome.result is None
        assert outcome.error == "worker crashed (exit code 5)"
        assert outcome.attempts == 2


class TestHrmWorkers:
    def test_dead_chunk_worker_raises_worker_error(self, monkeypatch):
        evaluate = hrm_ab.evaluate_node

        def dying(config, arm, node):
            if node == 3:
                os._exit(4)
            return evaluate(config, arm, node)

        monkeypatch.setattr(hrm_ab, "evaluate_node", dying)
        with pytest.raises(WorkerError, match="exit code 4"):
            run_hrm_ab(HrmConfig(n_nodes=4), jobs=2)
