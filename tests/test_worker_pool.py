"""Persistent worker pool: correctness, crash recovery, failure modes.

The pool is the campaign service's execution substrate, so these tests
lock in its two contracts: (1) pool output is bit-identical to in-process
serial execution, and (2) a worker dying mid-shard — injected here as a
real ``SIGKILL`` inside a real worker via the fault-token hook — is
recovered by replacing the worker and re-dispatching the shard, without
changing any result.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import build_workload
from repro.sampler import exec_backend
from repro.sampler.checkpoint import DEFAULT_WARMUP_INSTS
from repro.sampler.exec_backend import (
    FAULT_TOKEN_ENV,
    WorkerCrashError,
    WorkerPool,
    execute_tasks,
)
from repro.sampler.runner import prepare_campaign, run_campaign
from repro.uarch import SMALL_BOOM

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="worker pool tests patch module state across fork")


def make_tasks(n_inputs: int = 2, name: str = "sam-ct"):
    workload = build_workload(name, inputs=n_inputs, seed=3)
    plan = prepare_campaign(workload, SMALL_BOOM, cache=None,
                            warmup_insts=DEFAULT_WARMUP_INSTS)
    return plan.tasks


def output_signature(outputs):
    """Content fingerprint of a RunOutput list (order-sensitive)."""
    return [
        (output.run_index,
         [(record.label,
           sorted((feature_id, feature.snapshot_hash)
                  for feature_id, feature in record.features.items()))
          for record in output.iterations])
        for output in outputs
    ]


def campaign_signature(campaign):
    return [
        (record.index, record.run_index, record.label,
         sorted((feature_id, feature.snapshot_hash)
                for feature_id, feature in record.features.items()))
        for record in campaign.iterations
    ]


def test_pool_output_matches_serial():
    tasks = make_tasks(3)
    serial = execute_tasks(tasks, jobs=1)
    with WorkerPool(2) as pool:
        pooled = execute_tasks(tasks, jobs=pool)
        stats = pool.stats()
    assert output_signature(pooled) == output_signature(serial)
    assert stats["shards_completed"] == 3
    assert stats["tasks_completed"] == 3
    assert stats["workers_replaced"] == 0


def test_run_campaign_with_pool_is_bit_identical():
    workload = build_workload("sam-ct", inputs=2, seed=3)
    serial = run_campaign(workload, SMALL_BOOM, cache=None,
                          warmup_insts=DEFAULT_WARMUP_INSTS)
    with WorkerPool(2) as pool:
        pooled = run_campaign(workload, SMALL_BOOM, cache=None,
                              warmup_insts=DEFAULT_WARMUP_INSTS, jobs=pool)
    assert campaign_signature(pooled) == campaign_signature(serial)


def test_shard_submission_preserves_task_order():
    tasks = make_tasks(4)
    with WorkerPool(3) as pool:
        future = pool.submit(tasks)
        outputs = future.result(timeout=120).outputs
    assert [output.run_index for output in outputs] \
        == [task.run_index for task in tasks]


def test_fault_token_kills_one_worker_and_redispatches(tmp_path,
                                                       monkeypatch):
    token = tmp_path / "fault-token"
    token.write_text("boom")
    monkeypatch.setenv(FAULT_TOKEN_ENV, str(token))
    tasks = make_tasks(3)
    serial_signature = output_signature(execute_tasks(tasks, jobs=1))
    # Env is inherited at fork, so the pool must start after setenv.
    with WorkerPool(2) as pool:
        pooled = execute_tasks(tasks, jobs=pool)
        stats = pool.stats()
    assert output_signature(pooled) == serial_signature
    assert not token.exists(), "the fault token should be consumed"
    assert stats["workers_replaced"] == 1
    assert stats["shards_redispatched"] >= 1
    assert stats["shards_completed"] == 3
    assert stats["workers"] == 2  # pool is back at full strength


def test_pool_survives_fault_and_keeps_working(tmp_path, monkeypatch):
    token = tmp_path / "fault-token"
    token.write_text("boom")
    monkeypatch.setenv(FAULT_TOKEN_ENV, str(token))
    tasks = make_tasks(2)
    with WorkerPool(2) as pool:
        first = execute_tasks(tasks, jobs=pool)
        # Token consumed: a second round must run clean on the healed pool.
        second = execute_tasks(tasks, jobs=pool)
        stats = pool.stats()
    assert output_signature(first) == output_signature(second)
    assert stats["workers_replaced"] == 1


def test_python_error_fails_shard_without_retry(monkeypatch):
    def _explode(task):
        raise ValueError(f"bad task {task.run_index}")

    monkeypatch.setattr(exec_backend, "execute_run", _explode)
    tasks = make_tasks(1)
    with WorkerPool(1) as pool:
        future = pool.submit(tasks)
        with pytest.raises(ValueError, match="bad task"):
            future.result(timeout=60)
        stats = pool.stats()
    assert stats["shards_failed"] == 1
    assert stats["shards_redispatched"] == 0
    assert stats["workers_replaced"] == 0  # the worker survived


def test_fault_token_in_a_jobs_stream_is_survived(tmp_path, monkeypatch):
    """A ``jobs=2`` stream runs on the crash-tolerant pool: a worker killed
    mid-shard costs a re-dispatch, not the run."""
    token = tmp_path / "fault-token"
    token.write_text("boom")
    monkeypatch.setenv(FAULT_TOKEN_ENV, str(token))
    tasks = make_tasks(3)
    serial_signature = output_signature(execute_tasks(tasks, jobs=1))
    assert token.exists()  # in-process runs never consume the token
    assert output_signature(execute_tasks(tasks, jobs=2)) == serial_signature
    assert not token.exists(), "the fault token should be consumed"


class _UnrebuildableError(Exception):
    """Pickles, but cannot be rebuilt from its ``args`` on unpickling."""

    def __init__(self, code, detail):
        super().__init__(f"code {code}: {detail}")


def test_error_that_cannot_cross_the_pipe_arrives_as_runtime_error(
        monkeypatch):
    def _explode(task):
        raise _UnrebuildableError(7, f"task {task.run_index}")

    monkeypatch.setattr(exec_backend, "execute_run", _explode)
    with WorkerPool(1) as pool:
        future = pool.submit(make_tasks(1))
        with pytest.raises(RuntimeError) as excinfo:
            future.result(timeout=60)
        stats = pool.stats()
    assert str(excinfo.value) == "_UnrebuildableError: code 7: task 0"
    assert stats["shards_failed"] == 1
    assert stats["shards_redispatched"] == 0
    assert stats["workers_replaced"] == 0


def test_poison_shard_exhausts_redispatch_budget(monkeypatch):
    def _die(_task):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(exec_backend, "execute_run", _die)
    tasks = make_tasks(1)
    with WorkerPool(1, max_redispatch=1) as pool:
        future = pool.submit(tasks)
        with pytest.raises(WorkerCrashError, match="giving up"):
            future.result(timeout=60)
        stats = pool.stats()
    assert stats["workers_replaced"] == 2  # initial dispatch + one retry
    assert stats["shards_redispatched"] == 1
    assert stats["shards_failed"] == 1


def test_submit_after_close_raises():
    pool = WorkerPool(1)
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        pool.submit(make_tasks(1))


def test_close_fails_pending_futures(monkeypatch):
    def _die(_task):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(exec_backend, "execute_run", _die)
    # One worker, generous budget: the shard is mid-redispatch forever
    # until close(), which must fail it rather than leak a hung future.
    pool = WorkerPool(1, max_redispatch=10_000)
    future = pool.submit(make_tasks(1))
    pool.close()
    with pytest.raises(RuntimeError):
        future.result(timeout=10)


def test_execute_tasks_with_pool_and_no_tasks():
    with WorkerPool(1) as pool:
        assert execute_tasks([], jobs=pool) == []


def _running(pid: int) -> bool:
    """True while ``pid`` exists and has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="reads /proc")
def test_workers_exit_when_the_pool_owner_is_killed():
    """A SIGKILLed owner runs no cleanup; its workers must still notice
    (EOF on their pipe) and exit rather than live on as orphans."""
    src = Path(__file__).resolve().parents[1] / "src"
    with subprocess.Popen(
            [sys.executable, "-c",
             "import sys\n"
             "from repro.sampler.exec_backend import WorkerPool\n"
             "pool = WorkerPool(2)\n"
             "print(*(h.process.pid for h in pool._handles.values()), "
             "flush=True)\n"
             "sys.stdin.read()\n"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(src))) as owner:
        try:
            workers = [int(pid) for pid in owner.stdout.readline().split()]
        finally:
            owner.kill()
    assert len(workers) == 2
    deadline = time.monotonic() + 10
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, workers)), workers


#: A ``jobs=2`` stream of two one-input groups.  Each worker writes its pid
#: (one ``write`` plus ``flush``) when its shard starts, then simulates.
_STREAM_OWNER = """\
import os, sys, time
from repro.cli import build_workload
from repro.sampler import exec_backend
from repro.sampler.runner import prepare_campaign
from repro.uarch import SMALL_BOOM

run_batch = exec_backend.execute_run_batch

def announce(group):
    sys.stdout.write(f"{os.getpid()}\\n")
    sys.stdout.flush()
    time.sleep(1)
    return run_batch(group)

exec_backend.execute_run_batch = announce
workload = build_workload("sam-ct", inputs=2, seed=3)
exec_backend.execute_tasks(prepare_campaign(workload, SMALL_BOOM).tasks,
                           jobs=2)
"""


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="reads /proc")
def test_stream_workers_exit_when_the_stream_owner_is_killed():
    """A SIGKILLed ``--jobs 2`` run leaves no workers behind, even while
    they are mid-shard."""
    src = Path(__file__).resolve().parents[1] / "src"
    with subprocess.Popen(
            [sys.executable, "-c", _STREAM_OWNER],
            stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(src))) as owner:
        try:
            workers = [int(owner.stdout.readline()) for _ in range(2)]
        finally:
            owner.kill()
    assert len(set(workers)) == 2 and owner.pid not in workers
    deadline = time.monotonic() + 10
    while any(map(_running, workers)) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not any(map(_running, workers)), workers
