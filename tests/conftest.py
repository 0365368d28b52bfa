"""Shared fixtures.

Most tests build their own small inputs; the fixtures here are the few
expensive-but-reusable ones (the reference stable configuration used by
every cross-variant equality test, a small climate dataset, a shrunken
carbon scenario), plus the autouse leak check every test runs under.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.carbon.scenario import AssignmentScenario
from repro.climate.dwd import generate_dataset
from repro.easypap import executor
from repro.sandpile.model import center_pile, random_uniform
from repro.sandpile.theory import stabilize

_SHM = Path("/dev/shm")
_FDS = Path("/proc/self/fd")
_TASKS = Path("/proc/self/task")
#: how long a child process or thread may take to finish once its test is over
_GRACE_S = 1.0


def pytest_configure(config):
    # the shared-memory resource tracker is a child process with a pipe to
    # this one, started on first use and kept until the test run ends:
    # start it now, so the test that happens to use shared memory first is
    # not blamed for it
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    # likewise the first shared ctypes object (a FaultInjector's counter)
    # maps an arena file that the multiprocessing heap keeps for reuse
    multiprocessing.get_context("spawn").Value("i", 0)


def _children() -> set[int]:
    """Pids of this process's live children (every thread's, on Linux)."""
    multiprocessing.active_children()  # reaps the workers that have exited
    if not _TASKS.is_dir():
        return {p.pid for p in multiprocessing.active_children()}
    pids: set[int] = set()
    for task in _TASKS.iterdir():
        try:
            pids.update(int(p) for p in (task / "children").read_text().split())
        except OSError:  # the thread ended while we looked
            pass
    return pids


def _non_daemon_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if not t.daemon and t is not threading.main_thread()}


def _shm_segments() -> set[str]:
    return {p.name for p in _SHM.glob("psm_*")} if _SHM.is_dir() else set()


def _fds() -> set[int]:
    return {int(fd) for fd in os.listdir(_FDS)} if _FDS.is_dir() else set()


def _open_fd_targets(fds) -> list[str]:
    """``fd -> target`` for each of *fds* still open (listing one opens one)."""
    out = []
    for fd in sorted(fds):
        try:
            out.append(f"{fd} -> {os.readlink(_FDS / str(fd))}")
        except OSError:  # closed since: the directory handle of a listing
            pass
    return out


def _outlived(new, still_there) -> list:
    """The members of *new* that are still there after the grace period."""
    deadline = time.monotonic() + _GRACE_S
    left = set(new)
    while left and time.monotonic() < deadline:
        time.sleep(0.01)
        left &= still_there()
    return sorted(left, key=str)


@pytest.fixture(autouse=True)
def no_leaks():
    """Fail the test that leaves an OS resource behind, naming it.

    Checked once the test is over and the idle worker pool is shut down
    (:func:`repro.easypap.executor.shutdown_idle_pool`): a shared-memory
    segment the test created, a child process, a non-daemon thread, or
    (on Linux) an open file descriptor more than before the test.
    """
    shm, children, threads, fds = _shm_segments(), _children(), _non_daemon_threads(), _fds()
    yield
    executor.shutdown_idle_pool()
    leaks = [f"shared-memory segment /dev/shm/{name}" for name in sorted(_shm_segments() - shm)]
    names = {p.pid: p.name for p in multiprocessing.active_children()}
    leaks += [
        f"child process {pid} ({names.get(pid, 'not a multiprocessing child')})"
        for pid in _outlived(_children() - children, _children)
    ]
    leaks += [
        f"non-daemon thread {t.name!r}"
        for t in _outlived(_non_daemon_threads() - threads, _non_daemon_threads)
    ]
    after = _fds()
    if len(after) > len(fds):
        leaks += [f"file descriptor {fd}" for fd in _open_fd_targets(after - fds)]
    if leaks:
        pytest.fail("test leaked: " + "; ".join(leaks), pytrace=False)


@pytest.fixture(scope="session")
def small_random_grid():
    """A 24x24 random configuration (fresh copy per use via .copy())."""
    return random_uniform(24, 24, max_grains=12, seed=11)


@pytest.fixture(scope="session")
def small_random_stable(small_random_grid):
    """The stabilised fixpoint of ``small_random_grid`` (do not mutate)."""
    return stabilize(small_random_grid.copy())


@pytest.fixture(scope="session")
def center_grid():
    """A 32x32 centre pile with 2000 grains."""
    return center_pile(32, 32, 2000)


@pytest.fixture(scope="session")
def center_stable(center_grid):
    return stabilize(center_grid.copy())


@pytest.fixture(scope="session")
def climate_dataset():
    """30 years of synthetic DWD data (1990-2019)."""
    return generate_dataset(1990, 2019, seed=5)


@pytest.fixture(scope="session")
def tiny_scenario():
    """A shrunken carbon scenario: 20x the smaller Montage, fast to simulate."""
    return AssignmentScenario(
        n_projections=12,
        n_difffits=20,
        gflop_scale=20.0,
        max_nodes=8,
        tab2_local_nodes=4,
        cloud_vms=4,
        time_bound=60.0,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)
