"""across_processes: the items are dealt into strided shares, share 0
runs in the caller and each other share in a forked child, results come
back in item order and exceptions in share order, and no child outlives
a call.

Each test ends by checking that this process has no child left, reaped
or not: ``os.waitpid(-1, os.WNOHANG)`` raises ``ChildProcessError`` only
when there is none.
"""

import os
import signal
import time

import numpy as np
import pytest

from keygait import TrainingError, _processes
from keygait._processes import across_processes

forks = pytest.mark.skipif(
    not _processes._CAN_FORK,
    reason="no fork here, or Python 3.12+, which warns when a process holding threads forks",
)


def assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    assert_no_child_left()


def _pids_and_squares(xs):
    return [(os.getpid(), x * x) for x in xs]


@pytest.fixture
def three_cpus(monkeypatch):
    """``cpu_count`` is 3, so 3 or more items make 3 shares and 2 children,
    whatever the CPUs of this machine."""
    monkeypatch.setattr(_processes, "cpu_count", lambda: 3)


def test_the_check_sees_a_child():
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    try:
        os.waitpid(-1, os.WNOHANG)  # a child is left (running or not): no raise
    finally:
        os.waitpid(pid, 0)


@forks
@pytest.mark.parametrize("n_items, cpus", [(4, 4), (7, 3), (2, 3)])
def test_share_0_runs_here_and_each_other_in_a_child_of_its_own(monkeypatch, n_items, cpus):
    # item i is in share i % n, n = min(cpus, n_items), and comes back at i
    monkeypatch.setattr(_processes, "cpu_count", lambda: cpus)
    out = across_processes(_pids_and_squares, list(range(n_items)))
    assert [square for _, square in out] == [i * i for i in range(n_items)]
    n = min(cpus, n_items)
    pids = [out[k][0] for k in range(n)]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == n
    assert [pid for pid, _ in out] == [pids[i % n] for i in range(n_items)]


@forks
@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no os.sched_setaffinity here")
def test_cpu_count_reads_the_affinity_mask():
    assert _processes.cpu_count() == len(os.sched_getaffinity(0))
    # a forked child pinned to one CPU exits with what cpu_count gives it
    cpu = min(os.sched_getaffinity(0))
    pid = os.fork()
    if pid == 0:
        count = 255
        try:
            os.sched_setaffinity(0, {cpu})
            count = _processes.cpu_count()
        finally:
            os._exit(count)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 1


@pytest.mark.parametrize(
    "items, can_fork",
    [([1, 2, 3], False), ([], True), ([5], True)],
    ids=["forking-off", "no-items", "one-item"],
)
def test_inline_is_one_call_of_fn_on_all_items(monkeypatch, three_cpus, items, can_fork):
    monkeypatch.setattr(_processes, "_CAN_FORK", can_fork and _processes._CAN_FORK)
    calls = []

    def fn(xs):
        calls.append(xs)
        return _pids_and_squares(xs)

    assert across_processes(fn, items) == [(os.getpid(), n * n) for n in items]
    assert calls == [items]


def test_no_fork_counts_one_cpu(monkeypatch):
    monkeypatch.setattr(_processes, "_CAN_FORK", False)
    assert _processes.cpu_count() == 1


@forks
def test_payloads_larger_than_a_pipe_arrive_whole(three_cpus):
    def column(seed):
        return np.random.default_rng(seed).random(200_000)  # 1.6 MB

    out = across_processes(lambda seeds: [column(seed) for seed in seeds], [0, 1, 2])
    for seed, values in enumerate(out):
        assert np.array_equal(values, column(seed))


def _fail_in(failing):
    """An ``fn`` for the items [0, 1, 2] on three CPUs, so share k is [k]."""

    def fit(share):
        [k] = share
        if k in failing:
            raise TrainingError(f"non-finite loss in share {k}")
        return share

    return fit


@forks
def test_a_childs_exception_arrives_as_raised(three_cpus):
    with pytest.raises(TrainingError) as info:
        across_processes(_fail_in({1}), [0, 1, 2])
    assert type(info.value) is TrainingError
    assert str(info.value) == "non-finite loss in share 1"


@forks
def test_the_first_exception_in_share_order_wins(three_cpus):
    with pytest.raises(TrainingError, match="^non-finite loss in share 1$"):
        across_processes(_fail_in({1, 2}), [0, 1, 2])
    with pytest.raises(TrainingError, match="^non-finite loss in share 0$"):
        across_processes(_fail_in({0, 2}), [0, 1, 2])


@forks
def test_a_child_that_exits_without_a_result_is_an_error(three_cpus):
    def share(ks):
        if ks == [1]:
            os._exit(3)
        return ks

    with pytest.raises(ChildProcessError, match="^share 1 ended with exit status 3 and no result$"):
        across_processes(share, [0, 1, 2])


@forks
def test_a_result_that_does_not_pickle_is_an_error(three_cpus):
    with pytest.raises(ChildProcessError, match="^share 1 ended with exit status 1 and no result$"):
        across_processes(lambda ks: [(lambda: k) for k in ks], [0, 1])


def _refuse_to_unpickle():
    raise ValueError("this payload does not unpickle")


class _Unpicklable:
    def __reduce__(self):
        return _refuse_to_unpickle, ()


@forks
def test_a_payload_cut_short_by_the_caller_ends_its_child(three_cpus):
    # Share 1's payload fails to unpickle before its 1 MB tail is read, so
    # its child is left writing to a full pipe; it must end once the caller
    # closes that pipe, though share 2's child, itself blocked writing,
    # was forked after the pipe was made.
    def share(ks):
        return [[_Unpicklable(), bytes(1 << 20)] if k == 1 else bytes(1 << 20) for k in ks]

    def hang(signum, frame):
        raise TimeoutError("across_processes hung")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(30)
    try:
        with pytest.raises(ChildProcessError, match="^share 1 ended with exit status 1 and no result$"):
            across_processes(share, [0, 1, 2])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@forks
def test_children_still_running_are_killed_when_share_0_raises(three_cpus):
    def share(ks):
        if ks == [0]:
            raise TrainingError("share 0 failed")
        time.sleep(60)

    start = time.perf_counter()
    with pytest.raises(TrainingError, match="^share 0 failed$"):
        across_processes(share, [0, 1, 2])
    assert time.perf_counter() - start < 30
