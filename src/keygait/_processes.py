"""The package's one way to use more than one CPU.

``across_processes(fn, items)`` is ``fn(items)``, for an ``fn`` that
maps a list to one result per item, each result depending on its item
alone. The items are dealt into ``n = min(cpu_count(), len(items))``
strided shares, share ``k`` holding ``items[k::n]``. The caller runs
``fn`` on share 0 itself, and on each other share in a child made by
``os.fork``, so neither ``fn`` nor an item is ever pickled. A child
pickles what ``fn`` returned, or the exception it raised, into a pipe
and leaves by ``os._exit``; the caller unpickles each child's payload
straight from its pipe, in share order, and puts the results back in
item order, so no result depends on ``n``. No child outlives the call.

Forking is quiet only before Python 3.12, which warns when a process
that holds threads (OpenBLAS keeps its own) forks. There, and where
there is no fork, ``cpu_count`` is 1 and every call runs inline.
"""

from __future__ import annotations

import os
import pickle
import sys
from typing import BinaryIO, Callable, TypeVar

_CAN_FORK = hasattr(os, "fork") and sys.version_info < (3, 12)

T = TypeVar("T")
R = TypeVar("R")


def cpu_count() -> int:
    """The shares worth running at once: one per CPU in this process's
    affinity mask, or 1 where ``across_processes`` runs inline."""
    if not _CAN_FORK:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_child(fn: Callable[[list], list], share: list, write_fd: int, inherited: list[BinaryIO]) -> None:
    """In a forked child: pickle ``fn(share)``, or what it raised, into
    the pipe's ``write_fd``, then end the process without running any of
    the caller's cleanup; exit status 1 where the payload could not be
    written whole. ``inherited`` are the read ends of pipes this child
    must not hold open, its own and those of the children before it, so
    that a child whose reader is gone stops writing."""
    status = 1
    try:
        for pipe in inherited:
            pipe.close()
        try:
            payload = (False, fn(share))
        except BaseException as exc:
            payload = (True, exc)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(payload, pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


class _Reader:
    """A child's pipe as ``pickle.load`` reads it, keeping as ``raised``
    what a read raised: an exception raised here while the caller waited
    for the child, such as one from a signal handler, and not one that
    the payload's bytes caused."""

    def __init__(self, pipe: BinaryIO) -> None:
        self._pipe = pipe
        self.raised: BaseException | None = None

    def _guarded(self, read: Callable, *args):
        try:
            return read(*args)
        except BaseException as exc:
            self.raised = exc
            raise

    def read(self, *args):
        return self._guarded(self._pipe.read, *args)

    def readinto(self, buffer):
        return self._guarded(self._pipe.readinto, buffer)

    def readline(self, *args):
        return self._guarded(self._pipe.readline, *args)


def across_processes(fn: Callable[[list[T]], list[R]], items: list[T]) -> list[R]:
    """``fn(items)``, one share of the items here and each other in a
    forked child, as the module docstring deals them; ``fn(items)``
    inline where forking is off or there would be fewer than 2 shares.

    A child's exception is raised here as raised, the first in share
    order, after share 0's own. A child that ends without a whole payload,
    or whose payload does not unpickle, raises ``ChildProcessError``
    naming its share and exit status. An exception raised here while
    waiting for a child, as by a signal handler, is raised as it is.
    Every child is reaped before this returns or raises, and any still
    running is killed when this raises.
    """
    n = min(cpu_count(), len(items))
    if not _CAN_FORK or n < 2:
        return fn(items)
    shares = [items[k::n] for k in range(n)]
    children: list[tuple[int, BinaryIO]] = []  # (pid, the read end of its pipe)
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            pipe = os.fdopen(read_fd, "rb")
            if pid == 0:
                _run_child(fn, share, write_fd, [p for _, p in children] + [pipe])
            os.close(write_fd)
            children.append((pid, pipe))
        results = [fn(shares[0])]
        for k, (pid, pipe) in enumerate(children, start=1):
            reader = _Reader(pipe)
            try:
                raised, value = pickle.load(reader)
            except Exception as exc:
                if exc is reader.raised:  # not the payload's fault
                    raise
                # no payload, or a cut or garbled one
                pipe.close()  # so a child still writing ends too
                _, status = os.waitpid(pid, 0)
                children.remove((pid, pipe))  # reaped
                code = os.waitstatus_to_exitcode(status)
                raise ChildProcessError(
                    f"share {k} ended with exit status {code} and no result"
                ) from exc
            if raised:
                raise value
            results.append(value)
    except BaseException:
        # imported here, as only this path needs it: the module costs 128 kB
        from signal import SIGKILL

        for pid, _ in children:  # a child that has ended is not hurt by this
            os.kill(pid, SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            os.waitpid(pid, 0)
    in_order: list = [None] * len(items)
    for k, result in enumerate(results):
        in_order[k::n] = result  # share k's results back at items k, k + n, ...
    return in_order
