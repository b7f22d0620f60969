"""The one fork primitive behind every stage that splits its work over CPUs.

``map_parts(parts, here, child, receive)`` runs ``here(parts[0])`` in this
process while forked children run ``child(part)`` for the later parts, one
child a part.  Forking stops at the first ``OSError`` (no process to spare),
and each part that got no child is run by ``here`` after the children's
parts, in order.  A child sends the buffer ``child`` returns down a pipe,
its byte count first, and exits 0; it exits 1, sending nothing, when
``child`` returns None or raises.  A child leaves only by ``os._exit``, so
it never returns into the caller or flushes a buffer it shares with this
process.

This process calls ``receive(fd)`` on each child's pipe, in part order, and
``map_parts`` returns every part's result in part order.  A child's part
gives None when ``receive`` gives None (the child sent less than it
announced) or the child exits non-zero; what a stage does with such a part
is the stage's own policy.  Every pipe is closed before any child is
waited on, so a child still writing gets EPIPE instead of waiting on this
process, and every child is reaped however ``map_parts`` returns or raises.
A ``receive`` that streams a child's bytes on, as the CSV writer and the
search report do, copies them with ``_copy_payload``, which tells a child
that sent nothing from one whose bytes ended early; the CSV parse reads a
child's rows with ``_payload_size`` and ``_read_into`` straight into the
array that holds every range's rows.

A stage asks for as many parts as ``_workers`` allows, which is 1 where
``os.fork`` is missing; each part it sizes by a constant of its own.  The
CSV parse and write (``data``), the study (``study``), the search report's
JSON (``search``) and the bootstrap draws (``aggregate``) are the stages.
"""
from __future__ import annotations

import os
from functools import partial

_COPY_CHUNK = 1 << 16  # bytes per read of a child's pipe in _copy_payload


def _workers() -> int:
    """The CPUs this process may use, or 1 where it cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def map_parts(parts, here, child, receive) -> list:
    """The result of every part of ``parts``, in order, as the module
    docstring describes: ``here(parts[0])`` in this process while children
    run ``child(part)`` for the others, then ``receive(fd)`` of each
    child's pipe in order, then ``here`` of each part that got no child."""
    children: list[tuple[int, int]] = []
    try:
        for part in parts[1:]:
            try:
                children.append(_spawn(partial(child, part)))
            except OSError:  # no process to spare
                break
        results = [here(parts[0])]
        results += [receive(read) for _, read in children]
        results += [here(part) for part in parts[len(children) + 1:]]
    finally:
        exits = _reap(children)
    for i, ok in enumerate(exits, start=1):
        if not ok:
            results[i] = None
    return results


def _spawn(task):
    """Fork a child that runs ``task()`` and sends the buffer it returns
    down a pipe, its byte count first.  Returns the child's pid and the
    pipe's read end."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            payload = task()
            if payload is not None:
                view = memoryview(payload).cast("B")
                _send(write, len(view).to_bytes(8, "little"))
                _send(write, view)
                code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, read


def _send(fd: int, payload) -> None:
    view = memoryview(payload).cast("B")
    while view:
        view = view[os.write(fd, view):]


def _read_into(fd: int, buffer) -> bool:
    """Fill ``buffer`` from ``fd``; False at an early end of file."""
    view = memoryview(buffer).cast("B")
    while view:
        got = os.readv(fd, [view])
        if not got:
            return False
        view = view[got:]
    return True


def _payload_size(fd: int) -> int | None:
    """The byte count a child sent first on ``fd``; None if it sent none."""
    head = bytearray(8)
    return int.from_bytes(head, "little") if _read_into(fd, head) else None


def _receive_bytes(fd: int) -> bytearray | None:
    """The bytes a child sent on ``fd``, or None if they ended early."""
    size = _payload_size(fd)
    if size is None:
        return None
    payload = bytearray(size)
    return payload if _read_into(fd, payload) else None


def _copy_payload(fd: int, write) -> bool | None:
    """Copy the bytes a child sent on ``fd`` through ``write``,
    ``_COPY_CHUNK`` at a time, so this process never holds them all: True
    when all of them came, False when they ended early, and None, with
    nothing written, when the child sent no byte count."""
    left = _payload_size(fd)
    if left is None:
        return None
    chunk = memoryview(bytearray(min(left, _COPY_CHUNK)))
    while left:
        piece = chunk[:min(left, len(chunk))]
        if not _read_into(fd, piece):
            return False
        write(piece)
        left -= len(piece)
    return True


def _reap(children) -> list[bool]:
    """Close every child's pipe, then wait for it; for each, whether it
    exited 0.

    A child still writing gets EPIPE once its pipe is closed, so this never
    waits on a child that waits on this process."""
    for _, read in children:
        os.close(read)
    return [os.waitpid(pid, 0)[1] == 0 for pid, _ in children]
