"""Tests that the fork protocol, the cut of the work and the streamed copy
are written once, in ``negcontrol._fork``, and that the cut and the
streamed copy keep their contracts."""

from __future__ import annotations

import ast
import os
from pathlib import Path

import pytest

import negcontrol
from negcontrol import _fork
from negcontrol._fork import _send
from test_call_sites import _uses
from test_data import (
    _assert_no_leak,
    _count_forks,
    _no_fork,
    _open_descriptors,
    needs_fork,
    needs_proc,
)

_PROCESS_CALLS = {"fork", "pipe", "waitpid"}


def _process_calls(tree):
    """The names of ``_PROCESS_CALLS`` that ``tree`` calls as ``os.<name>``
    or imports from ``os``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os"
                and node.func.attr in _PROCESS_CALLS):
            yield node.func.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from (alias.name for alias in node.names
                        if alias.name in _PROCESS_CALLS)


def test_only_the_fork_module_forks():
    package = Path(negcontrol.__file__).parent
    found = {
        path.name: sorted(set(_process_calls(ast.parse(path.read_text()))))
        for path in sorted(package.glob("*.py"))
    }
    assert found.pop("_fork.py") == sorted(_PROCESS_CALLS)
    assert {name: calls for name, calls in found.items() if calls} == {}


def _package_uses(names):
    """(module file, dotted enclosing scope, name) of every read of one of
    ``names`` in the package."""
    package = Path(negcontrol.__file__).parent
    return sorted((path.name, scope, name)
                  for path in package.glob("*.py")
                  for name, scope in _uses(ast.parse(path.read_text()),
                                           names))


def test_only_the_fork_module_counts_cpus_and_copies_payloads():
    # every stage takes its split from cuts and its streamed copy from
    # stream_parts, and imports neither helper
    names = {"_workers", "_copy_payload"}
    assert {path for path, _, _ in _package_uses(names)} == {"_fork.py"}
    package = Path(negcontrol.__file__).parent
    assert [(path.name, alias.name)
            for path in package.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names if alias.name in names] == []


def test_each_streamed_output_is_one_stream_parts_call():
    found = _package_uses({"stream_parts"})
    assert [(path, scope) for path, scope, _ in found
            if path != "_fork.py"] == [
        ("data.py", "_write_rows"),
    ]


# ---------------------------------------------------------------------------
# cuts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("floor", [1, 2, 5, 16])
def test_cuts_cover_the_count_in_runs_of_at_least_the_floor(monkeypatch,
                                                            workers, floor):
    monkeypatch.setattr(_fork, "_workers", lambda: workers)
    for count in range(0, 120):
        runs = _fork.cuts(count, floor)
        assert len(runs) == max(1, min(workers, count // floor))
        assert runs[0][0] == 0 and runs[-1][1] == count
        assert all(a[1] == b[0] for a, b in zip(runs, runs[1:]))
        lengths = [stop - start for start, stop in runs]
        assert max(lengths) - min(lengths) <= 1
        assert lengths[0] == max(lengths)
        if len(runs) > 1:
            assert min(lengths) >= floor


# ---------------------------------------------------------------------------
# stream_parts
# ---------------------------------------------------------------------------


def _part_bytes(part: int) -> bytes:
    """Bytes of part ``part``, long enough to take several copies."""
    return b"".join(b"part %d line %d\n" % (part, i) for i in range(50))


def _stream(k, child=_part_bytes):
    """The bytes ``stream_parts`` writes for parts 0..k-1, and the parts
    written in this process, in order."""
    out, here = bytearray(), []

    def write_here(part):
        here.append(part)
        out.extend(_part_bytes(part))

    _fork.stream_parts(list(range(k)), write_here, child,
                       lambda piece: out.extend(piece))
    return bytes(out), here


@pytest.fixture
def small_copies(monkeypatch):
    """Copy a child's bytes a few at a time, so each takes many copies."""
    monkeypatch.setattr(_fork, "_COPY_CHUNK", 7)


@needs_fork
@needs_proc
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_stream_parts_writes_every_part_in_order(monkeypatch, small_copies,
                                                 k):
    forked = _count_forks(monkeypatch)
    before = _open_descriptors()
    out, here = _stream(k)
    assert out == b"".join(_part_bytes(part) for part in range(k))
    assert here == [0]
    assert len(forked) == k - 1
    _assert_no_leak(before)


@needs_fork
@needs_proc
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("how", ["returns-none", "raises", "no-fork"])
def test_a_part_no_child_sent_is_written_here_in_its_place(
        monkeypatch, small_copies, k, how):
    forked = _count_forks(monkeypatch)
    failing = {1, k - 1}  # the first child's part and the last

    def child(part):
        if part in failing:
            if how == "raises":
                raise RuntimeError("the child's part failed")
            return None
        return _part_bytes(part)

    before = _open_descriptors()
    if how == "no-fork":  # every part got no child, so each is written here
        monkeypatch.setattr(os, "fork", _no_fork)
        out, here = _stream(k, child)
        assert out == b"".join(_part_bytes(part) for part in range(k))
        assert here == list(range(k))
    else:  # the caller writes the output again, as data._write_rows does
        with pytest.raises(ChildProcessError):
            _stream(k, child)
    assert len(forked) == (0 if how == "no-fork" else k - 1)
    _assert_no_leak(before)


@needs_fork
@needs_proc
@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("how", ["short-payload", "exit-3-after-sending"])
def test_a_child_that_fails_after_sending_raises(monkeypatch, small_copies,
                                                 k, how):
    forked = _count_forks(monkeypatch)
    failing = k - 2  # the last child; the index of a child is len(forked)
    if how == "short-payload":
        def send(fd, payload):
            view = memoryview(payload).cast("B")
            if len(forked) == failing and len(view) > 8:  # not the count
                view = view[:len(view) // 2]
            _send(fd, view)

        monkeypatch.setattr(_fork, "_send", send)
    else:
        real_exit = os._exit
        monkeypatch.setattr(os, "_exit", lambda code: real_exit(
            3 if len(forked) == failing else code))
    out, here = bytearray(), []
    before = _open_descriptors()
    with pytest.raises(ChildProcessError):
        _fork.stream_parts(list(range(k)),
                           lambda part: out.extend(_part_bytes(part)),
                           _part_bytes, lambda piece: out.extend(piece))
    assert len(forked) == k - 1
    _assert_no_leak(before)
    # what went out before the failure is the start of the output
    assert b"".join(_part_bytes(part) for part in range(k)).startswith(out)
