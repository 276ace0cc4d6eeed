"""``GridExecutor.map``: the one fan-out for work that is not a grid item."""

from __future__ import annotations

import pytest

from repro.pipeline.executors import ProcessExecutor, SerialExecutor


def _square_unless_negative(task: int) -> int:
    if task < 0:
        raise ValueError(f"task {task} failed")
    return task * task


@pytest.fixture(params=["serial", "process"])
def executor(request):
    executor = SerialExecutor() if request.param == "serial" else ProcessExecutor(2)
    yield executor
    executor.shutdown()


def test_map_yields_in_task_order_and_raises_where_a_task_failed(executor):
    assert list(executor.map(_square_unless_negative, range(6))) == [
        0, 1, 4, 9, 16, 25,
    ]
    results = executor.map(_square_unless_negative, [3, 2, 1, -1, 5])
    assert [next(results) for _ in range(3)] == [9, 4, 1]
    with pytest.raises(ValueError, match="task -1 failed"):
        next(results)


def test_serial_map_runs_a_task_when_its_result_is_read():
    ran = []

    def record(task):
        ran.append(task)
        return task

    results = SerialExecutor().map(record, range(3))
    assert ran == []
    assert next(results) == 0 and ran == [0]
    assert next(results) == 1 and ran == [0, 1]
