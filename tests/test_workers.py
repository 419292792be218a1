"""otafl._workers: the one rule for work off the calling thread, and the one
module that makes threads."""

import ast
import threading
from pathlib import Path

import pytest

from otafl import _workers

SRC = Path(_workers.__file__).parent


def imported_modules(path: Path) -> set[str]:
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module)
            modules.update(f"{node.module}.{alias.name}" for alias in node.names)
    return modules


def test_only_the_workers_module_imports_threads():
    importers = {
        path.name: imported_modules(path) & {"threading", "queue", "concurrent.futures"}
        for path in sorted(SRC.glob("*.py"))
    }
    assert len(importers) > 10
    assert {name: found for name, found in importers.items() if found} == {
        "_workers.py": {"threading", "queue"}
    }
    assert not any(
        module == "concurrent" or module.startswith("concurrent.")
        for path in SRC.glob("*.py")
        for module in imported_modules(path)
    )


@pytest.mark.parametrize("cpus", [1, 2])
def test_offloads_takes_two_cpus_and_both_floors(monkeypatch, cpus):
    monkeypatch.setattr(_workers, "cpu_count", lambda: cpus)
    pool, handoff = _workers.POOL_BYTES, _workers.HANDOFF_BYTES
    assert pool == 8 << 20 and handoff == 256 << 10
    assert _workers.offloads(pool, handoff) == (cpus > 1)
    assert not _workers.offloads(pool - 1, handoff)
    assert not _workers.offloads(pool, handoff - 1)


def test_worker_runs_calls_in_turn_and_raises_their_errors():
    done, error = [], RuntimeError("call failed")

    def fail():
        raise error

    before = threading.active_count()
    worker = _workers.Worker()
    worker.submit(done.append, 1)
    worker.submit(fail)
    worker.submit(done.append, 2)
    worker.close()  # the calls end first, and may still be waited for
    assert threading.active_count() == before
    worker.wait()
    with pytest.raises(RuntimeError) as raised:
        worker.wait()
    assert raised.value is error
    worker.wait()
    assert done == [1, 2]
