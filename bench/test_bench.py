"""Self-tests of the benchmark.

    python3 -m pytest bench

The tracer must leave the package exactly as it found it, tracing must not
change any output, and the counts of a traced run must repeat exactly.
"""

from __future__ import annotations

import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

EXTRA = [(workloads, "dump", "cli.dump")]


def _bindings() -> dict:
    """Every attribute of the layers, of their classes and of the kernel
    namespace, and the benchmark's own traced function."""
    from coxsub import backend

    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"coxsub.{layer}")
        for attr, obj in vars(mod).items():
            out[(layer, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for name, raw in vars(obj).items():
                    out[(layer, attr, name)] = raw
    for attr, obj in vars(backend.active).items():
        out[("backend.active", attr)] = obj
    out[("workloads", "dump")] = workloads.dump
    return out


def test_uninstall_restores_every_binding():
    before = _bindings()
    tr = Tracer().install(extra=EXTRA)
    try:
        during = _bindings()
    finally:
        tr.uninstall()
    after = _bindings()
    changed = {key for key in before if during[key] is not before[key]}
    # the import sites, not only the defining modules, were rebound
    for key in [("braid", "build"), ("rhoposet", "build"), ("rhoposet", "classify"),
                ("rhoposet", "is_isomorphic_constrained"),
                ("backend.active", "reduced_subword_masks"),
                ("simplicial", "LabeledComplex", "from_facets"),
                ("workloads", "dump")]:
        assert key in changed, key
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def _counts(metrics: dict) -> dict:
    return {name: value for name, (value, unit) in metrics.items() if unit == "count"}


# one order operation is the A4 w0 anchor
@pytest.mark.parametrize("workload, count", [("classify", 60), ("complex", 32), ("order", 1)])
def test_traced_outputs_match_and_counts_repeat(workload, count):
    runs = [run.traced_run(workloads, workload, 1, count, []) for _ in range(2)]
    for ledger, metrics, _, _ in runs:
        # traced_run lists here every traced digest that differs from the untraced one
        assert ledger.wrong == []
        assert metrics["trace.ops"][0] >= 1
    first, second = (_counts(metrics) for _, metrics, _, _ in runs)
    assert first == second
    if workload == "order":
        print("A4 w0 build calls", first["order.a4_w0.build.calls"],
              "distinct", first["order.a4_w0.build.distinct"])
        assert first["order.a4_w0.build.calls"] >= first["order.a4_w0.build.distinct"] > 0


def test_runs_do_whole_blocks():
    for workload in run.WORKLOADS:
        for seconds in (1, 15, 30, 60):
            count = run.run_count(workloads, workload, seconds)
            assert count > 0 and count % workloads.BLOCK[workload] == 0
    # the order block is the whole stream: every run of 30 s attempts all of
    # it, so every seed fails the same operations
    systems = workloads.make_systems(workloads.WORKLOAD_GROUPS["order"])
    stream = list(workloads.INPUTS["order"](systems, 7))
    assert len(stream) == run.run_count(workloads, "order", 30) == workloads.BLOCK["order"]


def _describe(item) -> tuple:
    if isinstance(item, tuple):  # order: (system, Q, Q', pi)
        system, *rest = item
        return (system.name, *rest)
    fields = ("Q", "Qp", "i", "j") if hasattr(item, "Qp") else ("word",)
    return (item.system.name, item.pi, *(getattr(item, f) for f in fields))


def test_inputs_repeat_for_a_seed():
    for workload in run.WORKLOADS:
        drawn = []
        for _ in range(2):
            systems = workloads.make_systems(workloads.WORKLOAD_GROUPS[workload])
            stream = workloads.INPUTS[workload](systems, 5)
            drawn.append([_describe(next(stream)[1]) for _ in range(40)])
        assert drawn[0] == drawn[1]
        assert len(set(drawn[0])) == len(drawn[0])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "classify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
