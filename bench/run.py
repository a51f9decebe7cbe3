"""Benchmark of the coxsub pipeline: one workload at one seed.

    python3 bench/run.py --workload classify --seed 3 --seconds 30 --trace 0

Run from any directory; the package is imported from ``src/`` next to this
directory.  With ``--trace 0`` the run times a fixed number of operations,
as many as take about ``--seconds`` on a 2-CPU virtual machine, in a
closed loop, one at a time in one thread, and reports the end-to-end
metrics.  With ``--trace 1`` it runs the operations of a timed run of half
the seconds twice, untraced and traced in turn, and reports the per-layer
split and the tracing overhead.  Every output is checked.  The last line of
standard output is one JSON object; a copy of the result, with the stamps of
the run, goes to ``.bench_out/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path
from time import perf_counter

# one thread: keep numpy's BLAS from starting a pool
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "digests.json"

WORKLOADS = ("classify", "order", "complex")
DEFAULT_SEED = 0
SETUP_RUNS = 9
# A timed run does whole blocks of inputs, one block per this many seconds
# of --seconds (the time a block took when the benchmark was written, on a
# 2-CPU virtual machine).  The work of a run is then fixed by its seed and
# --seconds alone, not by the machine's speed: every run of a seed attempts
# the same operations and fails the same ones.  A block holds every cell of
# the workload once; the order block is the whole order stream.
SECONDS_PER_BLOCK = {"classify": 1.0, "complex": 2.0, "order": 30.0}
# fixed percentile of op_tail_ms per workload: the highest of 99, 98, 95,
# 90, 75 and 50 with at least twenty operations beyond it in a 30 s run
# (27, 21 and 20); with ten, complex would take p99, which spread twice as
# much as p98 over ten seeds
TAIL_PERCENTILE = {"classify": 99, "complex": 98, "order": 75}

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = {paths!r}
import workloads
workloads.make_systems(workloads.WORKLOAD_GROUPS[{workload!r}])
print(time.perf_counter() - t0)
"""


def import_package():
    """The workloads module, with coxsub imported from this checkout's src/."""
    if not (SRC / "coxsub" / "__init__.py").is_file():
        raise ImportError(f"no coxsub package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH)]
    import coxsub
    import workloads

    if Path(coxsub.__file__).resolve().parent != SRC / "coxsub":
        raise ImportError(f"coxsub was imported from {coxsub.__file__}, not {SRC}")
    return workloads


# -- stamps -------------------------------------------------------------------


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def stamps(load_before) -> dict:
    import numpy

    from coxsub import backend

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": backend.backend_name(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


# -- operations ---------------------------------------------------------------


class Ledger:
    """Outcome of every attempted operation."""

    def __init__(self, workload: str, reference: list):
        self.workload = workload
        self.reference = reference  # recorded digest per operation index
        self.durations: list[float] = []  # every attempted operation
        self.errors: Counter = Counter()  # exception type -> count
        self.wrong: list[str] = []  # outputs that failed a check or the digest
        self.digests: list[str] = []

    @property
    def failed(self) -> int:
        return sum(self.errors.values()) + len(self.wrong)


def attempt(workloads, ledger: Ledger, k: int, item, check: bool = True):
    """Run, time and check operation k; returns its duration."""
    t0 = perf_counter()
    try:
        text, result = workloads.run_op(ledger.workload, item)
    except Exception as exc:  # a failed operation is counted, never fatal
        dt = perf_counter() - t0
        ledger.durations.append(dt)
        ledger.errors[type(exc).__name__] += 1
        ledger.digests.append(f"error:{type(exc).__name__}")
        return dt
    dt = perf_counter() - t0
    ledger.durations.append(dt)
    got = workloads.digest(text)
    ledger.digests.append(got)
    problem = workloads.check_op(ledger.workload, item, result) if check else None
    want = ledger.reference[k] if k < len(ledger.reference) else None
    if problem is None and want is not None and not want.startswith("error:") and want != got:
        problem = f"digest {got} differs from the reference {want}"
    if problem is not None:
        ledger.wrong.append(f"op {k}: {problem}")
    return dt


def reference_digests(workloads, workload: str, seed: int) -> list:
    """Digests the outputs must match: every recorded one at the default
    seed, and the seed-independent order anchors at every seed."""
    recorded = json.loads(DIGESTS.read_text()).get(workload, []) if DIGESTS.is_file() else []
    if seed == DEFAULT_SEED:
        return recorded
    return recorded[:len(workloads.ORDER_ANCHORS)] if workload == "order" else []


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def setup_seconds(workload: str) -> list[float]:
    """Fresh processes that import coxsub and build the workload's systems."""
    code = SETUP_CODE.format(paths=[str(SRC), str(BENCH)], workload=workload)
    out = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, text=True,
                              capture_output=True, timeout=120, check=True)
        out.append(float(done.stdout.strip().splitlines()[-1]))
    return out


def run_count(workloads, workload: str, seconds: float) -> int:
    """Operations a run of ``seconds`` attempts: whole blocks, at least one."""
    return workloads.BLOCK[workload] * max(1, round(seconds / SECONDS_PER_BLOCK[workload]))


def timed_run(workloads, workload: str, seed: int, count: int, reference: list):
    setup = setup_seconds(workload)
    systems = workloads.make_systems(workloads.WORKLOAD_GROUPS[workload])
    # every input is drawn before the first operation is timed
    stream = workloads.INPUTS[workload](systems, seed)
    items = [item for _, item in islice(stream, count)]
    ledger = Ledger(workload, reference)
    for k, item in enumerate(items):
        attempt(workloads, ledger, k, item)
    spent = sum(ledger.durations)
    # latency counts every attempted operation until it returned or raised;
    # failures are counted apart, by `failed`
    lat = sorted(ledger.durations)
    attempted = len(lat)
    completed = attempted - ledger.failed
    p = TAIL_PERCENTILE[workload]
    tail = percentile(lat, p)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (completed / spent, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    beyond = sum(1 for d in lat if d > tail)
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh processes",
        "ops_per_s": f"{completed} completed of {attempted} attempted in {spent:.3f} s of operations",
        "op_p50_ms": f"over {attempted} attempted operations",
        "op_tail_ms": f"p{p} over {attempted} attempted operations, {beyond} beyond it",
        "peak_rss_mb": "peak resident set of this process",
    }
    extra = {"setup_runs_s": setup, "operation_s": spent, "tail_percentile": p,
             "tail_beyond": beyond, "durations_s": ledger.durations}
    return ledger, metrics, notes, extra


# -- traced runs --------------------------------------------------------------


def traced_run(workloads, workload: str, seed: int, count: int, reference: list):
    from tracer import Tracer

    def inputs():
        # each pass has its own systems, so neither inherits the other's caches
        systems = workloads.make_systems(workloads.WORKLOAD_GROUPS[workload])
        return [item for _, item in islice(workloads.INPUTS[workload](systems, seed), count)]

    # the two passes alternate operation by operation, so that drift in the
    # machine's speed and the interpreter's warm-up hit both alike
    plain, traced = Ledger(workload, reference), Ledger(workload, reference)
    tr = Tracer()
    for k, (a, b) in enumerate(zip(inputs(), inputs())):
        attempt(workloads, plain, k, a)
        tr.install(extra=[(workloads, "dump", "cli.dump")])
        try:
            tr.begin_op(k)
            attempt(workloads, traced, k, b, check=False)
            tr.end_op()
        finally:
            tr.uninstall()
    plain_wall = sum(plain.durations)
    traced_wall = sum(traced.durations)
    for k, (a, b) in enumerate(zip(plain.digests, traced.digests)):
        if a != b:
            traced.wrong.append(f"op {k}: traced digest {b} differs from untraced {a}")

    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"{workload}-seed{seed}-spans.json")
    anchor_wall = traced.durations[0] if workload == "order" else 0.0
    metrics = layer_metrics(tr, workload, anchor_wall)
    metrics["trace.ops"] = (len(traced.durations), "count")
    metrics["trace.overhead"] = (traced_wall / plain_wall, "ratio")
    metrics["trace.untraced_s"] = (plain_wall, "s")
    metrics["trace.traced_s"] = (traced_wall, "s")
    # the untraced pass checked every output; the traced one must match it
    traced.wrong.extend(plain.wrong)
    notes = {"trace.overhead":
             f"traced / untraced wall over the same {len(traced.durations)} operations"}
    return traced, metrics, notes, {"spans": len(tr.spans)}


def layer_metrics(tr, workload: str, anchor_wall: float) -> dict:
    agg = tr.aggregate()

    def get(span: str, stat: str):
        return agg.get(span, {}).get(stat, 0)

    cox = "coxeter.CoxeterSystem."
    lab = "simplicial.LabeledComplex."
    distinct = sum(tr.distinct_builds.values())
    builds = get("subword.build", "calls")
    m = {
        "kernels.subword.calls": (get("kernels.reduced_subword_masks", "calls"), "count"),
        "kernels.subword.s": (get("kernels.reduced_subword_masks", "s"), "s"),
        "coxeter.enumerate.calls": (get(cox + "reduced_subword_masks", "calls"), "count"),
        "coxeter.enumerate.s": (get(cox + "reduced_subword_masks", "s"), "s"),
        "coxeter.enumerate.masks": (tr.counts["coxeter.enumerate.masks"], "count"),
        "coxeter.reduced_words.s": (get(cox + "reduced_words", "s"), "s"),
        "coxeter.contains.calls": (get(cox + "contains_reduced", "calls"), "count"),
        "coxeter.contains.void": (tr.counts["coxeter.contains.void"], "count"),
        "coxeter.contains.s": (get(cox + "contains_reduced", "s"), "s"),
        "braid.condition.calls": (get("braid.condition", "calls"), "count"),
        "braid.condition.s": (get("braid.condition", "s"), "s"),
        "subword.build.calls": (builds, "count"),
        "subword.build.distinct": (distinct, "count"),
        "subword.build.reuse": (builds / distinct if distinct else 0.0, "ratio"),
        "subword.build.self_s": (get("subword.build", "self_s"), "s"),
        "kernels.fill_submasks.calls": (get("kernels.fill_submasks", "calls"), "count"),
        "kernels.fill_submasks.s": (get("kernels.fill_submasks", "s"), "s"),
        "simplicial.faces.count": (tr.counts["simplicial.faces.count"], "count"),
        "kernels.popcounts.calls": (get("kernels.popcounts", "calls"), "count"),
        "kernels.popcounts.s": (get("kernels.popcounts", "s"), "s"),
        "simplicial.fvector.calls": (get(lab + "f_vector", "calls"), "count"),
        "simplicial.fvector.s": (get(lab + "f_vector", "s"), "s"),
        "simplicial.is_flag.s": (get(lab + "is_flag", "s"), "s"),
        "simplicial.face_labels.s": (get(lab + "face_label_sets", "s"), "s"),
        "simplicial.from_facets.calls": (get(lab + "from_facets", "calls"), "count"),
        "simplicial.from_facets.s": (get(lab + "from_facets", "s"), "s"),
        "simplicial.subdivide.calls": (get("simplicial.k_subdivide", "calls"), "count"),
        "simplicial.subdivide.s": (get("simplicial.k_subdivide", "s"), "s"),
        "braid.tilde.s": (get("braid.tilde", "s"), "s"),
        "braid.subfamilies.s": (get("braid.subfamilies", "s"), "s"),
        "braid.decomposition.s": (get("braid.verify_decomposition", "s"), "s"),
        "braid.poly.s": (get("braid.polynomial_delta", "s"), "s"),
        "braid.classify.self_s": (get("braid.classify", "self_s"), "s"),
        "rhoposet.iso.calls": (get("simplicial.is_isomorphic_constrained", "calls"), "count"),
        "rhoposet.iso.found": (tr.counts["rhoposet.iso.found"], "count"),
        "rhoposet.iso.s": (get("simplicial.is_isomorphic_constrained", "s"), "s"),
        "rhoposet.build.self_s": (get("rhoposet.build_rho", "self_s"), "s"),
        "rhoposet.semilattice.s": (get("rhoposet.semilattice_check", "s"), "s"),
        "rhoposet.classify.calls": (tr.calls_under("braid.classify", "rhoposet.build_rho"),
                                    "count"),
        "cli.json.s": (get("cli.case_report_json", "s") + get("cli.dump", "s"), "s"),
    }
    for case in ("1", "2", "3", "4", "none"):
        m[f"braid.case.{case}"] = (tr.counts[f"braid.case.{case}"], "count")
    # the A4 w0 anchor is operation 0 of every order run
    anchor = tr.op_summary(0) if workload == "order" else {}
    kernel = anchor.get("kernels.reduced_subword_masks", {}).get("s", 0.0)
    m["order.a4_w0.s"] = (anchor_wall, "s")
    m["order.a4_w0.kernel_share"] = (100 * kernel / anchor_wall if anchor_wall else 0.0, "%")
    m["order.a4_w0.build.calls"] = (anchor.get("subword.build", {}).get("calls", 0), "count")
    m["order.a4_w0.build.distinct"] = (tr.distinct_builds.get(0, 0) if anchor else 0, "count")
    return m


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    try:
        workloads = import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    reference = reference_digests(workloads, args.workload, args.seed)
    # a traced run does every operation twice, so it takes half the work
    if args.trace:
        count = run_count(workloads, args.workload, args.seconds / 2)
        run = traced_run
    else:
        count = run_count(workloads, args.workload, args.seconds)
        run = timed_run
    ledger, metrics, notes, extra = run(workloads, args.workload, args.seed, count, reference)
    stamp = stamps(load_before)
    attempted = len(ledger.durations)
    fail_ratio = ledger.failed / attempted if attempted else 1.0

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print("stamp " + "  ".join(f"{k}={v}" for k, v in stamp.items()))
    for name, (value, unit) in metrics.items():
        note = notes.get(name)
        print(f"{name:<30} {value:>14.6g} {unit:<6}" + (f"  ({note})" if note else ""))
    errors = ", ".join(f"{n} x{c}" for n, c in ledger.errors.most_common()) or "none"
    print(f"{'fail_ratio':<30} {fail_ratio:>14.6g} {'ratio':<6}"
          f"  ({ledger.failed} of {attempted} attempted; exceptions: {errors};"
          f" wrong outputs: {len(ledger.wrong)})")
    for line in ledger.wrong[:5]:
        print(f"wrong: {line}")

    result = {
        "correct": not ledger.wrong,
        "attempted": attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, fail_ratio=fail_ratio, exceptions=dict(ledger.errors),
                  wrong=ledger.wrong, stamps=stamp, **extra)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
