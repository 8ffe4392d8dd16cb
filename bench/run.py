"""Benchmark harness for porous: one workload per process, no threads.

Usage (from the root of a checkout):

    python3 bench/run.py --workload build --seed 0 --seconds 20 --trace 0

Workloads are ``build``, ``audit-planes`` and ``audit-sweep`` (see
README.md next to this file).  A run sets up ``SETUP_REPEATS`` times, each
in a fresh interpreter, then runs whole passes over the workload's
operations: as many as fit in ``--seconds`` at the mean pass time, and at
least one.  Every operation's report rows are checked against
``reference.json``.  With ``--trace 1`` the run sets up once, makes the
same untraced passes, then one traced pass, and reports per-layer metrics
and the tracing overhead instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it carry run metadata (``meta``), details such as ``op_tail_s`` and
``fail_rate`` (``detail``), and one ``digest-mismatch`` line per report
whose bytes differ from the reference while its rows match.
"""
import os

# pin BLAS pools to one thread before numpy loads them; set-up children
# inherit the setting
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
# address-space cap: a runaway build fails as a counted operation instead
# of exhausting the machine; normal operations peak near 250 MB
MEMORY_CAP_BYTES = 1 << 30
REQUIRED = (ROOT / "src" / "porous" / "__init__.py",
            ROOT / "demos" / "config" / "demo.json",
            ROOT / "demos" / "config" / "corpus.json")


def cap_memory(limit: int = MEMORY_CAP_BYTES) -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


def load_program() -> None:
    """Import the checkout's porous package."""
    sys.path.insert(0, str(ROOT / "src"))
    import porous.cli  # noqa: F401


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_in_child(workload: str, seed: int, root: Path) -> float:
    """One set-up in a fresh interpreter: start, imports, inputs and, for
    the audit workloads, the family build.  Returns its CPU seconds.  The
    child's memory stays out of this process's peak."""
    before = children_cpu_s()
    subprocess.run([sys.executable, str(BENCH / "workloads.py"), workload,
                    str(seed), str(root)], check=True,
                   stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
    return children_cpu_s() - before


class Stats:
    def __init__(self) -> None:
        self.times: list[float] = []         # CPU seconds per operation
        self.failures: list[str] = []
        self.digest_changes: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.times)


def run_pass(ws, ops, reference, stats: Stats, scratch: Path,
             tracer=None) -> None:
    from workloads import check, remove, run_op

    for op in ops:
        out = scratch / f"op-{stats.attempted}"
        cpu0 = time.process_time()
        try:
            try:
                if tracer is None:
                    reports = run_op(ws, op, out)
                else:
                    reports = tracer.operation(op.key, run_op, ws, op, out)
            finally:
                stats.times.append(time.process_time() - cpu0)
            for change in check(op, reports, reference):
                if change not in stats.digest_changes:
                    stats.digest_changes.append(change)
        except Exception as exc:   # every failure is a counted operation
            stats.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
        remove(out)


def tail(times: list[float]) -> dict:
    """Highest percentile with at least ten operations beyond it; only
    defined when that percentile lies above the median."""
    n = len(times)
    if n - 10 <= n / 2:
        return {}
    rank = n - 11
    return {"value": sorted(times)[rank],
            "percentile": round(100.0 * (rank + 1) / n, 1), "count": n}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            max_ops=None) -> dict:
    """Run one workload; returns metrics, details and metadata."""
    from layers import Tracer, install, layer_metrics
    from workloads import load_reference, remove, workspace

    reference = load_reference()
    WORK.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        setups = []
        for i in range(1 if trace else SETUP_REPEATS):
            root = run_dir / f"setup-{i}"
            setups.append(setup_in_child(workload, seed, root))
        ws = workspace(workload, seed, root)
        ops = ws.ops[:max_ops] if max_ops else ws.ops

        stats = Stats()
        passes = 0
        wall0, cpu0 = time.perf_counter(), time.process_time()
        # whole passes, as many as fit in the time at the mean pass time
        while passes == 0 or (
                (time.perf_counter() - wall0) * (passes + 1) / passes
                <= seconds):
            run_pass(ws, ops, reference, stats, run_dir)
            passes += 1
        timed_s = time.process_time() - cpu0

        tracer = None
        traced = Stats()
        if trace:
            tracer = Tracer()
            install(tracer)
            try:
                cpu0 = time.process_time()
                run_pass(ws, ops, reference, traced, run_dir, tracer)
                traced_s = time.process_time() - cpu0
            finally:
                tracer.restore()
    finally:
        remove(run_dir)

    attempted = stats.attempted + traced.attempted
    failures = stats.failures + traced.failures
    detail = {"passes": passes, "ops_per_pass": len(ops),
              "fail_rate": len(failures) / attempted,
              "failures": failures,
              "timed_s": timed_s, "setup_runs_s": setups,
              "op_s": [[op.key, t] for op, t in
                       zip(ops * passes, stats.times)]}
    if tail(stats.times):
        detail["op_tail_s"] = tail(stats.times)
    if trace:
        metrics = layer_metrics(tracer)
        metrics["trace.overhead_ratio"] = (
            traced_s / (timed_s / passes), "ratio")
        self_s = {name[:-len(".self_s")]: value
                  for name, (value, _) in metrics.items()
                  if name.endswith(".self_s")}
        detail["traced_pass_s"] = traced_s
        # the layers' self times add up to the traced operations' wall time
        detail["self_share"] = {layer: value / sum(self_s.values())
                                for layer, value in self_s.items()}
        detail["negative_self"] = (
            sum(1 for ns in tracer.span_self_ns() if ns < 0)
            + sum(1 for ns in tracer.self_ns.values() if ns < 0))
        spans_path = WORK / f"spans-{workload}-seed{seed}.json"
        spans_path.write_text(json.dumps(tracer.dump()))
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": ((stats.attempted - len(stats.failures)) / timed_s,
                          "1/s"),
            "op_p50_s": (statistics.median(stats.times), "s"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {"attempted": attempted, "failed": len(failures),
            "metrics": metrics, "detail": detail,
            "digest_changes": stats.digest_changes + [
                c for c in traced.digest_changes
                if c not in stats.digest_changes],
            "meta": metadata(workload, seed, ws)}


def metadata(workload: str, seed: int, ws) -> dict:
    import numpy
    from workloads import (DEMO_CONFIG, DEMO_CORPUS, INPUT_SIZE,
                           effective_seed)

    src_lines = sum(len(p.read_text().splitlines())
                    for p in (ROOT / "src" / "porous").glob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": src_lines,
        "config_sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                          for p in (DEMO_CONFIG, DEMO_CORPUS)},
        "workload": workload,
        "seed": seed,
        "effective_seed": effective_seed(seed),
        "ops_per_pass": len(ws.ops),
        "input_size": INPUT_SIZE[workload],
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "workers": 1,
        "memory_cap_bytes": resource.getrlimit(resource.RLIMIT_AS)[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("build", "audit-planes", "audit-sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        print("error: not a porous checkout, missing " + ", ".join(missing),
              file=sys.stderr)
        return 2
    cap_memory()
    load_program()

    result = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    print("meta " + json.dumps(result["meta"]))
    print("detail " + json.dumps(result["detail"]))
    for change in result["digest_changes"]:
        print("digest-mismatch " + change)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
