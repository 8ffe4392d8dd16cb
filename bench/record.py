"""Write reference.json: the row ids, statuses and report digests of every
operation the benchmark can run, for every workload seed.

    python3 bench/record.py

Re-record only after a change that is meant to alter report rows or
bytes, and say so in CHANGES.md: the benchmark counts an operation whose
rows differ from this file as failed.
"""
import json
import shutil
import sys
import tempfile
from pathlib import Path

from run import WORK, cap_memory, load_program
from workloads import (REFERENCE, SEED_PERIOD, SEEDED, WORKLOADS, run_op,
                       setup, summarize)


def main() -> int:
    cap_memory()
    load_program()

    ops = {}
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="record-", dir=WORK))
    try:
        for workload in WORKLOADS:
            seeds = range(SEED_PERIOD) if workload in SEEDED else [0]
            for seed in seeds:
                ws = setup(workload, seed, scratch / f"{workload}-{seed}")
                for i, op in enumerate(ws.ops):
                    if op.key not in ops:
                        reports = run_op(ws, op, ws.root / f"op-{i}")
                        ops[op.key] = {p.name: summarize(p) for p in reports}
                print(f"{workload} seed {seed}: {len(ops)} ops", flush=True)
                shutil.rmtree(ws.root)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    REFERENCE.write_text(json.dumps(
        {"format": 1, "ops": dict(sorted(ops.items()))}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
