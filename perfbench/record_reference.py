"""Record the reference outputs the benchmark compares against.

    python3 perfbench/record_reference.py

Runs one cycle of every workload at full size, checks each operation's
certificate, and writes ``perfbench/reference.json``.  The workloads'
inputs do not depend on the seed, so one reference serves every seed.
Re-record only when a change is meant to alter fitted results, and say so
with the change.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def record(size: str = "full") -> dict:
    """Reference entries of one cycle of every workload."""
    reference = {}
    workdir = os.path.join(HERE, "out", f"record-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.make(name, size)
            state = wl.setup(0, workdir)
            entry = {}
            for i in range(wl.cycle):
                result = wl.run_op(state, i, workdir)
                problems = wl.check(state, i, result)
                if problems:
                    raise SystemExit(f"{name} op {i} fails its certificate: {problems}")
                entry.update(wl.reference_entry(state, i, result))
            reference[name] = entry
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return reference


if __name__ == "__main__":
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(record(), fh, indent=1, sort_keys=True)
        fh.write("\n")
