"""Benchmark a change against its parent in alternating pairs of runs.

    python3 scripts/bench_pairs.py --parent ../parent --change . \
        --workload cli-cv --pairs 10 --seconds 25 --tag pr21

Pair i runs ``perfbench/run.py --workload W --seed i --seconds S --trace 0``
once in each source checkout, the parent first in even pairs and the change
first in odd ones, so a drift of the machine's speed falls on both sides.
Every run must report ``correct: true`` and no failed op; otherwise the
script stops with exit status 1 and writes nothing.

``BENCH_<tag>.json`` (in the change checkout unless ``--output`` names a
directory) holds, per workload and end-to-end metric of BENCHMARK.json,
every run's value, both medians, the parent's interquartile range and in
how many pairs the change was better, with the commit and a SHA-256 of the
``src/`` files of each checkout, the core count and the numpy version.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

import numpy as np


def source_digest(root: str) -> str:
    """SHA-256 over the relative path and bytes of every file under src/."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def commit(root: str) -> str | None:
    """HEAD of the checkout, with "+dirty" if tracked files differ; None outside git."""
    try:
        head = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", root, "status", "--porcelain",
                                "--untracked-files=no"], check=True,
                               capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+dirty" if dirty else "")


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The JSON summary line of one untraced run in the checkout ``root``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(lines[-1])


def summarize(parent: list, change: list, better: str) -> dict:
    """Medians, the parent's IQR and the pairs the change won, for one metric."""
    p, c = np.array(parent), np.array(change)
    q1, q3 = np.percentile(p, [25, 75])
    won = c < p if better == "lower" else c > p
    return {
        "better": better,
        "parent_median": float(np.median(p)),
        "change_median": float(np.median(c)),
        "parent_iqr": float(q3 - q1),
        "change_better_in": int(won.sum()),
        "pairs": int(p.size),
        "parent_runs": parent,
        "change_runs": change,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="source checkout of the parent")
    parser.add_argument("--change", required=True, help="source checkout of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a workload of perfbench/run.py; may be repeated")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--output", help="directory of BENCH_<tag>.json")
    args = parser.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    workloads = {}
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                result = run_once(roots[side], workload, i, args.seconds)
                if not result["correct"] or result["failed"]:
                    print(f"error: {workload} seed {i} on the {side}: correct "
                          f"{result['correct']}, {result['failed']} of "
                          f"{result['attempted']} ops failed", file=sys.stderr)
                    return 1
                runs[side].append(result)
            print(f"{workload} pair {i + 1}/{args.pairs}: " + "  ".join(
                f"{name} {runs['parent'][-1]['metrics'][name]['value']:.4g} -> "
                f"{runs['change'][-1]['metrics'][name]['value']:.4g}" for name in metrics),
                flush=True)
        workloads[workload] = {
            "seconds": args.seconds,
            "metrics": {
                name: {"unit": m["unit"], **summarize(
                    [r["metrics"][name]["value"] for r in runs["parent"]],
                    [r["metrics"][name]["value"] for r in runs["change"]], m["better"])}
                for name, m in metrics.items()
            },
        }

    doc = {
        "tag": args.tag,
        "command": "python3 perfbench/run.py --workload W --seed i --seconds S --trace 0",
        "parent": {"commit": commit(roots["parent"]),
                   "source_sha256": source_digest(roots["parent"])},
        "change": {"commit": commit(roots["change"]),
                   "source_sha256": source_digest(roots["change"])},
        "env": {"nproc": os.cpu_count(), "numpy": np.__version__,
                "python": platform.python_version(), "machine": platform.machine()},
        "workloads": workloads,
    }
    path = os.path.join(args.output or roots["change"], f"BENCH_{args.tag}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
