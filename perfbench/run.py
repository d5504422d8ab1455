"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload fit-scan --seed 0 --seconds 25 --trace 0

Run from the root of a source checkout: the library is imported from
``src/`` of the checkout this file sits in, with BLAS pinned to one thread.
With ``--trace 0`` the result carries the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer metrics.  A human-readable
table goes first; the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
full result, with the environment, is written to ``perfbench/out/``.
"""

import os

# before numpy is imported anywhere, so that the process and its pool
# workers each run single-threaded BLAS; the pool uses two cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sttvcox", "__init__.py")):
        print(f"error: no sttvcox sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import sttvcox

    if os.path.dirname(os.path.abspath(sttvcox.__file__)) != os.path.join(SRC, "sttvcox"):
        print(f"error: imported sttvcox from {sttvcox.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import bench
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)[args.workload]

    result = bench.Run(args.workload, args.seed, args.seconds, args.trace, ROOT,
                       reference=reference).execute()
    result["env"] = bench.environment(ROOT, args.seed)
    path = bench.write_result(ROOT, result)

    metrics = bench.result_metrics(result)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {result['samples']['ops']}  fits {result['samples']['fits']}")
    for name, m in {**result["end_to_end"], **result["wall_clock"]}.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    tail = result["op_tail"]
    print(f"  {'op_tail percentile':<44} {tail['percentile']:>14.6g} "
          f"({tail['samples_beyond']} samples beyond, {result['samples']['ops']} ops)")
    if args.trace:
        for name, m in metrics.items():
            print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"  failed op {failure['op']}: {failure['error']}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    print(f"  result file: {os.path.relpath(path, ROOT)}")

    correct = not result["failures"] and not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
