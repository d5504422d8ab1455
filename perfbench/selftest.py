"""Self-test of the benchmark at toy size.

    python3 perfbench/selftest.py

Runs every workload untraced and traced at toy size and checks that each
reports every metric of BENCHMARK.json with its unit and no failed
operation.  Then records toy reference outputs, checks that they pass, and
checks that every kind of perturbed reference, and a broken certificate,
makes the output checks fail and shows in ``failed``.  Exits non-zero on
the first finding list that is not empty.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import copy  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import bench  # noqa: E402
import record_reference  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _perturbations(name: str, ref: dict) -> dict:
    """Label -> a copy of the toy reference with one recorded value changed."""
    out = {}
    if name == "fit-scan":
        bumped, flipped = copy.deepcopy(ref), copy.deepcopy(ref)
        for label in ref:
            bumped[label]["gamma_hat"][0][0] += 10 * workloads.GAMMA_ATOL
            row = flipped[label]["zero_flags"][0]
            flipped[label]["zero_flags"][0] = ("1" if row[0] == "0" else "0") + row[1:]
        out["gamma_hat"] = bumped
        out["zero_flags"] = flipped
    elif name == "cli-cv":
        chosen = copy.deepcopy(ref)
        chosen["chosen_K"] += 1
        out["chosen_K"] = chosen
        error = copy.deepcopy(ref)
        error["cv_error"][0] *= 1.0 + 100 * workloads.VALUE_RTOL
        out["cv_error"] = error
        gamma = copy.deepcopy(ref)
        gamma["gamma_hat"][0][0] += 10 * workloads.GAMMA_ATOL
        out["gamma_hat"] = gamma
    else:
        value = copy.deepcopy(ref)
        aise = float(value["metrics"][1][4])
        value["metrics"][1][4] = repr(aise * (1.0 + 100 * workloads.VALUE_RTOL))
        out["metrics"] = value
        failed = copy.deepcopy(ref)
        failed["failed_reps"].append([0, "sttv", "perturbed"])
        out["failed_reps"] = failed
    return out


def check_metrics(spec: dict) -> list:
    findings = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for name in workloads.WORKLOADS:
            result = bench.Run(name, SEED, 0.1, trace, ROOT, size="toy").execute()
            got = bench.result_metrics(result)
            where = f"{name} trace {trace}"
            if set(got) != set(want):
                findings.append(f"{where}: metrics {sorted(set(got) ^ set(want))} "
                                "differ from BENCHMARK.json")
            findings += [f"{where}: {k} in {m['unit']}, not {want[k]}"
                         for k, m in got.items() if k in want and m["unit"] != want[k]]
            findings += [f"{where}: {k} is not a finite number" for k, m in got.items()
                         if not np.isfinite(m["value"])]
            if result["failures"] or result["problems"]:
                findings.append(f"{where}: {result['failures']} {result['problems']}")
    return findings


def check_reference() -> list:
    findings = []
    reference = record_reference.record("toy")
    for name in workloads.WORKLOADS:
        ref = reference[name]
        run = bench.Run(name, SEED, 0.1, 0, ROOT, size="toy",
                        reference=ref).execute()
        if run["failed"]:
            findings.append(f"{name}: fails its own toy reference: {run['failures']}")
        for label, bad in _perturbations(name, ref).items():
            run = bench.Run(name, SEED, 0.1, 0, ROOT, size="toy",
                            reference=bad).execute()
            if run["failed"] != run["attempted"]:
                findings.append(f"{name}: perturbed {label} failed {run['failed']} "
                                f"of {run['attempted']} operations, expected all")
    ones = np.ones(4)
    if not workloads._finite_and_contained(ones, ones * 2.0, ones, ones * 0.5, ones * 1.5):
        findings.append("an interval that excludes its estimate passes the certificate")
    if not workloads._finite_and_contained(ones, ones, ones * np.nan, ones * 0.5, ones * 1.5):
        findings.append("a non-finite standard error passes the certificate")
    return findings


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for step in (lambda: check_metrics(spec), check_reference):
        findings = step()
        if findings:
            print("\n".join(findings), file=sys.stderr)
            return 1
    print("selftest ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
