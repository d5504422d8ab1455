"""The pair benchmark script's output directory, with its runs stubbed."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def stubbed(monkeypatch):
    """The script with ``run_once`` returning fixed results; returns the
    module and the list of (workload, seed) it was called with."""
    mod = load_script()
    with open(ROOT / "BENCHMARK.json") as fh:
        names = [m["name"] for m in json.load(fh)["end_to_end"]]
    calls = []

    def run_once(root, workload, seed, seconds):
        calls.append((workload, seed))
        return {"correct": True, "failed": 0, "attempted": 1,
                "metrics": {name: {"value": 1.0 + seed} for name in names}}

    monkeypatch.setattr(mod, "run_once", run_once)
    return mod, calls


def argv(output):
    return ["--parent", str(ROOT), "--change", str(ROOT), "--workload", "fit-scan",
            "--pairs", "2", "--seconds", "1", "--tag", "t", "--output", str(output)]


def test_missing_output_directory_is_created(monkeypatch, tmp_path):
    mod, calls = stubbed(monkeypatch)
    out = tmp_path / "not" / "yet"
    assert mod.main(argv(out)) == 0
    assert calls == [("fit-scan", 0)] * 2 + [("fit-scan", 1)] * 2
    doc = json.loads((out / "BENCH_t.json").read_text())
    metric = doc["workloads"]["fit-scan"]["metrics"]["op_p50_cal_s"]
    assert metric["parent_runs"] == metric["change_runs"] == [1.0, 2.0]


def test_unusable_output_fails_before_the_first_pair(monkeypatch, tmp_path):
    mod, calls = stubbed(monkeypatch)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "below"):
        with pytest.raises(SystemExit) as exc:
            mod.main(argv(out))
        assert exc.value.code == 2
    assert calls == []
