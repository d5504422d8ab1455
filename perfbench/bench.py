"""Benchmark harness: set-up timing, the closed loop, tracing and results.

One caller issues each operation when the previous one completes (a
closed loop with one client).  Operations are issued while less than
``seconds`` have passed and, for a workload that cycles over several
inputs, until the cycle is complete, so every run covers each input
equally often.  End-to-end metrics come from this untraced loop.

Latencies are reported twice: as wall time, and calibrated by the speed of
the cores they ran on (see ``probe``).  The gated metrics of
BENCHMARK.json are the calibrated ones, because on a shared host wall
time spreads by 20-40% between runs of identical work.

With ``trace`` set, the untraced loop runs for a third of ``seconds`` and
its operations are then replayed twice under the ``Tracer``, so a traced
run takes about as long as an untraced one.  The per-layer metrics come
from the first replay, the exact counts of the two replays must agree, and
the calibrated time of the first replay against the untraced loop gives
the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import workloads
from probe import SpeedProbe
from spans import Tracer, self_times

SETUP_REPEATS = 7

BLAS_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# counts that repeat exactly for identical code and inputs; a later change
# may rest a claim on them
EXACT_COUNTS = (
    "optimizer.newton_iters",
    "likelihood.value_and_derivatives.calls",
    "likelihood.events_scanned",
    "coxph.fit_coxph.calls",
    "coxph.iters",
)


def tail(latencies) -> tuple:
    """(value, percentile, samples beyond) of the latency tail.

    The tail is the highest percentile with at least ten samples beyond
    it, provided that percentile is at least the median; with fewer than
    twenty samples no such percentile exists and the maximum is reported,
    with zero samples beyond it.
    """
    values = sorted(latencies)
    n = len(values)
    if n >= 20:
        return values[n - 11], 100.0 * (n - 10) / n, 10
    return values[-1], 100.0, 0


def environment(root: str, seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "commit": commit,
        "source_digest": source_digest(os.path.join(root, "src", "sttvcox")),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_VARIABLES},
        "seed": seed,
    }


def source_digest(src: str) -> str:
    """SHA-256 over the library's module files; identifies the code measured."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _import_seconds(src: str) -> float:
    """Time to import sttvcox in a fresh interpreter, timed inside it."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "t = time.perf_counter(); import sttvcox; "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, src], capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


class Run:
    """One benchmark run of one workload; see the module docstring."""

    def __init__(self, name, seed, seconds, trace, root, size="full", reference=None):
        self.wl = workloads.make(name, size)
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.trace = bool(trace)
        self.root = root
        self.reference = reference
        self.workdir = os.path.join(root, "perfbench", "out", f"work-{os.getpid()}")
        self.attempted = 0
        self.failures: list = []
        self.problems: list = []

    def setup(self, repeats: int) -> list:
        """Seconds of ``repeats`` set-ups: a fresh import, then the inputs."""
        src = os.path.join(self.root, "src")
        totals = []
        for _ in range(repeats):
            imported = _import_seconds(src)
            t0 = time.perf_counter()
            self.state = self.wl.setup(self.seed, self.workdir)
            totals.append(imported + time.perf_counter() - t0)
        return totals

    def _op(self, i: int) -> tuple:
        """(wall s, calibrated s, fits) of operation ``i``; fits is None if it failed."""
        self.attempted += 1
        outdir = os.path.join(self.workdir, "op")
        error = None
        t0 = time.perf_counter()
        try:
            result = self.wl.run_op(self.state, i, outdir)
        except Exception:
            error = traceback.format_exc(limit=3)
        t1 = time.perf_counter()
        shutil.rmtree(outdir, ignore_errors=True)
        calibrated = self.probe.calibrated(t0, t1)
        if error is None:
            problems = self.wl.check(self.state, i, result)
            if self.reference is not None:
                entry = self.wl.reference_entry(self.state, i, result)
                problems += self.wl.compare(entry, self.reference)
            error = "; ".join(problems) if problems else None
        if error is not None:
            self.failures.append({"op": i, "error": error})
            return t1 - t0, calibrated, None
        return t1 - t0, calibrated, self.wl.fits(result)

    def loop(self) -> dict:
        """The untraced closed loop; see the module docstring."""
        wall, cal, fits = [], [], 0
        seconds = self.seconds / 3 if self.trace else self.seconds
        start = time.perf_counter()
        while (not wall or len(wall) % self.wl.cycle
               or time.perf_counter() - start < seconds):
            w, c, done = self._op(len(wall))
            wall.append(w)
            cal.append(c)
            fits += done or 0
        return {"wall": wall, "cal": cal, "fits": fits,
                "elapsed": time.perf_counter() - start}

    def replay(self, tracer: Tracer, ops: int) -> dict:
        """Operations ``0 .. ops-1`` again under the tracer; spans per operation."""
        cal, fits, spans = 0.0, 0, []
        with tracer:
            for i in range(ops):
                _, c, done = self._op(i)
                spans.append(tracer.collect())
                cal += c
                fits += done or 0
        return {"spans": spans, "fits": fits, "cal": cal}

    def execute(self) -> dict:
        spool = os.path.join(self.workdir, "spool")
        os.makedirs(spool, exist_ok=True)
        self.probe = SpeedProbe(spool)
        try:
            # set-ups before and after the loop meet more of the host's
            # speed phases than set-ups in a row would
            before = SETUP_REPEATS // 2
            setups = self.setup(before)
            self.probe.start()
            try:
                loop = self.loop()
                layers = self.traced(spool, loop) if self.trace else None
            finally:
                self.probe.stop()
            setups += self.setup(SETUP_REPEATS - before)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        return self.summarize(statistics.median(setups), loop, layers)

    def traced(self, spool: str, loop: dict) -> dict:
        tracer = Tracer(spool)
        ops = len(loop["wall"])
        first = self.replay(tracer, ops)
        second = self.replay(tracer, ops)
        layers = layer_metrics(first["spans"])
        again = layer_metrics(second["spans"])
        layers["trace.overhead_frac"] = first["cal"] / sum(loop["cal"]) - 1.0
        for name in EXACT_COUNTS:
            if layers[name] != again[name]:
                self.problems.append(
                    f"{name} differs between traced runs: {layers[name]} != {again[name]}")
        traced_fits = round(layers["optimizer.fit.calls"] * ops)
        if traced_fits != first["fits"]:
            self.problems.append(f"traced optimizer.fit calls {traced_fits} != "
                                 f"{first['fits']} fits counted from outputs")
        if self.wl.pool_jobs > 1 and not layers["simulation.replicate.task.calls"]:
            self.problems.append("no spans arrived from pool workers")
        return layers

    def peak_rss_mb(self) -> float:
        """Peak RSS of this process plus ``pool_jobs`` times the largest child's.

        ``ru_maxrss`` of the children is the largest among them; the set-up
        import timings are children too but stay far smaller than a worker
        forked from this process.
        """
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.wl.pool_jobs:
            own += self.wl.pool_jobs * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return own / 1024.0

    def summarize(self, setup_s: float, loop: dict, layers) -> dict:
        cal_tail, pct, beyond = tail(loop["cal"])
        gated = {
            "setup_s": (setup_s, "s"),
            "op_p50_cal_s": (statistics.median(loop["cal"]), "cal_s"),
            "op_tail_cal_s": (cal_tail, "cal_s"),
            "fits_per_cal_s": (loop["fits"] / sum(loop["cal"]), "1/cal_s"),
            "peak_rss_mb": (self.peak_rss_mb(), "MB"),
        }
        wall = {
            "op_p50_s": (statistics.median(loop["wall"]), "s"),
            "op_tail_s": (tail(loop["wall"])[0], "s"),
            "fits_per_s": (loop["fits"] / sum(loop["wall"]), "1/s"),
            "failed_frac": (len(self.failures) / self.attempted, "ratio"),
        }
        return {
            "workload": self.wl.name,
            "trace": int(self.trace),
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in gated.items()},
            "wall_clock": {k: {"value": v, "unit": u} for k, (v, u) in wall.items()},
            "op_tail": {"percentile": pct, "samples_beyond": beyond},
            "samples": {"ops": len(loop["wall"]), "fits": loop["fits"],
                        "elapsed_s": loop["elapsed"], "latencies_s": loop["wall"],
                        "calibrated_s": loop["cal"], "setup_repeats": SETUP_REPEATS},
            "per_layer": layers,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures,
            "problems": self.problems,
        }


def layer_metrics(per_op_spans: list) -> dict:
    """Per-operation layer metrics from the spans of each replayed operation."""
    ops = len(per_op_spans)
    spans = [span for op in per_op_spans for span in op]
    st = self_times(spans)

    def calls(name):
        return st.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return st.get(name, (0, 0.0, 0.0))[2]

    def attr_sum(name, key):
        return sum(s[5][key] for s in spans if s[0] == name and s[5] and key in s[5])

    # outermost scans only, so a public scan function calling another
    # counts its events once
    scan_ids = {s[1] for s in spans if s[5] and "events" in s[5]}
    scans = sum(s[5]["events"] for s in spans
                if s[1] in scan_ids and s[2] not in scan_ids)
    fit_spans = [s for s in spans if s[0] == "optimizer.fit" and s[5] and "iters" in s[5]]
    newton = attr_sum("optimizer.fit", "iters")
    evaluations = calls("likelihood.value_and_derivatives")
    trials = evaluations - len(fit_spans)
    # training sets are distinct within an operation; the replay repeats inputs
    distinct = sum(
        len({s[5]["key"] for s in op if s[0] == "coxph.fit_coxph" and s[5] and "key" in s[5]})
        for op in per_op_spans
    )
    cox_calls = calls("coxph.fit_coxph")
    busy = sum(s[4] - s[3] for s in spans if s[0] == "simulation.replicate.task")
    pool_wall = sum((s[4] - s[3]) * s[5]["jobs"] for s in spans
                    if s[0] == "simulation.replicate" and s[5])
    per_op = {
        "likelihood.value_and_derivatives.calls": evaluations,
        "likelihood.value_and_derivatives.self_s": self_s("likelihood.value_and_derivatives"),
        "likelihood.events_scanned": scans,
        "likelihood.score_covariance.self_s": self_s("likelihood.score_covariance"),
        "likelihood.penalized_loglik.calls": calls("likelihood.penalized_loglik"),
        "likelihood.make_workspace.self_s": self_s("likelihood.make_workspace"),
        "optimizer.fit.calls": calls("optimizer.fit"),
        "optimizer.newton_iters": newton,
        "optimizer.rejected_trials": trials - newton,
        "optimizer.fit.self_s": self_s("optimizer.fit"),
        "optimizer.estimate_curves.self_s": self_s("optimizer.estimate_curves"),
        "coxph.fit_coxph.calls": cox_calls,
        "coxph.fit_coxph.self_s": self_s("coxph.fit_coxph"),
        "coxph.iters": attr_sum("coxph.fit_coxph", "iters"),
        "splines.eval_basis_grid.calls": calls("splines.eval_basis_grid"),
        "splines.eval_basis_grid.self_s": self_s("splines.eval_basis_grid"),
        "simulation.generate.self_s": self_s("simulation.generate"),
        "simulation.score.self_s": self_s("simulation.score"),
        "simulation.replicate.task.calls": calls("simulation.replicate.task"),
        "inference.sparse_ci.self_s": self_s("inference.sparse_ci"),
        "dataset.load_csv.self_s": self_s("dataset.load_csv"),
        "dataset.make_dataset.calls": calls("dataset.make_dataset"),
        "dataset.make_dataset.self_s": self_s("dataset.make_dataset"),
        "model_selection.cross_validate.self_s": self_s("model_selection.cross_validate"),
        "reporting.build_summary.self_s": self_s("reporting.build_summary"),
        "reporting.render_markdown.self_s": self_s("reporting.render_markdown"),
        # the command functions main dispatches to belong to the same layer
        "cli.main.self_s": sum(v[2] for k, v in st.items() if k.startswith("cli.")),
    }
    out = {name: value / ops for name, value in per_op.items()}
    out["optimizer.accept_ratio"] = newton / trials if trials else 0.0
    out["coxph.distinct_ratio"] = distinct / cox_calls if cox_calls else 0.0
    out["simulation.pool_busy_frac"] = busy / pool_wall if pool_wall else 0.0
    return out


def layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s/op"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    if name == "likelihood.events_scanned":
        return "events/op"
    return "count/op"


def result_metrics(result: dict) -> dict:
    """The metrics a run reports: per-layer when traced, else end-to-end."""
    if result["trace"]:
        return {k: {"value": v, "unit": layer_unit(k)} for k, v in result["per_layer"].items()}
    return result["end_to_end"]


def write_result(root: str, result: dict) -> str:
    outdir = os.path.join(root, "perfbench", "out")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(
        outdir, f"{result['workload']}-seed{result['env']['seed']}-trace{result['trace']}.json"
    )
    with open(path, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return path
