"""Risk-set scans split with a forked helper process.

A large one-chunk spline scan splits its weight blocks with one helper
process, forked at the plan's first derivative scan; the helper forms the
later blocks into shared rows.  Here the split is forced on small data by
lifting the size floor and taking the one-thread check as given, as the
``_CHUNK_BUDGET`` tests force chunking.  Every split float must equal the
serial scan's, every helper must be reaped, and a dead helper's blocks are
formed by the fitting process.
"""

import contextlib
import gc
import json
import os
import signal

import numpy as np
import pytest

import sttvcox as sx
from sttvcox import likelihood
from sttvcox.cli import main


def usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


pytestmark = pytest.mark.skipif(not hasattr(os, "fork") or usable_cores() < 2,
                                reason="a scan helper needs os.fork and two usable cores")

FIT_FIELDS = ("gamma_hat", "sandwich", "score_cov", "neg_hessian_inv", "loglik_path",
              "final_grad_norm", "n_iter", "stop_reason")


@contextlib.contextmanager
def split(forced: bool, log=None):
    """Scans in the block split with a helper wherever they may (forced) or
    never; ``log`` gets (helper pid, n) per fork, in this process."""
    real = likelihood._RiskSets._fork

    def spy(plan):
        real(plan)   # returns only in the fitting process
        if log is not None:
            log.append((plan._helper[3].peek()[2][1], plan.Z.shape[0]))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(likelihood, "_SPLIT_FLOATS", 0)
        patch.setattr(likelihood, "_one_thread", lambda: forced)
        patch.setattr(likelihood._RiskSets, "_fork", spy)
        yield


def reaped(pid) -> bool:
    """Whether child ``pid`` is gone and waited for."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def assert_same_fit(got, want):
    for name in FIT_FIELDS:
        g, w = np.asarray(getattr(got, name)), np.asarray(getattr(want, name))
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name


@pytest.fixture(scope="module")
def ds300():
    """300 rows with about 255 events: four 64-event weight blocks."""
    return sx.generate(sx.Scenario(n=300, covariance="ar1", seed=3))


@pytest.mark.bitwise
@pytest.mark.parametrize("variant", ["sttv", "regtv"])
def test_split_fit_matches_serial_fit_bitwise(ds300, variant):
    cfg = sx.FitConfig(K=3, variant=variant, multistart=2, seed=5)
    forks = []
    with split(False, forks):
        want = sx.fit(ds300, cfg)
    with split(True, forks):
        got = sx.fit(ds300, cfg)
    # one helper for the fit's one workspace, shared by both starts
    assert [n for _, n in forks] == [ds300.n]
    assert_same_fit(got, want)


def scan_sequence(ds, basis, gammas, thresholds):
    """Every kind of scan on one workspace: fresh derivative scans, value
    scans whose blocks a derivative scan reuses, a repeated value scan of
    kept blocks and the score covariance of kept totals."""
    ws = sx.make_workspace(ds, basis, 1e-4)
    cb = [sx.CoefficientBlock(g, thresholds, 0.01) for g in gammas]
    out = [*sx.value_and_derivatives(cb[0], ds, ws),
           sx.penalized_loglik(cb[1], ds, ws),
           sx.penalized_loglik(cb[1], ds, ws),
           *sx.value_and_derivatives(cb[1], ds, ws),
           sx.score_covariance(cb[1], ds, ws),
           *sx.value_and_derivatives(cb[2], ds, ws),
           sx.penalized_loglik(cb[0], ds, ws),
           sx.score_covariance(cb[2], ds, ws)]
    return [np.asarray(a).tobytes() for a in out], ws


@pytest.mark.bitwise
@pytest.mark.parametrize("thresholded", [False, True])
def test_split_scans_match_serial_scans_bitwise(ds300, thresholded):
    basis = sx.make_basis(3, 3, ds300.tau)
    rng = np.random.default_rng(7)
    gammas = [rng.normal(0.0, 0.4, (ds300.p, basis.q)) for _ in range(3)]
    alphas = np.full(ds300.p, 0.1) if thresholded else None
    with split(False):
        want, _ = scan_sequence(ds300, basis, gammas, alphas)
    forks = []
    with split(True, forks):
        got, ws = scan_sequence(ds300, basis, gammas, alphas)
        assert ws.risk_sets._live() is not None
    assert len(forks) == 1 and got == want


@pytest.mark.bitwise
def test_score_covariance_at_gamma_hat_matches_serial_bitwise(ds300):
    model = sx.fit(ds300, sx.FitConfig(K=3))
    cb = sx.CoefficientBlock(model.gamma_hat, model.alphas, model.config.eta)

    def meat():
        ws = sx.make_workspace(ds300, model.basis, model.rho)
        return sx.score_covariance(cb, ds300, ws).tobytes()

    with split(False):
        want = meat()
    forks = []
    with split(True, forks):
        got = meat()
    assert len(forks) == 1 and got == model.score_cov.tobytes() == want


def fit_files(tmp_path, name, data):
    out = tmp_path / name
    assert main(["fit", "--input", str(data), "--output", str(out), "--K", "3",
                 "--grid-points", "21"]) == 0
    files = {}
    for path in sorted(out.iterdir()):
        if path.name == "manifest.json":
            doc = json.loads(path.read_text())
            doc.pop("timestamp")
            doc.pop("output_dir")
            files[path.name] = doc
        else:
            files[path.name] = path.read_bytes()
    return files


@pytest.mark.bitwise
def test_split_cli_fit_writes_the_serial_bytes(ds300, tmp_path):
    data = tmp_path / "data.csv"
    sx.save_csv(ds300, str(data))
    with split(False):
        want = fit_files(tmp_path, "serial", data)
    forks = []
    with split(True, forks):
        got = fit_files(tmp_path, "split", data)
    assert len(forks) == 1 and reaped(forks[0][0])
    assert sorted(got) == sorted(want) and "model.json" in got and "curves.csv" in got
    assert got == want


def test_helper_is_reaped_when_its_workspace_goes(ds300):
    basis = sx.make_basis(3, 3, ds300.tau)
    cb = sx.CoefficientBlock(np.zeros((ds300.p, basis.q)), None, 0.0)
    forks = []
    with split(True, forks):
        ws = sx.make_workspace(ds300, basis, 1e-4)
        sx.value_and_derivatives(cb, ds300, ws)
    (pid, _), = forks
    assert not reaped(pid)
    del ws
    gc.collect()
    assert reaped(pid)


@pytest.mark.parametrize("raises", [None, "ConvergenceError", "NumericError"])
def test_no_helper_is_left_after_fit(raises):
    ds = sx.generate(sx.Scenario(n=200, seed=1))
    cfg = {None: sx.FitConfig(K=3), "ConvergenceError": sx.FitConfig(K=3, max_iter=1),
           "NumericError": sx.FitConfig(K=3, rho=1e306)}[raises]
    forks = []
    with split(True, forks):
        if raises is None:
            sx.fit(ds, cfg)
        else:
            with pytest.raises(getattr(sx, raises)):
                sx.fit(ds, cfg)
    assert len(forks) == 1
    assert all(reaped(pid) for pid, _ in forks)


@pytest.mark.bitwise
@pytest.mark.parametrize("before", ["value", "derivative"])
def test_killed_helper_leaves_its_blocks_to_the_fitting_process(ds300, before):
    """The helper is killed before a value scan whose blocks the next
    derivative scan reuses, or between the two: its blocks of either scan
    are then formed here, from the shared predictors, with the same floats."""
    basis = sx.make_basis(3, 3, ds300.tau)
    rng = np.random.default_rng(11)
    cb = [sx.CoefficientBlock(rng.normal(0.0, 0.4, (ds300.p, basis.q)), None, 0.0)
          for _ in range(3)]

    def scans(kill):
        ws = sx.make_workspace(ds300, basis, 1e-4)
        out = list(sx.value_and_derivatives(cb[0], ds300, ws))
        if before == "value":
            kill(ws)
        out.append(sx.penalized_loglik(cb[1], ds300, ws))
        if before == "derivative":
            kill(ws)
        out += [*sx.value_and_derivatives(cb[1], ds300, ws),
                *sx.value_and_derivatives(cb[2], ds300, ws)]
        return [np.asarray(a).tobytes() for a in out], ws

    def kill(ws):
        pid = ws.risk_sets._helper[3].peek()[2][1]
        os.kill(pid, signal.SIGKILL)
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)   # dead, not yet reaped

    with split(False):
        want, _ = scans(lambda ws: None)
    forks = []
    with split(True, forks):
        got, ws = scans(kill)
    assert got == want
    # the plan stopped the dead helper and scans on alone
    assert ws.risk_sets._helper is None and reaped(forks[0][0])


def test_no_helper_in_a_pool_worker(tmp_path):
    """replicate(jobs=2) runs its fits in multiprocessing workers, which
    never fork a helper; the same study in this process does."""
    marks = tmp_path / "marks"
    marks.mkdir()
    real = likelihood._RiskSets._fork

    def marked(plan):
        (marks / str(os.getpid())).touch()
        real(plan)

    sc = sx.Scenario(n=120, seed=2)
    cfgs = [sx.FitConfig(K=2, variant="regtv")]
    with split(True), pytest.MonkeyPatch.context() as patch:
        patch.setattr(likelihood._RiskSets, "_fork", marked)
        assert not sx.replicate(sc, cfgs, reps=2, jobs=2).failures
        assert list(marks.iterdir()) == []
        assert not sx.replicate(sc, cfgs, reps=2, jobs=1).failures
        assert [p.name for p in marks.iterdir()] == [str(os.getpid())]


def test_no_helper_for_held_out_folds_cox_scans_or_chunked_scans(ds300):
    folds = sx.assign_folds(ds300.n, 3, ds300.event, 0)
    forks = []
    with split(True, forks):
        sx.fit_coxph(ds300)
        assert forks == []
        sx.cross_validate(ds300, sx.FitConfig(K=2, variant="regtv"), candidates=(2,),
                          folds=3)
        # one helper per training fit; the held-out value scans fork none
        assert sorted(n for _, n in forks) == sorted(ds300.n - np.bincount(folds))
        forks.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(likelihood, "_CHUNK_BUDGET", 100 * ds300.n)
            sx.fit(ds300, sx.FitConfig(K=2, variant="regtv"))
    assert forks == []


def test_selection_needs_the_size_the_cores_and_one_thread(ds300, monkeypatch):
    """Unforced, a helper forks only past _SPLIT_FLOATS floats, in a process
    that runs one OS thread and may use two cores."""
    basis = sx.make_basis(2, 3, ds300.tau)
    cb = sx.CoefficientBlock(np.zeros((ds300.p, basis.q)), None, 0.0)

    def forked():
        ws = sx.make_workspace(ds300, basis, 1e-4)
        sx.value_and_derivatives(cb, ds300, ws)
        live = ws.risk_sets._live() is not None
        ws.risk_sets.close()
        return live

    monkeypatch.setattr(likelihood, "_one_thread", lambda: True)
    assert ds300.n_events * ds300.n < likelihood._SPLIT_FLOATS and not forked()
    monkeypatch.setattr(likelihood, "_SPLIT_FLOATS", ds300.n_events * ds300.n)
    assert forked()
    monkeypatch.setattr(likelihood, "_one_thread", lambda: False)
    assert not forked()
    monkeypatch.setattr(likelihood, "_one_thread", lambda: True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert not forked()
    monkeypatch.undo()
    monkeypatch.setattr(likelihood, "_one_thread", lambda: True)
    monkeypatch.setattr(likelihood, "_SPLIT_FLOATS", 0)

    def no_fork():
        raise BlockingIOError("no process to be had")

    # a fork that fails leaves the scans in this process and no pipe open
    monkeypatch.setattr(os, "fork", no_fork)
    assert not forked() and not likelihood._HELPER_FDS
