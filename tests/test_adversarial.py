"""Small adversarial datasets through fit, cross_validate and the CLI.

Hypothesis draws datasets of 2 to 30 rows with distinct, heavily tied or
all-tied times, one event, some events or only events, and covariate
columns that are constant, duplicated (also scaled by -2), rounded to a
few values or binary, at scales from 1e-3 to 1e3.  Every call must give
finite outputs or raise an SttvError, and the command line must exit
with the code the README documents for that error.  A raw numpy
exception, a RuntimeWarning (an error under the test settings) or a NaN
in an output fails.  The one documented non-finite output is the infinite
variance, and interval, of a constant covariate in a ``coxph`` fit.

At the default chunk budget every such dataset scans its events in one
chunk, so a budget of n k floats, for k from 1 to m events per chunk, is
drawn with the data: the scans of paper-scale data split their events
into chunks and keep no weights.  Each chunk's risk-set totals must equal
the per-event loop over that chunk's own predictors, bit for bit, and a
scan served from what the risk-set plan kept must equal a fresh scan.
Chunked fits are not compared with unchunked ones: a chunk's predictor
product may round differently from the same rows of one whole product.

The same draw may instead force the split of each scan with a forked
helper process (blocks of 2 events, no size floor, one OS thread taken as
given), so the property also runs over split scans, whose totals must
equal the per-event loop's too.  Fits and command-line fits also run with
rho, eta and the thresholds at the float edges (subnormal, 1e-300, 1e300
and the largest float), with the same finite-or-typed-error rule.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import sttvcox as sx
from oracles import risk_set_totals_loop
from sttvcox import likelihood, threshold
from sttvcox.cli import main
from sttvcox.reporting import read_curve_table

# pinned to the floats of every OpenBLAS kernel (the CI core-type loop)
pytestmark = pytest.mark.bitwise

adversarial_settings = settings(max_examples=40, deadline=None,
                                suppress_health_check=[HealthCheck.too_slow])

# the exit codes of README's "Exit codes" paragraph, by error type
EXIT_CODES = {"ConvergenceError": 4, "SeparationError": 4, "NumericError": 3,
              "ValidationError": 2, "SchemaError": 2}


@st.composite
def adversarial(draw):
    """A small dataset with ties, few events and degenerate columns."""
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ties = draw(st.sampled_from(["distinct", "heavy", "all"]))
    if ties == "distinct":
        time = rng.exponential(1.0, n) + 0.01
    elif ties == "heavy":
        time = 0.5 * rng.integers(1, max(2, n // 5) + 1, n)
    else:
        time = np.full(n, 1.5)
    events = draw(st.sampled_from(["one", "some", "all"]))
    if events == "all":
        event = np.ones(n, dtype=bool)
    else:
        event = (rng.random(n) < 0.6) if events == "some" else np.zeros(n, dtype=bool)
        event[rng.integers(n)] = True
    cols = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["normal", "constant", "duplicate", "rounded", "binary"]))
        scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
        if kind == "duplicate" and cols:
            col = draw(st.sampled_from([1.0, -2.0])) * cols[rng.integers(len(cols))]
        elif kind == "constant":
            col = np.full(n, scale)
        elif kind == "rounded":
            col = scale * np.round(rng.normal(0.0, 1.5, n))
        elif kind == "binary":
            col = scale * (rng.random(n) < 0.5)
        else:
            col = scale * rng.normal(size=n)
        cols.append(col)
    return sx.make_dataset(time, event, np.column_stack(cols))


@st.composite
def budgeted(draw):
    """(adversarial dataset, scan layout): None keeps the default budget,
    under which every event of such data scans in one chunk; k runs the
    scans under a budget of n k floats, chunks of k events; "split" forces
    the helper split of each fit's one-chunk scans."""
    ds = draw(adversarial())
    return ds, draw(st.none() | st.integers(1, ds.n_events) | st.just("split"))


@contextlib.contextmanager
def chunks_of(ds, k):
    """Scans of ds in the block run in chunks of k events (None: the
    default), or split with a helper from their first derivative scan
    ("split"): blocks of 2 events, so 3 events or more make two blocks."""
    with pytest.MonkeyPatch.context() as patch:
        if k == "split":
            patch.setattr(likelihood, "_SPLIT_FLOATS", 0)
            patch.setattr(likelihood, "_one_thread", lambda: True)
            patch.setattr(likelihood, "_BLOCK_EVENTS", 2)
        elif k is not None:
            patch.setattr(likelihood, "_CHUNK_BUDGET", ds.n * k)
        yield


def events_per_chunk(ds, k):
    """The events per chunk of a ``budgeted`` layout."""
    return k if isinstance(k, int) else ds.n_events


def assert_finite(*arrays):
    for a in arrays:
        assert np.isfinite(np.asarray(a, dtype=float)).all()


@adversarial_settings
@given(case=budgeted(), variant=st.sampled_from(["sttv", "regtv"]), K=st.integers(1, 2))
def test_fit_gives_finite_outputs_or_a_typed_error(case, variant, K):
    ds, k = case
    try:
        with chunks_of(ds, k):
            model = sx.fit(ds, sx.FitConfig(K=K, variant=variant))
            curves = sx.estimate_curves(model, np.linspace(0.0, ds.tau, 7))
    except sx.SttvError as exc:
        assert type(exc).__name__ in EXIT_CODES
        return
    assert_finite(model.gamma_hat, model.sandwich, model.score_cov, model.neg_hessian_inv,
                  model.loglik_path, model.final_grad_norm)
    assert_finite(curves.theta_hat, curves.beta_hat, curves.sigma_hat, curves.ci_lower,
                  curves.ci_upper)


@adversarial_settings
@given(case=budgeted())
def test_cross_validate_gives_finite_errors_or_a_typed_error(case):
    ds, k = case
    try:
        with chunks_of(ds, k):
            result = sx.cross_validate(ds, sx.FitConfig(K=1), candidates=(1, 2), folds=2)
    except sx.SttvError as exc:
        assert type(exc).__name__ in EXIT_CODES
        return
    usable = [i for i, K in enumerate(result.candidates) if K not in result.failed]
    assert usable and result.chosen_K in [result.candidates[i] for i in usable]
    assert_finite(result.cv_error[usable], result.per_fold[usable])


def assert_same_bytes(got, want):
    for g, w in zip(got, want, strict=True):
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@adversarial_settings
@given(case=budgeted(), thresholded=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_scan_matches_per_chunk_loop_and_kept_entry(case, thresholded, seed):
    ds, k = case
    m = ds.n_events
    basis = sx.make_basis(2, 3, ds.tau)
    gamma = np.random.default_rng(seed).normal(0.0, 0.5, (ds.p, basis.q))
    cb = sx.CoefficientBlock(gamma=gamma, thresholds=np.full(ds.p, 0.2) if thresholded else None,
                             eta=0.01)
    events, Z = ds.event_rows, ds.covariates
    starts = ds.risk_start(events)
    with chunks_of(ds, k):
        ws = sx.make_workspace(ds, basis, 0.1)
        H = threshold._effect(ws.basis_at_events @ gamma.T, cb.thresholds, cb.eta)[0]
        own, *totals = likelihood._event_totals(H, ds, events, likelihood._RiskSets(Z, starts), 2)
        # each chunk's predictors are a product of its own rows
        k = events_per_chunk(ds, k)
        for s in range(0, m, k):
            rows = slice(s, s + k)
            G = H[rows] @ Z.T
            assert own[rows].tobytes() == G[np.arange(G.shape[0]), events[rows]].tobytes()
            assert_same_bytes([t[rows] for t in totals],
                              risk_set_totals_loop(G, starts[rows], Z, 2))
        # a value scan keeps its weights when it runs as one chunk; the
        # derivative scan reads them, and the score covariance its totals
        value = sx.penalized_loglik(cb, ds, ws)
        assert (ws.risk_sets._kept is not None) == (k >= m)
        got = sx.value_and_derivatives(cb, ds, ws)
        got_cov = likelihood.score_covariance(cb, ds, ws)
        want = sx.value_and_derivatives(cb, ds, sx.make_workspace(ds, basis, 0.1))
        want_cov = sx.score_covariance(cb, ds, sx.make_workspace(ds, basis, 0.1))
    assert value.hex() == got[0].hex() == want[0].hex()
    assert_same_bytes([*got[1:], got_cov], [*want[1:], want_cov])


def run_cli(*args):
    """(exit code, stderr) of one in-process command."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in args])
    return code, err.getvalue()


def assert_exit_matches_error(code, err):
    """A failure exits with its error type's code, named on stderr."""
    assert code in (0, 2, 3, 4)
    if code:
        kind = err.rsplit("error [", 1)[1].split("]", 1)[0]
        assert EXIT_CODES[kind] == code


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=budgeted())
def test_cli_exits_with_the_documented_code_and_writes_finite_tables(case):
    ds, k = case
    with tempfile.TemporaryDirectory() as tmp, chunks_of(ds, k):
        data = os.path.join(tmp, "data.csv")
        sx.save_csv(ds, data)
        for variant in ("sttv", "regtv", "coxph"):
            out = os.path.join(tmp, variant)
            code, err = run_cli("fit", "--input", data, "--output", out, "--K", 2,
                                "--variant", variant, "--grid-points", 5)
            assert_exit_matches_error(code, err)
            assert os.path.exists(os.path.join(out, "curves.csv")) == (code == 0)
            if code:
                continue
            # a NaN cell fails to read back
            table = read_curve_table(os.path.join(out, "curves.csv"))
            with open(os.path.join(out, "model.json")) as fh:
                doc = json.load(fh)
            rows = np.ones(ds.p, dtype=bool)
            if variant == "coxph":
                # a column without information has an infinite variance and interval
                rows = ~np.array(doc["zero_information"])
                assert (table.sigma_hat[~rows] == np.inf).all()
            assert_finite(*(a[rows] for a in (table.theta_hat, table.beta_hat, table.sigma_hat,
                                              table.ci_lower, table.ci_upper)))
        out = os.path.join(tmp, "cv")
        code, err = run_cli("cv", "--input", data, "--output", out, "--candidates", "1,2",
                            "--folds", 2, "--refit", "--grid-points", 5)
        assert_exit_matches_error(code, err)
        if code == 0:
            table = read_curve_table(os.path.join(out, "curves.csv"))
            assert_finite(table.theta_hat, table.beta_hat, table.sigma_hat, table.ci_lower,
                          table.ci_upper)


# rho, eta and thresholds at the float edges: subnormal, tiny, huge, the largest float
FLOAT_EDGES = (5e-324, 1e-300, 1e300, float(np.finfo(float).max))


@st.composite
def edge_settings(draw):
    """{setting: value} for rho, eta and the threshold override, each left
    at its default or set to a float edge, one at least."""
    names = draw(st.sets(st.sampled_from(["rho", "eta", "alpha_override"]), min_size=1))
    return {name: draw(st.sampled_from(FLOAT_EDGES)) for name in sorted(names)}


@adversarial_settings
@given(ds=adversarial(), variant=st.sampled_from(["sttv", "regtv"]), edges=edge_settings())
def test_float_edge_settings_give_finite_outputs_or_a_typed_error(ds, variant, edges):
    settings_ = {k: (v,) * ds.p if k == "alpha_override" else v for k, v in edges.items()}
    try:
        model = sx.fit(ds, sx.FitConfig(K=2, variant=variant, **settings_))
        curves = sx.estimate_curves(model, np.linspace(0.0, ds.tau, 7))
    except sx.SttvError as exc:
        assert type(exc).__name__ in EXIT_CODES
    else:
        assert_finite(model.gamma_hat, model.sandwich, model.score_cov, model.loglik_path)
        assert_finite(curves.theta_hat, curves.beta_hat, curves.sigma_hat, curves.ci_lower,
                      curves.ci_upper)
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "data.csv")
        sx.save_csv(ds, data)
        out = os.path.join(tmp, "fit")
        flags = [f"--{name.replace('_', '-')}={value!r}" for name, value in edges.items()]
        code, err = run_cli("fit", "--input", data, "--output", out, "--K", 2,
                            "--variant", variant, "--grid-points", 5, *flags)
        assert_exit_matches_error(code, err)
        if code == 0:
            table = read_curve_table(os.path.join(out, "curves.csv"))
            assert_finite(table.theta_hat, table.beta_hat, table.sigma_hat, table.ci_lower,
                          table.ci_upper)
