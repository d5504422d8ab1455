"""Shared fixtures and the acceptance-criteria result banner."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

import sttvcox as sx

# Populated by tests/test_acceptance.py; printed after the run so each
# criterion gets exactly one visible pass/fail line.
ACCEPTANCE_RESULTS: dict = {}


def record_criterion(number: int, passed: bool, detail: str) -> None:
    ACCEPTANCE_RESULTS[number] = (passed, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        passed, detail = ACCEPTANCE_RESULTS[number]
        word = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"ACCEPTANCE {number:2d} [{word}] {detail}")


def make_random_dataset(seed, n=20, p=2, censor=0.3):
    """Small arbitrary survival data for derivative and oracle checks."""
    rng = np.random.default_rng(seed)
    time = rng.exponential(1.0, size=n) + 0.05
    event = rng.random(n) > censor
    if not event.any():
        event[int(np.argmin(time))] = True
    Z = rng.normal(0.0, 1.0, size=(n, p))
    return sx.make_dataset(time, event, Z)


def dependent_pairs():
    """z2 = 2 z1 on 11 tied pairs with z1 = +1 and -1: 8 event pairs, then 3
    censored ones.  Every risk set is symmetric, so the score at beta = 0 is
    exactly zero and the information there, 16 [[1, 2], [2, 4]], is exactly
    singular."""
    time = np.repeat(np.arange(1.0, 12.0), 2)
    event = np.repeat(np.arange(11) < 8, 2)
    z1 = np.tile([1.0, -1.0], 11)
    return sx.make_dataset(time, event, np.column_stack([z1, 2.0 * z1]))


@pytest.fixture(scope="session")
def scenario_200():
    return sx.Scenario(n=200, covariance="ind", seed=11)


@pytest.fixture(scope="session")
def dataset_200(scenario_200):
    return sx.generate(scenario_200)


@pytest.fixture(scope="session")
def fitted_sttv_200(dataset_200):
    return sx.fit(dataset_200, sx.FitConfig(K=3, variant="sttv", seed=11))


@pytest.fixture(scope="session")
def acceptance_study():
    """The pinned benchmark: Ind, n = 500, 50 reps, K = 3, both variants."""
    sc = sx.Scenario(n=500, covariance="ind", seed=0)
    cfgs = [sx.FitConfig(K=3, variant=v, seed=0) for v in ("sttv", "regtv")]
    return sx.replicate(sc, cfgs, reps=50, jobs=4, keep_curves=True)


@pytest.fixture(scope="session")
def paired_consistency_runs():
    """STTV ISE at n = 500 and n = 2000 on 20 shared rep seeds."""
    out = {}
    for n in (500, 2000):
        sc = sx.Scenario(n=n, covariance="ind", seed=0)
        cfgs = [sx.FitConfig(K=3, variant="sttv", seed=0)]
        out[n] = sx.replicate(sc, cfgs, reps=20, jobs=4)
    return out
