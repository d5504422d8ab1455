"""Choose the spline dimension by cross-validation.

The data are split into event-stratified folds.  For each candidate
segment count K the model is fitted on the complement of each fold, from
the constant Cox warm start of that complement, which all candidates
share.  The held-out fold is scored by ``-penalized_loglik`` at rho = 0
and the exact thresholds (eta = 0) on a workspace of that fold alone, so
its risk sets lie inside it.  The chosen K minimizes the mean held-out
error (ties go to the smallest K).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .dataset import SurvivalDataset, make_dataset
from .errors import (
    ConvergenceError,
    SttvError,
    ValidationError,
    check_count,
)
from .likelihood import CoefficientBlock, make_workspace, penalized_loglik
from .optimizer import FitConfig, FittedModel, _cox_warm_start, fit

logger = logging.getLogger(__name__)

DEFAULT_CANDIDATES = (3, 5, 9, 13, 17, 21)


@dataclass(frozen=True)
class CvResult:
    candidates: tuple
    cv_error: np.ndarray          # mean held-out error per candidate (nan = failed)
    per_fold: np.ndarray          # (len(candidates), folds)
    chosen_K: int
    fold_assignments: np.ndarray
    failed: tuple                  # candidates excluded by inner fit failures


def assign_folds(n: int, folds: int, events, seed: int) -> np.ndarray:
    """Event-stratified shuffled assignment.

    Events and censored observations are permuted separately and dealt
    round-robin in one continuing cycle, so fold sizes stay balanced and
    events spread as evenly as possible.
    """
    events = np.asarray(events, dtype=bool).ravel()
    if events.shape[0] != n:
        raise ValidationError(f"{events.shape[0]} event flags for n={n}")
    if not 1 <= folds <= n:
        raise ValidationError(f"folds must lie in [1, {n}], got {folds}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
    out = np.empty(n, dtype=int)
    cursor = 0
    for mask in (events, ~events):
        idx = np.flatnonzero(mask)
        idx = rng.permutation(idx)
        out[idx] = (cursor + np.arange(idx.size)) % folds
        cursor += idx.size
    return out


def _heldout_error(model: FittedModel, held: SurvivalDataset) -> float:
    """Negative unpenalized log partial likelihood of held-out data.

    ``-penalized_loglik`` at rho = 0 and the exact thresholds (eta = 0; the
    spline levels of an unthresholded fit) on a workspace of the fold, whose
    risk sets lie inside it.  A fold without events scores 0.
    """
    if held.n_events == 0:
        return 0.0
    cb = CoefficientBlock(model.gamma_hat, model.alphas, 0.0)
    return -penalized_loglik(cb, held, make_workspace(held, model.basis, 0.0))


def _subset(ds: SurvivalDataset, rows: np.ndarray) -> SurvivalDataset:
    return make_dataset(
        ds.time[rows], ds.event[rows], ds.covariates[rows],
        tau=ds.tau, covariate_names=ds.covariate_names,
    )


def cv_candidates(candidates, folds: int, n: int) -> tuple:
    """Sorted distinct candidate K values, once folds and candidates are checked.

    The only check of a cross-validation setting on n rows; ``cross_validate``,
    the ``cv`` command and ``replicate`` call it before any work or output.
    """
    check_count(folds, "folds", least=2)
    if folds > n:
        raise ValidationError(f"folds={folds} exceeds n={n}")
    cand = tuple(candidates)
    if not cand:
        raise ValidationError("no candidate K values")
    for K in cand:
        check_count(K, "candidate K")
    return tuple(sorted({int(K) for K in cand}))


def cross_validate(
    ds: SurvivalDataset,
    cfg: FitConfig,
    candidates=None,
    folds: int = 10,
    seed: int = 0,
    *,
    _folds: dict | None = None,
) -> CvResult:
    """Mean held-out error per candidate K; deterministic given the seed.

    ``_folds`` is private: a dict from fold index to that fold's train and
    held-out datasets and the train set's ``_cox_warm_start`` result, filled
    on first use, which lets calls that draw the same folds (same dataset,
    folds and seed) share them.
    """
    cand = cv_candidates(
        DEFAULT_CANDIDATES if candidates is None else candidates, folds, ds.n
    )
    if ds.n_events == 0:
        raise ValidationError("cannot cross-validate a dataset with zero events")

    # events are dealt first, so with at least as many events as folds every
    # fold holds one; with fewer (e.g. leave-one-out on censored data) some
    # folds stay eventless and score 0
    assignment = assign_folds(ds.n, folds, ds.event, seed)

    per_fold = np.full((len(cand), folds), np.nan)
    failed = {}   # candidate K -> the error that excluded it

    def exclude(ci: int, exc: SttvError) -> None:
        failed[cand[ci]] = exc
        per_fold[ci, :] = np.nan
        logger.warning("candidate K=%d failed and is excluded: %s", cand[ci], exc)

    # folds run outside the candidates: each fold's datasets and warm start
    # are built once and serve every candidate that has not failed yet
    fold_data = {} if _folds is None else _folds
    for r in range(folds):
        live = [ci for ci, K in enumerate(cand) if K not in failed]
        if not live:
            break
        try:
            if r not in fold_data:
                train = _subset(ds, np.flatnonzero(assignment != r))
                held = _subset(ds, np.flatnonzero(assignment == r))
                fold_data[r] = (train, held, _cox_warm_start(train))
            train, held, warm = fold_data[r]
        except SttvError as exc:
            for ci in live:
                exclude(ci, exc)
            continue
        for ci in live:
            try:
                model = fit(train, replace(cfg, K=cand[ci]), _warm=warm)
                per_fold[ci, r] = _heldout_error(model, held)
            except SttvError as exc:
                exclude(ci, exc)

    cv_error = per_fold.mean(axis=1)
    usable = [i for i, K in enumerate(cand) if K not in failed]
    if not usable:
        causes = "; ".join(f"K={K}: {type(exc).__name__}: {exc}"
                           for K, exc in sorted(failed.items()))
        raise ConvergenceError(f"every candidate K failed during cross-validation: {causes}")
    best = min(usable, key=lambda i: (cv_error[i], cand[i]))
    return CvResult(
        candidates=cand,
        cv_error=cv_error,
        per_fold=per_fold,
        chosen_K=cand[best],
        fold_assignments=assignment,
        failed=tuple(sorted(failed)),
    )
