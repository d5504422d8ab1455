"""Choose the spline dimension by cross-validation.

The data are split into event-stratified folds.  For each candidate
segment count K the model is fitted on the complement of each fold, from
the constant Cox warm start of that complement, which all candidates
share.  The held-out fold is scored with the negative unpenalized log
partial likelihood, evaluated at the exact thresholded curves and with
risk sets formed inside the held-out fold only.  The chosen K minimizes
the mean held-out error (ties go to the smallest K).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .dataset import SurvivalDataset, make_dataset
from .errors import (
    ConvergenceError,
    StratificationError,
    SttvError,
    ValidationError,
    check_count,
)
from .likelihood import _event_totals
from .optimizer import FitConfig, FittedModel, _cox_warm_start, fit
from .splines import eval_basis_grid
from .threshold import _effect

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

    Curves are the exact soft-thresholded estimates (the spline levels of
    an unthresholded fit) evaluated at the held-out event times; risk sets
    live entirely inside the held-out fold.
    """
    events = held.event_rows
    if events.size == 0:
        return 0.0
    B_ev = eval_basis_grid(model.basis, held.time[events])
    beta, _, _ = _effect(B_ev @ model.gamma_hat.T, model.alphas, 0.0)   # (m, p)
    own, logS0, _, _ = _event_totals(beta, held.covariates, events,
                                     held.risk_start(events), order=0)
    return -float(own.sum() - logS0.sum())


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
) -> CvResult:
    """Mean held-out error per candidate K; deterministic given the seed."""
    cand = cv_candidates(
        DEFAULT_CANDIDATES if candidates is None else candidates, folds, ds.n
    )
    if ds.n_events == 0:
        raise ValidationError("cannot cross-validate a dataset with zero events")

    assignment = None
    # with more folds than events some folds must stay eventless (e.g.
    # leave-one-out on censored data); those folds score 0 and the strict
    # requirement applies only when it is satisfiable
    feasible = ds.n_events >= folds
    for attempt in range(100):
        trial = assign_folds(ds.n, folds, ds.event, seed + attempt)
        counts = np.bincount(trial[ds.event], minlength=folds)
        if not feasible or (counts > 0).all():
            assignment = trial
            break
    if assignment is None:
        raise StratificationError(
            f"could not build {folds} folds that all retain an event "
            f"({ds.n_events} events total)"
        )

    per_fold = np.full((len(cand), folds), np.nan)
    failed = []

    def exclude(ci: int, exc: SttvError) -> None:
        failed.append(cand[ci])
        per_fold[ci, :] = np.nan
        logger.warning("candidate K=%d failed and is excluded: %s", cand[ci], exc)

    # folds run outside the candidates: each fold's datasets and warm start
    # are built once and serve every candidate that has not failed yet
    for r in range(folds):
        live = [ci for ci, K in enumerate(cand) if K not in failed]
        if not live:
            break
        try:
            train = _subset(ds, np.flatnonzero(assignment != r))
            held = _subset(ds, np.flatnonzero(assignment == r))
            warm = _cox_warm_start(train)
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
        raise ConvergenceError("every candidate K failed during cross-validation")
    best = min(usable, key=lambda i: (cv_error[i], cand[i]))
    return CvResult(
        candidates=cand,
        cv_error=cv_error,
        per_fold=per_fold,
        chosen_K=cand[best],
        fold_assignments=assignment,
        failed=tuple(sorted(failed)),
    )
