"""Right-censored survival data: validation, CSV ingestion, risk sets.

Observations are triples (time, event flag, covariate vector) observed on a
study horizon [0, tau].  A dataset stores them sorted by ascending time
(stable, so tied times keep their input order) because every downstream
computation walks risk sets, which are suffixes of the sorted order.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .errors import SchemaError, ValidationError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SurvivalDataset:
    """Time-sorted right-censored observations over ``[0, tau]``.

    ``sort_index`` records the permutation from original row order to
    storage order.  Rows whose original time exceeded ``tau`` are stored
    censored at ``tau`` itself.  Instances are immutable (arrays are marked
    read-only) and safe for shared concurrent reads.

    Fitting requires at least one event; the container itself does not,
    because derivative checks against penalty-only objectives need
    event-free data.
    """

    time: np.ndarray
    event: np.ndarray
    covariates: np.ndarray
    tau: float
    sort_index: np.ndarray
    covariate_names: tuple[str, ...] | None = None

    @property
    def n(self) -> int:
        return self.time.shape[0]

    @property
    def p(self) -> int:
        return self.covariates.shape[1]

    @property
    def n_events(self) -> int:
        return int(self.event.sum())

    @property
    def event_rows(self) -> np.ndarray:
        """Storage-order indices of the event observations."""
        return np.flatnonzero(self.event)

    def risk_start(self, i):
        """First storage index of the risk set of observation(s) ``i``.

        Tied times share one risk set, which starts at the first tie.
        """
        return np.searchsorted(self.time, self.time[i], side="left")


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def make_dataset(
    time,
    event,
    covariates,
    tau: float | None = None,
    covariate_names=None,
) -> SurvivalDataset:
    """Validate, truncate at ``tau``, and sort raw arrays into a dataset.

    ``tau`` defaults to the maximum observed time, in which case no
    truncation happens.  Any observation with time beyond ``tau`` is stored
    as censored at ``tau``.
    """
    time = np.asarray(time, dtype=float).ravel()
    event = np.asarray(event)
    covariates = np.asarray(covariates, dtype=float)
    if covariates.ndim < 2:
        covariates = covariates.reshape(-1, 1)
    n = time.shape[0]
    if n == 0:
        raise ValidationError("dataset needs at least one observation")
    if event.shape[0] != n or covariates.shape[0] != n:
        raise ValidationError(
            f"length mismatch: {n} times, {event.shape[0]} event flags, "
            f"{covariates.shape[0]} covariate rows"
        )
    if covariates.ndim != 2 or covariates.shape[1] < 1:
        raise ValidationError("covariates must be a (n, p) matrix with p >= 1")
    if not np.isfinite(time).all():
        raise ValidationError("times must be finite")
    if (time <= 0).any():
        bad = int(np.flatnonzero(time <= 0)[0])
        raise ValidationError(f"nonpositive time at observation {bad}")
    if not np.isfinite(covariates).all():
        raise ValidationError("covariates must be finite")
    ev = np.asarray(event, dtype=float).ravel()
    if not np.isin(ev, (0.0, 1.0)).all():
        bad = int(np.flatnonzero(~np.isin(ev, (0.0, 1.0)))[0])
        raise ValidationError(f"event flag not in {{0, 1}} at observation {bad}")
    event = ev.astype(bool)

    if tau is None:
        tau = float(time.max())
    tau = float(tau)
    if not np.isfinite(tau) or tau <= 0:
        raise ValidationError(f"tau must be positive and finite, got {tau}")

    over = time > tau
    if over.any():
        time = np.where(over, tau, time)
        event = event & ~over

    if covariate_names is not None:
        covariate_names = tuple(str(c) for c in covariate_names)
        if len(covariate_names) != covariates.shape[1]:
            raise ValidationError(
                f"{len(covariate_names)} covariate names for {covariates.shape[1]} columns"
            )

    order = np.argsort(time, kind="stable")
    ds = SurvivalDataset(
        time=_freeze(time[order].copy()),
        event=_freeze(event[order].copy()),
        covariates=_freeze(covariates[order].copy()),
        tau=tau,
        sort_index=_freeze(order.copy()),
        covariate_names=covariate_names,
    )
    if ds.n_events == 0:
        logger.debug("dataset constructed with zero events; fitting will refuse it")
    return ds


def load_csv(
    path,
    time_col: str = "time",
    event_col: str = "event",
    covariate_cols=None,
    tau: float | None = None,
) -> SurvivalDataset:
    """Read a UTF-8 CSV with a header row of distinct names into a dataset.

    ``covariate_cols`` defaults to every column other than the time and
    event ones, in header order.  Row numbers in error messages count data
    rows from 1 (the header is row 0).
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            raise SchemaError(f"{path}: empty file, header row required")
        for i, col in enumerate(header):
            if col in header[:i]:
                raise SchemaError(f"{path}: repeated column {col!r}")
        if covariate_cols is None:
            covariate_cols = [c for c in header if c not in (time_col, event_col)]
        covariate_cols = list(covariate_cols)
        for col in [time_col, event_col, *covariate_cols]:
            if col not in header:
                raise SchemaError(f"{path}: missing column {col!r}")
        if not covariate_cols:
            raise SchemaError(f"{path}: no covariate columns")

        times, events, rows = [], [], []
        for rownum, rec in enumerate(reader, start=1):
            def cell(col):
                raw = rec.get(col)
                if raw is None or raw == "":
                    raise ValidationError(f"{path} row {rownum}: empty cell in {col!r}")
                try:
                    return float(raw)
                except ValueError:
                    raise ValidationError(
                        f"{path} row {rownum}: non-numeric value {raw!r} in {col!r}"
                    ) from None

            t = cell(time_col)
            if t <= 0:
                raise ValidationError(f"{path} row {rownum}: nonpositive time {t}")
            e = cell(event_col)
            if e not in (0.0, 1.0):
                raise ValidationError(
                    f"{path} row {rownum}: event value {e} not in {{0, 1}}"
                )
            times.append(t)
            events.append(bool(e))
            rows.append([cell(c) for c in covariate_cols])

    if not times:
        raise ValidationError(f"{path}: no data rows")
    return make_dataset(
        np.array(times),
        np.array(events),
        np.array(rows),
        tau=tau,
        covariate_names=covariate_cols,
    )


def save_csv(ds: SurvivalDataset, path, time_col: str = "time", event_col: str = "event") -> None:
    """Write a dataset back to CSV in storage order.

    Floats are written with ``repr`` so a reload reproduces them exactly.
    """
    names = ds.covariate_names or tuple(f"z{j + 1}" for j in range(ds.p))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([time_col, event_col, *names])
        for i in range(ds.n):
            writer.writerow(
                [repr(float(ds.time[i])), int(ds.event[i])]
                + [repr(float(v)) for v in ds.covariates[i]]
            )


def risk_set(ds: SurvivalDataset, i: int) -> np.ndarray:
    """Storage-order indices of every subject still at risk at ``T_i``.

    The set is ``{l : T_l >= T_i}``, which always contains ``i`` itself,
    and tied times share one risk set.
    """
    if not 0 <= i < ds.n:
        raise ValidationError(f"observation index {i} out of range [0, {ds.n})")
    return np.arange(ds.risk_start(i), ds.n)
