"""Right-censored survival data: validation and CSV ingestion.

Observations are triples (time, event flag, covariate vector) observed on a
study horizon [0, tau].  A dataset stores them sorted by ascending time
(stable, so tied times keep their input order) because every downstream
computation walks risk sets, which are suffixes of the sorted order.
"""

from __future__ import annotations

import csv
import logging
import os
from dataclasses import dataclass
from types import SimpleNamespace

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

    Fitting, and the likelihood workspace of a fit, require at least one
    event; the container itself does not, because a held-out fold of
    cross-validation or an input CSV may have none.
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
    event = np.asarray(event).ravel()
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
    ev = np.asarray(event, dtype=float)
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


def _read_table(path, required=()) -> tuple:
    """(header, rows) of a CSV table under README "Tables", cells as strings; the
    ``required`` names must be distinct too.  Errors count data rows from 1."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = [row for row in csv.reader(fh) if row]
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"{path}: not a UTF-8 CSV table: {exc}") from exc
    if not lines:
        raise SchemaError(f"{path}: empty file, header row required")
    header, rows = lines[0], lines[1:]
    for names in (header, required):
        repeated = [col for i, col in enumerate(names) if col in names[:i]]
        if repeated:
            raise SchemaError(f"{path}: repeated column {repeated[0]!r}")
    missing = [col for col in required if col not in header]
    if missing:
        raise SchemaError(f"{path}: missing columns {missing}")
    for rownum, row in enumerate(rows, start=1):
        if len(row) != len(header):
            raise ValidationError(f"{path} row {rownum}: {len(row)} cells, expected {len(header)}")
    return header, rows


def _table_text(header, rows) -> str:
    """CSV text of a header and rows, LF line ends, a float cell as its repr."""
    lines = []
    # a CRLF line end makes csv quote a cell holding a CR too; one write per row
    csv.writer(SimpleNamespace(write=lines.append)).writerows([header, *rows])
    return "".join(line[:-2] + "\n" for line in lines)


def _atomic_write(path, text: str) -> None:
    """Write text to path as UTF-8 through a new file in path's directory,
    renamed over path, so a crash mid-write leaves no truncated file.

    The new file is created with mode 0o666, so the umask sets its mode as
    it does for ``open``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_csv(path, *, tau: float | None = None) -> SurvivalDataset:
    """Read a survival CSV (see README "Tables") into a dataset.

    The covariates are every column other than ``time`` and ``event``, in
    header order.  Row numbers in error messages count data rows from 1
    (the header is row 0).
    """
    header, rows = _read_table(path, ("time", "event"))
    names = [c for c in header if c not in ("time", "event")]
    if not names:
        raise SchemaError(f"{path}: no covariate columns")
    if not rows:
        raise ValidationError(f"{path}: no data rows")

    index = {col: i for i, col in enumerate(header)}
    times, events, covariates = [], [], []
    for rownum, row in enumerate(rows, start=1):
        def cell(col):
            raw = row[index[col]]
            if raw == "":
                raise ValidationError(f"{path} row {rownum}: empty cell in {col!r}")
            try:
                return float(raw)
            except ValueError:
                raise ValidationError(
                    f"{path} row {rownum}: non-numeric value {raw!r} in {col!r}"
                ) from None

        t = cell("time")
        if t <= 0:
            raise ValidationError(f"{path} row {rownum}: nonpositive time {t}")
        e = cell("event")
        if e not in (0.0, 1.0):
            raise ValidationError(
                f"{path} row {rownum}: event value {e} not in {{0, 1}}"
            )
        times.append(t)
        events.append(bool(e))
        covariates.append([cell(c) for c in names])

    return make_dataset(
        np.array(times),
        np.array(events),
        np.array(covariates),
        tau=tau,
        covariate_names=names,
    )


def save_csv(ds: SurvivalDataset, path) -> None:
    """Write a dataset back to CSV in storage order.

    Floats are written with ``repr`` so a reload reproduces them exactly.
    """
    names = ds.covariate_names or tuple(f"z{j + 1}" for j in range(ds.p))
    columns = [ds.time, ds.event.astype(int), *ds.covariates.T]
    rows = zip(*([repr(v) for v in col.tolist()] for col in columns))
    _atomic_write(path, _table_text(["time", "event", *names], rows))

