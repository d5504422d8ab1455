"""Span tracing of sttvcox from outside the library.

A ``Tracer`` wraps the public functions of each library module (plus the
replication task function, which marks the boundary of work done in a pool
worker) and records one span per call: name, id, parent id, start, end and
a few counts read from the arguments or the result.  Nothing under ``src/``
is changed; the wrappers are installed by rebinding module attributes and
removed again by ``uninstall``.

Spans stay in memory.  Forked pool workers inherit the wrappers; each
worker starts an empty span list after the fork and appends its spans to a
spool file in ``spool_dir`` after every task, and the parent merges the
spool files with ``collect``.  ``time.perf_counter`` reads the system-wide
monotonic clock on Linux, so worker and parent times are comparable.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time

LAYERS = (
    "likelihood",
    "optimizer",
    "coxph",
    "splines",
    "inference",
    "model_selection",
    "simulation",
    "dataset",
    "reporting",
    "cli",
)

# private functions traced because they mark a layer boundary the public
# functions do not: one replication task, run in a pool worker when jobs > 1
TASK_FUNCTIONS = {("simulation", "_run_one_rep"): "simulation.replicate.task"}

_SCANS = (
    "likelihood.value_and_derivatives",
    "likelihood.penalized_loglik",
    "likelihood.gradient",
    "likelihood.hessian",
    "likelihood.score_covariance",
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _dataset_digest(ds) -> str:
    h = hashlib.blake2b(digest_size=12)
    for a in (ds.time, ds.event, ds.covariates):
        h.update(a.tobytes())
    return h.hexdigest()


def _attrs(name, args, kwargs, result):
    """Counts recorded on a span, read where the work happens."""
    if name in _SCANS:
        ws = _arg(args, kwargs, 2, "ws")
        return {"events": int(ws.event_rows.shape[0])}
    if name == "optimizer.fit":
        return {"iters": int(result.n_iter)}
    if name == "coxph.fit_coxph":
        return {
            "iters": int(result.iterations),
            "key": _dataset_digest(_arg(args, kwargs, 0, "ds")),
        }
    if name == "simulation.replicate":
        return {"jobs": int(kwargs.get("jobs", args[4] if len(args) > 4 else 1))}
    return None


class Tracer:
    """Records spans of sttvcox calls in this process and its forked workers."""

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.spans: list = []
        self._stack: list = []
        self._root = None
        self._counter = 0
        self._in_worker = False
        self._active = False
        self._patched: list = []   # (module, attribute, original)
        os.register_at_fork(after_in_child=self._after_fork)

    # -- installation -------------------------------------------------

    def install(self) -> None:
        import sttvcox  # noqa: F401  (load every submodule first)

        originals = {}
        for layer in LAYERS:
            mod = sys.modules[f"sttvcox.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    originals[id(obj)] = (obj, f"{layer}.{attr}", False)
        for (layer, attr), span_name in TASK_FUNCTIONS.items():
            obj = getattr(sys.modules[f"sttvcox.{layer}"], attr)
            originals[id(obj)] = (obj, span_name, True)

        wrappers = {key: self._wrap(fn, name, task)
                    for key, (fn, name, task) in originals.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "sttvcox" and not modname.startswith("sttvcox."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and originals[id(obj)][0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])
        self._active = True

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched = []
        self._active = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- recording ----------------------------------------------------

    def _next_id(self) -> str:
        self._counter += 1
        return f"{os.getpid()}:{self._counter}"

    def _after_fork(self) -> None:
        if not self._active:
            return
        self._root = self._stack[-1] if self._stack else self._root
        self._stack = []
        self.spans = []
        self._in_worker = True

    def _wrap(self, fn, name: str, task: bool):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else tracer._root
            sid = tracer._next_id()
            tracer._stack.append(sid)
            result = None
            error = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                attrs = {"error": error} if error else _attrs(name, args, kwargs, result)
                tracer.spans.append((name, sid, parent, t0, t1, attrs))
                if task and tracer._in_worker:
                    tracer._spool()

        return traced

    def _spool(self) -> None:
        path = os.path.join(self.spool_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> list:
        """Merge spooled worker spans into ``spans``; return and clear all."""
        for entry in sorted(os.listdir(self.spool_dir)):
            if not entry.startswith("worker-"):
                continue
            path = os.path.join(self.spool_dir, entry)
            with open(path) as fh:
                for line in fh:
                    self.spans.append(tuple(json.loads(line)))
            os.unlink(path)
        spans, self.spans = self.spans, []
        return spans


def self_times(spans) -> dict:
    """Span name -> (calls, total seconds, self seconds).

    Self time is a span's duration minus the part of its interval that
    its child spans cover; children run in pool workers may overlap, so
    coverage is the union of their intervals clipped to the parent's.
    """
    children: dict = {}
    for span in spans:
        children.setdefault(span[2], []).append((span[3], span[4]))
    out: dict = {}
    for name, sid, _, t0, t1, _ in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (t1 - t0), own + (t1 - t0 - covered))
    return out
