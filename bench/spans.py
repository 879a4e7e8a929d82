"""Spans and counts around calls into the package's public functions.

The tracer replaces module attributes with timing wrappers, so every call
that goes through the attribute (``cli`` calls ``montecarlo.estimate_*``,
``dirichlet.*`` and its own ``expm`` that way) records a span ``(name,
start, end, parent)``.  Spans stay in memory until :meth:`Tracer.dump`.
Calls that run once per sample path (the closure returned by
``log_weight_fn``, the grid sampler and the grid weight) are counted and
timed instead of spanned.
"""

from __future__ import annotations

import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

ORACLE_SPANS = ("cli.expm", "dirichlet.transformed_generator", "dirichlet.pure_jump_generator")


class Tracer:
    def __init__(self):
        self.spans = []                 # [name, start, end, parent index or None]
        self.counts = Counter()
        self.seconds = defaultdict(float)
        self._stack = []
        self._saved = []

    def _spanned(self, name, fn):
        spans, stack = self.spans, self._stack

        def wrapped(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapped

    def _counted(self, name, fn):
        counts, seconds = self.counts, self.seconds

        def wrapped(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += perf_counter() - start
                counts[name] += 1

        return wrapped

    def _replace(self, module, attr, fn):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, fn)

    def install(self):
        from girsanov import cli, dirichlet, montecarlo

        for attr in montecarlo.__all__:
            if attr.startswith("estimate_") or attr == "quadratic_form_trend":
                self._replace(montecarlo, attr, self._spanned(f"montecarlo.{attr}", getattr(montecarlo, attr)))
        make_log_weight = montecarlo.log_weight_fn

        def log_weight_fn(*args, **kwargs):
            return self._counted("transform.log_weight", make_log_weight(*args, **kwargs))

        self._replace(montecarlo, "log_weight_fn", self._spanned("montecarlo.log_weight_fn", log_weight_fn))
        for attr in ("sample_jump_diffusion_path", "rho_transform_mf"):
            self._replace(montecarlo, attr, self._counted(f"montecarlo.{attr}", getattr(montecarlo, attr)))
        for attr in dirichlet.__all__:
            fn = getattr(dirichlet, attr)
            if inspect.isfunction(fn):
                self._replace(dirichlet, attr, self._spanned(f"dirichlet.{attr}", fn))
        self._replace(cli, "expm", self._spanned("cli.expm", cli.expm))
        self._replace(cli, "run", self._spanned("cli.run", cli.run))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _has_ancestor(self, idx, names) -> bool:
        parent = self.spans[idx][3]
        while parent is not None:
            if self.spans[parent][0].startswith(names):
                return True
            parent = self.spans[parent][3]
        return False

    def verify_split(self):
        """Per ``cli.run`` span: ``(wall, oracle, estimator, rest)`` seconds.

        Oracle time is the outermost ``expm`` and generator-build spans, and
        estimator time the outermost ``montecarlo`` spans, inside that run.
        """
        runs = {i: [s[2] - s[1], 0.0, 0.0] for i, s in enumerate(self.spans) if s[0] == "cli.run"}
        for i, (name, start, end, parent) in enumerate(self.spans):
            if name == "cli.run":
                continue
            top = parent
            while top is not None and self.spans[top][0] != "cli.run":
                top = self.spans[top][3]
            if top is None:
                continue
            if name in ORACLE_SPANS and not self._has_ancestor(i, ORACLE_SPANS):
                runs[top][1] += end - start
            elif name.startswith("montecarlo.") and not self._has_ancestor(i, ("montecarlo.",)):
                runs[top][2] += end - start
        return [(w, o, e, w - o - e) for w, o, e in runs.values()]

    def dump(self, path, extra=None):
        payload = {
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
            "counts": dict(self.counts),
            "seconds": dict(self.seconds),
        }
        payload.update(extra or {})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
