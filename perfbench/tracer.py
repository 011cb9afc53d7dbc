"""Span tracing of gmrfmix from outside the package.

`Tracer.install` rebinds every public function of the layer modules, in
every layer namespace that holds it, to a wrapper that records a span
(name, start, end, parent span, round). Classes defined in the layers get
their public methods wrapped once, on the class, and their constructor
unless they are dataclasses. Spans stay in memory until `write` is called
at the end of the run. Work counters are read from the values the wrapped
functions return; nothing inside the package changes.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict

LAYERS = ("cli", "mixture", "glasso", "mle", "matrices", "synthetic", "evaluation")


def _count_free_set(tracer, out):
    tracer.count("glasso.free_set.size", len(out))


def _count_glasso(tracer, out):
    tracer.count("glasso.newton_iters", out.iterations)
    tracer.count("glasso.capped", not out.converged)
    tracer.maximum("glasso.kkt_max", out.kkt_residual)


def _count_mle(tracer, out):
    tracer.count("mle.newton_iters", out.iterations)
    tracer.count("mle.unconverged", not out.converged)


def _count_pcg(tracer, out):
    tracer.count("mle.pcg_truncated", not out[1])


def _count_em(tracer, out):
    tracer.count("mixture.em_iters", len(out[1]))


# span name -> reader of the counters carried by the returned value
OBSERVERS = {
    "glasso.free_set": _count_free_set,
    "glasso.glasso_solve": _count_glasso,
    "mle.estimate_known_support": _count_mle,
    "mle.proj_pcg": _count_pcg,
    "mixture.fit_em": _count_em,
}


class Tracer:
    def __init__(self):
        # one span: [name, start, end, parent index or -1, round, error name]
        self.spans: list[list] = []
        self.counters: dict[tuple[str, str], float] = defaultdict(float)
        self.round = "setup-0"
        self._stack: list[int] = []

    def count(self, name: str, value) -> None:
        self.counters[(self.round, name)] += float(value)

    def maximum(self, name: str, value) -> None:
        key = (self.round, name)
        self.counters[key] = max(self.counters.get(key, 0.0), float(value))

    def wrap(self, name: str, fn):
        tracer = self
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, tracer.round, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = type(exc).__name__
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(tracer, out)
            return out

        traced.__perfbench_span__ = name
        return traced

    def install(self) -> None:
        """Wrap the public functions and classes of every layer module."""
        modules = {layer: importlib.import_module(f"gmrfmix.{layer}") for layer in LAYERS}
        wrapped_classes = set()
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or hasattr(obj, "__perfbench_span__"):
                    continue
                layer = _layer_of(obj)
                if layer is None:
                    continue
                if inspect.isfunction(obj):
                    setattr(module, attr, self.wrap(f"{layer}.{obj.__name__}", obj))
                elif inspect.isclass(obj) and obj not in wrapped_classes:
                    wrapped_classes.add(obj)
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer: str, cls) -> None:
        if issubclass(cls, BaseException):
            return
        prefix = f"{layer}.{cls.__name__}"
        for attr, member in list(vars(cls).items()):
            if attr == "__init__" and not dataclasses.is_dataclass(cls):
                setattr(cls, attr, self.wrap(prefix, member))
            elif attr.startswith("_"):
                continue
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.wrap(f"{prefix}.{attr}", member.__func__)))
            elif isinstance(member, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(f"{prefix}.{attr}", member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", member))

    def summary(self, rounds: list[str]) -> dict[str, dict[str, float]]:
        """Per-name calls and self time, and the counters, averaged over rounds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        wanted = set(rounds)
        calls: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        pcg_iters = 0
        reseeds = 0
        for idx, (name, start, end, parent, rnd, error) in enumerate(self.spans):
            if rnd not in wanted:
                continue
            calls[name] += 1
            self_s[name] += (end - start) - child_time[idx]
            parent_name = self.spans[parent][0] if parent >= 0 else None
            if name == "matrices.project_to_pattern" and parent_name == "mle.proj_pcg":
                pcg_iters += 1
            if name == "mixture.m_step" and error == "EmptyComponent":
                reseeds += 1
        counters: dict[str, float] = defaultdict(float)
        for (rnd, name), value in self.counters.items():
            if rnd in wanted:
                counters[name] += value
        counters["mle.pcg_iters"] = pcg_iters
        counters["mixture.reseeds"] = reseeds
        n = max(1, len(rounds))
        return {
            "calls": {k: v / n for k, v in calls.items()},
            "self_s": {k: v / n for k, v in self_s.items()},
            "counters": {k: v / n for k, v in counters.items()},
        }

    def write(self, path: str) -> None:
        """Write the spans, one JSON object per line."""
        with open(path, "w") as fh:
            for idx, (name, start, end, parent, rnd, error) in enumerate(self.spans):
                rec = {"id": idx, "name": name, "start": start, "end": end,
                       "parent": parent, "round": rnd}
                if error:
                    rec["error"] = error
                fh.write(json.dumps(rec) + "\n")


def _layer_of(obj) -> str | None:
    module = getattr(obj, "__module__", None) or ""
    parts = module.split(".")
    if len(parts) == 2 and parts[0] == "gmrfmix" and parts[1] in LAYERS:
        return parts[1]
    return None
