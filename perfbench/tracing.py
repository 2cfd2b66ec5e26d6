"""Span tracing from outside the program.

Hooks replace `guv` module attributes with wrappers that record a span
(name, start, end, parent, workload, stage) around each call. Nothing under
`src/` is edited: a function is wrapped at every `guv` module attribute that
refers to it, so calls made through a re-export (`guv.fit.gradients`) or a
package-level name (`guv.save_avatar`) are caught as well. A hook whose
target attribute does not exist is reported as absent, not as an error.

Spans stay in memory and are written out once, after the traced run, each
with its self time.
"""
from __future__ import annotations

import bisect
import functools
import inspect
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict

# Every op name the tape records today; an op outside this list is summed
# into grad.backward_ms.other so a new op still shows up.
TAPE_OPS = (
    "add", "sub", "mul", "div", "neg", "exp", "log", "log1p", "sqrt", "sin",
    "cos", "tanh", "sigmoid", "relu", "abs", "clip", "sum", "cumsum",
    "matmul", "matmul_last", "mixdown", "take", "getitem", "reshape",
    "transpose", "broadcast_to", "stack", "concatenate", "where",
)

# (module, attribute, span name); spans sharing a name are summed together.
SPAN_HOOKS = (
    ("guv.grad", "adamw_step", "grad.adamw"),
    ("guv.render", "march_rays_core", "render.kernel"),
    ("guv.render", "_knn_for_samples", "render.knn"),
    ("guv.render", "_shade", "render.shade"),
    ("guv.render", "_triplane_features", "render.triplane"),
    ("guv.render", "mlp_forward", "render.mlp"),
    ("guv.spatial", "nearest_k_batch", "spatial.knn"),
    ("guv.spatial", "knn_query", "spatial.knn"),
    ("guv.losses", "total_loss", "losses.total_loss"),
    ("guv.fit", "_decode_rows", "fit.decode"),
    ("guv.diffusion", "posterior_params", "diffusion.posterior"),
    ("guv.diffusion", "q_sample", "diffusion.q_sample"),
    ("guv.diffusion", "fold", "diffusion.fold_unfold"),
    ("guv.diffusion", "unfold", "diffusion.fold_unfold"),
    ("guv.edit", "region_transfer", "edit.region_transfer"),
    ("guv.edit", "interpolate", "edit.interpolate"),
    ("guv.io_cli", "save_avatar", "io_cli.save"),
    ("guv.io_cli", "load_avatar", "io_cli.load"),
    ("guv.io_cli", "generate_toy_dataset", "io_cli.dataset"),
    ("guv.io_cli", "load_dataset", "io_cli.dataset"),
)

# Counts that must repeat exactly across runs of one seed.
EXACT_COUNTS = ("grad.tape_ops", "render.knn_dist_evals",
                "render.knn_bytes_computed", "render.rays",
                "io_cli.bytes_written")


class Tracer:
    """In-memory span recorder. `stage` tags every span and count; only
    spans of stages starting with "job" feed the per-layer metrics."""

    def __init__(self, workload: str):
        self.workload = workload
        self.stage = "setup"
        self.spans: list[list] = []   # [name, start, end, parent, workload, stage]
        self._local = threading.local()   # per thread: the open spans
        self.counts: Counter = Counter()
        self.iteration_windows: list[tuple[float, float]] = []
        self.gradient_calls = 0

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "open"):
            self._local.open = []
        return self._local.open

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        self.spans.append([name, time.perf_counter(), None, parent,
                           self.workload, self.stage])
        stack.append(len(self.spans) - 1)
        return stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, n: int) -> None:
        if self.stage.startswith("job"):
            self.counts[name] += n

    def timed(self, name: str, fn):
        """fn wrapped in a span named `name`."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
        return wrapper

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        own = [end - start for _, start, end, *_ in self.spans]
        for span in self.spans:
            if span[3] is not None:
                own[span[3]] -= span[2] - span[1]
        return own

    def write(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        spans = [span + [own] for span, own in zip(self.spans, self.self_times())]
        with open(path, "w", encoding="utf-8") as f:
            json.dump({**extra, "span_fields": ["name", "start", "end", "parent",
                                                "workload", "stage", "self"],
                       "spans": spans}, f)


class RngProxy:
    """Stands in for a numpy Generator inside the diffusion samplers and
    times every draw; spawned children are proxied too."""

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer
        self.standard_normal = tracer.timed("diffusion.rng", rng.standard_normal)

    def spawn(self, n: int):
        return [RngProxy(child, self._tracer) for child in self._rng.spawn(n)]


def _guv_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "guv" or name.startswith("guv."))]


class Hooks:
    """Installs the wrappers; `remove` restores every replaced attribute."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.absent: list[str] = []
        self._replaced: list[tuple[object, str, object]] = []

    def _patch(self, module: str, attr: str, make_wrapper) -> None:
        target = getattr(sys.modules.get(module), attr, None)
        if target is None:
            self.absent.append(f"{module}.{attr}")
            return
        wrapper = make_wrapper(target)
        for mod in _guv_modules():
            for key, value in list(vars(mod).items()):
                if value is target:
                    self._replaced.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self) -> "Hooks":
        counted = {"render.knn": _count_knn, "render.kernel": _count_rays}
        for module, attr, name in SPAN_HOOKS:
            self._patch(module, attr, functools.partial(
                self._span_wrapper, name, counted.get(name)))
        self._patch("guv.grad", "gradients", self._gradients_wrapper)
        self._patch("guv.grad", "_record", self._record_wrapper)
        self._patch("guv.io_cli", "save_avatar", self._save_counter)
        return self

    def remove(self) -> None:
        for mod, key, value in reversed(self._replaced):
            setattr(mod, key, value)
        self._replaced.clear()

    def _span_wrapper(self, name, on_call, fn):
        t = self.tracer
        timed = t.timed(name, fn)
        if on_call is None:
            return timed

        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            on_call(t, signature.bind(*args, **kwargs).arguments)
            return timed(*args, **kwargs)
        return wrapper

    def _gradients_wrapper(self, fn):
        """Splits gradients() into the evaluator's time (the forward pass)
        and the rest (the backward sweep)."""
        t = self.tracer

        @functools.wraps(fn)
        def gradients(loss_evaluator, params, *args, **kwargs):
            if t.stage.startswith("job"):
                t.gradient_calls += 1
            i = t.open("grad.gradients")
            try:
                return fn(t.timed("grad.forward", loss_evaluator), params,
                          *args, **kwargs)
            finally:
                t.close(i)
        return gradients

    def _record_wrapper(self, fn):
        """Counts tape ops and wraps each backward closure in a span."""
        t = self.tracer
        grad = sys.modules["guv.grad"]

        @functools.wraps(fn)
        def _record(name, out, backward):
            if getattr(grad, "_ACTIVE", True):
                t.count("grad.tape_ops", 1)
            return fn(name, out, t.timed("grad.backward." + name, backward))
        return _record

    def _save_counter(self, fn):
        t = self.tracer

        @functools.wraps(fn)
        def save_avatar(avatar, path, *args, **kwargs):
            result = fn(avatar, path, *args, **kwargs)
            t.count("io_cli.bytes_written", os.path.getsize(path))
            return result
        return save_avatar


def _count_knn(t: Tracer, arguments: dict) -> None:
    """Work of the dense KNN, computed from its argument shapes: one squared
    distance per (ray, sample, Gaussian), and the bytes of the float64
    distance matrix plus the int64 argsort result that hold them."""
    rays, samples = arguments["t"].shape
    evals = rays * samples * arguments["centers_val"].shape[0]
    t.count("render.knn_dist_evals", evals)
    t.count("render.knn_bytes_computed", 16 * evals)


def _count_rays(t: Tracer, arguments: dict) -> None:
    t.count("render.rays", arguments["t"].shape[0])


def layer_metrics(tracer: Tracer, job_wall_s: float, untraced_job_s: float
                  ) -> dict[str, float]:
    """Per-layer metrics of the traced job, in ms unless named otherwise."""
    total: dict[str, float] = defaultdict(float)
    spans = tracer.spans
    own = tracer.self_times()
    top = kernel_self = dataset = 0.0
    for i, (name, start, end, parent, _, stage) in enumerate(spans):
        if name == "io_cli.dataset":    # set-up work, counted in any stage
            dataset += end - start
        if not stage.startswith("job"):
            continue
        total[name] += end - start
        if parent is None:
            top += end - start
        if name == "render.kernel":
            kernel_self += own[i]

    # fit iterations: the windows between callback stamps, minus the
    # gradients and AdamW spans that start inside them
    windows = sorted(tracer.iteration_windows)
    starts = [lo for lo, _ in windows]
    iter_self = sum(hi - lo for lo, hi in windows)
    for name, start, end, *_ in spans:
        if name in ("grad.gradients", "grad.adamw"):
            w = bisect.bisect_right(starts, start) - 1
            if w >= 0 and start < windows[w][1]:
                iter_self -= end - start

    ms = {k: v * 1e3 for k, v in total.items()}
    out = {
        "grad.forward_ms": ms.get("grad.forward", 0.0),
        "grad.backward_ms": ms.get("grad.gradients", 0.0) - ms.get("grad.forward", 0.0),
    }
    other = sum(v for k, v in ms.items()
                if k.startswith("grad.backward.") and k[14:] not in TAPE_OPS)
    for op in TAPE_OPS:
        out[f"grad.backward_ms.{op}"] = ms.get("grad.backward." + op, 0.0)
    out["grad.backward_ms.other"] = other
    out["grad.tape_ops"] = (tracer.counts["grad.tape_ops"] / tracer.gradient_calls
                            if tracer.gradient_calls else 0.0)
    out["grad.adamw_ms"] = ms.get("grad.adamw", 0.0)
    for key, span in (("render.kernel_ms", "render.kernel"),
                      ("render.knn_ms", "render.knn"),
                      ("render.shade_ms", "render.shade"),
                      ("render.triplane_ms", "render.triplane"),
                      ("render.mlp_ms", "render.mlp")):
        out[key] = ms.get(span, 0.0)
    out["render.composite_ms"] = kernel_self * 1e3
    for key in ("render.knn_dist_evals", "render.knn_bytes_computed", "render.rays"):
        out[key] = float(tracer.counts[key])
    out["spatial.knn_ms"] = ms.get("spatial.knn", 0.0)
    out["losses.total_loss_ms"] = ms.get("losses.total_loss", 0.0)
    out["fit.iter_self_ms"] = iter_self * 1e3
    out["fit.decode_ms"] = ms.get("fit.decode", 0.0)
    for key in ("denoiser", "posterior", "q_sample", "rng", "fold_unfold"):
        out[f"diffusion.{key}_ms"] = ms.get("diffusion." + key, 0.0)
    out["edit.region_transfer_ms"] = ms.get("edit.region_transfer", 0.0)
    out["edit.interpolate_ms"] = ms.get("edit.interpolate", 0.0)
    out["io_cli.save_ms"] = ms.get("io_cli.save", 0.0)
    out["io_cli.load_ms"] = ms.get("io_cli.load", 0.0)
    out["io_cli.bytes_written"] = float(tracer.counts["io_cli.bytes_written"])
    out["io_cli.dataset_ms"] = dataset * 1e3
    out["trace.overhead_s"] = job_wall_s - untraced_job_s
    out["trace.top_span_share"] = top / job_wall_s if job_wall_s > 0 else 0.0
    return out
