"""The benchmark's span hooks name functions that exist: a hook whose
target is gone reports "absent" and its layer metric silently reads 0. Its
counters read the hooked functions' arguments by name, so a renamed
parameter would crash a traced run with a KeyError."""
import importlib
import importlib.util
from pathlib import Path

from guv import render, spatial
from guv.core import RenderConfig
from guv.io_cli import camera_ring, toy_reference_scene

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# hooks whose targets left the library; their metrics (spatial.knn and
# diffusion.posterior) read 0
STALE = {("guv.spatial", "nearest_k_batch"), ("guv.spatial", "knn_query"),
         ("guv.diffusion", "posterior_params")}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_span_hook_resolves_but_the_named_stale_ones():
    missing = set()
    for module, attr, _ in _tracing().SPAN_HOOKS:
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.add((module, attr))
    assert missing == STALE


def test_render_knn_hook_times_the_one_knn():
    assert render._knn_for_samples is spatial._knn_for_samples


def test_counters_bind_the_arguments_of_real_calls():
    # the hooks bind each call's arguments to the target's signature and
    # hand them to _count_knn (centers_val, t) and _count_rays (t)
    tracing = _tracing()
    avatar, mlp = toy_reference_scene("checker-sphere", grid=4, seed=0)
    cfg = RenderConfig(samples_per_ray=8)
    tracer = tracing.Tracer("hooks")
    hooks = tracing.Hooks(tracer).install()
    try:
        tracer.stage = "job"
        render.render_image(avatar, mlp, camera_ring(1, 4)[0], cfg, seed=0)
    finally:
        hooks.remove()
    evals = 16 * cfg.samples_per_ray * avatar.count
    assert tracer.counts["render.rays"] == 16
    assert tracer.counts["render.knn_dist_evals"] == evals
    assert tracer.counts["render.knn_bytes_computed"] == 16 * evals
