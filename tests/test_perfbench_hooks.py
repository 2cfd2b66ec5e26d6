"""The benchmark's span hooks name functions that exist: a hook whose
target is gone reports "absent" and its layer metric silently reads 0."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# hooks whose targets left guv.spatial; their spatial.knn metric reads 0
STALE = {("guv.spatial", "nearest_k_batch"), ("guv.spatial", "knn_query")}


def _span_hooks():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.SPAN_HOOKS


def test_every_span_hook_resolves_but_the_named_stale_ones():
    missing = set()
    for module, attr, _ in _span_hooks():
        if not callable(getattr(importlib.import_module(module), attr, None)):
            missing.add((module, attr))
    assert missing == STALE
