"""The library's settable values, listed: every defaulted parameter of a
public function or method and every dataclass field with a default or a
default factory, over the nine guv modules. A new option fails here until
it is added to SETTABLE, and a removed one until it is taken out."""
import dataclasses
import importlib
import inspect

MODULES = ("core", "diffusion", "edit", "fit", "grad", "io_cli", "losses",
           "render", "spatial")

SETTABLE = {
    "core.RenderConfig.knn_k", "core.RenderConfig.samples_per_ray",
    "diffusion.inpaint_sample.step_count",
    "diffusion.reverse_sample.step_count",
    "edit.interpolate.selector",
    "fit.Batch.idx", "fit.FitConfig.decay_factor", "fit.FitConfig.decay_step",
    "fit.fit_scene.callback",
    "grad.AdamWState.step", "grad.FDGroupReport.checked",
    "grad.FDGroupReport.excluded", "grad.FDGroupReport.failures",
    "grad.FDGroupReport.max_rel_err",
    "grad.fd_check.rng", "grad.fd_check.subsample", "grad.sum.axis",
    "io_cli.check_diffusion.seed", "io_cli.check_grad.seed",
    "io_cli.check_knn.seed", "io_cli.main.argv",
    "render.march_rays_core.idx",
}


def _public(namespace, module_name):
    for name, obj in vars(namespace).items():
        if name.startswith("_"):
            continue
        if getattr(obj, "__module__", None) != module_name:
            continue
        yield name, obj


def _defaults(func):
    try:
        params = inspect.signature(func).parameters.values()
    except (TypeError, ValueError):
        return []
    return [p.name for p in params if p.default is not inspect.Parameter.empty]


def settable_values() -> set[str]:
    found = set()
    for short in MODULES:
        module = importlib.import_module("guv." + short)
        for name, obj in _public(module, module.__name__):
            if inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    for f in dataclasses.fields(obj):
                        if (f.default is not dataclasses.MISSING
                                or f.default_factory is not dataclasses.MISSING):
                            found.add(f"{short}.{name}.{f.name}")
                for meth_name, meth in vars(obj).items():
                    if meth_name.startswith("_"):
                        continue
                    if isinstance(meth, (staticmethod, classmethod)):
                        meth = meth.__func__
                    if inspect.isfunction(meth):
                        for p in _defaults(meth):
                            found.add(f"{short}.{name}.{meth_name}.{p}")
            elif inspect.isfunction(obj):
                for p in _defaults(obj):
                    found.add(f"{short}.{name}.{p}")
    return found


def test_settable_values_are_listed():
    assert len(SETTABLE) == 22
    got = settable_values()
    assert got == SETTABLE, (
        f"unlisted: {sorted(got - SETTABLE)}; gone: {sorted(SETTABLE - got)}")
