"""guv benchmark: one closed-loop workload per fresh process.

    python3 perfbench/run.py --workload fit-checker --seed 1 --seconds 20 --trace 0

Run from the repository root. The program is imported from src/ of the same
checkout. The report lines name every metric with its unit, the output
checks and the machine; the last line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json; with --trace 1 the job runs again
under the span hooks of tracing.py and the metrics are the per-layer ones.

    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --self-test --seed 1         # counts repeat

See perfbench/README.md for the workloads and what each metric predicts.
"""
from __future__ import annotations

import argparse
import ctypes
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("fit-checker", "render-scale", "uv-diffuse")
MODULES = ("core", "grad", "spatial", "render", "losses", "fit", "diffusion",
           "edit", "io_cli")
SETUP_REPEATS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
M_ARENA_MAX = -8   # glibc's mallopt parameter number


def cap_blas_threads() -> int:
    """Keep every BLAS pool at or below the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def one_malloc_arena() -> None:
    """Give the threads of workloads.Turns one glibc malloc arena between
    them. With an arena per thread, each phase's freed memory is kept apart
    from the others' and peak RSS grows with the number of phases (a short
    fit-checker run: 465 MB, against 205 MB with one arena)."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
        mallopt.restype = ctypes.c_int
        mallopt(M_ARENA_MAX, 1)


def machine(np) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": blas_threads()}


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, or the
    environment's setting when no OpenBLAS is mapped."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def run_workload(args) -> int:
    if not (SRC / "guv" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'guv'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    nproc = cap_blas_threads()
    one_malloc_arena()

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy as np
    guv = {name: importlib.import_module("guv." + name) for name in MODULES}
    import_s = time.perf_counter() - t0

    from tracing import Hooks, Tracer, layer_metrics
    from workloads import WORKLOADS as IMPLS, Context

    workload = IMPLS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    ctx = Context(guv=guv, seed=args.seed, seconds=args.seconds, workdir=str(workdir))
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            inputs = workload.setup(ctx)
            setups.append(time.perf_counter() - t)
        workload.prepare(ctx, inputs)
        outcome = workload.run(ctx, inputs)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {
            "setup_s": import_s + statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "job_s": outcome.job_s,
        }
        for i, samples in enumerate(outcome.phases, 1):
            values[f"phase{i}_ms"] = statistics.median(samples)
        checks = dict(outcome.checks)
        attempted, failed = outcome.attempted, outcome.failed
        absent = []
        if args.trace:
            tracer = Tracer(args.workload)
            ctx.tracer = tracer
            hooks = Hooks(tracer).install()
            try:
                traced = workload.run(ctx, workload.setup(ctx))
            finally:
                hooks.remove()
                ctx.tracer = None
            absent = hooks.absent
            values = layer_metrics(tracer, traced.job_s, outcome.job_s)
            same = traced.digest == outcome.digest
            checks["traced_outputs_bit_identical"] = same
            for name, ok in traced.checks.items():
                checks[name] = checks.get(name, True) and ok
            attempted += traced.attempted
            failed += traced.failed + (0 if same else traced.attempted)
            tracer.write(str(WORK / f"trace-{args.workload}-seed{args.seed}.json"),
                         {"workload": args.workload, "seed": args.seed,
                          "seconds": args.seconds, "layers": values})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = machine(np)
    if isinstance(info["blas_threads"], int):
        checks["blas_threads_within_nproc"] = info["blas_threads"] <= nproc
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in spec[section]}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("machine " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in outcome.named.items():
        print(f"  {name:32s} {value:14.6f} {unit}")
    for name, samples in outcome.samples.items():
        print(f"  samples.{name:24s} {len(samples):14d} count")
    for name, m in metrics.items():
        print(f"  {name:32s} {m['value']:14.6f} {m['unit']}")
    for name, ok in checks.items():
        print(f"  check {name:26s} {'PASS' if ok else 'FAIL'}")
    if absent:
        print("  absent hooks: " + ", ".join(absent))
    print(json.dumps({"correct": all(checks.values()) and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _child(workload: str, seed: int, seconds: float, trace: int, capture: bool):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, check=False, text=True,
                          stdout=subprocess.PIPE if capture else None)


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    codes = [_child(w, args.seed, args.seconds, args.trace, False).returncode
             for w in WORKLOADS]
    return max(codes)


def self_test(args) -> int:
    """Two traced runs of each workload at one seed: both must pass their
    checks and report identical exact counts."""
    from tracing import EXACT_COUNTS

    ok = True
    for w in WORKLOADS:
        results = []
        for _ in range(2):
            proc = _child(w, args.seed, args.seconds, 1, True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{w}: run failed with exit code {proc.returncode}")
                return 1
            results.append(json.loads(lines[-1]))
        counts = [{k: r["metrics"][k]["value"] for k in EXACT_COUNTS} for r in results]
        same = counts[0] == counts[1]
        correct = all(r["correct"] for r in results)
        ok = ok and same and correct
        print(f"{w}: correct={correct} counts_repeat={same} {json.dumps(counts[0])}")
    print("self-test " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.self_test:
        return self_test(args)
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
