"""The three benchmark workloads: fit-checker, render-scale and uv-diffuse.

Each runs closed-loop with one caller: the next operation starts when the
previous one returns. The amount of work is fixed by --seconds through
nominal per-operation costs (see README.md), never by the clock, so a seed
and a --seconds value always give the same work, the same outputs and the
same exact counts, whichever code is under test.

A workload's phases take turns operation by operation (see Turns), so each
phase's latencies are spread over the whole job rather than over a few
seconds of it: the speed of a shared machine drifts by 10-20% from one
five-second stretch to the next, and a phase run in one block inherits
whichever stretch it landed in.

A workload has three parts:
- `setup(ctx)` builds the inputs from the seed; it is timed for setup_s.
- `prepare(ctx, inputs)` runs once per process, untimed: warm-up frames and
  `ctx.reference`, data that only the output checks use.
- `run(ctx, inputs)` is the timed job, then its output checks. It returns an
  Outcome with the latency samples, the checks and a digest of every output,
  which the traced pass must reproduce bit for bit.
"""
from __future__ import annotations

import functools
import hashlib
import inspect
import math
import os
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from tracing import RngProxy

SPHERE_VIEWS = 16
RESOLUTION = 32
PATCH = 16


@dataclass
class Context:
    guv: dict          # module name -> module ("fit", "render", ...)
    seed: int
    seconds: float
    workdir: str
    tracer: object = None
    reference: object = None   # data that only the output checks use

    def stage(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.stage = name

    def count(self, share: float, nominal_s: float, floor: int) -> int:
        """Operations in a phase: its share of --seconds at the nominal cost
        per operation, and never fewer than `floor`."""
        return max(floor, round(self.seconds * share / nominal_s))


@dataclass
class Outcome:
    samples: dict = field(default_factory=dict)   # phase -> latencies in ms
    checks: dict = field(default_factory=dict)    # check name -> passed
    digest: dict = field(default_factory=dict)    # output name -> sha256
    named: dict = field(default_factory=dict)     # name -> (value, unit)
    phases: tuple = ()                            # latencies of phases 1-3
    job_s: float = 0.0
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool, ops: int) -> None:
        """Record a check; a failed one fails the `ops` operations it covers."""
        ok = bool(ok)
        self.checks[name] = self.checks.get(name, True) and ok
        if not ok:
            self.failed += ops


class Turns:
    """Runs a workload's phases in threads that take turns: only one runs at
    any moment, and it hands over at each operation boundary, when it calls
    `turn()`. The next to run is the live phase furthest behind its planned
    number of turns, so all phases progress evenly and end together. Each
    phase's code runs in order on its own data, so the outputs are those of
    running the phases one after another.

    `segments[name]` holds (resume, hand-over) times: the first runs from the
    phase's start to its first turn, the last from its last turn to its
    return, and each one between is the stretch between two turns.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.segments: dict[str, list] = {}
        self.wall_s = 0.0
        self._cond = threading.Condition()
        self._current = None
        self._live: dict[str, int] = {}   # unfinished phase -> planned turns
        self._done: dict[str, int] = {}
        self._resumed: dict[str, float] = {}

    def run(self, tasks: dict) -> dict:
        """tasks: name -> (planned turns, fn(turn)); returns name -> result."""
        self._live = {name: n for name, (n, _) in tasks.items()}
        self._done = dict.fromkeys(tasks, 0)
        self.segments = {name: [] for name in tasks}
        results, errors = {}, {}

        def body(name, fn):
            self._wait(name)
            try:
                results[name] = fn(lambda: self._turn(name))
            except BaseException as exc:   # re-raised by run() after join
                errors[name] = exc
            finally:
                self.segments[name].append((self._resumed[name], time.perf_counter()))
                with self._cond:
                    del self._live[name]
                    self._current = self._next()
                    self._cond.notify_all()

        threads = [threading.Thread(target=body, args=(name, fn), daemon=True)
                   for name, (_, fn) in tasks.items()]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        with self._cond:
            self._current = self._next()
            self._cond.notify_all()
        for t in threads:
            t.join()
        self.wall_s = time.perf_counter() - t0
        self.ctx.stage("check")
        for exc in errors.values():
            raise exc
        return results

    def _next(self):
        live = self._live
        return min(live, key=lambda n: self._done[n] / live[n]) if live else None

    def _wait(self, name: str) -> None:
        with self._cond:
            self._cond.wait_for(lambda: self._current == name)
        self.ctx.stage("job:" + name)
        self._resumed[name] = time.perf_counter()

    def _turn(self, name: str) -> None:
        self.segments[name].append((self._resumed[name], time.perf_counter()))
        self._done[name] += 1
        with self._cond:
            self._current = self._next()
            self._cond.notify_all()
        self._wait(name)


def _ms(windows) -> list:
    return [(end - start) * 1e3 for start, end in windows]


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _median(values) -> float:
    return float(statistics.median(values))


# ---------------------------------------------------------------------------
# fit-checker
# ---------------------------------------------------------------------------


class FitChecker:
    """fit_scene on the checker-sphere toy dataset: N = 64, 16 views at
    32x32, 16x16 patches, J = 32, in four phases that take turns."""

    name = "fit-checker"
    # phase, mode, plane_size, knn_k, share of --seconds, nominal s/iteration
    # on a quiet machine, floor. At --seconds 20 the phases get 102, 44, 47
    # and 11 iterations: the tri-plane phase has a p90 with ten samples
    # beyond it. The latent phase is reported, not gated. The floors give
    # the loss-decrease check enough iterations at any --seconds.
    PHASES = (
        ("tri", "direct", 8, 3, 0.61, 0.120, 24),
        ("vector", "direct", 1, 3, 0.20, 0.090, 24),
        ("k1", "direct", 8, 1, 0.13, 0.055, 24),
        ("latent", "latent", 8, 3, 0.06, 0.150, 11),
    )

    def setup(self, ctx: Context):
        io = ctx.guv["io_cli"]
        path = os.path.join(ctx.workdir, "checker")
        io.generate_toy_dataset("checker-sphere", path, views=SPHERE_VIEWS,
                                resolution=RESOLUTION, grid=8, seed=ctx.seed)
        return io.load_dataset(path)

    def prepare(self, ctx: Context, ds) -> None:
        pass

    def run(self, ctx: Context, ds) -> Outcome:
        fit, core = ctx.guv["fit"], ctx.guv["core"]
        out = Outcome()

        def phase_fit(mode, plane_size, k, n, turn):
            return fit.fit_scene(
                ds.views, ds.anchors, ds.normals, ds.scales,
                fit.FitConfig(iterations=n, patch_size=PATCH, seed=ctx.seed),
                mode=mode, render_cfg=core.RenderConfig(knn_k=k),
                plane_size=plane_size, callback=lambda *_: turn())

        tasks = {}
        for phase, mode, plane_size, k, *plan in self.PHASES:
            n = ctx.count(*plan)
            tasks[phase] = (n, functools.partial(phase_fit, mode, plane_size, k, n))
        turns = Turns(ctx)
        results = turns.run(tasks)
        out.job_s = turns.wall_s
        for phase, mode, *_ in self.PHASES:
            n = tasks[phase][0]
            out.attempted += n
            # the callback ends each iteration; the first segment also holds
            # fit_scene's own set-up and the last its wrap-up, so latencies
            # are iterations 1 to n - 1
            windows = turns.segments[phase][1:-1]
            if ctx.tracer is not None:
                ctx.tracer.iteration_windows.extend(windows)
            out.samples[phase] = _ms(windows)
            hist = np.asarray(results[phase].loss_history)
            out.check(f"{phase}.loss_finite",
                      hist.shape == (n,) and np.all(np.isfinite(hist)), n)
            # latent mode learns too slowly for a decrease to clear the
            # patch-to-patch noise in a run this short (first and last
            # quarters stay within 0.03 over 60 iterations), so only the
            # direct phases are held to it
            if mode == "direct":
                out.check(f"{phase}.loss_decreases", _decreased(hist), n)
            out.digest[phase] = _sha(hist)
            if phase == "tri":
                out.named["fit_final_loss"] = (float(hist[-1]), "loss")
        s = out.samples
        out.named.update({
            "fit_iter_ms.p50": (_median(s["tri"]), "ms"),
            "fit_iter_ms.p90": (percentile(s["tri"], 90), "ms"),
            "fit_vector_iter_ms.p50": (_median(s["vector"]), "ms"),
            "fit_k1_iter_ms.p50": (_median(s["k1"]), "ms"),
            "fit_latent_iter_ms.p50": (_median(s["latent"]), "ms"),
        })
        out.phases = (s["tri"], s["vector"], s["k1"])
        return out


def _decreased(hist: np.ndarray) -> bool:
    """Each iteration's loss is on one random patch, so compare the mean of
    the last quarter of the history with that of the first quarter."""
    q = max(1, len(hist) // 4)
    return bool(np.mean(hist[-q:]) < np.mean(hist[:q]))


# ---------------------------------------------------------------------------
# render-scale
# ---------------------------------------------------------------------------


class RenderScale:
    """render_image of 32x32 frames of the checker-sphere reference scene at
    grid 8, 32 and 64 (N = 64, 1024, 4096), one warm-up frame per size."""

    name = "render-scale"
    # N, grid, share of --seconds, nominal s/frame, floor. At --seconds 20
    # the sizes get 20, 5 and 3 frames; the floors of the two larger sizes
    # set the length, and give their medians some frames to choose from.
    SIZES = (
        (64, 8, 0.25, 0.25, 5),
        (1024, 32, 0.30, 2.2, 5),
        (4096, 64, 0.45, 8.0, 3),
    )
    CHECKED_PIXELS = 2   # march_ray pixels compared per frame

    def setup(self, ctx: Context):
        io, spatial = ctx.guv["io_cli"], ctx.guv["spatial"]
        with_index = "index" in inspect.signature(ctx.guv["render"].march_ray).parameters
        scenes = {}
        for n, grid, *_ in self.SIZES:
            avatar, mlp = io.toy_reference_scene("checker-sphere", grid=grid,
                                                 seed=ctx.seed)
            index = spatial.build_index(avatar) if with_index else None
            scenes[n] = (avatar, mlp, index)
        return scenes, io.camera_ring(SPHERE_VIEWS, RESOLUTION)

    def prepare(self, ctx: Context, inputs) -> None:
        scenes, cams = inputs
        render, io, core = ctx.guv["render"], ctx.guv["io_cli"], ctx.guv["core"]
        ctx.stage("prepare")
        for avatar, mlp, _ in scenes.values():
            render.render_image(avatar, mlp, cams[0], core.RenderConfig(), seed=0)
        # reference images for the N = 64 check: the toy dataset renders the
        # same scene with jitter seed = view index
        path = os.path.join(ctx.workdir, "reference")
        io.generate_toy_dataset("checker-sphere", path, views=SPHERE_VIEWS,
                                resolution=RESOLUTION, grid=8, seed=ctx.seed)
        ctx.reference = io.load_dataset(path)

    @staticmethod
    def _jitter_seed(ctx: Context, n: int, view: int) -> int:
        # N = 64 keeps the dataset's jitter seed so its images are the
        # reference; the larger scenes draw jitter from the workload seed
        return view if n == 64 else SPHERE_VIEWS * (ctx.seed + 1) + view

    def run(self, ctx: Context, inputs) -> Outcome:
        scenes, cams = inputs
        render, core = ctx.guv["render"], ctx.guv["core"]
        cfg = core.RenderConfig()
        out = Outcome()

        def size_frames(n, count, turn):
            avatar, mlp, _ = scenes[n]
            frames = []
            for f in range(count):
                turn()
                view = f % SPHERE_VIEWS
                frames.append(render.render_image(
                    avatar, mlp, cams[view], cfg,
                    seed=self._jitter_seed(ctx, n, view)))
            return frames

        tasks = {}
        for n, _, *plan in self.SIZES:
            count = ctx.count(*plan)
            tasks[f"n{n}"] = (count, functools.partial(size_frames, n, count))
        turns = Turns(ctx)
        results = turns.run(tasks)
        out.job_s = turns.wall_s
        for n, *_ in self.SIZES:
            avatar, mlp, index = scenes[n]
            frames = results[f"n{n}"]
            out.attempted += len(frames)
            # each turn starts a frame, so a frame runs from one turn to the
            # next, or to the end of the phase
            out.samples[f"n{n}"] = _ms(turns.segments[f"n{n}"][1:])
            digests = []
            for f, frame in enumerate(frames):
                view = f % SPHERE_VIEWS
                jseed = self._jitter_seed(ctx, n, view)
                rng = np.random.default_rng([ctx.seed, n, f])
                for i, j in rng.integers(RESOLUTION, size=(self.CHECKED_PIXELS, 2)):
                    out.check("march_ray_bit_equal",
                              self._ray_matches(ctx, avatar, mlp, index, cams[view],
                                                jseed, int(i), int(j), frame), 1)
                if n == 64:
                    q = np.round(np.clip(frame.color, 0.0, 1.0) * 255.0) / 255.0
                    psnr = render.psnr(q, ctx.reference.views[view].image)
                    out.check("n64_psnr_inf", math.isinf(psnr), 1)
                digests.append(_sha(frame.color, frame.depth, frame.alpha))
            out.digest[f"n{n}"] = hashlib.sha256("".join(digests).encode()).hexdigest()
            out.named[f"render_frame_ms.n{n}"] = (_median(out.samples[f"n{n}"]), "ms")
        s = out.samples
        out.phases = (s["n64"], s["n1024"], s["n4096"])
        return out

    @staticmethod
    def _ray_matches(ctx, avatar, mlp, index, cam, jseed, i, j, frame) -> bool:
        render, core = ctx.guv["render"], ctx.guv["core"]
        cfg = core.RenderConfig()
        origin, direction = cam.ray(i, j)
        jitter = render.stratified_jitter(cam.height, cam.width,
                                          cfg.samples_per_ray, jseed)[i, j]
        extra = {} if index is None else {"index": index}
        color, depth, alpha = render.march_ray(
            avatar, mlp, origin, direction, cfg, near=cam.near, far=cam.far,
            jitter=jitter, **extra)
        return (np.array_equal(color, frame.color[i, j])
                and depth == frame.depth[i, j] and alpha == frame.alpha[i, j])


# ---------------------------------------------------------------------------
# uv-diffuse
# ---------------------------------------------------------------------------


class UVDiffuse:
    """Sampling, inpainting and a UV round trip on a paper-shaped avatar:
    32x32 grid, S = 8, C = 8, normalized to a 256x256x33 tensor."""

    name = "uv-diffuse"
    GRID, PLANE, CHANNELS = 32, 8, 8
    T = 1000
    DATA_MEAN, DATA_STD = 0.3, 0.2    # the analytic denoiser's N(m, s^2)
    # phase, share of --seconds, nominal s/operation, floor. At --seconds 20
    # sampling gets 127 steps, enough for a p90 with ten samples beyond it.
    PHASES = (
        ("sample", 0.40, 0.063, 11),
        ("inpaint", 0.40, 0.115, 6),
        ("roundtrip", 0.20, 0.100, 3),
    )
    MOMENT_SE = 6.0   # tolerance on sample moments, in standard errors
    FIELDS = ("centers", "rotations", "radii", "payloads", "anchors",
              "anchor_normals", "anchor_scales")

    def setup(self, ctx: Context):
        core, diffusion = ctx.guv["core"], ctx.guv["diffusion"]
        rng = np.random.default_rng([ctx.seed, 0])
        h = w = self.GRID
        normals = _unit(rng, (h, w, 3))
        anchors = 0.2 * _unit(rng, (h, w, 3))
        scales = 0.04 + 0.03 * rng.uniform(size=(h, w))
        avatar = core.init_from_anchors(anchors, normals, scales,
                                        self.PLANE, self.CHANNELS)
        avatar = avatar.replace(
            centers=avatar.centers + 0.01 * rng.standard_normal((h, w, 3)),
            rotations=rng.uniform(-math.pi, math.pi, size=(h, w, 3)),
            payloads=0.5 * rng.standard_normal(avatar.payloads.shape),
        )
        known = diffusion.normalize_avatar(avatar).values
        half = np.zeros((h, w), dtype=bool)
        half[: h // 2] = True
        mask = diffusion.channel_mask(half, "both", self.PLANE, self.CHANNELS)
        return avatar, known, half, mask, diffusion.cosine_schedule(self.T)

    def prepare(self, ctx: Context, inputs) -> None:
        pass

    def run(self, ctx: Context, inputs) -> Outcome:
        avatar, known, half, mask, schedule = inputs
        diffusion = ctx.guv["diffusion"]
        out = Outcome()
        plan = {p: ctx.count(*spec) for p, *spec in self.PHASES}
        base = diffusion.analytic_gauss_denoiser(schedule, self.DATA_MEAN,
                                                 self.DATA_STD)
        if ctx.tracer is not None:
            base = ctx.tracer.timed("diffusion.denoiser", base)

        def rng(stream: int):
            r = np.random.default_rng([ctx.seed, stream])
            return r if ctx.tracer is None else RngProxy(r, ctx.tracer)

        def sampler(p, turn):
            steps: list[int] = []

            def denoiser(g_t, t):
                turn()
                steps.append(t)
                return base(g_t, t)

            if p == "sample":
                x = diffusion.reverse_sample(schedule, denoiser, known.shape,
                                             rng(1), step_count=plan[p])
            else:
                x = diffusion.inpaint_sample(schedule, denoiser, known, mask,
                                             rng(2), step_count=plan[p])
            return x, steps

        tasks = {p: (plan[p], functools.partial(sampler, p))
                 for p in ("sample", "inpaint")}
        tasks["roundtrip"] = (plan["roundtrip"], functools.partial(
            self._round_trips, ctx, avatar, half, plan["roundtrip"]))
        turns = Turns(ctx)
        results = turns.run(tasks)
        for p in ("sample", "inpaint"):
            x, steps = results.pop(p)
            # a step runs from one denoiser call to the next, or to the
            # sampler's return; the stretch before the first call is the
            # initial noise draw, not a step
            out.samples[p] = _ms(turns.segments[p][1:])
            taken = len(steps)
            out.attempted += taken
            out.check(f"{p}.step_count", taken == plan[p], taken)
            if p == "sample":
                out.check("sample.moments",
                          self._moments_ok(schedule, steps, x, out), taken)
            else:
                out.check("inpaint.known_bit_exact",
                          np.array_equal(x[mask], known[mask]), taken)
            out.digest[p] = _sha(x)
            del x
        check_s = self._check_round_trips(ctx, avatar, results["roundtrip"], out)
        out.job_s = turns.wall_s - check_s
        s = out.samples
        out.named.update({
            "sample_step_ms.p50": (_median(s["sample"]), "ms"),
            "sample_step_ms.p90": (percentile(s["sample"], 90), "ms"),
            "inpaint_step_ms.p50": (_median(s["inpaint"]), "ms"),
            "uv_roundtrip_ms": (_median(s["roundtrip"]), "ms"),
        })
        out.phases = (s["sample"], s["inpaint"], s["roundtrip"])
        return out

    def _round_trips(self, ctx, avatar, half, trips, turn):
        """The round-trip phase: every trip has the same inputs. The digest
        of each trip's loaded avatar is taken outside the trip's time, in the
        check stage."""
        diffusion, edit, io = ctx.guv["diffusion"], ctx.guv["edit"], ctx.guv["io_cli"]
        path = os.path.join(ctx.workdir, "roundtrip.guv")
        mask = edit.UVMask(grid=half, channels="both")
        times, digests, check_s = [], [], 0.0
        for _ in range(trips):
            turn()
            t0 = time.perf_counter()
            tensor = diffusion.normalize_avatar(avatar)
            back = diffusion.denormalize_avatar(tensor, avatar.anchors,
                                                avatar.anchor_normals,
                                                avatar.anchor_scales)
            mixed = edit.region_transfer(avatar, back, mask)
            blended = edit.interpolate(mixed, back, 0.5)
            io.save_avatar(blended, path)
            loaded = io.load_avatar(path)
            t1 = time.perf_counter()
            ctx.stage("check")
            digests.append(_sha(*(getattr(loaded, f) for f in self.FIELDS)))
            times.append((t1 - t0) * 1e3)
            check_s += time.perf_counter() - t1
        return times, digests, check_s, tensor, blended, loaded

    def _check_round_trips(self, ctx, avatar, trips, out) -> float:
        """Every trip's loaded avatar must match the last one's, which is
        checked in full: fold(unfold(x)) and save -> load bit-exact. Returns
        the time the trips spent on their digests."""
        diffusion = ctx.guv["diffusion"]
        times, digests, check_s, tensor, blended, loaded = trips
        n = len(times)
        out.samples["roundtrip"] = times
        out.attempted += n
        packed = diffusion.normalize_channels(diffusion.pack_avatar_tensor(avatar))
        out.check("fold_unfold_bit_exact", np.array_equal(
            diffusion.fold(tensor.values, self.PLANE), packed), n)
        out.check("save_load_bit_exact", all(
            np.array_equal(getattr(loaded, f),
                           getattr(blended, f).astype(np.float32).astype(np.float64))
            for f in self.FIELDS), n)
        same = digests.count(digests[-1])
        out.check("round_trips_identical", same == n, n - same)
        out.digest["roundtrip"] = hashlib.sha256("".join(digests).encode()).hexdigest()
        return check_s

    def _moments_ok(self, schedule, steps, x, out) -> bool:
        """The sampler's output law, in closed form: with the analytic
        denoiser every reverse step maps G_t to a Gaussian whose mean and
        variance follow from the schedule. That law tends to N(m, s^2) as
        the step count grows; at finite steps its std sits below s, and the
        gap is reported as uv_sample_std_gap. The check allows MOMENT_SE
        standard errors of the sample moments around the closed form."""
        alphas, sigmas = schedule.alphas, schedule.sigmas
        m, s2 = self.DATA_MEAN, self.DATA_STD ** 2
        mu, var = 0.0, 1.0
        for hi, lo in zip(steps, steps[1:] + [0]):
            a, sig2 = alphas[hi], sigmas[hi] ** 2
            k = a * s2 / (a * a * s2 + sig2)            # G0_hat = k G_t + b
            b = sig2 * m / (a * a * s2 + sig2)
            a_ts = alphas[hi] / alphas[lo]
            var_ts = sig2 - a_ts * a_ts * sigmas[lo] ** 2
            c_t = a_ts * sigmas[lo] ** 2 / sig2
            c_0 = alphas[lo] * var_ts / sig2
            mu = (c_t + c_0 * k) * mu + c_0 * b
            var = (c_t + c_0 * k) ** 2 * var + var_ts * sigmas[lo] ** 2 / sig2
        std = math.sqrt(var)
        n = x.size
        got_mean, got_std = float(x.mean()), float(x.std())
        out.named["uv_sample_std_gap"] = (self.DATA_STD - std, "std")
        return (abs(got_mean - mu) <= self.MOMENT_SE * std / math.sqrt(n)
                and abs(got_std - std) <= self.MOMENT_SE * std / math.sqrt(2 * n))


def _unit(rng, shape):
    v = rng.standard_normal(shape)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


WORKLOADS = {w.name: w for w in (FitChecker(), RenderScale(), UVDiffuse())}
