"""Reverse-mode differentiation on a recorded operation tape, plus the
finite-difference oracle and the AdamW optimizer.

The tape works on whole ndarrays, not scalars. `_op` is the one way to
define an op: an op computes its forward value with numpy and hands `_op`
that value plus one (input, vjp) pair per input; `_op` appends one backward
entry that adds each vjp of the output gradient to its Var input. Fused ops
with a hand-written backward go through `_op` the same way. Creation order
is a valid topological order, so backward is a single reversed sweep. Every
op also has an ndarray fast path (`_op` returns the forward value when no
input is a Var): code written against these functions (the renderer, the
losses) runs unchanged on plain arrays when no gradient is wanted.

Non-differentiable points use fixed subgradients: clip and relu take 0 at
their kinks, absolute uses sign with sign(0) = 0. Every op but matmul
reduces in a fixed single-threaded order, so gradients are bit-reproducible
except in latent mode: the decoder's matmul is a BLAS product whose
rounding can change with the BLAS thread count.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError


# the tapes being recorded, innermost last; a tape is a list of
# (name, out, backward) entries in creation order
_ACTIVE: list[list] = []


def _record(name: str, out: "Var", backward) -> None:
    if _ACTIVE:
        _ACTIVE[-1].append((name, out, backward))


class Var:
    """A node holding a float64 ndarray value and its accumulated gradient."""

    __slots__ = ("value", "grad")
    __array_ufunc__ = None  # make numpy defer to our right-hand dunders

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Var(shape={self.value.shape})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, key):
        return getitem(self, key)


def value(x) -> np.ndarray:
    """The ndarray behind x, whether x is a Var or array-like."""
    return x.value if isinstance(x, Var) else np.asarray(x, dtype=np.float64)


def _add_grad(v: Var, g: np.ndarray) -> None:
    g = _unbroadcast(g, v.value.shape)
    v.grad = g if v.grad is None else v.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _op(name: str, out_val: np.ndarray, *inputs):
    """Record one tape op: out_val is its forward value and each input is an
    (x, vjp) pair, vjp mapping the output gradient to x's gradient.

    With no Var among the inputs, out_val comes back as it is (the ndarray
    fast path). Otherwise the output is wrapped in a Var and one backward is
    recorded that adds vjp(out.grad) to each Var input, in argument order.
    """
    live = [(x, vjp) for x, vjp in inputs if isinstance(x, Var)]
    if not live:
        return out_val
    out = Var(out_val)

    def backward():
        g = out.grad
        if g is None:
            return
        for x, vjp in live:
            _add_grad(x, vjp(g))

    _record(name, out, backward)
    return out


def add(a, b):
    return _op("add", value(a) + value(b), (a, lambda g: g), (b, lambda g: g))


def sub(a, b):
    return _op("sub", value(a) - value(b), (a, lambda g: g), (b, lambda g: -g))


def mul(a, b):
    va, vb = value(a), value(b)
    return _op("mul", va * vb, (a, lambda g: g * vb), (b, lambda g: g * va))


def div(a, b):
    va, vb = value(a), value(b)
    return _op("div", va / vb, (a, lambda g: g / vb),
               (b, lambda g: -g * va / (vb * vb)))


def neg(x):
    return _op("neg", -value(x), (x, lambda g: -g))


def exp(x):
    o = np.exp(value(x))
    return _op("exp", o, (x, lambda g: g * o))


def log1p(x):
    v = value(x)
    return _op("log1p", np.log1p(v), (x, lambda g: g / (1.0 + v)))


def sin(x):
    v = value(x)
    return _op("sin", np.sin(v), (x, lambda g: g * np.cos(v)))


def cos(x):
    v = value(x)
    return _op("cos", np.cos(v), (x, lambda g: -g * np.sin(v)))


def _sigmoid_val(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v, dtype=np.float64)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    e = np.exp(v[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def relu(x):
    v = value(x)
    return _op("relu", np.maximum(v, 0.0), (x, lambda g: g * (v > 0)))


def absolute(x):
    v = value(x)
    return _op("abs", np.abs(v), (x, lambda g: g * np.sign(v)))


def clip(x, lo: float, hi: float):
    v = value(x)
    return _op("clip", np.clip(v, lo, hi), (x, lambda g: g * ((v > lo) & (v < hi))))


def sum(x, axis=None, keepdims=False):  # noqa: A001 - numpy-style name
    vx = value(x)
    expand = axis is not None and not keepdims
    return _op("sum", np.sum(vx, axis=axis, keepdims=keepdims),
               (x, lambda g: np.broadcast_to(np.expand_dims(g, axis) if expand else g,
                                             vx.shape).copy()))


def mean(x):
    """Mean of all entries."""
    return div(sum(x), float(value(x).size))


def cumsum(x, axis: int = -1):
    return _op("cumsum", np.cumsum(value(x), axis=axis),
               (x, lambda g: np.flip(np.cumsum(np.flip(g, axis), axis=axis), axis)))


def matmul(a, b):
    """2-D matrix product; used by the latent decoder (BLAS is fine there,
    no cross-batch bit-equality contract covers decoder outputs)."""
    va, vb = value(a), value(b)
    return _op("matmul", va @ vb, (a, lambda g: g @ vb.T), (b, lambda g: va.T @ g))


def mixdown(weights, values):
    """Weighted sum over a stack axis: (..., k) weights with (..., k, c)
    values -> (..., c). einsum with optimize=False runs one fixed
    single-threaded C loop, never BLAS, so each output is bit-reproducible
    and independent of the leading batch shape; the render kernel's
    cross-batch bit-equality contract depends on this."""
    vw, vv = value(weights), value(values)
    return _op("mixdown", np.einsum("...k,...kc->...c", vw, vv, optimize=False),
               (weights, lambda g: np.einsum("...c,...kc->...k", g, vv, optimize=False)),
               (values, lambda g: vw[..., None] * g[..., None, :]))


def take(x, indices):
    """Gather rows along axis 0; indices may have any shape."""
    idx = np.asarray(indices)
    vx = value(x)
    return _op("take", np.take(vx, idx, axis=0),
               (x, lambda g: _bincount_rows(g, idx, vx.shape)))


def _bincount_rows(g: np.ndarray, rows: np.ndarray, shape: tuple) -> np.ndarray:
    """Scatter-add along axis 0, take's VJP: the rows of g summed into a zero
    array of `shape` at `rows`. One flat bincount over row * C + c adds each
    bin's entries in the order of rows, as a bincount per column would."""
    c = int(np.prod(shape[1:], dtype=np.int64))
    flat = (rows.reshape(-1, 1) * c + np.arange(c)).reshape(-1)
    return np.bincount(flat, weights=g.reshape(-1),
                       minlength=shape[0] * c).reshape(shape)


def getitem(x, key):
    vx = value(x)
    return _op("getitem", vx[key], (x, lambda g: _scatter_key(g, key, vx)))


def _scatter_key(g: np.ndarray, key, vx: np.ndarray) -> np.ndarray:
    """getitem's VJP: g added into zeros shaped like vx at key; advanced
    (array) keys go through np.add.at so repeated positions accumulate."""
    acc = np.zeros_like(vx)
    if isinstance(key, np.ndarray) or (
            isinstance(key, tuple) and any(isinstance(k, np.ndarray) for k in key)):
        np.add.at(acc, key, g)
    else:
        acc[key] += g
    return acc


def reshape(x, shape):
    vx = value(x)
    return _op("reshape", vx.reshape(shape), (x, lambda g: g.reshape(vx.shape)))


def broadcast_to(x, shape):
    # _add_grad unbroadcasts, so the VJP is the identity
    return _op("broadcast_to", np.broadcast_to(value(x), shape).copy(), (x, lambda g: g))


def concatenate(xs, axis: int = -1):
    vals = [value(x) for x in xs]
    out_val = np.concatenate(vals, axis=axis)
    offsets = np.cumsum([0] + [v.shape[axis] for v in vals])
    lead = (slice(None),) * (axis % out_val.ndim)
    return _op("concatenate", out_val, *[
        (x, lambda g, lo=lo, hi=hi: g[lead + (slice(lo, hi),)])
        for x, lo, hi in zip(xs, offsets[:-1], offsets[1:])])


# ---------------------------------------------------------------------------
# Fused render-kernel ops: one tape entry each, whose VJPs repeat the backward
# sweep of the primitive chain they replace, so the bits stay the same.
# ---------------------------------------------------------------------------


def _shared(grads):
    """grads(g), a fused op's input gradients, computed once per output
    gradient g and shared by the op's VJPs."""
    memo = [None, None]

    def get(g):
        if memo[0] is not g:
            memo[:] = g, grads(g)
        return memo[1]
    return get


def shading_mlp(feat, w1, b1, w2, b2):
    """sigmoid(relu(feat w1 + b1) w2 + b2) for (..., i) features, the
    shading head as one op.

    Both products run feature-major, einsum "in,io->on" on the contiguous
    transposes: the same sequential fixed-loop sum over i as the row-major
    "ni,io->no", so the same bits, with the long row axis innermost. The
    VJPs make the row-major einsum calls of the chain matmul, bias, relu,
    matmul, bias, sigmoid; _add_grad unbroadcasts the bias gradients.
    """
    vf, vw1, vb1, vw2, vb2 = (value(x) for x in (feat, w1, b1, w2, b2))
    lead, (i, m), o = vf.shape[:-1], vw1.shape, vw2.shape[1]
    f2 = vf.reshape(-1, i)
    h_t = np.maximum(np.einsum("in,io->on", np.ascontiguousarray(f2.T), vw1,
                               optimize=False) + vb1.reshape(-1, 1), 0.0)
    a2_t = np.einsum("in,io->on", h_t, vw2, optimize=False) + vb2.reshape(-1, 1)
    out = _sigmoid_val(np.ascontiguousarray(a2_t.T)).reshape(lead + (o,))

    def grads(g):
        go = g * out * (1.0 - out)
        h = np.ascontiguousarray(h_t.T)
        ga = np.einsum("no,io->ni", go.reshape(-1, o), vw2, optimize=False) * (h > 0)
        return (np.einsum("no,io->ni", ga, vw1, optimize=False).reshape(vf.shape),
                np.einsum("ni,no->io", f2, ga, optimize=False), ga.reshape(lead + (m,)),
                np.einsum("ni,no->io", h, go.reshape(-1, o), optimize=False), go)

    shared = _shared(grads)
    return _op("shading_mlp", out, *((x, lambda g, k=k: shared(g)[k])
                                     for k, x in enumerate((feat, w1, b1, w2, b2))))


_PLANE_AXES = ((0, 1), (0, 2), (1, 2))  # the local axes each plane spans


def triplane_sample(payload_flat, s: int, idx: np.ndarray, u0, u1, u2):
    """Sum of the three bilinear plane samples of the gathered tri-planes,
    (..., C), as one op.

    payload_flat: (N*3*S*S, C) rows in order ((n*3 + plane)*S + i)*S + j.
    idx: (...) int neighbor ids. u0, u1, u2: local coordinates in [-1, 1]
    of idx's shape; plane 0 spans (u0, u1), plane 1 (u0, u2), plane 2
    (u1, u2), align-corners. With s == 1 each plane is one row and the u's
    are not inputs.

    The forward makes the numpy calls of the per-plane chain (corner take,
    bilinear weights, mixdown einsum, (p0 + p1) + p2). The VJPs replay its
    backward sweep: planes 2, 1, 0; the payload gradient (S2 + S1) + S0,
    each S one flat bincount; each u's gradient the sum of its two planes'
    (gf (s-1)) 0.5 in sweep order.
    """
    vp = value(payload_flat)
    us = [value(u) for u in (u0, u1, u2)]
    planes = []  # per plane: rows, then for s > 1 weights, corners, fa, fb
    feat = None
    for p, (a, b) in enumerate(_PLANE_AXES):
        if s == 1:
            rows = idx * 3 + p
            contrib = np.take(vp, rows, axis=0)
            planes.append((rows,))
        else:
            pa = ((us[a] + 1.0) * 0.5) * float(s - 1)
            pb = ((us[b] + 1.0) * 0.5) * float(s - 1)
            ia = np.clip(np.floor(pa), 0, s - 2).astype(np.int64)
            ib = np.clip(np.floor(pb), 0, s - 2).astype(np.int64)
            fa, fb = pa - ia.astype(np.float64), pb - ib.astype(np.float64)
            r00 = (((idx * 3 + p) * s) + ia) * s + ib
            rows = np.stack([r00, r00 + 1, r00 + s, r00 + s + 1], axis=-1)
            corners = np.take(vp, rows, axis=0)
            one_fa, one_fb = 1.0 - fa, 1.0 - fb
            wts = np.stack([one_fa * one_fb, one_fa * fb, fa * one_fb, fa * fb], axis=-1)
            contrib = np.einsum("...k,...kc->...c", wts, corners, optimize=False)
            planes.append((rows, wts, corners, fa, fb))
        feat = contrib if feat is None else feat + contrib

    def grads(g):
        dp, du = None, {}
        for p in (2, 1, 0):
            if s == 1:
                part = _bincount_rows(g, planes[p][0], vp.shape)
            else:
                rows, wts, corners, fa, fb = planes[p]
                part = _bincount_rows(wts[..., None] * g[..., None, :], rows, vp.shape)
                gw = np.einsum("...c,...kc->...k", g, corners, optimize=False)
                one_fa, one_fb = 1.0 - fa, 1.0 - fb
                g_one_fa = gw[..., 1] * fb + gw[..., 0] * one_fb
                g_one_fb = gw[..., 2] * fa + gw[..., 0] * one_fa
                g_fa = (gw[..., 3] * fb + gw[..., 2] * one_fb) + -g_one_fa
                g_fb = (gw[..., 3] * fa + gw[..., 1] * one_fa) + -g_one_fb
                a, b = _PLANE_AXES[p]
                for axis, gf in ((b, g_fb), (a, g_fa)):
                    gu = (gf * float(s - 1)) * 0.5
                    du[axis] = gu if axis not in du else du[axis] + gu
            dp = part if dp is None else dp + part
        return dp, du

    shared = _shared(grads)
    u_inputs = [] if s == 1 else [(u, lambda g, k=k: shared(g)[1][k])
                                  for k, u in enumerate((u0, u1, u2))]
    return _op("triplane_sample", feat, (payload_flat, lambda g: shared(g)[0]),
               *u_inputs)


# ---------------------------------------------------------------------------
# Parameter sets, gradients, and the finite-difference oracle
# ---------------------------------------------------------------------------


@dataclass
class ParamSet:
    """Named groups of optimizable scalars, each with its own learning rate."""

    groups: dict[str, np.ndarray]
    lrs: dict[str, float]

    def __post_init__(self):
        self.groups = {k: np.asarray(v, dtype=np.float64) for k, v in self.groups.items()}
        if set(self.groups) != set(self.lrs):
            raise InvalidArgumentError("groups and lrs must have identical keys")
        for k, lr in self.lrs.items():
            if lr < 0:
                raise InvalidArgumentError(f"learning rate for {k} must be >= 0")
        seen: dict[int, str] = {}
        for k, v in self.groups.items():
            if id(v) in seen:
                raise InvalidArgumentError(
                    f"groups {seen[id(v)]} and {k} alias the same array"
                )
            seen[id(v)] = k

    def total_size(self) -> int:
        return int(np.sum([v.size for v in self.groups.values()], dtype=np.int64))

    def copy(self) -> "ParamSet":
        return ParamSet({k: v.copy() for k, v in self.groups.items()}, dict(self.lrs))


def gradients(loss_evaluator, params: ParamSet) -> ParamSet:
    """Analytic gradient of a scalar loss for every parameter scalar.

    loss_evaluator receives {name: Var} and must return a scalar; parameters
    the loss never touches get exact zero gradients. Non-finite losses raise
    with the first offending tape op named.
    """
    tape: list = []
    _ACTIVE.append(tape)
    try:
        leaves = {k: Var(v) for k, v in params.groups.items()}
        loss = loss_evaluator(leaves)
    finally:
        _ACTIVE.pop()
    if not isinstance(loss, Var):
        raise InvalidArgumentError("loss_evaluator must return a tape variable")
    if loss.value.shape != ():
        raise InvalidArgumentError(f"loss must be scalar, got shape {loss.value.shape}")
    if not np.isfinite(loss.value):
        for pos, (name, out, _) in enumerate(tape):
            if not np.all(np.isfinite(out.value)):
                raise NumericFailureError(
                    f"non-finite loss; first bad op: {name} at tape position {pos}"
                )
        raise NumericFailureError("non-finite loss with no non-finite tape op")
    loss.grad = np.ones_like(loss.value)
    for _, _, backward in reversed(tape):
        backward()
    grads = {
        k: (leaves[k].grad if leaves[k].grad is not None else np.zeros_like(v))
        for k, v in params.groups.items()
    }
    return ParamSet(grads, dict(params.lrs))


def _eval_plain(loss_evaluator, groups: dict) -> float:
    out = loss_evaluator(groups)
    return float(value(out))


_FD_REL_TOL = 1e-4
_FD_ABS_FLOOR = 1e-8


def default_step(theta: float) -> float:
    return 1e-5 * max(1.0, abs(theta))


@dataclass
class FDGroupReport:
    checked: int = 0
    excluded: int = 0
    failures: list = field(default_factory=list)
    max_rel_err: float = 0.0


def fd_check(
    loss_evaluator,
    params: ParamSet,
    subsample: dict[str, int] | None = None,
    rng: np.random.Generator | None = None,
) -> dict[str, FDGroupReport]:
    """Compare analytic gradients against central differences per group.

    Scalars at kinks (clamp boundaries, ReLU zeros, KNN neighbor flips) are
    detected by forward/backward one-sided differences disagreeing by more
    than 5% and excluded: the model is piecewise there by construction.
    A scalar passes when |analytic - central| <= max(_FD_REL_TOL * scale,
    _FD_ABS_FLOOR); the floor covers gradients below central-difference noise.
    """
    analytic = gradients(loss_evaluator, params)
    work = {k: v.copy() for k, v in params.groups.items()}
    f0 = _eval_plain(loss_evaluator, work)
    rng = rng or np.random.default_rng(0)
    report: dict[str, FDGroupReport] = {}
    for name, arr in work.items():
        rep = FDGroupReport()
        flat = arr.reshape(-1)
        aflat = analytic.groups[name].reshape(-1)
        if subsample and name in subsample and subsample[name] < flat.size:
            idxs = np.sort(rng.choice(flat.size, size=subsample[name], replace=False))
        else:
            idxs = np.arange(flat.size)
        for i in idxs:
            theta = flat[i]
            hi = default_step(theta)
            flat[i] = theta + hi
            fp = _eval_plain(loss_evaluator, work)
            flat[i] = theta - hi
            fm = _eval_plain(loss_evaluator, work)
            flat[i] = theta
            fwd = (fp - f0) / hi
            bwd = (f0 - fm) / hi
            if abs(fwd - bwd) > max(0.05 * max(abs(fwd), abs(bwd)), 1e-7):
                rep.excluded += 1
                continue
            central = (fp - fm) / (2.0 * hi)
            a = aflat[i]
            err = abs(a - central)
            scale = max(abs(a), abs(central))
            rep.checked += 1
            if err > _FD_ABS_FLOOR:
                rel = err / max(scale, _FD_ABS_FLOOR)
                rep.max_rel_err = max(rep.max_rel_err, rel)
                if err > max(_FD_REL_TOL * scale, _FD_ABS_FLOOR):
                    rep.failures.append((name, int(i), float(a), float(central)))
        report[name] = rep
    return report


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


# the training recipe's AdamW constants; it uses no weight decay
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamWState:
    """First/second moment accumulators and the step count."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0


def adamw_state(params: ParamSet) -> AdamWState:
    return AdamWState(
        m={k: np.zeros_like(v) for k, v in params.groups.items()},
        v={k: np.zeros_like(v) for k, v in params.groups.items()},
    )


def adamw_step(
    params: ParamSet,
    grads: ParamSet,
    state: AdamWState,
    lr_scale: float = 1.0,
) -> tuple[ParamSet, AdamWState]:
    """One bias-corrected AdamW update, in place; per-group rates from params.lrs."""
    for name, g in grads.groups.items():
        if not np.all(np.isfinite(g)):
            raise NumericFailureError(f"non-finite gradient in group {name}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    for name, p in params.groups.items():
        g = grads.groups[name]
        m = state.m[name]
        v = state.v[name]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + _EPS)
        p -= params.lrs[name] * lr_scale * update
    return params, state
