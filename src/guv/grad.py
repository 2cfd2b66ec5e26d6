"""Reverse-mode differentiation on a recorded operation tape, plus the
finite-difference oracle and the AdamW optimizer.

The tape works on whole ndarrays, not scalars: every op computes its forward
value with numpy and appends one backward closure. Creation order is a valid
topological order, so backward is a single reversed sweep. Every op also has
an ndarray fast path: code written against these functions (the renderer,
the losses) runs unchanged on plain arrays when no gradient is wanted.

Non-differentiable points use fixed subgradients: clip and relu take 0 at
their kinks, absolute uses sign with sign(0) = 0. Reduction order is fixed
and single-threaded, so gradients are bit-reproducible.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, NumericFailureError


class Tape:
    __slots__ = ("ops",)

    def __init__(self):
        self.ops: list[tuple[str, "Var", object]] = []  # (name, out, backward)


_ACTIVE: list[Tape] = []


def _record(name: str, out: "Var", backward) -> None:
    if _ACTIVE:
        _ACTIVE[-1].ops.append((name, out, backward))


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


def _is_var(*xs) -> bool:
    return any(isinstance(x, Var) for x in xs)


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


def _binary(name, a, b, fwd, bwd_a, bwd_b):
    va, vb = value(a), value(b)
    out_val = fwd(va, vb)
    if not _is_var(a, b):
        return out_val
    out = Var(out_val)

    def backward():
        g = out.grad
        if g is None:
            return
        if isinstance(a, Var):
            _add_grad(a, bwd_a(g, va, vb, out_val))
        if isinstance(b, Var):
            _add_grad(b, bwd_b(g, va, vb, out_val))

    _record(name, out, backward)
    return out


def add(a, b):
    return _binary("add", a, b, lambda x, y: x + y,
                   lambda g, x, y, o: g, lambda g, x, y, o: g)


def sub(a, b):
    return _binary("sub", a, b, lambda x, y: x - y,
                   lambda g, x, y, o: g, lambda g, x, y, o: -g)


def mul(a, b):
    return _binary("mul", a, b, lambda x, y: x * y,
                   lambda g, x, y, o: g * y, lambda g, x, y, o: g * x)


def div(a, b):
    return _binary("div", a, b, lambda x, y: x / y,
                   lambda g, x, y, o: g / y, lambda g, x, y, o: -g * x / (y * y))


def _unary(name, x, fwd, bwd):
    vx = value(x)
    out_val = fwd(vx)
    if not isinstance(x, Var):
        return out_val
    out = Var(out_val)

    def backward():
        g = out.grad
        if g is None:
            return
        _add_grad(x, bwd(g, vx, out_val))

    _record(name, out, backward)
    return out


def neg(x):
    return _unary("neg", x, lambda v: -v, lambda g, v, o: -g)


def exp(x):
    return _unary("exp", x, np.exp, lambda g, v, o: g * o)


def log(x):
    return _unary("log", x, np.log, lambda g, v, o: g / v)


def log1p(x):
    return _unary("log1p", x, np.log1p, lambda g, v, o: g / (1.0 + v))


def sqrt(x):
    return _unary("sqrt", x, np.sqrt, lambda g, v, o: g * (0.5 / o))


def sin(x):
    return _unary("sin", x, np.sin, lambda g, v, o: g * np.cos(v))


def cos(x):
    return _unary("cos", x, np.cos, lambda g, v, o: -g * np.sin(v))


def tanh(x):
    return _unary("tanh", x, np.tanh, lambda g, v, o: g * (1.0 - o * o))


def _sigmoid_val(v: np.ndarray) -> np.ndarray:
    out = np.empty_like(v, dtype=np.float64)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    e = np.exp(v[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def sigmoid(x):
    return _unary("sigmoid", x, lambda v: _sigmoid_val(np.asarray(v, dtype=np.float64)),
                  lambda g, v, o: g * o * (1.0 - o))


def relu(x):
    return _unary("relu", x, lambda v: np.maximum(v, 0.0),
                  lambda g, v, o: g * (v > 0))


def absolute(x):
    return _unary("abs", x, np.abs, lambda g, v, o: g * np.sign(v))


def clip(x, lo: float, hi: float):
    return _unary("clip", x, lambda v: np.clip(v, lo, hi),
                  lambda g, v, o: g * ((v > lo) & (v < hi)))


def sum(x, axis=None, keepdims=False):  # noqa: A001 - numpy-style name
    vx = value(x)
    out_val = np.sum(vx, axis=axis, keepdims=keepdims)
    if not isinstance(x, Var):
        return out_val
    out = Var(out_val)

    def backward():
        g = out.grad
        if g is None:
            return
        if axis is None:
            _add_grad(x, np.broadcast_to(g, vx.shape).copy())
            return
        gg = g
        if not keepdims:
            gg = np.expand_dims(gg, axis)
        _add_grad(x, np.broadcast_to(gg, vx.shape).copy())

    _record("sum", out, backward)
    return out


def mean(x, axis=None, keepdims=False):
    vx = value(x)
    if axis is None:
        n = vx.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        n = 1
        for ax in axes:
            n *= vx.shape[ax]
    return div(sum(x, axis=axis, keepdims=keepdims), float(n))


def cumsum(x, axis: int = -1):
    vx = value(x)
    out_val = np.cumsum(vx, axis=axis)
    if not isinstance(x, Var):
        return out_val
    out = Var(out_val)

    def backward():
        g = out.grad
        if g is None:
            return
        _add_grad(x, np.flip(np.cumsum(np.flip(g, axis), axis=axis), axis))

    _record("cumsum", out, backward)
    return out


def matmul(a, b):
    """2-D matrix product; used by the latent decoder (BLAS is fine there,
    no cross-batch bit-equality contract covers decoder outputs)."""
    va, vb = value(a), value(b)
    out_val = va @ vb
    if not _is_var(a, b):
        return out_val
    out = Var(out_val)

    def backward():
        g = out.grad
        if g is None:
            return
        if isinstance(a, Var):
            _add_grad(a, g @ vb.T)
        if isinstance(b, Var):
            _add_grad(b, va.T @ g)

    _record("matmul", out, backward)
    return out


def matmul_last(x, w):
    """Batched product contracting the last axis of x with 2-D w:
    (..., i) x (i, o) -> (..., o).

    einsum with optimize=False runs one fixed single-threaded C loop, never
    BLAS, so outputs are bit-reproducible and independent of the leading
    batch shape; the render kernel's cross-batch bit-equality contract
    depends on this. Forward bits match the explicit multiply + sum they
    replace; dx/dw roundings may differ from that form at the 1e-15 level.
    """
    vx, vw = value(x), value(w)
    i, o = vw.shape
    x2 = vx.reshape(-1, i)
    out_val = np.einsum("ni,io->no", x2, vw, optimize=False).reshape(vx.shape[:-1] + (o,))
    if not _is_var(x, w):
        return out_val
    out = Var(out_val)

    def backward():
        g = out.grad
        if g is None:
            return
        g2 = g.reshape(-1, o)
        if isinstance(x, Var):
            _add_grad(x, np.einsum("no,io->ni", g2, vw, optimize=False).reshape(vx.shape))
        if isinstance(w, Var):
            _add_grad(w, np.einsum("ni,no->io", x2, g2, optimize=False))

    _record("matmul_last", out, backward)
    return out


def mixdown(weights, values):
    """Weighted sum over a stack axis: (..., k) weights with (..., k, c)
    values -> (..., c). Same fixed-loop einsum guarantees as matmul_last."""
    vw, vv = value(weights), value(values)
    out_val = np.einsum("...k,...kc->...c", vw, vv, optimize=False)
    if not _is_var(weights, values):
        return out_val
    out = Var(out_val)

    def backward():
        g = out.grad
        if g is None:
            return
        if isinstance(weights, Var):
            _add_grad(weights, np.einsum("...c,...kc->...k", g, vv, optimize=False))
        if isinstance(values, Var):
            _add_grad(values, vw[..., None] * g[..., None, :])

    _record("mixdown", out, backward)
    return out


def take(x, indices):
    """Gather rows along axis 0; indices may have any shape."""
    idx = np.asarray(indices)
    vx = value(x)
    out_val = vx[idx]
    if not isinstance(x, Var):
        return out_val
    out = Var(out_val)

    def backward():
        g = out.grad
        if g is None:
            return
        flat_idx = idx.reshape(-1)
        tail = int(np.prod(vx.shape[1:], dtype=np.int64)) if vx.ndim > 1 else 1
        gflat = g.reshape(flat_idx.size, tail)
        acc = np.zeros((vx.shape[0], tail))
        for c in range(tail):
            acc[:, c] = np.bincount(flat_idx, weights=gflat[:, c],
                                    minlength=vx.shape[0])
        _add_grad(x, acc.reshape(vx.shape))

    _record("take", out, backward)
    return out


def getitem(x, key):
    vx = value(x)
    out_val = vx[key]
    if not isinstance(x, Var):
        return out_val
    out = Var(out_val)
    advanced = isinstance(key, np.ndarray) or (
        isinstance(key, tuple) and any(isinstance(k, np.ndarray) for k in key)
    )

    def backward():
        g = out.grad
        if g is None:
            return
        acc = np.zeros_like(vx)
        if advanced:
            np.add.at(acc, key, g)
        else:
            acc[key] += g
        _add_grad(x, acc)

    _record("getitem", out, backward)
    return out


def reshape(x, shape):
    vx = value(x)
    out_val = vx.reshape(shape)
    if not isinstance(x, Var):
        return out_val
    out = Var(out_val)

    def backward():
        g = out.grad
        if g is None:
            return
        _add_grad(x, g.reshape(vx.shape))

    _record("reshape", out, backward)
    return out


def transpose(x, axes):
    vx = value(x)
    out_val = np.transpose(vx, axes)
    if not isinstance(x, Var):
        return out_val
    out = Var(out_val)
    inv = np.argsort(np.asarray(axes))

    def backward():
        g = out.grad
        if g is None:
            return
        _add_grad(x, np.transpose(g, inv))

    _record("transpose", out, backward)
    return out


def broadcast_to(x, shape):
    vx = value(x)
    out_val = np.broadcast_to(vx, shape).copy()
    if not isinstance(x, Var):
        return out_val
    out = Var(out_val)

    def backward():
        g = out.grad
        if g is None:
            return
        _add_grad(x, g)  # _add_grad unbroadcasts

    _record("broadcast_to", out, backward)
    return out


def stack(xs, axis: int = -1):
    vals = [value(x) for x in xs]
    out_val = np.stack(vals, axis=axis)
    if not _is_var(*xs):
        return out_val
    out = Var(out_val)

    def backward():
        g = out.grad
        if g is None:
            return
        for i, x in enumerate(xs):
            if isinstance(x, Var):
                _add_grad(x, np.take(g, i, axis=axis))

    _record("stack", out, backward)
    return out


def concatenate(xs, axis: int = -1):
    vals = [value(x) for x in xs]
    out_val = np.concatenate(vals, axis=axis)
    if not _is_var(*xs):
        return out_val
    out = Var(out_val)
    sizes = [v.shape[axis] for v in vals]
    offsets = np.cumsum([0] + sizes)

    def backward():
        g = out.grad
        if g is None:
            return
        for i, x in enumerate(xs):
            if isinstance(x, Var):
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offsets[i], offsets[i + 1])
                _add_grad(x, g[tuple(sl)])

    _record("concatenate", out, backward)
    return out


def where(cond, a, b):
    """Select with a constant (non-differentiated) condition array."""
    cond = np.asarray(cond, dtype=bool)
    return _binary("where", a, b, lambda x, y: np.where(cond, x, y),
                   lambda g, x, y, o: g * cond, lambda g, x, y, o: g * (~cond))


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
    tape = Tape()
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
        for pos, (name, out, _) in enumerate(tape.ops):
            if not np.all(np.isfinite(out.value)):
                raise NumericFailureError(
                    f"non-finite loss; first bad op: {name} at tape position {pos}"
                )
        raise NumericFailureError("non-finite loss with no non-finite tape op")
    loss.grad = np.ones_like(loss.value)
    for _, _, backward in reversed(tape.ops):
        backward()
    grads = {
        k: (leaves[k].grad if leaves[k].grad is not None else np.zeros_like(v))
        for k, v in params.groups.items()
    }
    return ParamSet(grads, dict(params.lrs))


def _eval_plain(loss_evaluator, groups: dict) -> float:
    out = loss_evaluator(groups)
    return float(value(out))


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
    rel_tol: float = 1e-4,
    abs_floor: float = 1e-8,
    subsample: dict[str, int] | None = None,
    rng: np.random.Generator | None = None,
) -> dict[str, FDGroupReport]:
    """Compare analytic gradients against central differences per group.

    Scalars at kinks (clamp boundaries, ReLU zeros, KNN neighbor flips) are
    detected by forward/backward one-sided differences disagreeing by more
    than 5% and excluded: the model is piecewise there by construction.
    A scalar passes when |analytic - central| <= max(rel_tol * scale,
    abs_floor); the floor covers gradients below central-difference noise.
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
            if err > abs_floor:
                rel = err / max(scale, abs_floor)
                rep.max_rel_err = max(rep.max_rel_err, rel)
                if err > max(rel_tol * scale, abs_floor):
                    rep.failures.append((name, int(i), float(a), float(central)))
        report[name] = rep
    return report


# ---------------------------------------------------------------------------
# AdamW
# ---------------------------------------------------------------------------


@dataclass
class AdamWState:
    """First/second moment accumulators; defaults follow the training recipe
    (beta1 0.9, beta2 0.999, eps 1e-8, no weight decay)."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.0


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
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.groups.items():
        g = grads.groups[name]
        m = state.m[name]
        v = state.v[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if state.weight_decay != 0.0:
            update = update + state.weight_decay * p
        p -= params.lrs[name] * lr_scale * update
    return params, state
