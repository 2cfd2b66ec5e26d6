"""Reverse-mode differentiation on a recorded operation tape, plus the
finite-difference oracle and the AdamW optimizer.

The tape works on whole ndarrays, not scalars. `_op` is the one way to
define an op: an op computes its forward value with numpy, an ndarray or a
tuple of parts, and hands `_op` that value plus one (input, vjp) pair per
input; `_op` appends one backward entry that adds each vjp of the output
gradient to its Var input. Creation order is a valid topological order, so
backward is a single reversed sweep.
Every op also has an ndarray fast path (`_op` returns the forward value
when no input is a Var): code written against these functions (the
renderer, the losses) runs unchanged on plain arrays when no gradient is
wanted.

Three fused render-kernel ops go through `_op` the same way, with a
hand-written backward: gaussian_frame (the gathered Gaussians' influences
and clipped local coordinates at each sample), triplane_sample (the three
bilinear plane lookups) and shading_mlp (the shading head's color and
opacity). gaussian_frame and shading_mlp return those parts as separate
outputs, so no index op splits them again. Each VJP replays the backward
sweep of the primitive chain it replaces, so the bits are the chain's.
Their row scatters, the VJP of a gather, are one bincount per channel.
A fused op makes all its input gradients in one call, dropped when its
backward entry returns, and its docstring says what it keeps for the
backward and what the backward rebuilds: a gather is cheaper to repeat.

Non-differentiable points use fixed subgradients: clip and relu take 0 at
their kinks, absolute uses sign with sign(0) = 0. Every op but matmul
reduces in a fixed single-threaded order, so gradients are bit-reproducible
except in latent mode: the decoder's matmul is a BLAS product whose
rounding can change with the BLAS thread count.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import _rotation_entries
from .errors import InvalidArgumentError, NumericFailureError


# the tapes being recorded, innermost last; a tape is a list of
# (name, outs, backward) entries in creation order, outs the op's output Vars
_ACTIVE: list[list] = []


def _record(name: str, outs: tuple, backward) -> None:
    if _ACTIVE:
        _ACTIVE[-1].append((name, outs, backward))


class Var:
    """A node holding a float64 ndarray value and its accumulated gradient."""

    __slots__ = ("value", "grad")
    __array_ufunc__ = None  # numpy arithmetic on a Var raises TypeError

    def __init__(self, value):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None

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


def _op(name: str, out_val, *inputs, grads=None):
    """Record one tape op: out_val is its forward value, an ndarray or a
    tuple of ndarray parts, and each input is an (x, vjp) pair, vjp mapping
    the output gradient to x's gradient. For a tuple, vjp gets the list of
    the parts' gradients, zeros for a part that nothing read. A fused op
    passes its inputs bare and grads instead: grads(g) makes every input's
    gradient at once, and they are dropped when the backward entry returns.

    With no Var among the inputs, out_val comes back as it is (the ndarray
    fast path). Otherwise each part is wrapped in a Var and one backward is
    recorded that adds each Var input's gradient to it, in argument order.
    """
    if grads is not None:   # each input's VJP picks its part of grads(g)
        inputs = [(x, lambda made, k=k: made[k]) for k, x in enumerate(inputs)]
    live = [(x, vjp) for x, vjp in inputs if isinstance(x, Var)]
    if not live:
        return out_val
    parts = isinstance(out_val, tuple)
    outs = tuple(map(Var, out_val if parts else (out_val,)))

    def backward():
        if all(o.grad is None for o in outs):
            return
        g = ([np.zeros_like(o.value) if o.grad is None else o.grad for o in outs]
             if parts else outs[0].grad)
        g = g if grads is None else grads(g)
        for x, vjp in live:
            _add_grad(x, vjp(g))

    _record(name, outs, backward)
    return outs if parts else outs[0]


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


def _sigmoid_val(v: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-v)) where v >= 0, exp(v) / (1 + exp(v)) elsewhere: with
    e = exp(-|v|) each branch's value is computed from its own exp, and
    neither overflows."""
    e = np.exp(-np.abs(v))
    d = 1.0 + e
    return np.where(v >= 0, 1.0 / d, e / d)


def relu(x):
    v = value(x)
    return _op("relu", np.maximum(v, 0.0), (x, lambda g: g * (v > 0)))


def absolute(x):
    v = value(x)
    return _op("abs", np.abs(v), (x, lambda g: g * np.sign(v)))


def clip(x, lo: float, hi: float):
    v = value(x)
    return _op("clip", np.clip(v, lo, hi), (x, lambda g: g * ((v > lo) & (v < hi))))


def sum(x, axis=None):  # noqa: A001 - numpy-style name
    vx = value(x)
    return _op("sum", np.sum(vx, axis=axis), (x, lambda g: np.broadcast_to(
        g if axis is None else np.expand_dims(g, axis), vx.shape).copy()))


def mean(x):
    """Mean of all entries."""
    return div(sum(x), float(value(x).size))


def cumsum(x):
    """Running sum along the last axis."""
    return _op("cumsum", np.cumsum(value(x), axis=-1),
               (x, lambda g: np.flip(np.cumsum(np.flip(g, -1), axis=-1), -1)))


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


def _bincount_rows(rows: np.ndarray, columns, n: int) -> np.ndarray:
    """Scatter-add, the VJP of a row gather: an (n, len(columns)) array whose
    column c holds, at each row r, the sum of columns[c]'s entries at the
    positions where rows == r. One bincount per column: each bin adds its
    entries in the order of rows."""
    return np.stack([np.bincount(rows, weights=w, minlength=n) for w in columns],
                    axis=-1)


def getitem(x, key):
    """x[key] for a basic key (ints, slices, None, Ellipsis): with an array
    key, the VJP's acc[key] += g would drop a repeated index's gradient."""
    keys = key if isinstance(key, tuple) else (key,)
    if any(isinstance(k, (np.ndarray, list)) for k in keys):
        raise InvalidArgumentError("getitem takes basic keys only, not arrays or lists")
    vx = value(x)

    def vjp(g):
        acc = np.zeros_like(vx)
        acc[key] += g
        return acc
    return _op("getitem", vx[key], (x, vjp))


def reshape(x, shape):
    vx = value(x)
    return _op("reshape", vx.reshape(shape), (x, lambda g: g.reshape(vx.shape)))


def broadcast_to(x, shape):
    # _add_grad unbroadcasts, so the VJP is the identity
    return _op("broadcast_to", np.broadcast_to(value(x), shape).copy(), (x, lambda g: g))


def concatenate(xs):
    """Join along the last axis."""
    vals = [value(x) for x in xs]
    offsets = np.cumsum([0] + [v.shape[-1] for v in vals])
    return _op("concatenate", np.concatenate(vals, axis=-1), *[
        (x, lambda g, lo=lo, hi=hi: g[..., lo:hi])
        for x, lo, hi in zip(xs, offsets[:-1], offsets[1:])])


# ---------------------------------------------------------------------------
# Fused render-kernel ops: one tape entry each, whose VJPs repeat the backward
# sweep of the primitive chain they replace, so the bits stay the same.
# ---------------------------------------------------------------------------


def shading_mlp(feat, w1, b1, w2, b2, idx):
    """sigmoid(relu(feat w1 + b1) w2 + b2) for (..., i) features, the
    shading head as one op, returned as its parts: the color channels
    (..., o - 1) and the opacity (...,), the last channel. With idx, (...)
    row ids into (n, i) features, the head runs once per feature row and
    the parts are its outputs gathered at idx; with None, at every row.

    Both products run feature-major, einsum "in,io->on" on the contiguous
    transposes: the same sequential fixed-loop sum over i as the row-major
    "ni,io->no", so the same bits row by row, with the long row axis
    innermost. The VJPs make the row-major einsum calls of the chain matmul,
    bias, relu, matmul, bias, sigmoid, one row per output; _add_grad
    unbroadcasts the bias gradients, and idx's feature gradient is one
    bincount per channel. Kept for the backward: the features, the output
    and the row-major hidden layer h, which the forward transposes once,
    and only when an input is a Var; with idx, the features and h gathered
    at idx, the rows that ga, gw1 and gw2 read.
    """
    vf, vw1, vb1, vw2, vb2 = (value(x) for x in (feat, w1, b1, w2, b2))
    lead = vf.shape[:-1] if idx is None else idx.shape
    (i, m), o = vw1.shape, vw2.shape[1]
    f2 = vf.reshape(-1, i)
    # bias and relu in place: the same ufunc calls, fewer (m, rows) buffers
    h_t = np.einsum("in,io->on", np.ascontiguousarray(f2.T), vw1, optimize=False)
    h_t += vb1.reshape(-1, 1)
    np.maximum(h_t, 0.0, out=h_t)
    a2_t = np.einsum("in,io->on", h_t, vw2, optimize=False)
    a2_t += vb2.reshape(-1, 1)
    out = _sigmoid_val(np.ascontiguousarray(a2_t.T))
    live = any(isinstance(x, Var) for x in (feat, w1, b1, w2, b2))
    h = np.ascontiguousarray(h_t.T) if live else None   # for the backward
    if idx is not None:   # each row's output is its own: gather the samples'
        out = np.take(out, idx, axis=0)
        if live:
            h, f2 = (np.take(x, idx.reshape(-1), axis=0) for x in (h, f2))
    out = out.reshape(lead + (o,))

    def grads(g):
        go = np.concatenate([g[0], g[1][..., None]], axis=-1) * out * (1.0 - out)
        ga = np.einsum("no,io->ni", go.reshape(-1, o), vw2, optimize=False)
        ga *= h > 0
        gf = np.einsum("no,io->ni", ga, vw1, optimize=False)
        return (gf.reshape(vf.shape) if idx is None else
                _bincount_rows(idx.reshape(-1), gf.T, len(vf)),
                np.einsum("ni,no->io", f2, ga, optimize=False), ga.reshape(lead + (m,)),
                np.einsum("ni,no->oi", h, go.reshape(-1, o), optimize=False).T, go)

    return _op("shading_mlp", (out[..., :-1], out[..., -1]), feat, w1, b1, w2, b2,
               grads=grads)


_PLANE_AXES = ((0, 1), (0, 2), (1, 2))  # the local axes each plane spans
_REGATHER_ROWS = 4096   # rows per block of triplane_sample's corner re-gather


def triplane_sample(payload_flat, s: int, idx: np.ndarray, u0, u1, u2):
    """Sum of the three bilinear plane samples of the gathered tri-planes,
    (..., C), as one op.

    payload_flat: (N*3*S*S, C) rows in order ((n*3 + plane)*S + i)*S + j.
    idx: (...) int neighbor ids. u0, u1, u2: local coordinates in [-1, 1]
    of idx's shape; plane 0 spans (u0, u1), plane 1 (u0, u2), plane 2
    (u1, u2), align-corners. With s == 1 each plane is one row and the u's
    are not inputs.

    The forward makes the numpy calls of the per-plane chain (corner take,
    bilinear weights, mixdown einsum, (p0 + p1) + p2), the three takes as
    one. The VJPs replay its backward sweep: planes 2, 1, 0; each u's
    gradient the sum of its two planes' (gf (s-1)) 0.5 in sweep order. The
    chain's payload gradient (S2 + S1) + S0 is one bincount per channel
    over the three planes' corner rows, concatenated in sweep order: each
    row belongs to one plane, so every bin adds the same entries in the
    same order. Kept for the backward: the corner rows, bilinear weights
    and cell fractions. The (3, ..., 4, C) corner gather is not: the u
    gradients gather each plane's corners again, _REGATHER_ROWS at a time.
    """
    vp = value(payload_flat)
    # each plane's rows and bilinear weights, planes 2, 1, 0 (the sweep's order)
    rows = np.empty((3,) + idx.shape + ((4,) if s > 1 else ()), dtype=np.int64)
    if s > 1:
        wts = np.empty(rows.shape)
        cells = []   # per local axis: cell index, fraction f, 1 - f
        for u in (u0, u1, u2):
            pos = ((value(u) + 1.0) * 0.5) * float(s - 1)
            if np.isnan(pos).any():   # a NaN would cast to a row far out of range
                raise NumericFailureError("tri-plane lookup: NaN local coordinate")
            i = np.clip(np.floor(pos), 0, s - 2).astype(np.int64)
            f = pos - i.astype(np.float64)
            cells.append((i, f, 1.0 - f))
    for p, (a, b) in enumerate(_PLANE_AXES):
        if s == 1:
            np.add(idx * 3, p, out=rows[2 - p])
            continue
        (ia, fa, one_fa), (ib, fb, one_fb) = cells[a], cells[b]
        r00 = (((idx * 3 + p) * s) + ia) * s + ib
        np.add(r00[..., None], (0, 1, s, s + 1), out=rows[2 - p])
        w = wts[2 - p]
        for k, (wa, wb) in enumerate(((one_fa, one_fb), (one_fa, fb),
                                      (fa, one_fb), (fa, fb))):
            np.multiply(wa, wb, out=w[..., k])
    # the three planes' corners in one gather: one large block instead of
    # three keeps glibc's dynamic trim threshold above the chunk's temporaries
    corners = np.take(vp, rows, axis=0)
    contrib = [corners[2 - p] if s == 1 else
               np.einsum("...k,...kc->...c", wts[2 - p], corners[2 - p], optimize=False)
               for p in range(3)]
    feat = contrib[0] + contrib[1]
    feat += contrib[2]
    u_grads = s > 1 and any(isinstance(u, Var) for u in (u0, u1, u2))

    def grads(g):
        dp, du = None, {}
        g2 = g.reshape(-1, g.shape[-1])
        if isinstance(payload_flat, Var):
            spread = np.empty((g2.shape[0], 4 if s > 1 else 1))
            planes_wts = wts.reshape(3, -1) if s > 1 else np.ones((3, 1))
            buf = np.empty((3, spread.size))

            def weights(c):
                # g[m, c] once per corner of sample m, times the corner
                # weights of the three planes; s == 1 weighs each row by 1.0
                spread[...] = g2[:, c, None]
                return np.multiply(planes_wts, spread.reshape(-1), out=buf).reshape(-1)

            dp = _bincount_rows(rows.reshape(-1), map(weights, range(g2.shape[1])),
                                vp.shape[0])
        for p in (2, 1, 0) if u_grads else ():
            a, b = _PLANE_AXES[p]
            (_, fa, one_fa), (_, fb, one_fb) = cells[a], cells[b]
            # the chain's einsum on the plane's corners, gathered again a
            # block of rows at a time: each row's sum is made alone
            plane_rows = rows[2 - p].reshape(-1, 4)
            gw = np.empty(plane_rows.shape)
            for lo in range(0, len(gw), _REGATHER_ROWS):
                blk = slice(lo, lo + _REGATHER_ROWS)
                np.einsum("mc,mkc->mk", g2[blk], np.take(vp, plane_rows[blk], axis=0),
                          out=gw[blk], optimize=False)
            gw = gw.reshape(rows.shape[1:])
            g_one_fa = gw[..., 1] * fb + gw[..., 0] * one_fb
            g_one_fb = gw[..., 2] * fa + gw[..., 0] * one_fa
            g_fa = (gw[..., 3] * fb + gw[..., 2] * one_fb) + -g_one_fa
            g_fb = (gw[..., 3] * fa + gw[..., 1] * one_fa) + -g_one_fb
            for axis, gf in ((b, g_fb), (a, g_fa)):
                gu = (gf * float(s - 1)) * 0.5
                du[axis] = gu if axis not in du else du[axis] + gu
        return (dp,) + tuple(du.get(k) for k in range(3))

    return _op("triplane_sample", feat, payload_flat,
               *((u0, u1, u2) if s > 1 else ()), grads=grads)


def gaussian_frame(centers, rotations, radii, origin, tdir, idx: np.ndarray,
                   eta: float, tau: float):
    """The gathered Gaussians idx (..., K) seen from the points origin + tdir
    (..., 3), as one op returning four (..., K) parts: the influence
    eta exp(-m / (2 tau)), then the local coordinates u0, u1, u2 clipped to
    [-1, 1].

    centers, rotations (Euler angles) and radii: (N, 3). With the offset
    x - mu formed as tdir - (centers - origin) and y = R^T (x - mu) its
    local frame, m = |y / radii|^2 and u = y / (3 radii).

    The forward makes the numpy calls of the chain of gathers,
    core._rotation_entries of the angles' cos and sin, the local offset,
    the Mahalanobis distance, the influence and the clips. The VJPs replay
    its backward sweep: each value that several chain ops read adds their
    gradients in the sweep's order, and each pose gradient is one bincount
    per channel over idx, the chain's take VJP. Kept for the backward: the
    (..., K) offsets, frame, radii and influence terms, and the angles' cos
    and sin and the rotation entries once per Gaussian, (6, N) and (9, N),
    which the backward gathers at idx again.
    """
    vc, vr, vs = value(centers), value(rotations), value(radii)
    offset = np.ascontiguousarray((vc - origin).T)   # (3, N): mu - origin
    d = [tdir[..., None, i] - np.take(offset[i], idx) for i in range(3)]
    # cos, sin and the entries once per Gaussian, then gathered: elementwise
    # ufuncs, so each gathered value has the chain's bits
    trig = [f(col) for col in np.ascontiguousarray(vr.T) for f in (np.cos, np.sin)]
    table = np.stack(_rotation_entries(*trig))   # (9, N)
    e = [np.take(col, idx) for col in table]
    # y_i = column i of R dotted with x - mu
    y = [e[i] * d[0] + e[3 + i] * d[1] + e[6 + i] * d[2] for i in range(3)]
    r = [np.take(col, idx) for col in np.ascontiguousarray(vs.T)]
    z = [yi / ri for yi, ri in zip(y, r)]
    ex = np.exp((z[0] * z[0] + z[1] * z[1] + z[2] * z[2]) * (-1.0 / (2.0 * tau)))
    r3 = [ri * 3.0 for ri in r]
    w = [yi / r3i for yi, r3i in zip(y, r3)]
    parts = (ex * eta,) + tuple(np.clip(wi, -1.0, 1.0) for wi in w)

    def grads(g):
        ca, sa, cb, sb, cc, sc = (np.take(t, idx) for t in trig)
        e = [np.take(col, idx) for col in table]
        gm = ((g[0] * eta) * ex) * (-1.0 / (2.0 * tau))
        gy, gr = [], []
        for i in range(3):
            gw = g[1 + i] * ((w[i] > -1.0) & (w[i] < 1.0))
            gz = gm * z[i] + gm * z[i]
            gy.append(gw / r3[i] + gz / r[i])
            gr.append((-gw * y[i] / (r3[i] * r3[i])) * 3.0 + -gz * y[i] / (r[i] * r[i]))
        # x - mu, each component summed over y2, y1, y0; then the entries
        gd = [(gy[2] * e[3 * j + 2] + gy[1] * e[3 * j + 1]) + gy[0] * e[3 * j]
              for j in range(3)]
        ge = [gy[k % 3] * d[k // 3] for k in range(9)]
        # the entries' products, swept from e8 down to e0 (e2 is sb itself);
        # g7b, g6b: gradients of the factor ca sb in e7 and e6, g4b, g3b: of
        # sa sb in e4 and e3
        g7b, g6b = ge[7] * sc, -ge[6] * cc
        g4b, g3b = -ge[4] * sc, ge[3] * cc
        g_ca = (((ge[8] * cb + g7b * sb) + g6b * sb) + ge[4] * cc) + ge[3] * sc
        g_sa = (((ge[7] * cc + ge[6] * sc) + -ge[5] * cb) + g4b * sb) + g3b * sb
        g_cb = ((ge[8] * ca + -ge[5] * sa) + -ge[1] * sc) + ge[0] * cc
        g_sb = (((ge[2] + g7b * ca) + g6b * ca) + g4b * sa) + g3b * sa
        g_cc = ((((ge[7] * sa + -ge[6] * (ca * sb)) + ge[4] * ca)
                 + ge[3] * (sa * sb)) + ge[0] * cb)
        g_sc = ((((ge[7] * (ca * sb) + ge[6] * sa) + -ge[4] * (sa * sb))
                 + ge[3] * ca) + -ge[1] * cb)
        g_ang = [gs * c + -gc * s for c, s, gc, gs in
                 ((ca, sa, g_ca, g_sa), (cb, sb, g_cb, g_sb), (cc, sc, g_cc, g_sc))]
        rows, n = idx.reshape(-1), vc.shape[0]
        return (_bincount_rows(rows, (v.reshape(-1) for v in gr), n),
                _bincount_rows(rows, (v.reshape(-1) for v in g_ang), n),
                _bincount_rows(rows, ((-v).reshape(-1) for v in gd), n))

    # the chain's sweep reaches the radii gather first, the centres last
    return _op("gaussian_frame", parts, radii, rotations, centers, grads=grads)


# ---------------------------------------------------------------------------
# Gradients and the finite-difference oracle
# ---------------------------------------------------------------------------


def gradients(loss_evaluator, params: dict) -> dict:
    """Analytic gradient of a scalar loss for every parameter scalar.

    params maps group names to arrays; loss_evaluator receives {name: Var}
    and must return a scalar. Returns {name: gradient}; parameters the loss
    never touches get exact zero gradients. Non-finite losses raise with the
    first offending tape op named.
    """
    tape: list = []
    _ACTIVE.append(tape)
    try:
        leaves = {k: Var(v) for k, v in params.items()}
        loss = loss_evaluator(leaves)
    finally:
        _ACTIVE.pop()
    if not isinstance(loss, Var):
        raise InvalidArgumentError("loss_evaluator must return a tape variable")
    if loss.value.shape != ():
        raise InvalidArgumentError(f"loss must be scalar, got shape {loss.value.shape}")
    if not np.isfinite(loss.value):
        for pos, (name, outs, _) in enumerate(tape):
            if not all(np.all(np.isfinite(o.value)) for o in outs):
                raise NumericFailureError(
                    f"non-finite loss; first bad op: {name} at tape position {pos}"
                )
        raise NumericFailureError("non-finite loss with no non-finite tape op")
    loss.grad = np.ones_like(loss.value)
    for _, _, backward in reversed(tape):
        backward()
    return {k: (leaves[k].grad if leaves[k].grad is not None else np.zeros_like(v))
            for k, v in params.items()}


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


def _fd_measure(loss_evaluator, work: dict, flat: np.ndarray, i, h: float,
                f0: float) -> tuple[bool, float]:
    """(kink, central difference) of scalar i at step h. A kink is a slope
    break inside the window: forward and backward one-sided differences
    that disagree by more than 5%."""
    theta = flat[i]
    flat[i] = theta + h
    fp = _eval_plain(loss_evaluator, work)
    flat[i] = theta - h
    fm = _eval_plain(loss_evaluator, work)
    flat[i] = theta
    fwd = (fp - f0) / h
    bwd = (f0 - fm) / h
    kink = abs(fwd - bwd) > max(0.05 * max(abs(fwd), abs(bwd)), 1e-7)
    return kink, (fp - fm) / (2.0 * h)


def fd_check(
    loss_evaluator,
    params: dict,
    subsample: dict[str, int] | None = None,
    rng: np.random.Generator | None = None,
) -> dict[str, FDGroupReport]:
    """Compare analytic gradients against central differences per group.

    Scalars at kinks (clamp boundaries, ReLU zeros, KNN neighbor flips) are
    excluded: the model is piecewise there by construction. A scalar passes
    when |analytic - central| <= max(_FD_REL_TOL * scale, _FD_ABS_FLOOR);
    the floor covers gradients below central-difference noise. A scalar
    that fails is measured again at 1/100 of its step, with the same kink
    test and tolerance, and reported as that measurement gives: a slope
    break too small for the kink test can still skew a central difference
    whose window straddles it, and the finer window moves off the break.
    """
    analytic = gradients(loss_evaluator, params)
    work = {k: v.copy() for k, v in params.items()}
    f0 = _eval_plain(loss_evaluator, work)
    rng = rng or np.random.default_rng(0)
    report: dict[str, FDGroupReport] = {}
    for name, arr in work.items():
        rep = FDGroupReport()
        flat = arr.reshape(-1)
        aflat = analytic[name].reshape(-1)
        if subsample and name in subsample and subsample[name] < flat.size:
            idxs = np.sort(rng.choice(flat.size, size=subsample[name], replace=False))
        else:
            idxs = np.arange(flat.size)
        for i in idxs:
            a = aflat[i]
            h = default_step(flat[i])
            for step in (h, h / 100.0):
                kink, central = _fd_measure(loss_evaluator, work, flat, i, step, f0)
                err = abs(a - central)
                scale = max(abs(a), abs(central))
                failed = err > max(_FD_REL_TOL * scale, _FD_ABS_FLOOR)
                if kink or not failed:
                    break
            if kink:
                rep.excluded += 1
                continue
            rep.checked += 1
            if err > _FD_ABS_FLOOR:
                rel = err / max(scale, _FD_ABS_FLOOR)
                rep.max_rel_err = max(rep.max_rel_err, rel)
                if failed:
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


def adamw_state(params: dict) -> AdamWState:
    return AdamWState(
        m={k: np.zeros_like(v) for k, v in params.items()},
        v={k: np.zeros_like(v) for k, v in params.items()},
    )


def adamw_step(params: dict, grads: dict, state: AdamWState, lrs: dict,
               lr_scale: float) -> None:
    """One bias-corrected AdamW update of params, in place; group name's
    step is lrs[name] * lr_scale times the moment ratio."""
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericFailureError(f"non-finite gradient in group {name}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - _BETA1 ** t
    bc2 = 1.0 - _BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + _EPS)
        p -= lrs[name] * lr_scale * update
