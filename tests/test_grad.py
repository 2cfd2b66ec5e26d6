"""Tape autodiff against central differences, op by op, plus AdamW."""
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from guv import grad as g
from guv.errors import InvalidArgumentError, NumericFailureError
from guv.grad import (AdamWState, FDGroupReport, adamw_state,
                      adamw_step, fd_check, gradients)

from reference import (cos, finite_diff, gaussian_frame_chain, matmul_last,
                       mlp_chain, sigmoid, sin, stack, take, triplane_chain)


def _check_op(build_loss, x0, rtol=1e-6, atol=1e-9):
    """Gradient of a scalar loss in one group x, analytic vs exhaustive FD."""
    params = {"x": np.asarray(x0, dtype=np.float64)}
    analytic = gradients(lambda leaves: build_loss(leaves["x"]), params)
    fd = finite_diff(lambda arrs: build_loss(arrs["x"]), params)
    np.testing.assert_allclose(analytic["x"], fd["x"],
                               rtol=rtol, atol=atol)
    return analytic["x"]


class TestElementwiseOps:
    """Each op is checked as sum(weight * op(...)) so gradients vary per entry."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)
        self.w = self.rng.standard_normal((3, 4))

    def _x(self, lo=-1.0, hi=1.0):
        return self.rng.uniform(lo, hi, size=(3, 4))

    def test_add_sub_mul_div(self):
        y = self._x(0.5, 2.0)
        _check_op(lambda x: g.sum(g.mul(g.add(x, y), self.w)), self._x())
        _check_op(lambda x: g.sum(g.mul(g.sub(y, x), self.w)), self._x())
        _check_op(lambda x: g.sum(g.mul(g.mul(x, y), self.w)), self._x())
        _check_op(lambda x: g.sum(g.mul(g.div(x, y), self.w)), self._x())
        _check_op(lambda x: g.sum(g.mul(g.div(y, x), self.w)), self._x(0.5, 2.0))

    def test_both_sides_of_binary_ops(self):
        y0 = self._x()

        def loss(leaves):
            return g.sum(g.mul(g.mul(leaves["a"], leaves["b"]), self.w))

        params = {"a": self._x(), "b": y0}
        analytic = gradients(loss, params)
        fd = finite_diff(loss, params)
        for k in ("a", "b"):
            np.testing.assert_allclose(analytic[k], fd[k],
                                       rtol=1e-6, atol=1e-9)

    def test_broadcasting_binary(self):
        y = self.rng.standard_normal(4)  # broadcasts over rows
        _check_op(lambda x: g.sum(g.mul(g.mul(x, y), self.w)), self._x())
        row = self.rng.standard_normal((1, 4))
        _check_op(lambda x: g.sum(g.mul(g.add(x, row), self.w)),
                  self.rng.standard_normal((5, 1)).repeat(4, 1)[:3])

    def test_unary_chain(self):
        _check_op(lambda x: g.sum(g.mul(g.neg(x), self.w)), self._x())
        _check_op(lambda x: g.sum(g.mul(g.exp(x), self.w)), self._x())
        _check_op(lambda x: g.sum(g.mul(g.log1p(x), self.w)), self._x(-0.5, 0.5))
        _check_op(lambda x: g.sum(g.mul(sin(x), self.w)), self._x(-3, 3))
        _check_op(lambda x: g.sum(g.mul(cos(x), self.w)), self._x(-3, 3))
        _check_op(lambda x: g.sum(g.mul(sigmoid(x), self.w)), self._x(-4, 4))

    def test_kinked_ops_away_from_kinks(self):
        x = self._x(0.2, 1.0) * np.sign(self.rng.standard_normal((3, 4)))
        _check_op(lambda v: g.sum(g.mul(g.relu(v), self.w)), x)
        _check_op(lambda v: g.sum(g.mul(g.absolute(v), self.w)), x)
        _check_op(lambda v: g.sum(g.mul(g.clip(v, -0.9, 0.9), self.w)),
                  self._x(-0.5, 0.5))

    def test_kink_subgradients_are_zero(self):
        for op in (g.relu, g.absolute):
            params = {"x": np.zeros(3)}
            got = gradients(lambda leaves: g.sum(op(leaves["x"])), params)
            np.testing.assert_array_equal(got["x"], np.zeros(3))
        params = {"x": np.array([2.0])}
        got = gradients(lambda leaves: g.sum(g.clip(leaves["x"], -1.0, 1.0)),
                        params)
        np.testing.assert_array_equal(got["x"], [0.0])


class TestShapeOps:
    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def test_sum_mean_with_axes(self):
        w3 = self.rng.standard_normal(3)
        w4 = self.rng.standard_normal(4)
        x0 = self.rng.standard_normal((3, 4))
        _check_op(lambda x: g.sum(g.mul(g.sum(x, axis=1), w3)), x0)
        _check_op(lambda x: g.sum(g.mul(g.sum(x, axis=0), w4)), x0)
        _check_op(lambda x: g.mul(g.mean(x), 3.0), x0)

    def test_cumsum(self):
        w = self.rng.standard_normal((2, 5))
        _check_op(lambda x: g.sum(g.mul(g.cumsum(x), w)),
                  self.rng.standard_normal((2, 5)))

    def test_matmul_both_sides(self):
        a0 = self.rng.standard_normal((3, 4))
        b0 = self.rng.standard_normal((4, 2))
        w = self.rng.standard_normal((3, 2))

        def loss(leaves):
            return g.sum(g.mul(g.matmul(leaves["a"], leaves["b"]), w))

        params = {"a": a0, "b": b0}
        analytic = gradients(loss, params)
        fd = finite_diff(loss, params)
        for k in ("a", "b"):
            np.testing.assert_allclose(analytic[k], fd[k],
                                       rtol=1e-6, atol=1e-9)

    def test_matmul_last_matches_explicit_form(self):
        x = self.rng.standard_normal((5, 2, 8))
        w = self.rng.standard_normal((8, 4))
        got = matmul_last(x, w)
        ref = (x[..., :, None] * w).sum(axis=-2)
        np.testing.assert_array_equal(got, ref)
        # per-element results must not depend on the batch around them
        single = matmul_last(x[3, 1], w)
        np.testing.assert_array_equal(single, got[3, 1])

    def test_matmul_last_both_sides(self):
        x0 = self.rng.standard_normal((3, 2, 4))
        w0 = self.rng.standard_normal((4, 3))
        m = self.rng.standard_normal((3, 2, 3))

        def loss(leaves):
            return g.sum(g.mul(matmul_last(leaves["x"], leaves["w"]), m))

        params = {"x": x0, "w": w0}
        analytic = gradients(loss, params)
        fd = finite_diff(loss, params)
        for k in ("x", "w"):
            np.testing.assert_allclose(analytic[k], fd[k],
                                       rtol=1e-6, atol=1e-9)

    def test_mixdown_matches_explicit_form(self):
        wts = self.rng.standard_normal((6, 3))
        vals = self.rng.standard_normal((6, 3, 5))
        got = g.mixdown(wts, vals)
        ref = (wts[..., None] * vals).sum(axis=-2)
        np.testing.assert_array_equal(got, ref)
        single = g.mixdown(wts[4], vals[4])
        np.testing.assert_array_equal(single, got[4])

    def test_mixdown_both_sides(self):
        w0 = self.rng.standard_normal((4, 3))
        v0 = self.rng.standard_normal((4, 3, 2))
        m = self.rng.standard_normal((4, 2))

        def loss(leaves):
            return g.sum(g.mul(g.mixdown(leaves["wts"], leaves["vals"]), m))

        params = {"wts": w0, "vals": v0}
        analytic = gradients(loss, params)
        fd = finite_diff(loss, params)
        for k in ("wts", "vals"):
            np.testing.assert_allclose(analytic[k], fd[k],
                                       rtol=1e-6, atol=1e-9)

    def test_take_accumulates_repeated_rows(self):
        idx = np.array([[0, 0], [1, 3]])
        w = self.rng.standard_normal((2, 2, 3))
        _check_op(lambda x: g.sum(g.mul(take(x, idx), w)),
                  self.rng.standard_normal((4, 3)))
        # direct: gradient of sum(take(x, [0,0,1])) is bincount of indices
        params = {"x": np.ones(4)}
        got = gradients(
            lambda leaves: g.sum(take(leaves["x"], np.array([0, 0, 1]))), params
        )
        np.testing.assert_array_equal(got["x"], [2.0, 1.0, 0.0, 0.0])

    def test_getitem_basic_keys(self):
        w = self.rng.standard_normal((2, 4))
        _check_op(lambda x: g.sum(g.mul(x[1:3], w)),
                  self.rng.standard_normal((5, 4)))
        w2 = self.rng.standard_normal(5)
        _check_op(lambda x: g.sum(g.mul(x[..., None, 2], w2[:, None])),
                  self.rng.standard_normal((5, 4)))

    @pytest.mark.parametrize("key", [np.array([0, 0, 2]), [0, 0, 2],
                                     (slice(None), np.array([1, 1])),
                                     (Ellipsis, [3])])
    def test_getitem_refuses_array_keys(self, key):
        # the VJP's acc[key] += g would keep one of a repeated index's grads
        x = g.Var(np.ones((5, 4)))
        with pytest.raises(InvalidArgumentError, match="basic keys"):
            g.getitem(x, key)
        with pytest.raises(InvalidArgumentError, match="basic keys"):
            g.getitem(np.ones((5, 4)), key)

    def test_reshape_broadcast(self):
        w = self.rng.standard_normal(12)
        _check_op(lambda x: g.sum(g.mul(g.reshape(x, (12,)), w)),
                  self.rng.standard_normal((3, 4)))
        w3 = self.rng.standard_normal((5, 3))
        _check_op(lambda x: g.sum(g.mul(g.broadcast_to(x, (5, 3)), w3)),
                  self.rng.standard_normal(3))

    def test_stack_concatenate(self):
        w = self.rng.standard_normal((3, 2))
        w6 = self.rng.standard_normal(6)
        y = self.rng.standard_normal(3)
        _check_op(lambda x: g.sum(g.mul(stack([x, y], axis=-1), w)),
                  self.rng.standard_normal(3))
        _check_op(lambda x: g.sum(g.mul(g.concatenate([x, y]), w6)),
                  self.rng.standard_normal(3))

    def test_var_has_no_arithmetic_operators(self):
        # arithmetic goes through the named ops, so every tape op is one the
        # library calls; numpy defers to Var and then finds no operator
        x = g.Var(np.ones(3))
        for fn in (lambda: x + 1.0, lambda: 2.0 * x, lambda: np.ones(3) - x,
                   lambda: x / np.ones(3), lambda: -x):
            with pytest.raises(TypeError):
                fn()


# the name each public op records on the tape (absolute records "abs")
_OP_NAMES = ["add", "sub", "mul", "div", "neg", "exp", "log1p", "relu", "abs",
             "clip", "sum", "cumsum", "matmul", "mixdown", "getitem", "reshape",
             "broadcast_to", "concatenate", "shading_mlp", "triplane_sample",
             "gaussian_frame"]

_Y = np.array([[0.3, 0.7, 1.2], [0.5, 0.9, 1.4]])
_RNG = np.random.default_rng(11)
_MLP = (_RNG.standard_normal((3, 5)), _RNG.standard_normal(5),
        _RNG.standard_normal((5, 4)), _RNG.standard_normal(4))
_PAYLOAD = _RNG.standard_normal((2 * 3 * 2 * 2, 4))   # N=2, S=2, C=4
_IDX = np.array([[0, 1, 0], [1, 1, 0]])
_POSE = (0.5 * _RNG.standard_normal((2, 3)), 0.2 + 0.1 * _RNG.uniform(size=(2, 3)))
_TDIR = 0.4 * _RNG.standard_normal((2, 3))

# each op called with its differentiated input x, of _Y's shape
_OPS = {
    "add": lambda x: g.add(x, _Y),
    "sub": lambda x: g.sub(_Y, x),
    "mul": lambda x: g.mul(x, _Y),
    "div": lambda x: g.div(_Y, x),
    "neg": g.neg,
    "exp": g.exp,
    "log1p": g.log1p,
    "relu": g.relu,
    "abs": g.absolute,
    "clip": lambda x: g.clip(x, 0.4, 1.0),
    "sum": lambda x: g.sum(x, axis=1),
    "cumsum": g.cumsum,
    "matmul": lambda x: g.matmul(x, _Y.T),
    "mixdown": lambda x: g.mixdown(x, np.stack([_Y] * 4, axis=-1)),
    "getitem": lambda x: g.getitem(x, (slice(None), 1)),
    "reshape": lambda x: g.reshape(x, (3, 2)),
    "broadcast_to": lambda x: g.broadcast_to(x, (4, 2, 3)),
    "concatenate": lambda x: g.concatenate([_Y, x]),
    "shading_mlp": lambda x: g.shading_mlp(x, *_MLP, None),
    "triplane_sample": lambda x: g.triplane_sample(_PAYLOAD, 2, _IDX, x,
                                                   -0.5 * _Y, _Y - 1.0),
    "gaussian_frame": lambda x: g.gaussian_frame(x, *_POSE, _Y[0], _TDIR, _IDX,
                                                 5.0, 1.0),
}


def _parts(y) -> tuple:
    """An op's outputs: the parts of a fused op's tuple, or (y,)."""
    return y if isinstance(y, tuple) else (y,)


def _weighted_sum(y, m):
    """sum(y * m), part by part for a tuple y with a tuple m."""
    total = None
    for part, mi in zip(_parts(y), _parts(m), strict=True):
        term = g.sum(g.mul(part, mi))
        total = term if total is None else g.add(total, term)
    return total


def _recorded(build_loss, x0):
    """(tape op names recorded by build_loss(x), gradient of the sum of its
    outputs)."""
    names = []

    def loss(leaves):
        out = build_loss(leaves["x"])
        names.extend(name for name, _, _ in g._ACTIVE[-1])
        return _weighted_sum(out, tuple(1.0 for _ in _parts(out)))

    grads = gradients(loss, {"x": np.array(x0)})
    return names, grads["x"]


class TestOpProtocol:
    """Every op is a forward value plus one VJP per input, recorded once."""

    def test_table_covers_every_documented_name(self):
        assert list(_OPS) == _OP_NAMES
        assert len(_OP_NAMES) == 21

    def test_plain_arrays_return_ndarrays_and_record_nothing(self):
        def loss(leaves):
            for name, op in _OPS.items():
                for part in _parts(op(_Y.copy())):
                    assert isinstance(part, np.ndarray), name
                assert g._ACTIVE[-1] == [], name
            return g.sum(leaves["x"])

        gradients(loss, {"x": _Y.copy()})

    @pytest.mark.parametrize("name", _OP_NAMES)
    def test_var_input_records_one_entry_under_its_name(self, name):
        names, grad = _recorded(_OPS[name], _Y)
        assert names == [name]
        assert grad.shape == _Y.shape

    @pytest.mark.parametrize("name, shapes", [
        ("shading_mlp", [(2, 3), (2,)]),
        ("gaussian_frame", [(2, 3)] * 4)])
    def test_fused_ops_return_their_parts(self, name, shapes):
        """The ndarray path returns the parts as a tuple of ndarrays; on a
        Var, one op records a Var per part, and a part that nothing reads
        gets a zero gradient."""
        plain = _OPS[name](_Y.copy())
        assert isinstance(plain, tuple)
        assert [p.shape for p in plain] == shapes

        def loss(leaves):
            out = _OPS[name](leaves["x"])
            assert isinstance(out, tuple)
            assert all(isinstance(p, g.Var) for p in out)
            assert [n for n, _, _ in g._ACTIVE[-1]] == [name]
            for p, want in zip(out, plain):
                np.testing.assert_array_equal(p.value, want)
            return g.sum(out[0])

        got = gradients(loss, {"x": _Y.copy()})["x"]
        m = (1.0,) + (0.0,) * (len(shapes) - 1)   # every part read, all but one at 0
        want = gradients(lambda leaves: _weighted_sum(_OPS[name](leaves["x"]), m),
                         {"x": _Y.copy()})["x"]
        np.testing.assert_array_equal(got, want)

    def test_aliased_inputs_accumulate_exactly(self):
        w = np.array([[0.25, -1.5, 2.0], [3.0, 0.125, -0.75]])
        w2 = np.array([[1.5, -0.5, 0.25], [2.0, -3.0, 0.5]])
        _, grad = _recorded(lambda x: g.mul(x, x), w)
        np.testing.assert_array_equal(grad, 2.0 * w)
        # one fused op, three aliased inputs: with dyadic data every sum is
        # exact, so the order the VJPs add in cannot show
        payload = (np.arange(2 * 3 * 3 * 3 * 2).reshape(-1, 2) - 40.0) / 16.0
        u = np.array([[-1.0, -0.5, 0.25], [0.5, 0.75, 1.0]])
        names, grad = _recorded(
            lambda x: g.triplane_sample(payload, 3, _IDX, x, x, x), u)
        _, want = _recorded(lambda x: triplane_chain(payload, 3, _IDX, x, x, x), u)
        assert names == ["triplane_sample"]
        np.testing.assert_array_equal(grad, want)
        _, grad = _recorded(
            lambda x: g.mul(g.concatenate([x, x]),
                            np.concatenate([w, w2], axis=1)), _Y)
        np.testing.assert_array_equal(grad, w + w2)


def _mlp_inputs(rng, lead, kinks=True):
    """Shading-head inputs; with kinks, pre-activations exactly on the ReLU
    kink: zero feature rows meet zero biases."""
    feat = rng.standard_normal(lead + (8,))
    b1 = 0.1 * rng.standard_normal(32)
    if kinks:
        feat.reshape(-1, 8)[::3] = 0.0
        b1[::4] = 0.0
    return {"feat": feat, "w1": 0.6 * rng.standard_normal((8, 32)), "b1": b1,
            "w2": 0.6 * rng.standard_normal((32, 4)),
            "b2": 0.1 * rng.standard_normal(4)}


def _rows_mlp(feat, w1, b1, w2, b2):
    """shading_mlp on every feature row, no ids, called by leaf names."""
    return g.shading_mlp(feat, w1, b1, w2, b2, None)


def _triplane_inputs(rng, lead, s, n=5, c=8, kinks=True):
    """Tri-plane inputs; with kinks, coordinates include u = -1, u = +1 and
    every cell edge (u = 2j/(s-1) - 1 lands exactly on node j)."""
    edges = 2.0 * np.arange(s) / max(s - 1, 1) - 1.0
    inputs = {"payload_flat": rng.standard_normal((n * 3 * s * s, c))}
    for k in range(3):
        u = rng.uniform(-1.0, 1.0, size=lead)
        if kinks:
            flat = u.reshape(-1)
            picks = rng.integers(0, flat.size, size=max(1, flat.size // 3))
            flat[picks] = rng.choice(np.concatenate([edges, [-1.0, 1.0]]),
                                     size=picks.size)
        inputs[f"u{k}"] = u
    return inputs, rng.integers(0, n, size=lead)


def _frame_inputs(rng, lead, n=5, k=3, kinks=True):
    """Gaussian-frame leaves and (origin, tdir, idx): ids repeat among the K
    neighbours, and each point lies near its first neighbour. With kinks,
    Gaussians 0 and 1 have zero angles and dyadic poses, and three points
    sit where y / (3 r) is exactly +1 or -1 on every axis."""
    centers = 0.25 * rng.standard_normal((n, 3))
    rotations = rng.uniform(-np.pi, np.pi, size=(n, 3))
    radii = rng.uniform(0.05, 0.2, size=(n, 3))
    origin = np.array([0.5, 0.25, -0.25])
    idx = rng.integers(0, n, size=lead + (k,))
    tdir = (centers[idx[..., 0]] - origin
            + radii[idx[..., 0]] * rng.standard_normal(lead + (3,)))
    if kinks:
        centers[:2] = [[0.25, -0.5, 0.125], [-0.375, 0.0, 0.5]]
        rotations[:2] = 0.0
        radii[:2] = [[0.0625, 0.125, 0.25], [0.125, 0.0625, 0.125]]
        rows, points = idx.reshape(-1, k), tdir.reshape(-1, 3)
        for row, gid, sign in ((0, 0, 1.0), (3, 1, -1.0), (7, 0, -1.0)):
            rows[row, 0] = gid
            points[row] = centers[gid] - origin + sign * 3.0 * radii[gid] * [1, -1, 1]
    return ({"centers": centers, "rotations": rotations, "radii": radii},
            (origin, tdir, idx))


def _run(op, inputs: dict, m):
    """op's output on the inputs as tape leaves, and the gradient of
    sum(op * m) for every input."""
    got = {}

    def loss(leaves):
        y = op(**leaves)
        got["y"] = [g.value(p) for p in _parts(y)]
        return _weighted_sum(y, m)

    grads = gradients(loss, inputs)
    return got["y"], grads


def _assert_same(op, ref, inputs, m):
    y, grads = _run(op, inputs, m)
    y_ref, grads_ref = _run(ref, inputs, m)
    assert len(y) == len(y_ref)
    for part, part_ref in zip(y, y_ref):
        np.testing.assert_array_equal(part, part_ref)
    for name in inputs:
        np.testing.assert_array_equal(grads[name], grads_ref[name], err_msg=name)


class TestFusedOps:
    """shading_mlp, triplane_sample and gaussian_frame against the primitive
    chains they fuse (tests/reference.py): the same value and gradients, bit
    for bit."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_shading_mlp_is_the_chain_bit_for_bit(self, rng, k):
        inputs = _mlp_inputs(rng, (4, 5, k))
        a1 = inputs["feat"] @ inputs["w1"] + inputs["b1"]
        assert np.any(a1 == 0.0)
        m = rng.standard_normal((4, 5, k, 4))
        _assert_same(_rows_mlp, mlp_chain, inputs, (m[..., :3], m[..., 3]))

    @pytest.mark.parametrize("lead", [(4, 5, 3), (3,)])
    def test_indexed_shading_mlp_is_the_gathered_head(self, rng, lead):
        """With ids, the head on 7 feature rows equals the head on the rows
        gathered at the ids, bit for bit: both parts, every weight gradient,
        and the feature gradient as the row scatter (take's VJP) of the
        gathered head's. The ids repeat, row 3 of zero features puts hidden
        units on the ReLU kink, rows 5 and 6 are never picked and get zero
        gradient, and a (K,) id array is blend_point's shape."""
        inputs = _mlp_inputs(rng, (7,))
        idx = rng.integers(0, 5, size=lead)
        idx[..., 0] = idx[..., -1] = 3   # a repeated row of zero features
        m = rng.standard_normal(lead + (4,))

        def gathered(feat, **w):
            return _rows_mlp(take(feat, idx), **w)

        _assert_same(lambda **leaves: g.shading_mlp(**leaves, idx=idx), gathered,
                     inputs, (m[..., :3], m[..., 3]))
        grads = gradients(lambda leaves: _weighted_sum(
            g.shading_mlp(**leaves, idx=idx), (m[..., :3], m[..., 3])), inputs)
        assert np.all(grads["feat"][5:] == 0.0)
        assert np.all(np.any(grads["feat"][np.unique(idx)] != 0.0, axis=-1))

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("s", [1, 2, 8])
    def test_triplane_sample_is_the_chain_bit_for_bit(self, rng, s, k):
        inputs, idx = _triplane_inputs(rng, (4, 5, k), s)
        if s == 1:
            inputs = {"payload_flat": inputs["payload_flat"]}
        u = {f"u{j}": inputs.get(f"u{j}", np.zeros(idx.shape)) for j in range(3)}

        def bind(fn):
            return lambda payload_flat, **us: fn(payload_flat, s, idx, **{**u, **us})

        _assert_same(bind(g.triplane_sample), bind(triplane_chain), inputs,
                     rng.standard_normal((4, 5, k, 8)))

    @pytest.mark.parametrize("aliased", [False, True])
    def test_gaussian_frame_is_the_chain_bit_for_bit(self, rng, aliased):
        """Values and pose gradients equal the chain's, with u's exactly on
        the clip's kinks and ids repeated among the K neighbours; aliased,
        one leaf is the centres, angles and radii at once, so the order in
        which the three gathers' gradients reach it shows."""
        inputs, (origin, tdir, idx) = _frame_inputs(rng, (4, 5))
        us = np.stack(g.gaussian_frame(*inputs.values(), origin, tdir, idx,
                                       5.0, 1.0)[1:])
        assert np.any(us == 1.0) and np.any(us == -1.0)
        assert any(len(set(ids)) < len(ids) for ids in idx.reshape(-1, 3))
        if aliased:
            inputs = {"x": inputs["radii"]}

        def bind(fn):
            if aliased:
                return lambda x: fn(x, x, x, origin, tdir, idx, 5.0, 1.0)
            return lambda **pose: fn(**pose, origin=origin, tdir=tdir, idx=idx,
                                     eta=5.0, tau=1.0)

        _assert_same(bind(g.gaussian_frame), bind(gaussian_frame_chain), inputs,
                     tuple(rng.standard_normal((4, 4, 5, 3))))

    @pytest.mark.parametrize("n", [5, 4097])
    def test_the_chain_bit_for_bit_past_a_regather_block(self, rng, n):
        """triplane_sample's u-gradients gather the corners again in blocks
        of _REGATHER_ROWS rows, and gaussian_frame gathers per-Gaussian cos,
        sin and rotation entries: at a row count with a partial last block,
        both still equal the chain, with n Gaussians in the tables."""
        lead = (2, g._REGATHER_ROWS + 13)
        assert math.prod(lead) % g._REGATHER_ROWS != 0
        inputs, idx = _triplane_inputs(rng, lead, 8, n=n)

        def bind(fn):
            return lambda **leaves: fn(idx=idx, s=8, **leaves)
        _assert_same(bind(g.triplane_sample), bind(triplane_chain), inputs,
                     rng.standard_normal(lead + (8,)))
        inputs, (origin, tdir, idx) = _frame_inputs(rng, lead, n=n)

        def bind(fn):
            return lambda **pose: fn(**pose, origin=origin, tdir=tdir, idx=idx,
                                     eta=5.0, tau=1.0)
        _assert_same(bind(g.gaussian_frame), bind(gaussian_frame_chain), inputs,
                     tuple(rng.standard_normal((4,) + lead + (3,))))

    @pytest.mark.parametrize("n", [1, 96, 24_576])
    def test_rows_match_the_whole_batch(self, rng, n):
        """Each row's output and input gradient, computed alone, equals its
        row of the whole batch (every row when n <= 96, else 64 of them)."""
        mlp = _mlp_inputs(rng, (n,))
        tri, idx = _triplane_inputs(rng, (n,), 8)
        m4 = rng.standard_normal((n, 4))
        m_mlp = (m4[:, :3], m4[:, 3])
        m_tri = rng.standard_normal((n, 8))

        def mlp_op(feat):
            return g.shading_mlp(feat, *(mlp[k] for k in ("w1", "b1", "w2", "b2")), None)

        def tri_op(rows):
            return lambda u0, u1, u2: g.triplane_sample(tri["payload_flat"], 8,
                                                        idx[rows], u0, u1, u2)

        everything = slice(None)
        y_mlp, gr_mlp = _run(mlp_op, {"feat": mlp["feat"]}, m_mlp)
        us = {k: tri[k] for k in ("u0", "u1", "u2")}
        y_tri, gr_tri = _run(tri_op(everything), us, m_tri)
        rows = range(n) if n <= 96 else rng.choice(n, size=64, replace=False)
        for i in rows:
            r = slice(i, i + 1)
            y, gr = _run(mlp_op, {"feat": mlp["feat"][r]}, tuple(m[r] for m in m_mlp))
            for part, whole in zip(y, y_mlp, strict=True):
                np.testing.assert_array_equal(part, whole[r])
            np.testing.assert_array_equal(gr["feat"], gr_mlp["feat"][r])
            y, gr = _run(tri_op(r), {k: v[r] for k, v in us.items()}, m_tri[r])
            np.testing.assert_array_equal(y[0], y_tri[0][r])
            for k in us:
                np.testing.assert_array_equal(gr[k], gr_tri[k][r])

    def test_shading_mlp_fd_check(self, rng):
        inputs = _mlp_inputs(rng, (3, 2, 3), kinks=False)
        m = rng.standard_normal((3, 2, 3, 4))
        report = fd_check(lambda leaves: _weighted_sum(_rows_mlp(**leaves),
                                                       (m[..., :3], m[..., 3])),
                          inputs)
        for name, rep in report.items():
            assert rep.failures == [] and rep.checked > 0, name

    def test_indexed_shading_mlp_fd_check(self, rng):
        inputs = _mlp_inputs(rng, (5,), kinks=False)
        idx = rng.integers(0, 4, size=(3, 2, 3))
        m = rng.standard_normal((3, 2, 3, 4))
        report = fd_check(lambda leaves: _weighted_sum(
            g.shading_mlp(**leaves, idx=idx), (m[..., :3], m[..., 3])), inputs)
        for name, rep in report.items():
            assert rep.failures == [] and rep.checked > 0, name

    @pytest.mark.parametrize("s", [1, 2, 8])
    def test_triplane_sample_fd_check(self, rng, s):
        inputs, idx = _triplane_inputs(rng, (3, 2, 3), s, n=3, kinks=False)
        m = rng.standard_normal((3, 2, 3, 8))
        report = fd_check(
            lambda leaves: g.sum(g.mul(g.triplane_sample(
                leaves["payload_flat"], s, idx, leaves["u0"], leaves["u1"],
                leaves["u2"]), m)),
            inputs,
            subsample={"payload_flat": 256})
        for name, rep in report.items():
            assert rep.failures == [], name
            # with s == 1 the u's are not inputs: their gradients are zero
            assert rep.checked > 0 or (s == 1 and name != "payload_flat"), name


    def test_gaussian_frame_fd_check(self, rng):
        inputs, (origin, tdir, idx) = _frame_inputs(rng, (3, 2), kinks=False)
        m = tuple(rng.standard_normal((4, 3, 2, 3)))
        report = fd_check(
            lambda leaves: _weighted_sum(g.gaussian_frame(
                leaves["centers"], leaves["rotations"], leaves["radii"], origin,
                tdir, idx, 5.0, 1.0), m),
            inputs)
        for name, rep in report.items():
            assert rep.failures == [] and rep.checked > 0, name

    def test_triplane_sample_refuses_a_nan_coordinate(self):
        # a NaN would cast to a row index far out of range
        u = _Y.copy()
        u[1, 2] = np.nan
        with pytest.raises(NumericFailureError, match="NaN local coordinate"):
            g.triplane_sample(_PAYLOAD, 2, _IDX, -0.5 * _Y, u, _Y - 1.0)


class _CountingPool(ThreadPoolExecutor):
    """Two workers that count the calls submitted to them."""

    def __init__(self):
        super().__init__(2)
        self.calls = 0

    def submit(self, fn, /, *args, **kwargs):
        self.calls += 1
        return super().submit(fn, *args, **kwargs)


@contextmanager
def _split():
    """The fused ops on this thread split over two workers, as in fit_scene."""
    with _CountingPool() as pool, g._splitting(pool, 2):
        yield pool


def _split_rows(width: int) -> int:
    """An odd row count of width entries per row that two workers split in
    two uneven parts, each above the fewest a part takes."""
    return (2 * g._PART_ENTRIES // width + 7) | 1


def _assert_same_bits(a, b, name=""):
    a, b = np.asarray(a), np.asarray(b)
    assert (a.shape, a.dtype) == (b.shape, b.dtype), name
    assert a.tobytes() == b.tobytes(), name


def _assert_split_same(op, inputs, m):
    """op's taped values and every input gradient, made serially and split
    over two workers: the same bits, and the split ran on the pool."""
    y, grads = _run(op, inputs, m)
    with _split() as pool:
        y_split, grads_split = _run(op, inputs, m)
    assert pool.calls > 0
    for part, part_split in zip(y, y_split, strict=True):
        _assert_same_bits(part, part_split)
    for name in inputs:
        _assert_same_bits(grads[name], grads_split[name], name)


class TestSplitRows:
    """The fused ops split their rows over the workers of a fit's pool:
    every bit as made serially, errors raised as serially, and no split
    inside the pool's own tasks."""

    @pytest.mark.parametrize("indexed", [False, True])
    def test_shading_mlp_keeps_every_bit(self, rng, indexed):
        # with ids, the scatter's bincounts split too: as many rows again
        rows = _split_rows(1 if indexed else 32)
        inputs = _mlp_inputs(rng, (7,) if indexed else (rows,))
        idx = rng.integers(0, 5, size=rows) if indexed else None
        m = rng.standard_normal((rows, 4))
        _assert_split_same(lambda **leaves: g.shading_mlp(**leaves, idx=idx), inputs,
                           (m[:, :3], m[:, 3]))

    @pytest.mark.parametrize("s", [8, 1])
    def test_triplane_sample_keeps_every_bit(self, rng, s):
        lead = (_split_rows(12 if s > 1 else 3),)
        inputs, idx = _triplane_inputs(rng, lead, s)
        if s == 1:
            inputs = {"payload_flat": inputs["payload_flat"]}
        zeros = {f"u{j}": np.zeros(lead) for j in range(3)}
        _assert_split_same(
            lambda payload_flat, **us: g.triplane_sample(payload_flat, s, idx,
                                                         **{**zeros, **us}),
            inputs, rng.standard_normal(lead + (8,)))

    def test_gaussian_frame_keeps_every_bit(self, rng):
        lead = (_split_rows(3),)
        inputs, (origin, tdir, idx) = _frame_inputs(rng, lead)
        _assert_split_same(
            lambda **pose: g.gaussian_frame(**pose, origin=origin, tdir=tdir, idx=idx,
                                            eta=5.0, tau=1.0),
            inputs, tuple(rng.standard_normal((4,) + lead + (3,))))

    def test_more_workers_than_cores_keep_every_bit(self, rng):
        """Four parts on two cores, switching threads every microsecond:
        each part still writes only its own rows."""
        lead = (4 * g._PART_ENTRIES // 3 + 5,)
        inputs, (origin, tdir, idx) = _frame_inputs(rng, lead)
        m = tuple(rng.standard_normal((4,) + lead + (3,)))

        def op(**pose):
            return g.gaussian_frame(**pose, origin=origin, tdir=tdir, idx=idx,
                                    eta=5.0, tau=1.0)
        y, grads = _run(op, inputs, m)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool, g._splitting(pool, 4):
                assert len(g._row_parts(lead[0], 3)) == 4
                y_split, grads_split = _run(op, inputs, m)
        finally:
            sys.setswitchinterval(interval)
        for part, part_split in zip(y, y_split, strict=True):
            _assert_same_bits(part, part_split)
        for name in inputs:
            _assert_same_bits(grads[name], grads_split[name], name)

    def _lookup(self, rng, bad):
        """triplane_sample on rows split in two, with bad(u0, u1) applied."""
        lead = (_split_rows(12),)
        inputs, idx = _triplane_inputs(rng, lead, 8, kinks=False)
        bad(inputs["u0"], inputs["u1"])
        return lambda: g.triplane_sample(inputs["payload_flat"], 8, idx, inputs["u0"],
                                         inputs["u1"], inputs["u2"])

    def test_the_callers_errstate_reaches_a_worker_part(self, rng):
        # (u + 1) 0.5 7 overflows at u = 1e308, in the pool's part only
        lookup = self._lookup(rng, lambda u0, u1: u0.__setitem__(-1, 1e308))
        with _split() as pool, np.errstate(over="raise"):
            with pytest.raises(FloatingPointError, match="overflow"):
                lookup()
        assert pool.calls == 1

    def test_the_nan_guard_reaches_the_caller_unchanged(self, rng):
        lookup = self._lookup(rng, lambda u0, u1: u1.__setitem__(-1, np.nan))
        with pytest.raises(NumericFailureError) as serial:
            lookup()
        with _split() as pool:
            with pytest.raises(NumericFailureError) as split:
                lookup()
        assert pool.calls == 1
        assert type(split.value) is NumericFailureError
        assert str(split.value) == str(serial.value) == (
            "tri-plane lookup: NaN local coordinate")

    @pytest.mark.parametrize("first, last, raised", [
        (1e308, np.nan, FloatingPointError), (np.nan, 1e308, NumericFailureError)])
    def test_the_first_failing_part_is_raised(self, rng, first, last, raised):
        def bad(u0, u1):
            u0[0], u0[-1] = first, last
        lookup = self._lookup(rng, bad)
        with _split(), np.errstate(over="raise"):
            with pytest.raises(raised):
                lookup()

    def test_an_op_inside_a_pool_task_runs_serially(self, rng):
        lookup = self._lookup(rng, lambda u0, u1: None)
        serial = lookup()
        with _split() as pool:
            inside = pool.submit(lookup).result(timeout=60)
            assert pool.calls == 1
            lookup()
            assert pool.calls == 2
        _assert_same_bits(serial, inside)


class TestGradients:
    def test_quadratic_gradient_is_exact(self, rng):
        x0 = rng.standard_normal((4, 3))
        params = {"x": x0}
        got = gradients(lambda leaves: g.sum(g.mul(leaves["x"], leaves["x"])),
                        params)
        np.testing.assert_array_equal(got["x"], 2.0 * x0)

    def test_untouched_group_gets_zero_gradient(self, rng):
        params = {"used": rng.standard_normal(3), "dead": rng.standard_normal(5)}
        got = gradients(lambda leaves: g.sum(g.mul(leaves["used"], 2.0)), params)
        np.testing.assert_array_equal(got["dead"], np.zeros(5))

    def test_gradient_of_sum_is_sum_of_gradients(self, rng):
        x0 = rng.standard_normal(6)
        params = {"x": x0}

        def la(leaves):
            return g.sum(g.mul(sin(leaves["x"]), 2.0))

        def lb(leaves):
            return g.sum(g.exp(leaves["x"]))

        ga = gradients(la, params)["x"]
        gb = gradients(lb, params)["x"]
        gab = gradients(lambda leaves: g.add(la(leaves), lb(leaves)),
                        params)["x"]
        np.testing.assert_allclose(gab, ga + gb, rtol=0, atol=1e-15)

    def test_bit_identical_across_runs(self, rng):
        x0 = rng.standard_normal((8, 8))

        def loss(leaves):
            y = g.exp(g.mul(leaves["x"], 0.1))
            return g.sum(g.div(y, g.add(g.sum(y, axis=0), 1.0)))

        runs = [
            gradients(loss, {"x": x0.copy()})["x"]
            for _ in range(2)
        ]
        assert np.array_equal(runs[0], runs[1])

    def test_non_finite_loss_names_first_bad_op(self):
        params = {"x": np.array([-2.0])}
        with pytest.raises(NumericFailureError, match="log1p"):
            gradients(lambda leaves: g.sum(g.log1p(leaves["x"])), params)

    def test_non_finite_part_names_the_fused_op(self, rng):
        # a NaN centre makes every part of the frame NaN, and the loss reads
        # only the last one; a NaN opacity column of w2 leaves the color
        # part finite, so the scan must check every part
        inputs, (origin, tdir, idx) = _frame_inputs(rng, (3, 2), kinks=False)
        inputs["centers"][idx[0, 0, 0]] = np.nan
        with pytest.raises(NumericFailureError,
                           match="first bad op: gaussian_frame at tape position 0"):
            gradients(lambda leaves: g.sum(g.gaussian_frame(
                leaves["centers"], leaves["rotations"], leaves["radii"], origin,
                tdir, idx, 5.0, 1.0)[3]), inputs)
        mlp = _mlp_inputs(rng, (3, 2), kinks=False)
        mlp["w2"][:, 3] = np.nan
        with pytest.raises(NumericFailureError,
                           match="first bad op: shading_mlp at tape position 0"):
            gradients(lambda leaves: g.sum(_rows_mlp(**leaves)[1]), mlp)

    def test_rejects_non_scalar_and_non_var_losses(self):
        params = {"x": np.ones(3)}
        with pytest.raises(InvalidArgumentError):
            gradients(lambda leaves: leaves["x"], params)
        with pytest.raises(InvalidArgumentError):
            gradients(lambda leaves: 1.0, params)

    def test_no_tape_leak_outside_gradients(self):
        # ops on plain ndarrays return ndarrays, no recording side effects
        out = g.mul(np.ones(3), 2.0)
        assert isinstance(out, np.ndarray)


class TestFiniteDiff:
    def test_linear_loss_recovered_exactly(self):
        params = {"x": np.array([2.0])}
        fd = finite_diff(lambda arrs: g.mul(g.sum(arrs["x"]), 3.0), params)
        assert abs(fd["x"][0] - 3.0) < 1e-9

    def test_cubic_has_second_order_error(self):
        params = {"x": np.array([1.0])}

        def loss(arrs):
            x = arrs["x"]
            return g.sum(g.mul(g.mul(x, x), x))

        fd = finite_diff(loss, params, h=1e-4)
        # f'''/6 * h^2 term: 3 + 1e-8
        assert abs(fd["x"][0] - 3.0) < 1e-7
        assert fd["x"][0] > 3.0

    def test_fd_check_excludes_kink_scalars(self):
        params = {"x": np.array([0.0, 1.0])}
        report = fd_check(lambda arrs: g.sum(g.relu(arrs["x"])), params)
        rep = report["x"]
        assert isinstance(rep, FDGroupReport)
        assert rep.excluded == 1
        assert rep.checked == 1
        assert rep.failures == []

    def test_fd_check_flags_a_wrong_gradient(self):
        # absolute() with a deliberately shifted input has gradient sign(x),
        # compare against a loss whose true slope is 2x
        params = {"x": np.array([0.7])}

        class Lying:
            def __call__(self, leaves):
                x = leaves["x"]
                if isinstance(x, g.Var):
                    return g.sum(g.mul(g.absolute(x), 1.0))
                return g.sum(np.asarray(x) ** 2)

        report = fd_check(Lying(), params)
        assert len(report["x"].failures) == 1

    def test_subsample_limits_checked_scalars(self, rng):
        params = {"x": rng.standard_normal(100)}
        report = fd_check(lambda arrs: g.sum(g.mul(arrs["x"], arrs["x"])),
                          params, subsample={"x": 10})
        assert report["x"].checked + report["x"].excluded == 10


LR = {"x": 0.1}


class TestAdamW:
    def test_first_step_moves_by_lr_times_sign(self):
        params = {"x": np.array([1.0, 1.0])}
        grads = {"x": np.array([0.5, -2.0])}
        state = adamw_state(params)
        adamw_step(params, grads, state, LR, 1.0)
        np.testing.assert_allclose(params["x"], [0.9, 1.1], atol=1e-8)
        assert state.step == 1

    def test_each_group_steps_by_its_own_rate(self):
        params = {"a": np.array([1.0, 1.0]), "b": np.array([1.0, 1.0])}
        grads = {"a": np.array([0.5, -2.0]), "b": np.array([0.5, -2.0])}
        adamw_step(params, grads, adamw_state(params), {"a": 0.1, "b": 1e-3}, 1.0)
        np.testing.assert_allclose(params["a"], [0.9, 1.1], atol=1e-8)
        np.testing.assert_allclose(params["b"], [0.999, 1.001], atol=1e-10)

    def test_zero_grads_leave_params_but_advance_step(self):
        params = {"x": np.array([3.0])}
        grads = {"x": np.zeros(1)}
        state = adamw_state(params)
        adamw_step(params, grads, state, LR, 1.0)
        np.testing.assert_array_equal(params["x"], [3.0])
        assert state.step == 1

    def test_converges_on_quadratic(self):
        params = {"x": np.array([1.0])}
        state = adamw_state(params)
        for _ in range(200):
            grads = {"x": 2.0 * params["x"]}
            adamw_step(params, grads, state, LR, 1.0)
        assert abs(params["x"][0]) < 1e-2

    def test_lr_scale_halves_first_update(self):
        def run(scale):
            params = {"x": np.array([1.0])}
            grads = {"x": np.array([1.0])}
            adamw_step(params, grads, adamw_state(params), LR, scale)
            return 1.0 - params["x"][0]

        np.testing.assert_allclose(run(0.5), 0.5 * run(1.0), rtol=1e-12)

    def test_non_finite_gradient_rejected(self):
        params = {"x": np.array([1.0])}
        grads = {"x": np.array([np.inf])}
        with pytest.raises(NumericFailureError, match="x"):
            adamw_step(params, grads, adamw_state(params), LR, 1.0)

    def test_defaults_match_training_recipe(self):
        # two steps of the closed form with beta1 0.9, beta2 0.999, eps 1e-8
        # and no weight decay
        params = {"x": np.array([1.0])}
        state = adamw_state(params)
        assert isinstance(state, AdamWState)
        x, m, v = 1.0, 0.0, 0.0
        for t, grad in enumerate((0.5, -2.0), start=1):
            adamw_step(params, {"x": np.array([grad])}, state, LR, 1.0)
            m = 0.9 * m + 0.1 * grad
            v = 0.999 * v + 0.001 * grad * grad
            x -= 0.1 * (m / (1 - 0.9 ** t)) / (np.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            assert params["x"][0] == pytest.approx(x, rel=1e-12)
        assert state.step == 2
