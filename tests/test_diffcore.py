import gc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from koafusion import diffcore as dc
from koafusion.diffcore import Tensor, grad_check
from koafusion.errors import ContractViolation, NonFiniteValue

SEEDS = range(10)


def leaf(rng, shape, lo=-2.0, hi=2.0):
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


class TestBackwardBasics:
    def test_chain_rule_scalar(self):
        x = Tensor(3.0, requires_grad=True)
        y = (x * x + x) * Tensor(2.0)
        y.backward()
        assert_allclose(x.grad, 14.0)  # d/dx 2(x^2 + x) = 4x + 2

    def test_grad_accumulates_over_reuse(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x * x  # x used three times through two muls
        y.backward()
        assert_allclose(x.grad, 12.0)

    def test_backward_requires_scalar_root(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ContractViolation):
            (x * x).backward()

    def test_double_backward_guarded(self):
        x = Tensor(1.0, requires_grad=True)
        y = x * x
        y.backward()
        with pytest.raises(ContractViolation):
            y.backward()

    def test_backward_consumes_interior_nodes_and_leaves_keep_gradients(self):
        rng = np.random.default_rng(0)
        x, w = leaf(rng, (2, 3)), leaf(rng, (3, 4))
        h = dc.relu(dc.matmul(x, w))
        root = dc.tensor_sum(h * h + h)
        nodes = dc.tape(root)
        interior = [t for t in nodes if t._vjps]
        assert len(interior) == 5 and {id(x), id(w)} == {id(t) for t in nodes if not t._vjps}
        root.backward()
        for node in interior:
            assert node._vjps is None and node.grad is None
        for t in (x, w):
            assert t._vjps == () and t.grad is not None and t.grad.shape == t.data.shape

    def test_backward_through_consumed_subgraph_refused(self):
        x = Tensor(np.array([0.5, -1.0]), requires_grad=True)
        h = x * x
        dc.tensor_sum(h).backward()
        with pytest.raises(ContractViolation):
            dc.tensor_sum(h * h).backward()

    def test_no_grad_graph_rejected_at_root(self):
        y = Tensor(1.0) * Tensor(2.0)
        with pytest.raises(ContractViolation):
            y.backward()

    def test_tape_is_topologically_ordered(self):
        x = Tensor(1.0, requires_grad=True)
        a = x * x
        b = a + x
        c = b * a
        order = dc.tape(c)
        pos = {id(t): i for i, t in enumerate(order)}
        assert pos[id(x)] < pos[id(a)] < pos[id(b)] < pos[id(c)]

    def test_broadcast_add_sums_gradient(self):
        b = Tensor(np.zeros(3), requires_grad=True)
        x = Tensor(np.ones((4, 3)))
        y = dc.tensor_sum(x + b)
        y.backward()
        assert_allclose(b.grad, np.full(3, 4.0))


def _live_tensors() -> int:
    return sum(isinstance(o, Tensor) for o in gc.get_objects())


def _grad_leaf(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


# every op with a backward, each on x and (where it takes one) one more input
# that requires a gradient too
_LIFETIME_OPS = [
    pytest.param(lambda x: x + _grad_leaf([1.0, -0.5, 0.25]), id="add"),
    pytest.param(lambda x: x * _grad_leaf([1.0, -0.5, 0.25]), id="mul"),
    pytest.param(lambda x: x / _grad_leaf([1.0, -0.5, 0.25]), id="div"),
    pytest.param(lambda x: x ** 3.0, id="power"),
    pytest.param(dc.exp, id="exp"),
    pytest.param(dc.log, id="log"),
    pytest.param(dc.relu, id="relu"),
    pytest.param(lambda x: dc.tensor_sum(x, axis=0), id="sum"),
    pytest.param(lambda x: dc.mean(x), id="mean"),
    pytest.param(lambda x: dc.reshape(x, (3, 1)), id="reshape"),
    pytest.param(lambda x: dc.transpose(dc.reshape(x, (1, 3)), (1, 0)), id="transpose"),
    pytest.param(lambda x: dc.concat([x, _grad_leaf([1.0])], axis=0), id="concat"),
    pytest.param(lambda x: dc.matmul(dc.reshape(x, (1, 3)), _grad_leaf(np.ones((3, 2)))), id="matmul"),
    pytest.param(lambda x: dc.conv2d(dc.reshape(x, (1, 1, 1, 3)), _grad_leaf(np.ones((2, 1, 1, 2))),
                                     _grad_leaf([0.0, 1.0])), id="conv2d"),
    pytest.param(lambda x: dc.global_average_pool(dc.reshape(x, (1, 1, 1, 3))), id="global_average_pool"),
    pytest.param(dc.softmax, id="softmax"),
    pytest.param(dc.log_softmax, id="log_softmax"),
    pytest.param(lambda x: dc.layer_norm(x, _grad_leaf([1.0, 2.0, 0.5]), _grad_leaf([0.0, 0.1, 0.2])),
                 id="layer_norm"),
    pytest.param(lambda x: dc.dropout(x, 0.5, np.random.default_rng(0)), id="dropout"),
    pytest.param(lambda x: dc.embedding(dc.reshape(x, (3, 1)), [2, 0, 2]), id="embedding"),
]


class TestGraphLifetime:
    @pytest.mark.parametrize("op", _LIFETIME_OPS)
    def test_graph_freed_without_cyclic_gc(self, op):
        # each backward closure must hold its inputs, never its own output:
        # out -> _backward -> out would keep a whole training graph alive
        # until the cyclic collector happens to run
        def step():
            x = Tensor(np.array([0.5, 1.5, 2.0]), requires_grad=True)
            dc.tensor_sum(op(x)).backward()
            return x.grad.copy()

        gc.collect()
        gc.disable()
        try:
            before = _live_tensors()
            step()
            after = _live_tensors()
        finally:
            gc.enable()
        assert after == before


class TestOperandVjps:
    """``_node`` runs the vector-Jacobian product of an operand only if it needs a gradient."""

    def test_vjp_of_constant_operand_never_runs(self):
        def refuse(g):
            raise AssertionError("vjp of an operand that needs no gradient was called")

        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]))
        out = dc._node(a.data * b.data, "mul", (a, lambda g: g * b.data), (b, refuse))
        assert [t for t, _ in out._vjps] == [a]
        dc.tensor_sum(out).backward()
        assert_allclose(a.grad, [3.0, 4.0])
        assert b.grad is None

    def test_node_without_gradient_operands_has_no_backward(self):
        out = dc._node(np.ones(2), "const", (Tensor(np.ones(2)), lambda g: g))
        assert not out.requires_grad and out._vjps == ()

    @pytest.mark.parametrize("stride, padding", [(1, 1), (2, 1), (2, 0)])
    def test_conv2d_weight_grad_same_without_input_grad(self, stride, padding):
        rng = np.random.default_rng(4)
        x, w, b = rng.normal(size=(3, 2, 7, 6)), rng.normal(size=(4, 2, 3, 3)), rng.normal(size=4)
        g = Tensor(rng.normal(size=dc.conv2d(Tensor(x), Tensor(w), stride=stride, padding=padding).shape))
        grads = []
        for x_grad in (True, False):
            xt = Tensor(x, requires_grad=x_grad)
            wt, bt = Tensor(w, requires_grad=True), Tensor(b, requires_grad=True)
            dc.tensor_sum(dc.conv2d(xt, wt, bt, stride=stride, padding=padding) * g).backward()
            assert (xt.grad is None) != x_grad
            grads.append((wt.grad, bt.grad))
        assert np.array_equal(grads[0][0], grads[1][0])
        assert np.array_equal(grads[0][1], grads[1][1])


class TestNanPolicy:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_forward_raises(self):
        with pytest.raises(NonFiniteValue):
            dc.log(Tensor(-1.0, requires_grad=True))
        with pytest.raises(NonFiniteValue):
            Tensor(1.0) / Tensor(0.0)
        with pytest.raises(NonFiniteValue):
            dc.exp(Tensor(1000.0))

    def test_nonfinite_constructor_raises(self):
        with pytest.raises(NonFiniteValue):
            Tensor(np.array([1.0, np.nan]))


class TestPrimitiveGradients:
    """Central-difference checks for every differentiable primitive."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_arithmetic(self, seed):
        rng = np.random.default_rng(seed)
        a = leaf(rng, (3, 4), lo=0.5, hi=2.5)  # divisor, keep away from zero
        b = leaf(rng, (3, 4))

        def fn(a, b):
            return dc.tensor_sum(a * b + b - b / a + (a + b) * Tensor(0.5))

        assert grad_check(fn, [a, b], eps=1e-6) < 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_exp_log_pow(self, seed):
        rng = np.random.default_rng(seed)
        a = leaf(rng, (5,), lo=0.2, hi=1.8)

        def fn(a):
            return dc.tensor_sum(dc.exp(a) + dc.log(a) + a ** 2.5 + a ** 0.0)

        assert grad_check(fn, [a], eps=1e-6) < 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_relu(self, seed):
        rng = np.random.default_rng(seed)
        a = leaf(rng, (4, 4))
        a.data[np.abs(a.data) < 1e-3] += 0.1  # keep coords away from the kink
        w = Tensor(rng.normal(size=(4, 4)))

        def fn(a):
            return dc.tensor_sum(dc.relu(a) * w)

        assert grad_check(fn, [a], eps=1e-5) < 1e-4

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matmul_2d_and_batched(self, seed):
        rng = np.random.default_rng(seed)
        a = leaf(rng, (3, 4))
        b = leaf(rng, (4, 2))
        c = leaf(rng, (2, 3, 4))
        d = leaf(rng, (2, 4, 2))
        w = Tensor(rng.normal(size=(2, 3, 2)))

        def fn(a, b, c, d):
            y1 = dc.tensor_sum(a @ b)
            y2 = dc.tensor_sum((c @ d) * w)
            return y1 + y2

        assert grad_check(fn, [a, b, c, d], eps=1e-6) < 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matmul_broadcast_batch(self, seed):
        rng = np.random.default_rng(seed)
        a = leaf(rng, (3, 4))  # broadcast against a batched rhs
        b = leaf(rng, (5, 4, 2))

        def fn(a, b):
            return dc.tensor_sum(a @ b)

        assert grad_check(fn, [a, b], eps=1e-6) < 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matmul_vector_cases(self, seed):
        rng = np.random.default_rng(seed)
        m = leaf(rng, (3, 4))
        v = leaf(rng, (4,))
        u = leaf(rng, (3,))
        w = Tensor(rng.normal(size=3))

        def fn(m, v, u):
            return dc.tensor_sum((m @ v) * w) + dc.tensor_sum(u @ m)

        assert grad_check(fn, [m, v, u], eps=1e-6) < 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv2d(self, seed):
        rng = np.random.default_rng(seed)
        x = leaf(rng, (2, 2, 5, 5))
        w = leaf(rng, (3, 2, 3, 3))
        b = leaf(rng, (3,))

        def fn(x, w, b):
            return dc.tensor_sum(dc.conv2d(x, w, b, stride=2, padding=1) ** 2.0)

        assert grad_check(fn, [x, w, b], eps=1e-6) < 1e-5

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "kernel, stride, padding",
        [(3, 1, 1), (1, 2, 0), (3, (1, 2), (0, 1))],
        ids=["encoder_conv2", "encoder_skip", "tuple_stride_padding"],
    )
    def test_conv2d_stride_padding(self, seed, kernel, stride, padding):
        rng = np.random.default_rng(seed)
        x = leaf(rng, (2, 2, 5, 6))
        w = leaf(rng, (3, 2, kernel, kernel))
        b = leaf(rng, (3,))

        def fn(x, w, b):
            return dc.tensor_sum(dc.conv2d(x, w, b, stride=stride, padding=padding) ** 2.0)

        assert grad_check(fn, [x, w, b], eps=1e-6) < 1e-5

    @pytest.mark.parametrize("seed", SEEDS)
    def test_softmax_and_log_softmax(self, seed):
        rng = np.random.default_rng(seed)
        x = leaf(rng, (4, 5))
        w = Tensor(rng.normal(size=(4, 5)))

        def fn(x):
            return dc.tensor_sum(dc.softmax(x) * w) + dc.tensor_sum(dc.log_softmax(x) * w)

        assert grad_check(fn, [x], eps=1e-6) < 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_layer_norm(self, seed):
        rng = np.random.default_rng(seed)
        x = leaf(rng, (3, 6))
        g = leaf(rng, (6,), lo=0.5, hi=1.5)
        b = leaf(rng, (6,))
        w = Tensor(rng.normal(size=(3, 6)))

        def fn(x, g, b):
            return dc.tensor_sum(dc.layer_norm(x, g, b) * w)

        assert grad_check(fn, [x, g, b], eps=1e-6) < 1e-5

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reductions_and_reshapes(self, seed):
        rng = np.random.default_rng(seed)
        x = leaf(rng, (2, 3, 4))

        def fn(x):
            y = dc.tensor_sum(x, axis=1, keepdims=True)
            z = dc.transpose(dc.reshape(x, (6, 4)), (1, 0))
            m = dc.mean(x, axis=(0, 2))
            return dc.tensor_sum(y) + dc.tensor_sum(z ** 2.0) + dc.tensor_sum(m * m)

        assert grad_check(fn, [x], eps=1e-6) < 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_concat_and_gap(self, seed):
        rng = np.random.default_rng(seed)
        a = leaf(rng, (2, 3))
        b = leaf(rng, (2, 2))
        x = leaf(rng, (2, 3, 4, 4))

        def fn(a, b, x):
            joined = dc.concat([a, b], axis=1)
            return dc.tensor_sum(joined ** 2.0) + dc.tensor_sum(dc.global_average_pool(x))

        assert grad_check(fn, [a, b, x], eps=1e-6) < 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_embedding(self, seed):
        rng = np.random.default_rng(seed)
        table = leaf(rng, (7, 4))
        idx = rng.integers(0, 7, size=6)

        def fn(table):
            return dc.tensor_sum(dc.embedding(table, idx) ** 2.0)

        assert grad_check(fn, [table], eps=1e-6) < 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dropout_fixed_mask(self, seed):
        rng = np.random.default_rng(seed)
        x = leaf(rng, (6, 6))

        def fn(x):
            # fresh generator per call keeps the mask identical across evals
            return dc.tensor_sum(dc.dropout(x, 0.4, np.random.default_rng(123), training=True))

        assert grad_check(fn, [x], eps=1e-6) < 1e-6

    def test_div_and_power_edge_rules(self):
        x = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        y = dc.tensor_sum(x ** 0.0)
        y.backward()
        assert_allclose(x.grad, [0.0, 0.0])  # constant-one has zero gradient


def _pair(v):
    return (v, v) if isinstance(v, int) else v


def _reference_conv2d(x, w, b, stride, padding, g):
    """The conv2d that ``dc.conv2d`` replaced: a kh*kw copy loop for im2col, an
    einsum weight gradient and a kh*kw col2im loop.  Returns (out, dx, dw, db)
    for the upstream gradient ``g``."""
    (sh, sw), (ph, pw) = _pair(stride), _pair(padding)
    b_n, c, h, wd = x.shape
    o, _, kh, kw = w.shape
    ho, wo = (h + 2 * ph - kh) // sh + 1, (wd + 2 * pw - kw) // sw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((b_n, c, kh, kw, ho, wo))
    for i in range(kh):
        for j in range(kw):
            cols[:, :, i, j] = xp[:, :, i : i + sh * ho : sh, j : j + sw * wo : sw]
    cols2 = cols.reshape(b_n, c * kh * kw, ho * wo)
    w2 = w.reshape(o, c * kh * kw)
    out = (w2 @ cols2).reshape(b_n, o, ho, wo) + b.reshape(1, o, 1, 1)
    g2 = g.reshape(b_n, o, ho * wo)
    dw = np.einsum("bol,bkl->ok", g2, cols2).reshape(w.shape)
    dcols = (w2.T @ g2).reshape(b_n, c, kh, kw, ho, wo)
    dxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i : i + sh * ho : sh, j : j + sw * wo : sw] += dcols[:, :, i, j]
    return out, dxp[:, :, ph : ph + h, pw : pw + wd], dw, g.sum(axis=(0, 2, 3))


class TestConv2dOracle:
    """The strided-window im2col and GEMM weight gradient against the loop
    reference: output, dx and db bit-identical, dw at rounding level (the
    weight-gradient sum is reordered).  The examples are the encoder's own
    shapes on both sides of dx's layout rule (batch innermost when the batch is
    longer than an output plane), and the rule's edges."""

    @settings(max_examples=150, deadline=None)
    @example(dims=(64, 8, 8, 5, 5, 3, 3), stride=1, padding=1, seed=0)  # batch inner
    @example(dims=(96, 16, 32, 4, 4, 3, 3), stride=2, padding=1, seed=1)  # batch inner
    @example(dims=(12, 2, 3, 3, 7, 3, 3), stride=(1, 2), padding=(1, 0), seed=2)  # batch inner, 3x3 plane
    @example(dims=(26, 2, 3, 5, 5, 3, 3), stride=1, padding=1, seed=3)  # batch one longer than the plane
    @example(dims=(25, 2, 3, 5, 5, 3, 3), stride=1, padding=1, seed=4)  # batch == plane: rows inner
    @example(dims=(5, 2, 3, 5, 5, 3, 3), stride=1, padding=1, seed=5)  # batch == row: rows inner
    @example(dims=(16, 16, 16, 9, 9, 3, 3), stride=1, padding=1, seed=6)  # row < batch < plane: rows inner
    @example(dims=(16, 8, 8, 18, 18, 3, 3), stride=1, padding=1, seed=7)  # rows inner
    @given(
        dims=st.tuples(*[st.integers(1, 4)] * 3, *[st.integers(1, 9)] * 2, *[st.integers(1, 3)] * 2),
        stride=st.one_of(st.integers(1, 2), st.tuples(st.integers(1, 2), st.integers(1, 2))),
        padding=st.one_of(st.integers(0, 2), st.tuples(st.integers(0, 2), st.integers(0, 2))),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_loop_reference(self, dims, stride, padding, seed):
        b_n, c, o, h, wd, kh, kw = dims
        (sh, sw), (ph, pw) = _pair(stride), _pair(padding)
        ho, wo = (h + 2 * ph - kh) // sh + 1, (wd + 2 * pw - kw) // sw + 1
        assume(ho >= 1 and wo >= 1)
        rng = np.random.default_rng(seed)
        x, w, b = rng.normal(size=(b_n, c, h, wd)), rng.normal(size=(o, c, kh, kw)), rng.normal(size=o)
        g = rng.normal(size=(b_n, o, ho, wo))
        ref_out, ref_dx, ref_dw, ref_db = _reference_conv2d(x, w, b, stride, padding, g)

        xt, wt, bt = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
        out = dc.conv2d(xt, wt, bt, stride=stride, padding=padding)
        dc.tensor_sum(out * Tensor(g)).backward()
        assert np.array_equal(out.data, ref_out)
        assert np.array_equal(xt.grad, ref_dx)
        assert np.array_equal(bt.grad, ref_db)
        assert_allclose(wt.grad, ref_dw, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("b_n, hw, stride1", [(64, 5, 1), (64, 5, 2), (96, 8, 2), (4, 9, 1)])
    def test_conv_relu_conv_chain_gradients_ignore_dx_layout(self, b_n, hw, stride1):
        """The first convolution's weight and bias gradients in x -> conv -> relu
        -> conv match those it gets from the loop reference's C-ordered dx of the
        second convolution, on both sides of dx's layout rule (the first three
        shapes put the batch innermost)."""
        rng = np.random.default_rng(b_n + hw + stride1)
        x = rng.normal(size=(b_n, 4, hw, hw))
        w1, b1 = rng.normal(size=(8, 4, 3, 3)), rng.normal(size=8)
        w2, b2 = rng.normal(size=(8, 8, 3, 3)), rng.normal(size=8)
        ho = (hw - 1) // stride1 + 1
        out1 = _reference_conv2d(x, w1, b1, stride1, 1, np.zeros((b_n, 8, ho, ho)))[0]
        g = rng.normal(size=out1.shape)
        ref_dr = _reference_conv2d(np.maximum(out1, 0.0), w2, b2, 1, 1, g)[1]

        def first_conv_grads(head, upstream):
            w1t, b1t = Tensor(w1.copy(), requires_grad=True), Tensor(b1.copy(), requires_grad=True)
            r = dc.relu(dc.conv2d(Tensor(x), w1t, b1t, stride=stride1, padding=1))
            dc.tensor_sum(head(r) * Tensor(upstream)).backward()
            return w1t.grad, b1t.grad

        chain_dw, chain_db = first_conv_grads(
            lambda r: dc.conv2d(r, Tensor(w2), Tensor(b2), stride=1, padding=1), g)
        ref_dw, ref_db = first_conv_grads(lambda r: r, ref_dr)
        assert np.array_equal(chain_db, ref_db)
        assert np.array_equal(chain_dw, ref_dw)
        assert np.array_equal(chain_db, (ref_dr * (out1 > 0.0)).sum(axis=(0, 2, 3)))

    @pytest.mark.parametrize("stride", [0, -1, (0, 1), (1, 0), (2, -2)])
    def test_stride_below_one_refused(self, stride):
        with pytest.raises(ContractViolation, match="stride"):
            dc.conv2d(Tensor(np.ones((1, 1, 4, 4))), Tensor(np.ones((1, 1, 3, 3))), stride=stride, padding=1)

    @pytest.mark.parametrize("kernel, padding", [(1, -1), (3, (1, -1)), (3, (-1, 1))])
    def test_negative_padding_refused(self, kernel, padding):
        with pytest.raises(ContractViolation, match="padding"):
            dc.conv2d(Tensor(np.ones((1, 1, 5, 5))), Tensor(np.ones((1, 1, kernel, kernel))), padding=padding)


class TestDropoutSemantics:
    def test_eval_mode_is_identity(self):
        x = Tensor(np.ones((3, 3)), requires_grad=True)
        assert dc.dropout(x, 0.5, training=False) is x

    def test_inverted_scaling_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones(2000))
        out = dc.dropout(x, 0.25, rng, training=True)
        assert abs(out.data.mean() - 1.0) < 0.05

    def test_training_requires_rng(self):
        with pytest.raises(ContractViolation):
            dc.dropout(Tensor(np.ones(3)), 0.5, training=True)


class TestGradCheckApi:
    def test_subsampling_bounds_coordinates(self):
        rng = np.random.default_rng(0)
        x = leaf(rng, (50,))
        calls = {"n": 0}

        def fn(x):
            calls["n"] += 1
            return dc.tensor_sum(x * x)

        err = grad_check(fn, [x], max_coords=5)
        assert err < 1e-6
        assert calls["n"] == 1 + 2 * 5  # one analytic pass + 2 per coordinate

    def test_detects_wrong_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)

        def fn(x):
            out = dc.tensor_sum(x * x)
            return Tensor(out.data, _vjps=((x, lambda g: np.zeros_like(x.data)),), _op="broken")

        assert grad_check(fn, [x]) > 0.5
