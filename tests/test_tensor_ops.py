"""Unit + gradcheck tests for free-function ops, sparse ops and losses."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.tensor import SparseMatrix, Tensor, gradcheck, ops, spmm
from repro.tensor import functional as F
from repro.tensor.tensor import parameter

RNG = np.random.default_rng(42)


def randp(*shape):
    return parameter(RNG.normal(size=shape))


def bits(a):
    """The raw bit patterns of a float array (tells −0.0 and NaNs apart)."""
    a = np.ascontiguousarray(a)
    return a.view({4: np.uint32, 8: np.uint64}[a.dtype.itemsize])


#: ±0.0, NaN of both signs and ±inf, each repeated across both mask outcomes.
SPECIALS = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf]


class TestActivations:
    def test_relu_values(self):
        out = ops.relu(Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])

    def test_relu_gradcheck(self):
        x = parameter(RNG.normal(size=(4, 3)) + 0.05)  # keep away from kink
        gradcheck(lambda: ops.relu(x).sum(), [x])

    def test_leaky_relu_values(self):
        out = ops.leaky_relu(Tensor([-1.0, 2.0]), negative_slope=0.1)
        np.testing.assert_allclose(out.data, [-0.1, 2.0])

    def test_leaky_relu_gradcheck(self):
        x = parameter(RNG.normal(size=(5,)) + 0.05)
        gradcheck(lambda: (ops.leaky_relu(x) ** 2).sum(), [x])

    def test_elu_values(self):
        out = ops.elu(Tensor([0.0, 1.0, -1.0]))
        np.testing.assert_allclose(out.data, [0.0, 1.0, np.expm1(-1.0)])

    def test_elu_gradcheck(self):
        x = parameter(RNG.normal(size=(5,)) + 0.05)
        gradcheck(lambda: ops.elu(x).sum(), [x])

    def test_sigmoid_extremes_stable(self):
        out = ops.sigmoid(Tensor([-1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.0, 1.0], atol=1e-12)

    def test_sigmoid_gradcheck(self):
        x = randp(4)
        gradcheck(lambda: ops.sigmoid(x).sum(), [x])

    def test_tanh_gradcheck(self):
        x = randp(4)
        gradcheck(lambda: ops.tanh(x).sum(), [x])

    def test_exp_log_inverse(self):
        x = Tensor([0.5, 1.0, 2.0])
        np.testing.assert_allclose(x.exp().log().data, x.data, rtol=1e-12)

    def test_log_gradcheck(self):
        x = parameter(np.abs(RNG.normal(size=(4,))) + 0.5)
        gradcheck(lambda: x.log().sum(), [x])


class TestSoftmax:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(RNG.normal(size=(5, 7)))
        out = ops.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), rtol=1e-12)

    def test_log_softmax_stability_large_logits(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        out = ops.log_softmax(x)
        np.testing.assert_allclose(out.data, np.log([[0.5, 0.5]]), rtol=1e-12)

    def test_log_softmax_gradcheck(self):
        x = randp(3, 4)
        w = RNG.normal(size=(3, 4))
        gradcheck(lambda: (ops.log_softmax(x) * Tensor(w)).sum(), [x])

    def test_softmax_gradcheck(self):
        x = randp(2, 5)
        w = RNG.normal(size=(2, 5))
        gradcheck(lambda: (ops.softmax(x) * Tensor(w)).sum(), [x])


class TestConcatStack:
    def test_concat_values(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.zeros((2, 3)))
        assert ops.concat([a, b], axis=1).shape == (2, 5)

    def test_concat_gradcheck(self):
        a, b = randp(2, 2), randp(2, 3)
        w = RNG.normal(size=(2, 5))
        gradcheck(lambda: (ops.concat([a, b], axis=1) * Tensor(w)).sum(), [a, b])

    def test_concat_axis0_grad_split(self):
        a, b = randp(2, 3), randp(4, 3)
        ops.concat([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.ones((4, 3)))

    def test_stack_shape(self):
        parts = [Tensor(np.ones((2, 3))) for _ in range(4)]
        assert ops.stack(parts, axis=0).shape == (4, 2, 3)

    def test_stack_gradcheck(self):
        a, b = randp(2, 3), randp(2, 3)
        w = RNG.normal(size=(2, 2, 3))
        gradcheck(lambda: (ops.stack([a, b], axis=0) * Tensor(w)).sum(), [a, b])

    def test_stack_then_max_is_maxpool(self):
        a = Tensor(np.array([[1.0, 9.0]]))
        b = Tensor(np.array([[5.0, 2.0]]))
        pooled = ops.stack([a, b], axis=0).max(axis=0)
        np.testing.assert_allclose(pooled.data, [[5.0, 9.0]])


class TestDropout:
    def test_eval_mode_identity(self):
        x = Tensor(np.ones((10, 10)))
        out = ops.dropout(x, 0.5, training=False)
        assert out is x

    def test_zero_rate_identity(self):
        x = Tensor(np.ones((4,)))
        assert ops.dropout(x, 0.0, training=True) is x

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            ops.dropout(Tensor(np.ones(3)), 1.0)

    def test_scaling_preserves_mean(self):
        rng = np.random.default_rng(7)
        x = Tensor(np.ones((200, 200)))
        out = ops.dropout(x, 0.5, training=True, rng=rng)
        assert abs(out.data.mean() - 1.0) < 0.02

    def test_grad_matches_mask(self):
        rng = np.random.default_rng(3)
        x = parameter(np.ones((50,)))
        out = ops.dropout(x, 0.5, training=True, rng=rng)
        out.sum().backward()
        np.testing.assert_allclose(x.grad, out.data)  # grad == keep mask scaling

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.8])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_match_float_mask_formula(self, dtype, p):
        # The formula dropout used to compute, with a float mask in x's dtype.
        def reference(data, rng):
            keep = ((rng.random(data.shape) >= p) / (1 - p)).astype(data.dtype)
            return data * keep, keep

        data = np.random.default_rng(11).standard_normal((64, 19)).astype(dtype)
        grad = np.random.default_rng(12).standard_normal(data.shape).astype(dtype)
        data.flat[:600] = np.resize(np.array(SPECIALS, dtype), 600)
        grad.flat[-600:] = np.resize(np.array(SPECIALS, dtype), 600)
        ref_rng, rng = np.random.default_rng(5), np.random.default_rng(5)
        with np.errstate(invalid="ignore"):
            ref_out, keep = reference(data, ref_rng)
            ref_grad = np.zeros_like(data)
            ref_grad += grad * keep
            x = Tensor(data.copy(), requires_grad=True)
            out = ops.dropout(x, p, training=True, rng=rng)
            out.backward(grad)
        # Each special value meets both a kept and a dropped entry.
        for window in (keep.flat[:600], keep.flat[-600:]):
            per_special = window.reshape(-1, len(SPECIALS))
            assert (per_special == 0).any(axis=0).all()
            assert (per_special != 0).any(axis=0).all()
        assert out.dtype == dtype and x.grad.dtype == dtype
        assert np.array_equal(bits(out.data), bits(ref_out))
        assert np.array_equal(bits(x.grad), bits(ref_grad))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestAccumulateGrad:
    """A first gradient is filled in one pass with the bits of zeros + grad."""

    @pytest.mark.parametrize(
        "data, grad",
        [
            (np.ones((3, 4)), np.full((3, 4), -0.0)),
            (np.ones((3, 4), np.float32), np.random.default_rng(1).normal(size=(3, 4))),
            (np.ones((3, 4)), np.random.default_rng(2).normal(size=4)),
            (np.ones((3, 4)), np.random.default_rng(3).normal(size=(1, 4)).astype(np.float32)),
        ],
        ids=["negative-zero", "float64-into-float32", "broadcast", "broadcast-upcast"],
    )
    def test_first_use_matches_zero_fill(self, data, grad):
        expected = np.zeros_like(data)
        expected += grad
        t = Tensor(data, requires_grad=True)
        t.accumulate_grad(grad)
        assert t.grad.dtype == data.dtype and t.grad.shape == data.shape
        assert np.array_equal(bits(t.grad), bits(expected))
        t.accumulate_grad(grad)
        expected += grad
        assert np.array_equal(bits(t.grad), bits(expected))

    def test_unbroadcastable_gradient_rejected(self):
        with pytest.raises(ValueError):
            Tensor(np.ones(3), requires_grad=True).accumulate_grad(np.ones((2, 3)))


class TestMaximumScatterSegment:
    def test_maximum_values(self):
        out = ops.maximum(Tensor([1.0, 5.0]), Tensor([3.0, 2.0]))
        np.testing.assert_allclose(out.data, [3.0, 5.0])

    def test_maximum_gradcheck(self):
        a = parameter(np.array([1.0, 5.0, -2.0]))
        b = parameter(np.array([3.0, 2.0, -1.0]))
        gradcheck(lambda: (ops.maximum(a, b) ** 2).sum(), [a, b])

    def test_scatter_rows_values(self):
        v = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = ops.scatter_rows(v, np.array([0, 0, 2]), num_rows=3)
        np.testing.assert_allclose(out.data, [[3.0], [0.0], [3.0]])

    def test_scatter_rows_gradcheck(self):
        v = randp(4, 2)
        idx = np.array([0, 1, 1, 2])
        w = RNG.normal(size=(3, 2))
        gradcheck(lambda: (ops.scatter_rows(v, idx, 3) * Tensor(w)).sum(), [v])

    def test_segment_softmax_normalizes_per_segment(self):
        logits = Tensor(RNG.normal(size=(6,)))
        seg = np.array([0, 0, 1, 1, 1, 2])
        out = ops.segment_softmax(logits, seg, 3)
        sums = np.zeros(3)
        np.add.at(sums, seg, out.data)
        np.testing.assert_allclose(sums, np.ones(3), rtol=1e-12)

    def test_segment_softmax_gradcheck(self):
        logits = randp(6)
        seg = np.array([0, 0, 1, 1, 1, 2])
        w = RNG.normal(size=(6,))
        gradcheck(
            lambda: (ops.segment_softmax(logits, seg, 3) * Tensor(w)).sum(), [logits]
        )


class TestSparse:
    def make_adj(self):
        data = sp.random(6, 6, density=0.4, random_state=1, format="csr")
        return SparseMatrix(data)

    def test_shape_and_nnz(self):
        m = self.make_adj()
        assert m.shape == (6, 6)
        assert m.nnz > 0

    def test_from_dense(self):
        m = SparseMatrix(np.eye(3))
        assert m.nnz == 3

    def test_rejects_1d_dense(self):
        with pytest.raises(ValueError):
            SparseMatrix(np.ones(3))

    def test_spmm_matches_dense(self):
        m = self.make_adj()
        h = Tensor(RNG.normal(size=(6, 4)))
        np.testing.assert_allclose(spmm(m, h).data, m.todense() @ h.data)

    def test_matmul_operator(self):
        m = self.make_adj()
        h = Tensor(RNG.normal(size=(6, 4)))
        np.testing.assert_allclose((m @ h).data, spmm(m, h).data)

    def test_spmm_gradcheck(self):
        m = self.make_adj()
        h = randp(6, 3)
        w = RNG.normal(size=(6, 3))
        gradcheck(lambda: (spmm(m, h) * Tensor(w)).sum(), [h])

    def test_power_identity(self):
        m = self.make_adj()
        np.testing.assert_allclose(m.power(0).todense(), np.eye(6))

    def test_power_two(self):
        m = self.make_adj()
        d = m.todense()
        np.testing.assert_allclose(m.power(2).todense(), d @ d, rtol=1e-10)

    def test_power_negative_rejected(self):
        with pytest.raises(ValueError):
            self.make_adj().power(-1)

    def test_transpose(self):
        m = self.make_adj()
        np.testing.assert_allclose(m.T.todense(), m.todense().T)


class TestLosses:
    def test_nll_matches_manual(self):
        logp = Tensor(np.log(np.array([[0.7, 0.3], [0.2, 0.8]])))
        targets = np.array([0, 1])
        expected = -(np.log(0.7) + np.log(0.8)) / 2
        assert abs(F.nll_loss(logp, targets).item() - expected) < 1e-12

    def test_nll_shape_mismatch(self):
        with pytest.raises(ValueError):
            F.nll_loss(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))

    def test_cross_entropy_gradcheck(self):
        logits = randp(5, 4)
        targets = np.array([0, 1, 2, 3, 1])
        gradcheck(lambda: F.cross_entropy(logits, targets), [logits])

    def test_cross_entropy_uniform(self):
        logits = Tensor(np.zeros((3, 4)))
        loss = F.cross_entropy(logits, np.array([0, 1, 2]))
        assert abs(loss.item() - np.log(4)) < 1e-12

    @staticmethod
    def _overconfident_logits(dtype):
        # Rows 0-5 carry a training margin of 95: every other class gets
        # probability exp(-95) ≈ 5.5e-42, below float32's smallest normal.
        # Rows 6-8 are ordinary logits whose gradient stays normal.
        targets = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0])
        data = np.random.default_rng(4).normal(size=(9, 4))
        data[:6] = 0.0
        data[np.arange(6), targets[:6]] = 95.0
        return data.astype(dtype), targets

    @staticmethod
    def _unflushed_grad(data, targets):
        # ``logits.grad`` of F.cross_entropy before the flush: the nll
        # backward, the plain log_softmax backward, a first accumulation.
        n = len(targets)
        softmax = np.exp(ops.log_softmax(Tensor(data)).data)
        upstream = np.zeros_like(data)
        upstream[np.arange(n), targets] = -np.ones((), data.dtype) / n
        grad = np.zeros_like(data)
        grad += upstream - softmax * upstream.sum(axis=-1, keepdims=True)
        return grad

    def test_float32_loss_gradient_flushes_subnormals(self):
        data, targets = self._overconfident_logits(np.float32)
        tiny = np.finfo(np.float32).tiny
        unflushed = self._unflushed_grad(data, targets)
        subnormal = (unflushed != 0) & (np.abs(unflushed) < tiny)
        assert subnormal.sum() == 18  # three classes in each of six rows
        logits = Tensor(data, requires_grad=True)
        F.cross_entropy(logits, targets).backward()
        grad = logits.grad
        assert grad.dtype == np.float32
        assert not ((grad != 0) & (np.abs(grad) < tiny)).any()
        assert (grad[subnormal] == 0).all()
        assert np.array_equal(np.signbit(grad[subnormal]), np.signbit(unflushed[subnormal]))
        assert np.array_equal(bits(grad[~subnormal]), bits(unflushed[~subnormal]))

    def test_float64_loss_gradient_unchanged(self):
        # exp(-95) is a normal float64, so nothing is flushed.
        data, targets = self._overconfident_logits(np.float64)
        logits = Tensor(data, requires_grad=True)
        F.cross_entropy(logits, targets).backward()
        assert np.array_equal(bits(logits.grad), bits(self._unflushed_grad(data, targets)))

    def test_bce_gradcheck(self):
        logits = randp(6)
        targets = (RNG.random(6) > 0.5).astype(float)
        gradcheck(
            lambda: F.binary_cross_entropy_with_logits(logits, targets), [logits]
        )

    def test_bce_extreme_logits_stable(self):
        loss = F.binary_cross_entropy_with_logits(
            Tensor(np.array([1000.0, -1000.0])), np.array([1.0, 0.0])
        )
        assert loss.item() < 1e-9

    def test_l2_penalty(self):
        a = parameter(np.array([3.0]))
        b = parameter(np.array([4.0]))
        assert F.l2_penalty([a, b]).item() == 25.0

    def test_l2_penalty_empty(self):
        assert F.l2_penalty([]).item() == 0.0

    def test_accuracy(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        assert F.accuracy(logits, np.array([0, 1, 1])) == pytest.approx(2 / 3)

    def test_micro_f1_equals_accuracy_single_label(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8]])
        t = np.array([0, 0])
        assert F.micro_f1(logits, t) == F.accuracy(logits, t)
