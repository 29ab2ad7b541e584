"""Reverse-mode autodiff: op semantics, gradients, and the test-side checker.

The engine keeps only `Tensor`, `Parameter` and `backward`. The ops it
once had are tested here from the oracles that now hold them: the
network's ops from tests/network_reference.py, the loss-only ops (add,
sub, neg, scale, exp, tsum, slice_last, cross_entropy_logits) from
tests/loss_reference.py.
"""

from __future__ import annotations

import numpy as np
import pytest

from headpose import autodiff as ad

from autodiff_reference import add_const, grad_check, log
from loss_reference import add, cross_entropy_logits, exp, neg, scale, slice_last, sub, tsum
from network_reference import concat, conv1d, dense, flatten, leaky_relu, mul, sigmoid

# op-level checks use a tiny floor so nothing hides under the default
STRICT = dict(epsilon=1e-6, floor=1e-10)


def check(build, params, tol=1e-6):
    worst = grad_check(build, params, **STRICT)
    assert worst < tol, f"worst relative gradient error {worst}"


class TestElementOps:
    def test_add_sub_mul_neg_values(self):
        a = ad.Tensor([1.0, 2.0])
        b = ad.Tensor([3.0, 5.0])
        assert add(a, b).data.tolist() == [4.0, 7.0]
        assert sub(a, b).data.tolist() == [-2.0, -3.0]
        assert mul(a, b).data.tolist() == [3.0, 10.0]
        assert neg(a).data.tolist() == [-1.0, -2.0]
        assert scale(a, 2.5).data.tolist() == [2.5, 5.0]
        assert add_const(a, 1.0).data.tolist() == [2.0, 3.0]

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            add(ad.Tensor([1.0]), ad.Tensor([1.0, 2.0]))

    def test_element_op_gradients(self):
        rng = np.random.default_rng(0)
        a = ad.Tensor(rng.normal(size=(3, 4)))
        b = ad.Tensor(rng.normal(size=(3, 4)))
        check(lambda: tsum(mul(add(a, b), sub(a, b))), [a, b])
        check(lambda: tsum(scale(neg(a), 1.7)), [a])
        check(lambda: tsum(add_const(a, 3.0)), [a])

    def test_exp_log_sigmoid_gradients(self):
        rng = np.random.default_rng(1)
        a = ad.Tensor(rng.uniform(0.5, 2.0, size=(6,)))
        check(lambda: tsum(exp(a)), [a])
        check(lambda: tsum(log(a)), [a])
        check(lambda: tsum(sigmoid(a)), [a])

    def test_leaky_relu_values_and_gradient(self):
        a = ad.Tensor([-2.0, 0.0, 3.0])
        out = leaky_relu(a, 0.01)
        assert out.data.tolist() == [-0.02, 0.0, 3.0]
        # away from the kink the numeric check is clean
        b = ad.Tensor([-2.0, -0.5, 0.4, 3.0])
        check(lambda: tsum(leaky_relu(b, 0.01)), [b])

    def test_leaky_relu_zero_takes_positive_branch(self):
        a = ad.Tensor([0.0])
        out = leaky_relu(a, 0.01)
        out.backward()
        assert a.grad.tolist() == [1.0]

    def test_leaky_relu_bad_slope(self):
        with pytest.raises(ValueError):
            leaky_relu(ad.Tensor([1.0]), 0.0)

    def test_sigmoid_extremes_stay_finite(self):
        with np.errstate(over="raise"):
            out = sigmoid(ad.Tensor([-1000.0, 0.0, 1000.0]))
        assert out.data[0] == 0.0 and out.data[1] == 0.5 and out.data[2] == 1.0


class TestStructuredOps:
    def test_dense_forward_oracle(self):
        rng = np.random.default_rng(2)
        x, w, b = rng.normal(size=(1, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        out = dense(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b))
        assert np.allclose(out.data, x @ w + b, atol=1e-15)

    def test_dense_batched_matches_loop(self):
        rng = np.random.default_rng(3)
        xb, w, b = rng.normal(size=(6, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        out = dense(ad.Tensor(xb), ad.Tensor(w), ad.Tensor(b))
        for i in range(6):
            single = dense(ad.Tensor(xb[i : i + 1]), ad.Tensor(w), ad.Tensor(b))
            assert np.allclose(out.data[i], single.data[0], atol=1e-15)

    def test_dense_gradients(self):
        rng = np.random.default_rng(4)
        x = ad.Tensor(rng.normal(size=(1, 4)))
        w = ad.Tensor(rng.normal(size=(4, 3)))
        b = ad.Tensor(rng.normal(size=3))
        check(lambda: tsum(dense(x, w, b)), [x, w, b])
        xb = ad.Tensor(rng.normal(size=(5, 4)))
        check(lambda: tsum(dense(xb, w, b)), [xb, w, b])

    def test_dense_shape_validation(self):
        with pytest.raises(ValueError):
            dense(ad.Tensor(np.ones((1, 3))), ad.Tensor(np.ones((4, 2))), ad.Tensor(np.ones(2)))
        with pytest.raises(ValueError):
            dense(ad.Tensor(np.ones((1, 4))), ad.Tensor(np.ones((4, 2))), ad.Tensor(np.ones(3)))
        with pytest.raises(ValueError, match="does not match"):  # batches only
            dense(ad.Tensor(np.ones(4)), ad.Tensor(np.ones((4, 2))), ad.Tensor(np.ones(2)))

    def test_conv1d_width_one_is_per_position_affine(self):
        rng = np.random.default_rng(5)
        x, w, b = rng.normal(size=(1, 5)), rng.normal(size=(1, 4)), rng.normal(size=4)
        out = conv1d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b))
        assert out.shape == (1, 5, 4)
        assert np.allclose(out.data[0], np.outer(x[0], w[0]) + b, atol=1e-15)

    def test_conv1d_refuses_wider_kernels(self):
        # only the per-position (width-1) conv exists; a k=3 weight is refused
        x = ad.Tensor([[1.0, 2.0, 3.0, 4.0, 5.0]])
        with pytest.raises(ValueError, match="width-1"):
            conv1d(x, ad.Tensor(np.ones((3, 1))), ad.Tensor(np.zeros(1)))

    def test_conv1d_batched_matches_loop(self):
        rng = np.random.default_rng(6)
        xb = rng.normal(size=(4, 5))
        w, b = rng.normal(size=(1, 2)), rng.normal(size=2)
        out = conv1d(ad.Tensor(xb), ad.Tensor(w), ad.Tensor(b))
        assert out.shape == (4, 5, 2)
        for i in range(4):
            single = conv1d(ad.Tensor(xb[i : i + 1]), ad.Tensor(w), ad.Tensor(b))
            assert np.allclose(out.data[i], single.data[0], atol=1e-15)

    def test_conv1d_gradients(self):
        rng = np.random.default_rng(7)
        x = ad.Tensor(rng.normal(size=(1, 5)))
        w = ad.Tensor(rng.normal(size=(1, 2)))
        b = ad.Tensor(rng.normal(size=2))
        check(lambda: tsum(conv1d(x, w, b)), [x, w, b])
        xb = ad.Tensor(rng.normal(size=(4, 5)))
        check(lambda: tsum(conv1d(xb, w, b)), [xb, w, b])

    def test_conv1d_validation(self):
        ok = ad.Tensor(np.ones((1, 5)))
        with pytest.raises(ValueError):
            conv1d(ok, ad.Tensor(np.ones((2, 1))), ad.Tensor(np.ones(1)))
        with pytest.raises(ValueError):
            conv1d(ok, ad.Tensor(np.ones((3, 1))), ad.Tensor(np.ones(2)))
        with pytest.raises(ValueError):
            conv1d(ad.Tensor(np.ones((1, 3))), ad.Tensor(np.ones((5, 1))), ad.Tensor(np.ones(1)))
        with pytest.raises(ValueError, match="batch"):
            conv1d(ad.Tensor(np.ones(5)), ad.Tensor(np.ones((1, 1))), ad.Tensor(np.ones(1)))

    def test_flatten_concat_slice(self):
        rng = np.random.default_rng(8)
        a = ad.Tensor(rng.normal(size=(1, 5, 4)))
        assert flatten(a).shape == (1, 20)
        ab = ad.Tensor(rng.normal(size=(2, 5, 4)))
        assert flatten(ab).shape == (2, 20)
        assert flatten(ad.Tensor(np.zeros((0, 5, 4)))).shape == (0, 20)
        with pytest.raises(ValueError):
            flatten(ad.Tensor(np.ones(4)))
        cat = concat([ad.Tensor([1.0, 2.0]), ad.Tensor([3.0])])
        assert cat.data.tolist() == [1.0, 2.0, 3.0]
        sl = slice_last(cat, 1, 3)
        assert sl.data.tolist() == [2.0, 3.0]
        with pytest.raises(ValueError):
            concat([])

    def test_flatten_concat_slice_gradients(self):
        rng = np.random.default_rng(9)
        a = ad.Tensor(rng.normal(size=(3, 4)))
        b = ad.Tensor(rng.normal(size=(3, 2)))
        check(lambda: tsum(slice_last(concat([a, b]), 2, 5)), [a, b])
        c = ad.Tensor(rng.normal(size=(2, 3, 2)))
        check(lambda: tsum(flatten(c)), [c])


class TestCrossEntropy:
    def test_uniform_logits_give_log_n(self):
        out = cross_entropy_logits(ad.Tensor(np.zeros((2, 66))), np.array([0, 65]))
        assert np.allclose(out.data, np.log(66.0), atol=1e-12)

    def test_matches_log_softmax(self):
        rng = np.random.default_rng(10)
        z = rng.normal(size=(4, 7))
        idx = np.array([0, 3, 6, 2])
        out = cross_entropy_logits(ad.Tensor(z), idx)
        logp = z - np.log(np.exp(z - z.max(axis=1, keepdims=True)).sum(axis=1, keepdims=True)) - z.max(axis=1, keepdims=True)
        expect = -logp[np.arange(4), idx]
        assert np.allclose(out.data, expect, atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        z = rng.normal(size=(3, 5))
        idx = np.array([1, 4, 0])
        a = cross_entropy_logits(ad.Tensor(z), idx).data
        b = cross_entropy_logits(ad.Tensor(z + 1000.0), idx).data
        assert np.allclose(a, b, atol=1e-9)

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(12)
        z = ad.Tensor(rng.normal(size=(3, 5)))
        idx = np.array([1, 4, 0])
        out = tsum(cross_entropy_logits(z, idx))
        out.backward()
        ez = np.exp(z.data - z.data.max(axis=1, keepdims=True))
        soft = ez / ez.sum(axis=1, keepdims=True)
        soft[np.arange(3), idx] -= 1.0
        assert np.allclose(z.grad, soft, atol=1e-12)
        check(lambda: tsum(cross_entropy_logits(z, idx)), [z])

    def test_validation(self):
        with pytest.raises(ValueError):
            cross_entropy_logits(ad.Tensor(np.zeros(5)), np.array([0]))
        with pytest.raises(ValueError):
            cross_entropy_logits(ad.Tensor(np.zeros((2, 5))), np.array([0]))


class TestBackward:
    def test_non_scalar_raises(self):
        with pytest.raises(ValueError):
            ad.Tensor([1.0, 2.0]).backward()

    def test_diamond_graph_accumulates(self):
        x = ad.Tensor([3.0])
        y = tsum(add(mul(x, x), x))  # x^2 + x
        y.backward()
        assert x.grad.tolist() == [7.0]  # 2x + 1

    def test_reuse_across_branches(self):
        x = ad.Tensor(np.array([2.0, -1.0]))
        shared = exp(x)
        y = tsum(add(shared, mul(shared, shared)))  # e^x + e^2x
        y.backward()
        expect = np.exp(x.data) + 2.0 * np.exp(2.0 * x.data)
        assert np.allclose(x.grad, expect, atol=1e-12)

    def test_zero_grad(self):
        x = ad.Tensor([1.0])
        tsum(x).backward()
        assert x.grad is not None
        x.zero_grad()
        assert x.grad is None

    def test_parameter_gradient_stays_in_shared_storage(self):
        rng = np.random.default_rng(9)
        values, grads = rng.normal(size=6), np.zeros(6)
        w = ad.Parameter(values[2:6].reshape(2, 2), grads[2:6].reshape(2, 2))
        plain = ad.Tensor(values[2:6].reshape(2, 2).copy())
        x = ad.Tensor(rng.normal(size=(3, 2)))
        for _ in range(2):  # the second pass starts from zero_grad
            for t in (w, plain):
                t.zero_grad()
                tsum(mul(dense(x, t, ad.Tensor(np.zeros(2))), x)).backward()
            assert np.shares_memory(w.grad, grads) and np.shares_memory(w.data, values)
            assert np.array_equal(grads[2:6].reshape(2, 2), plain.grad)
            assert not grads[:2].any()

    def test_float64_coercion(self):
        t = ad.Tensor(np.array([1, 2], dtype=np.int32))
        assert t.data.dtype == np.float64


class TestGradCheck:
    def test_epsilon_and_floor_validation(self):
        p = ad.Tensor([1.0])
        fn = lambda: tsum(mul(p, p))
        with pytest.raises(ValueError):
            grad_check(fn, [p], epsilon=0.0)
        with pytest.raises(ValueError):
            grad_check(fn, [p], epsilon=0.1)
        with pytest.raises(ValueError):
            grad_check(fn, [p], floor=0.0)

    def test_needs_scalar(self):
        p = ad.Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            grad_check(lambda: p, [p])

    def test_detects_wrong_gradient(self):
        p = ad.Tensor([1.5])
        # claims d/dp = 1 while the value is p^2
        broken = lambda: ad.Tensor(p.data**2, (p,), lambda g: (g,))
        worst = grad_check(lambda: tsum(broken()), [p], epsilon=1e-6, floor=1e-10)
        assert worst > 0.1

    def test_sampled_subset_deterministic(self):
        rng_data = np.random.default_rng(13)
        p = ad.Tensor(rng_data.normal(size=100))
        fn = lambda: tsum(mul(p, p))
        a = grad_check(fn, [p], max_elements_per_param=10, rng=np.random.default_rng(7))
        b = grad_check(fn, [p], max_elements_per_param=10, rng=np.random.default_rng(7))
        assert a == b
