"""Tensor container, tape mechanics, and operation gradients."""

import numpy as np
import pytest

from ds2ta.errors import AxisError, DimensionError, LabelError
from ds2ta.tensorcore import (MAX_RANK, DiffTensor, Tape, Tensor, add, bias_add,
                              check_gradients, cross_entropy_logits, make_rng,
                              matmul, mul, reduce_mean, reduce_sum, reshape,
                              round_half_away, scale, sub, transpose)


def test_tensor_defaults_to_float64():
    t = Tensor([[1, 2], [3, 4]])
    assert t.dtype == np.float64
    assert t.shape == (2, 2)


def test_tensor_preserves_float32():
    t = Tensor(np.ones((2, 3), dtype=np.float32))
    assert t.dtype == np.float32


def test_tensor_scalar_stays_rank_zero():
    # A 0-d payload must not be promoted to shape (1,); scalar losses and
    # scalar parameters rely on this.
    t = Tensor(np.asarray(2.5))
    assert t.shape == ()
    assert float(t.data) == 2.5


def test_tensor_rejects_excess_rank():
    with pytest.raises(DimensionError):
        Tensor(np.zeros((1,) * (MAX_RANK + 1)))


def test_tensor_rejects_empty_extent():
    with pytest.raises(DimensionError):
        Tensor(np.zeros((2, 0, 3)))


def test_tensor_forces_contiguous_layout():
    base = np.arange(12, dtype=np.float64).reshape(3, 4)
    t = Tensor(base.T)  # transposed view is not C contiguous
    assert t.data.flags["C_CONTIGUOUS"]
    assert np.array_equal(t.data, base.T)


def test_make_rng_reproducible_and_keyed():
    a = make_rng(5).normal(size=8)
    b = make_rng(5).normal(size=8)
    c = make_rng(5, 1).normal(size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_round_half_away_from_zero():
    x = np.array([0.4, 0.5, 1.5, 2.5, -0.5, -1.5, -2.49])
    want = np.array([0.0, 1.0, 2.0, 3.0, -1.0, -2.0, -2.0])
    assert np.array_equal(round_half_away(x), want)


# ---------------------------------------------------------------- matmul


def test_matmul_matches_numpy_rank2():
    rng = make_rng(0)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    tape = Tape()
    out = matmul(tape.leaf(a), tape.leaf(b))
    assert np.allclose(out.value.data, a @ b)


def test_matmul_matches_numpy_batched():
    rng = make_rng(1)
    a, b = rng.normal(size=(2, 3, 4, 5)), rng.normal(size=(2, 3, 5, 6))
    tape = Tape()
    out = matmul(tape.leaf(a), tape.leaf(b))
    assert np.allclose(out.value.data, a @ b)


def test_matmul_collapsed_path_matches_batched_math():
    # A rank-2 right operand takes the single-GEMM fast path; its values
    # and gradients must agree with the general batched formulation.
    rng = make_rng(2)
    a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))
    g = rng.normal(size=(2, 3, 5))

    tape = Tape()
    la, lb = tape.leaf(a), tape.leaf(b)
    out = matmul(la, lb)
    out.accumulate_grad(g)
    tape.backward(out)
    da_want = g @ b.T
    db_want = np.einsum("bij,bik->jk", a, g)
    # backward seeds the root with an extra ones pass, so subtract it
    assert np.allclose(la.grad.data, da_want + np.ones_like(g) @ b.T)
    assert np.allclose(lb.grad.data, db_want + np.einsum("bij,bik->jk", a, np.ones_like(g)))


def test_matmul_gradients_rank2():
    rng = make_rng(3)
    rep = check_gradients(lambda a, b: reduce_mean(matmul(a, b)),
                          [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))])
    assert rep.passed, rep.failures[:3]


def test_matmul_gradients_batched_with_broadcast():
    rng = make_rng(4)
    rep = check_gradients(lambda a, b: reduce_mean(matmul(a, b)),
                          [rng.normal(size=(2, 1, 3, 4)), rng.normal(size=(1, 2, 4, 2))])
    assert rep.passed, rep.failures[:3]


def test_matmul_shape_validation():
    tape = Tape()
    with pytest.raises(DimensionError):
        matmul(tape.leaf(np.ones(3)), tape.leaf(np.ones((3, 2))))
    with pytest.raises(DimensionError):
        matmul(tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((4, 2))))
    with pytest.raises(DimensionError):
        matmul(tape.leaf(np.ones((3, 2, 4))), tape.leaf(np.ones((2, 4, 5))))


# ------------------------------------------------------------ elementwise


def test_elementwise_values():
    tape = Tape()
    x = tape.leaf(np.array([1.0, -2.0, 3.0]))
    y = tape.leaf(np.array([4.0, 5.0, -6.0]))
    assert np.array_equal(add(x, y).value.data, [5.0, 3.0, -3.0])
    assert np.array_equal(sub(x, y).value.data, [-3.0, -7.0, 9.0])
    assert np.array_equal(mul(x, y).value.data, [4.0, -10.0, -18.0])
    assert np.array_equal(scale(x, -2.0).value.data, [-2.0, 4.0, -6.0])


def test_elementwise_rejects_shape_mismatch():
    tape = Tape()
    with pytest.raises(DimensionError):
        add(tape.leaf(np.ones(3)), tape.leaf(np.ones(4)))


def test_elementwise_gradients():
    rng = make_rng(5)
    x, y = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
    for op in (add, sub, mul):
        rep = check_gradients(lambda a, b: reduce_sum(op(a, b)), [x, y])
        assert rep.passed, op.__name__
    rep = check_gradients(lambda a: reduce_sum(scale(a, 3.5)), [x])
    assert rep.passed


# -------------------------------------------------------------- reductions


def test_reduce_values_and_axes():
    rng = make_rng(6)
    x = rng.normal(size=(2, 3, 4))
    tape = Tape()
    leaf = tape.leaf(x)
    assert np.allclose(reduce_sum(leaf, axes=1).value.data, x.sum(axis=1))
    assert np.allclose(reduce_mean(leaf, axes=(0, 2)).value.data, x.mean(axis=(0, 2)))
    assert np.allclose(reduce_sum(leaf, axes=-1).value.data, x.sum(axis=-1))
    assert np.allclose(reduce_mean(leaf).value.data, x.mean())


def test_reduce_axis_validation():
    tape = Tape()
    leaf = tape.leaf(np.ones((2, 3)))
    with pytest.raises(AxisError):
        reduce_sum(leaf, axes=2)
    with pytest.raises(AxisError):
        reduce_sum(leaf, axes=(0, 0))
    with pytest.raises(AxisError):
        reduce_mean(leaf, axes=(1, -1))  # -1 aliases 1


def test_reduce_sum_backward_is_ones():
    """The gradient of a full sum is exactly one everywhere."""
    tape = Tape()
    leaf = tape.leaf(np.arange(6, dtype=np.float64).reshape(2, 3))
    out = reduce_sum(leaf)
    tape.backward(out)
    assert np.array_equal(leaf.grad.data, np.ones((2, 3)))


def test_reduce_mean_backward_divides_by_count():
    tape = Tape()
    leaf = tape.leaf(np.ones((2, 5)))
    tape.backward(reduce_mean(leaf, axes=1))
    assert np.allclose(leaf.grad.data, np.full((2, 5), 0.2))


def test_reduce_gradients():
    rng = make_rng(7)
    x = rng.normal(size=(2, 3, 2))
    rep = check_gradients(lambda a: reduce_mean(reduce_sum(a, axes=(1,))), [x])
    assert rep.passed


# ------------------------------------------------- reshape/transpose/bias


def test_reshape_roundtrip_and_gradient():
    rng = make_rng(8)
    x = rng.normal(size=(2, 6))
    tape = Tape()
    out = reshape(tape.leaf(x), (3, 4))
    assert np.array_equal(out.value.data, x.reshape(3, 4))
    rep = check_gradients(lambda a: reduce_sum(mul(reshape(a, (3, 4)), reshape(a, (3, 4)))), [x])
    assert rep.passed
    with pytest.raises(DimensionError):
        reshape(tape.leaf(x), (5, 2))


def test_transpose_values_and_gradient():
    rng = make_rng(9)
    x = rng.normal(size=(2, 3, 4))
    tape = Tape()
    out = transpose(tape.leaf(x), (2, 0, 1))
    assert np.array_equal(out.value.data, x.transpose(2, 0, 1))
    rep = check_gradients(lambda a: reduce_mean(mul(transpose(a, (1, 0, 2)), transpose(a, (1, 0, 2)))), [x])
    assert rep.passed
    with pytest.raises(AxisError):
        transpose(tape.leaf(x), (0, 1))
    with pytest.raises(AxisError):
        transpose(tape.leaf(x), (0, 1, 1))


def test_bias_add_values_and_gradient():
    rng = make_rng(10)
    x, b = rng.normal(size=(2, 3, 4)), rng.normal(size=4)
    tape = Tape()
    out = bias_add(tape.leaf(x), tape.leaf(b))
    assert np.allclose(out.value.data, x + b)
    rep = check_gradients(lambda a, c: reduce_mean(bias_add(a, c)), [x, b])
    assert rep.passed
    with pytest.raises(DimensionError):
        bias_add(tape.leaf(x), tape.leaf(np.ones(3)))
    with pytest.raises(DimensionError):
        bias_add(tape.leaf(x), tape.leaf(np.ones((1, 4))))


# -------------------------------------------------------------------- loss


def test_cross_entropy_uniform_logits():
    # Equal logits mean a uniform softmax, so the loss is log(classes).
    tape = Tape()
    logits = tape.leaf(np.zeros((4, 3)))
    loss = cross_entropy_logits(logits, np.array([0, 1, 2, 0]))
    assert np.isclose(float(loss.value.data), np.log(3.0))


def test_cross_entropy_matches_manual_computation():
    rng = make_rng(11)
    x = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, size=5)
    tape = Tape()
    loss = cross_entropy_logits(tape.leaf(x), labels)
    p = np.exp(x) / np.exp(x).sum(axis=1, keepdims=True)
    want = -np.log(p[np.arange(5), labels]).mean()
    assert np.isclose(float(loss.value.data), want)


def test_cross_entropy_is_shift_invariant():
    rng = make_rng(12)
    x = rng.normal(size=(3, 4))
    labels = np.array([1, 3, 0])
    tape = Tape()
    a = cross_entropy_logits(tape.leaf(x), labels)
    b = cross_entropy_logits(tape.leaf(x + 500.0), labels)
    assert np.isclose(float(a.value.data), float(b.value.data))


def test_cross_entropy_gradient():
    rng = make_rng(13)
    labels = rng.integers(0, 3, size=4)
    rep = check_gradients(lambda x: cross_entropy_logits(x, labels),
                          [rng.normal(size=(4, 3))], tol=1e-5)
    assert rep.passed


def test_cross_entropy_label_validation():
    tape = Tape()
    logits = tape.leaf(np.zeros((3, 2)))
    with pytest.raises(LabelError):
        cross_entropy_logits(logits, np.array([0, 1]))  # batch mismatch
    with pytest.raises(LabelError):
        cross_entropy_logits(logits, np.array([0.0, 1.0, 0.0]))  # float labels
    with pytest.raises(LabelError):
        cross_entropy_logits(logits, np.array([0, 2, 1]))  # class out of range
    with pytest.raises(DimensionError):
        cross_entropy_logits(tape.leaf(np.zeros(3)), np.array([0, 1, 0]))


# -------------------------------------------------------------------- tape


def test_gradient_accumulation_matches_scaling():
    """A value consumed twice receives the sum of both partials."""
    x = np.array([1.5, -2.0, 0.5])
    tape = Tape()
    leaf = tape.leaf(x)
    tape.backward(reduce_sum(add(leaf, leaf)))
    twice = leaf.grad.data.copy()

    tape2 = Tape()
    leaf2 = tape2.leaf(x)
    tape2.backward(reduce_sum(scale(leaf2, 2.0)))
    assert np.array_equal(twice, leaf2.grad.data)


def test_backward_skips_unreachable_nodes():
    tape = Tape()
    a = tape.leaf(np.ones(3))
    b = tape.leaf(np.ones(3))
    side = mul(b, b)  # never feeds the root
    root = reduce_sum(add(a, a))
    tape.backward(root)
    assert a.grad is not None
    assert b.grad is None
    assert side.grad is None


def test_backward_rejects_foreign_root():
    tape, other = Tape(), Tape()
    root = reduce_sum(other.leaf(np.ones(2)))
    with pytest.raises(ValueError):
        tape.backward(root)


def test_mixed_tape_operands_rejected():
    tape, other = Tape(), Tape()
    with pytest.raises(ValueError):
        add(tape.leaf(np.ones(2)), other.leaf(np.ones(2)))


def test_clear_keeps_leaves_usable():
    # A training loop records a fresh graph per step over long-lived leaves.
    tape = Tape()
    leaf = tape.leaf(np.array([2.0, 3.0]))
    tape.backward(reduce_sum(mul(leaf, leaf)))
    first = leaf.grad.data.copy()
    tape.clear()
    leaf.zero_grad()
    assert not tape.nodes
    tape.backward(reduce_sum(mul(leaf, leaf)))
    assert np.array_equal(leaf.grad.data, first)


def test_accumulate_grad_shape_check():
    tape = Tape()
    leaf = tape.leaf(np.ones((2, 2)))
    with pytest.raises(DimensionError):
        leaf.accumulate_grad(np.ones(4))


def test_first_gradient_is_an_owned_copy():
    tape = Tape()
    leaf = tape.leaf(np.zeros(3))
    g = np.array([1.0, -2.0, 3.0])
    leaf.accumulate_grad(g)
    g[:] = 7.0
    assert np.array_equal(leaf.grad.data, [1.0, -2.0, 3.0])
    leaf.accumulate_grad(g)
    assert np.array_equal(leaf.grad.data, [8.0, 5.0, 10.0])


def test_shared_gradient_array_gives_independent_gradients():
    # add's backward returns the same array for both operands.
    tape = Tape()
    a = tape.leaf(np.array([1.0, 2.0]))
    b = tape.leaf(np.array([3.0, 4.0]))
    tape.backward(reduce_sum(add(a, b)))
    assert np.array_equal(a.grad.data, [1.0, 1.0])
    assert a.grad.data is not b.grad.data
    a.grad.data *= 5.0
    assert np.array_equal(b.grad.data, [1.0, 1.0])


def test_float32_leaf_keeps_float32_gradient():
    tape = Tape()
    leaf = tape.leaf(np.ones(3, dtype=np.float32))
    leaf.accumulate_grad(np.full(3, 0.1))
    assert leaf.grad.data.dtype == np.float32
    assert np.array_equal(leaf.grad.data, np.full(3, 0.1, dtype=np.float32))


def test_values_and_gradients_are_deterministic():
    def run():
        rng = make_rng(21)
        tape = Tape()
        a = tape.leaf(rng.normal(size=(3, 3)))
        b = tape.leaf(rng.normal(size=(3, 3)))
        out = reduce_mean(mul(matmul(a, b), add(a, b)))
        tape.backward(out)
        return float(out.value.data), a.grad.data.copy(), b.grad.data.copy()

    v1, ga1, gb1 = run()
    v2, ga2, gb2 = run()
    assert v1 == v2
    assert np.array_equal(ga1, ga2)
    assert np.array_equal(gb1, gb2)


def test_check_gradients_flags_wrong_backward():
    """The checker must catch a backward rule that is off by a factor."""

    def broken(a):
        tape = a.tape
        x = a.value.data
        return tape.record("broken", (a,), np.asarray((x * x).sum()),
                           lambda g: (g * x,))  # correct rule is 2*g*x

    rep = check_gradients(lambda a: broken(a), [np.array([1.0, 2.0])])
    assert not rep.passed
    assert rep.max_rel_err > 0.1


def test_check_gradients_requires_scalar_output():
    with pytest.raises(DimensionError):
        check_gradients(lambda a: add(a, a), [np.ones(2)])
