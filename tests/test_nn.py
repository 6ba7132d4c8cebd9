"""Oracle tests for the dense-net numeric core.

Expected values come from hand arithmetic or independent straight-line
re-implementations, never from the code under test.
"""
import copy
import math
import pickle

import numpy as np
import pytest

from fedpsd import nn
from fedpsd.nn import (
    EVAL_BLOCK_ROWS,
    ContractViolation,
    ModelParams,
    backprop,
    finite_diff_check,
    forward,
    init_model,
    init_optimizer,
    log_softmax,
    one_hot,
    row_blocks,
    sgd_step,
    softmax_ce,
    top1_accuracy,
)


def _single_layer(weight, bias) -> ModelParams:
    return ModelParams([np.array(weight, dtype=float)], [np.array(bias, dtype=float)])


class TestForward:
    def test_identity_layer(self):
        model = _single_layer(np.eye(2), [0.0, 0.0])
        out = forward(model, np.array([[1.0, 2.0]]))
        assert np.array_equal(out, np.array([[1.0, 2.0]]))

    def test_bias_only(self):
        model = _single_layer(np.eye(2), [1.0, 1.0])
        out = forward(model, np.array([[0.0, 0.0]]))
        assert np.array_equal(out, np.array([[1.0, 1.0]]))

    def test_two_layer_against_straight_line_oracle(self):
        model = init_model([3, 4, 2], seed=0)
        x = np.array([[1.0, 0.0, 0.0], [0.3, -0.2, 0.9]])
        got = forward(model, x)

        # Independent re-computation with explicit scalar loops.
        w0, w1 = model.weights
        b0, b1 = model.biases
        for r in range(x.shape[0]):
            hidden = []
            for i in range(4):
                z = b0[i]
                for j in range(3):
                    z += w0[i, j] * x[r, j]
                hidden.append(max(z, 0.0))
            for o in range(2):
                z = b1[o]
                for i in range(4):
                    z += w1[o, i] * hidden[i]
                assert got[r, o] == pytest.approx(z, abs=1e-12)

    def test_dimension_mismatch_names_layer(self):
        model = init_model([3, 4, 2], seed=0)
        with pytest.raises(ContractViolation, match="layer 0"):
            forward(model, np.zeros((2, 5)))

    def test_non_2d_batch_rejected(self):
        model = init_model([3, 2], seed=0)
        with pytest.raises(ContractViolation):
            forward(model, np.zeros(3))

    def test_deterministic_bit_identical(self):
        model = init_model([5, 8, 3], seed=1)
        x = np.random.default_rng(2).standard_normal((6, 5))
        assert np.array_equal(forward(model, x), forward(model, x))


class TestRowBlocks:
    @pytest.mark.parametrize(
        "sizes", [[784, 128, 10], [32, 64, 32, 10], [784, 128, 2], [32, 64, 32, 4]],
        ids=lambda sizes: "-".join(map(str, sizes)),
    )
    def test_blocked_logits_are_one_whole_set_forward(self, sizes, blas_build):
        # OpenBLAS computes a product of at most 1,200 outputs with another
        # kernel: a 2-class block of 600 rows or a 10-class block of 120
        # would move the logits' last bits.
        model = init_model(sizes, seed=3)
        x = np.random.default_rng(4).integers(0, 256, (10_000, sizes[0]), dtype=np.uint8) / 255.0
        floor = 1200 // min(sizes[1:]) + 1
        for n in (100, 300, 1100, 3000, 10_000):
            whole = forward(model, x[:n])
            blocks = row_blocks(n, model)
            logits = np.concatenate([forward(model, x[block]) for block in blocks])
            assert logits.tobytes() == whole.tobytes(), (
                f"{sizes}, n={n}: blocked logits differ from one whole-set forward on "
                f"{blas_build}; the kernel switch nn._SMALL_PRODUCT_OUTPUTS = "
                f"{nn._SMALL_PRODUCT_OUTPUTS} outputs was measured on numpy 2.4.6, "
                "BLAS scipy-openblas 0.3.31.188.0"
            )
            lengths = [block.stop - block.start for block in blocks]
            assert blocks[0].start == 0 and blocks[-1].stop == n
            assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
            assert max(lengths) - min(lengths) <= 1
            assert len(blocks) <= -(-n // EVAL_BLOCK_ROWS)
            assert len(blocks) == 1 or min(lengths) >= floor, (sizes, n, lengths)
            # No larger than the cap, or than the floor needs.
            assert max(lengths) <= max(EVAL_BLOCK_ROWS, 2 * floor), (sizes, n, lengths)

    def test_a_block_is_never_one_row(self, monkeypatch):
        # One row is a matrix-vector product, whose last bits differ too.
        monkeypatch.setattr(nn, "EVAL_BLOCK_ROWS", 1)
        model = init_model([2, 1201], seed=0)
        assert [(b.start, b.stop) for b in row_blocks(3, model)] == [(0, 3)]
        assert [(b.start, b.stop) for b in row_blocks(4, model)] == [(0, 2), (2, 4)]


class TestModelParams:
    def test_chain_mismatch_names_layer(self):
        with pytest.raises(ContractViolation, match="layer 1"):
            ModelParams(
                [np.zeros((4, 3)), np.zeros((2, 5))],
                [np.zeros(4), np.zeros(2)],
            )

    @pytest.mark.parametrize(
        "weights, biases, match",
        [([np.zeros((4, 3))], [np.zeros(4), np.zeros(2)], r"one \(weight, bias\) pair"),
         ([], [], r"one \(weight, bias\) pair"),
         ([np.zeros((4, 3))], [np.zeros(5)], r"layer 0: weight \(4, 3\) and bias \(5,\)"),
         ([np.zeros(4)], [np.zeros(4)], "layer 0: weight"),
         ([np.zeros((4, 3))], [np.zeros((4, 1))], "layer 0: weight")],
        ids=["unequal_lists", "no_layers", "bias_length", "one_dimensional_weight",
             "two_dimensional_bias"],
    )
    def test_weight_and_bias_must_agree(self, weights, biases, match):
        with pytest.raises(ContractViolation, match=match):
            ModelParams(weights, biases)

    def test_layer_sizes(self):
        model = init_model([3, 4, 2], seed=0)
        assert model.layer_sizes() == [3, 4, 2]
        assert model.num_classes == 2

    def test_init_model_deterministic(self):
        a = init_model([3, 4, 2], seed=5)
        b = init_model([3, 4, 2], seed=5)
        for x, y in zip(a.arrays(), b.arrays()):
            assert np.array_equal(x, y)

    def test_views_write_through_to_flat(self):
        model = init_model([3, 4, 2], seed=0)
        model.weights[1][1, 2] = 7.5
        model.biases[0][3] = -2.0
        # flat layout: w0 (4x3), b0 (4), w1 (2x4), b1 (2)
        assert model.flat[12 + 4 + 1 * 4 + 2] == 7.5
        assert model.flat[12 + 3] == -2.0
        assert model.flat.size == 12 + 4 + 8 + 2

    def test_copy_and_zeros_like_share_no_memory(self):
        model = init_model([3, 4, 2], seed=0)
        for other in (model.copy(), model.zeros_like()):
            assert not np.shares_memory(other.flat, model.flat)
            for a, b in zip(other.arrays(), model.arrays()):
                assert a.shape == b.shape and not np.shares_memory(a, b)
        assert np.array_equal(model.copy().flat, model.flat)
        assert not model.zeros_like().flat.any()

    def test_construction_does_not_alias_inputs(self):
        w, b = np.ones((2, 3)), np.zeros(2)
        model = ModelParams([w], [b])
        assert not np.shares_memory(model.flat, w) and not np.shares_memory(model.flat, b)
        w[0, 0] = 5.0
        assert model.weights[0][0, 0] == 1.0

    @pytest.mark.parametrize(
        "clone, independent",
        [(lambda m: pickle.loads(pickle.dumps(m, protocol=5)), True),
         (copy.deepcopy, True),
         (copy.copy, False)],
        ids=["pickle", "deepcopy", "copy"],
    )
    def test_copies_keep_arrays_as_views_into_their_own_flat(self, clone, independent):
        model = init_model([3, 4, 2], seed=0)
        original = model.flat.tobytes()
        other = clone(model)
        assert other.flat.tobytes() == original
        assert all(np.shares_memory(a, other.flat) for a in other.arrays())
        if independent:
            assert not np.shares_memory(other.flat, model.flat)
            assert not any(np.shares_memory(a, model.flat) for a in other.arrays())
        x = np.random.default_rng(1).standard_normal((5, 3))
        before = forward(other, x)
        grads = other.with_flat(np.ones_like(other.flat))
        sgd_step(other, grads, init_optimizer(other, learning_rate=0.1))
        assert not np.array_equal(forward(other, x), before)
        if independent:
            assert model.flat.tobytes() == original

    def test_init_model_bad_sizes(self):
        with pytest.raises(ContractViolation):
            init_model([3], seed=0)
        with pytest.raises(ContractViolation):
            init_model([3, 0, 2], seed=0)


class TestSoftmax:
    # The one form in which the package builds probabilities.
    def test_symmetry(self):
        assert np.allclose(np.exp(log_softmax(np.array([0.0, 0.0]))), [0.5, 0.5], atol=1e-15)

    def test_constant_vector(self):
        out = np.exp(log_softmax(np.full(4, 3.7)))
        assert np.allclose(out, [0.25] * 4, atol=1e-15)

    def test_log_ratio_vector(self):
        # e^{ln 1} : e^{ln 3} = 1 : 3.
        out = np.exp(log_softmax(np.array([math.log(1.0), math.log(3.0)])))
        assert np.allclose(out, [0.25, 0.75], atol=1e-12)

    def test_sums_and_shift_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            v = rng.standard_normal(rng.integers(2, 12)) * 10
            s = np.exp(log_softmax(v))
            assert abs(s.sum() - 1.0) < 1e-12
            assert np.abs(np.exp(log_softmax(v + 37.5)) - s).max() < 1e-12

    def test_extreme_logits_stable(self):
        s = np.exp(log_softmax(np.array([1000.0, 0.0])))
        assert np.isfinite(s).all() and abs(s.sum() - 1.0) < 1e-12


class TestBackprop:
    def test_zero_dlogits_gives_zero_grads(self):
        model = init_model([3, 4, 2], seed=0)
        x = np.random.default_rng(1).standard_normal((5, 3))
        grads = backprop(model, x, np.zeros((5, 2)))
        for g in grads.arrays():
            assert np.array_equal(g, np.zeros_like(g))

    def test_linear_layer_outer_product(self):
        model = _single_layer(np.random.default_rng(2).standard_normal((3, 4)), np.zeros(3))
        x = np.random.default_rng(3).standard_normal((1, 4))
        d = np.random.default_rng(4).standard_normal((1, 3))
        grads = backprop(model, x, d)
        assert np.allclose(grads.weights[0], np.outer(d[0], x[0]), atol=1e-15)
        assert np.allclose(grads.biases[0], d[0], atol=1e-15)

    def test_shape_mismatch_rejected(self):
        model = init_model([3, 2], seed=0)
        with pytest.raises(ContractViolation):
            backprop(model, np.zeros((4, 3)), np.zeros((4, 3)))

    def test_two_layer_finite_difference(self):
        rng = np.random.default_rng(7)
        for trial in range(5):
            sizes = [int(rng.integers(2, 6)) for _ in range(3)]
            model = init_model(sizes, seed=trial)
            x = rng.standard_normal((4, sizes[0]))
            labels = rng.integers(0, sizes[-1], size=4)
            err = finite_diff_check(model, x, lambda lg: softmax_ce(lg, labels))
            assert err < 1e-4


class TestSoftmaxCE:
    def test_gradient_matches_one_hot_form_bit_exact(self):
        rng = np.random.default_rng(21)
        logits = rng.standard_normal((7, 5)) * 3.0
        labels = rng.integers(0, 5, size=7)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_p = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        _, dlogits = softmax_ce(logits, labels)
        assert dlogits.tobytes() == ((np.exp(log_p) - one_hot(labels, 5)) / 7).tobytes()

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_label_out_of_range_rejected(self, bad):
        with pytest.raises(ContractViolation, match=r"labels must lie in \[0, 3\)"):
            softmax_ce(np.zeros((2, 3)), np.array([0, bad]))

    def test_empty_batch_rejected(self):
        # The batch mean of no rows would be nan, with two RuntimeWarnings.
        with pytest.raises(ContractViolation, match="non-empty"):
            softmax_ce(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))

    def test_label_count_must_match_batch(self):
        with pytest.raises(ContractViolation, match="does not match batch"):
            softmax_ce(np.zeros((2, 3)), np.array([0, 1, 2]))


class TestFiniteDiffSelfTest:
    def test_linear_model_plain_ce_single_sample(self):
        model = _single_layer(np.random.default_rng(11).standard_normal((3, 4)) * 0.5, np.zeros(3))
        x = np.random.default_rng(12).standard_normal((1, 4))
        err = finite_diff_check(model, x, lambda lg: softmax_ce(lg, np.array([1])))
        assert err < 1e-6

    @pytest.mark.parametrize("step", [float("nan"), 0.0, -1e-5, float("inf")])
    def test_step_must_be_finite_and_positive(self, step):
        # A NaN step reads as error 0.0, a check that checks nothing; a zero
        # step divides by zero.
        model = _single_layer(np.ones((3, 4)), np.zeros(3))
        with pytest.raises(ContractViolation, match="step must be finite and positive"):
            finite_diff_check(model, np.ones((1, 4)), lambda lg: softmax_ce(lg, np.array([1])), step=step)


class TestSGD:
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -0.1])
    @pytest.mark.parametrize("name", ["learning_rate", "momentum", "weight_decay"])
    def test_hyperparameters_must_be_finite_and_non_negative(self, name, value):
        model = init_model([2, 3, 2], seed=0)
        kwargs = {"learning_rate": 0.1, "momentum": 0.5, "weight_decay": 0.01, name: value}
        with pytest.raises(ContractViolation, match="finite and non-negative"):
            init_optimizer(model, **kwargs)

    def test_all_zero_is_identity(self):
        model = init_model([2, 3, 2], seed=0)
        state = init_optimizer(model, learning_rate=0.5)
        before = model.copy()
        new, _ = sgd_step(model, model.zeros_like(), state)
        for p, q in zip(before.arrays(), new.arrays()):
            assert np.array_equal(p, q)

    def test_vanilla_scalar_step(self):
        model = _single_layer([[1.0]], [0.0])
        grads = _single_layer([[1.0]], [0.0])
        state = init_optimizer(model, learning_rate=0.1)
        new, _ = sgd_step(model, grads, state)
        assert new.weights[0][0, 0] == pytest.approx(0.9, abs=1e-15)

    def test_two_momentum_steps(self):
        # v1 = 1, p1 = -0.1; v2 = 0.9 + 1 = 1.9, p2 = -0.1 - 0.19 = -0.29
        model = _single_layer([[0.0]], [0.0])
        grads = _single_layer([[1.0]], [0.0])
        state = init_optimizer(model, learning_rate=0.1, momentum=0.9)
        model, state = sgd_step(model, grads, state)
        assert model.weights[0][0, 0] == pytest.approx(-0.1, abs=1e-15)
        model, state = sgd_step(model, grads, state)
        assert state.velocity.arrays()[0][0, 0] == pytest.approx(1.9, abs=1e-15)
        assert model.weights[0][0, 0] == pytest.approx(-0.29, abs=1e-15)

    def test_lr_zero_identity_property(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            model = init_model([3, 4, 2], seed=trial)
            grads = init_model([3, 4, 2], seed=trial + 100)
            state = init_optimizer(model, learning_rate=0.0, momentum=0.9, weight_decay=0.1)
            before = model.copy()
            new, _ = sgd_step(model, grads, state)
            for p, q in zip(before.arrays(), new.arrays()):
                assert np.array_equal(p, q)

    def test_weight_decay_folded_into_gradient(self):
        model = _single_layer([[2.0]], [0.0])
        grads = _single_layer([[0.0]], [0.0])
        state = init_optimizer(model, learning_rate=0.1, weight_decay=0.5)
        new, _ = sgd_step(model, grads, state)
        # v = 0 + (0 + 0.5 * 2) = 1, p = 2 - 0.1
        assert new.weights[0][0, 0] == pytest.approx(1.9, abs=1e-15)

    def test_gradient_shapes_must_match_model(self):
        model = init_model([3, 4, 2], seed=0)
        state = init_optimizer(model, learning_rate=0.1)
        before = model.flat.tobytes()
        for grads in (init_model([3, 5, 2], seed=1), init_model([3, 4, 2, 2], seed=1)):
            with pytest.raises(ContractViolation, match="gradient shapes do not match"):
                sgd_step(model, grads, state)
        assert model.flat.tobytes() == before

    def test_non_finite_gradient_aborts(self):
        model = init_model([2, 2], seed=0)
        grads = model.zeros_like()
        grads.weights[0][0, 0] = np.nan
        state = init_optimizer(model, learning_rate=0.1)
        with pytest.raises(FloatingPointError, match="layer 0"):
            sgd_step(model, grads, state)

    def test_updates_in_place_and_returns_same_objects(self):
        model = init_model([3, 4, 2], seed=0)
        grads = init_model([3, 4, 2], seed=1)
        state = init_optimizer(model, learning_rate=0.1, momentum=0.9)
        flat, velocity = model.flat, state.velocity.flat
        new, new_state = sgd_step(model, grads, state)
        assert new is model and new_state is state
        assert model.flat is flat and state.velocity.flat is velocity
        assert np.array_equal(state.velocity.arrays()[2], grads.weights[1])

    def test_non_finite_gradient_writes_nothing(self):
        model = init_model([3, 4, 2], seed=0)
        state = init_optimizer(model, learning_rate=0.1, momentum=0.9, weight_decay=0.01)
        sgd_step(model, init_model([3, 4, 2], seed=1), state)  # non-zero velocity
        params_bytes, velocity_bytes = model.flat.tobytes(), state.velocity.flat.tobytes()
        grads = init_model([3, 4, 2], seed=2)
        grads.biases[1][1] = np.inf  # the last array: every other one passes first
        with pytest.raises(FloatingPointError, match="non-finite gradient in layer 1 bias"):
            sgd_step(model, grads, state)
        assert model.flat.tobytes() == params_bytes
        assert state.velocity.flat.tobytes() == velocity_bytes


class TestTop1:
    def test_all_correct(self):
        assert top1_accuracy(np.array([[2.0, 1.0], [0.0, 3.0]]), np.array([0, 1])) == 1.0

    def test_all_wrong(self):
        assert top1_accuracy(np.array([[2.0, 1.0], [3.0, 0.0]]), np.array([1, 1])) == 0.0

    def test_tie_breaks_to_lowest_index(self):
        assert top1_accuracy(np.array([[1.0, 1.0]]), np.array([0])) == 1.0
        assert top1_accuracy(np.array([[1.0, 1.0]]), np.array([1])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ContractViolation):
            top1_accuracy(np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestOneHot:
    def test_basic(self):
        out = one_hot(np.array([1, 0]), 3)
        assert np.array_equal(out, np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]))

    def test_out_of_range(self):
        with pytest.raises(ContractViolation):
            one_hot(np.array([3]), 3)

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ContractViolation, match="integers"):
            one_hot(np.array([1.0, 0.0]), 3)

    @pytest.mark.parametrize("labels", [np.array([[0, 1]]), np.array(1)])
    def test_labels_that_are_not_one_dimensional_rejected(self, labels):
        # [[0, 1]] would give the one row [1, 1, 0].
        with pytest.raises(ContractViolation, match="1-D"):
            one_hot(labels, 3)
