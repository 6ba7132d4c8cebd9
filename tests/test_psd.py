"""Fusion labels, calibrated loss, distillation, and the local trainer."""
import math
import struct

import numpy as np
import pytest

from fedpsd import nn, psd
from fedpsd.config import ExperimentConfig
from fedpsd.data import class_prior, synth_generate
from fedpsd.nn import (
    ContractViolation,
    finite_diff_check,
    forward,
    init_model,
    one_hot,
    softmax,
    softmax_ce,
)
from fedpsd.psd import (
    ClientHistory,
    alpha_schedule,
    balanced_prediction,
    calibrated_ce_loss,
    fuse_labels,
    local_train_fedpsd,
    psd_kd_loss,
)


class TestAlphaSchedule:
    def test_boundaries_and_midpoint(self):
        assert alpha_schedule(0, 200) == 0.0
        assert alpha_schedule(200, 200) == 1.0
        assert alpha_schedule(100, 200) == 0.5

    def test_past_end_clamps_with_warning(self):
        with pytest.warns(UserWarning, match="clamping"):
            assert alpha_schedule(250, 200) == 1.0

    def test_domain(self):
        with pytest.raises(ContractViolation):
            alpha_schedule(-1, 10)
        with pytest.raises(ContractViolation):
            alpha_schedule(0, 0)


class TestFuseLabels:
    def test_alpha_zero_returns_truth_exactly(self):
        p = np.array([0.6, 0.4])
        y = np.array([0.0, 1.0])
        assert np.array_equal(fuse_labels(p, y, 0.0), y)

    def test_alpha_one_returns_teacher_exactly(self):
        p = np.array([0.6, 0.4])
        y = np.array([1.0, 0.0])
        assert np.array_equal(fuse_labels(p, y, 1.0), p)

    def test_midpoint_arithmetic(self):
        fused = fuse_labels(np.array([0.6, 0.4]), np.array([1.0, 0.0]), 0.5)
        assert np.allclose(fused, [0.8, 0.2], atol=1e-15)

    def test_always_a_probability_vector(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            l = int(rng.integers(2, 10))
            p = rng.dirichlet(np.ones(l))
            y = np.zeros(l)
            y[rng.integers(l)] = 1.0
            a = float(rng.uniform(0, 1))
            fused = fuse_labels(p, y, a)
            assert abs(fused.sum() - 1.0) < 1e-12
            assert fused.min() >= 0.0

    def test_truth_argmax_survives_below_half(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            p = rng.dirichlet(np.ones(6) * 0.2)
            y = np.zeros(6)
            cls = int(rng.integers(6))
            y[cls] = 1.0
            a = float(rng.uniform(0, 0.4999))
            fused = fuse_labels(p, y, a)
            assert int(np.argmax(fused)) == cls

    def test_batch_rows_match_vector_form(self):
        rng = np.random.default_rng(2)
        teacher = rng.dirichlet(np.ones(5), size=8)
        truth = one_hot(rng.integers(0, 5, size=8), 5)
        fused = fuse_labels(teacher, truth, 0.3)
        assert fused.shape == (8, 5)
        for row, t, y in zip(fused, teacher, truth):
            assert np.array_equal(row, fuse_labels(t, y, 0.3))
        with pytest.raises(ContractViolation):
            fuse_labels(teacher, truth[:, ::-1] * 0.5, 0.3)

    def test_nan_or_empty_teacher_rejected(self):
        truth = one_hot(np.array([0, 1]), 2)
        with pytest.raises(ContractViolation):
            fuse_labels(np.array([[np.nan, np.nan], [0.5, 0.5]]), truth, 0.3)
        with pytest.raises(ContractViolation):
            fuse_labels(np.array([np.nan, 1.0]), truth[0], 0.3)
        with pytest.raises(ContractViolation):
            fuse_labels(np.zeros((0, 2)), np.zeros((0, 2)), 0.3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ContractViolation):
            fuse_labels(np.array([0.6, 0.4]), np.array([0.5, 0.5]), 0.3)
        with pytest.raises(ContractViolation):
            fuse_labels(np.array([0.6, 0.4]), np.array([1.0, 0.0]), 1.5)
        with pytest.raises(ContractViolation):
            fuse_labels(np.array([0.7, 0.4]), np.array([1.0, 0.0]), 0.5)


class TestCalibratedCE:
    def test_uniform_prior_equals_plain_ce(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            l = int(rng.integers(2, 8))
            logits = rng.standard_normal((4, l)) * 3
            labels = rng.integers(0, l, size=4)
            plain_loss, plain_grad = softmax_ce(logits, labels)
            cal_loss, cal_grad = calibrated_ce_loss(logits, labels, np.full(l, 1.0 / l))
            assert cal_loss == pytest.approx(plain_loss, abs=1e-12)
            assert np.abs(cal_grad - plain_grad).max() < 1e-12

    def test_hand_value(self):
        loss, grad = calibrated_ce_loss(np.array([0.0, 0.0]), 0, np.array([0.75, 0.25]))
        assert loss == pytest.approx(-math.log(0.75), abs=1e-12)
        # gradient = softmax(ln P) - onehot = P - onehot for zero logits
        assert np.allclose(grad, [0.75 - 1.0, 0.25], atol=1e-12)

    def test_accepts_class_prior_object(self):
        prior = class_prior(np.array([0, 0, 0, 1]), 2, epsilon=1.0)
        loss, _ = calibrated_ce_loss(np.array([1.0, -1.0]), 0, prior)
        assert np.isfinite(loss)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            l = int(rng.integers(2, 6))
            model = init_model([4, 5, l], seed=trial)
            x = rng.standard_normal((3, 4))
            labels = rng.integers(0, l, size=3)
            prior = rng.dirichlet(np.ones(l)) + 0.05
            prior /= prior.sum()
            err = finite_diff_check(
                model, x, lambda lg: calibrated_ce_loss(lg, labels, prior)
            )
            assert err < 1e-4

    def test_nan_prior_rejected(self):
        with pytest.raises(ContractViolation):
            calibrated_ce_loss(np.zeros(2), 0, np.array([np.nan, 0.5]))
        with pytest.raises(ContractViolation):
            balanced_prediction(np.zeros(2), np.array([np.nan, np.nan]))

    def test_zero_prior_rejected(self):
        with pytest.raises(ContractViolation):
            calibrated_ce_loss(np.array([0.0, 0.0]), 0, np.array([1.0, 0.0]))


class TestBalancedPrediction:
    def test_uniform_prior_is_plain_argmax(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((50, 7))
        got = balanced_prediction(logits, np.full(7, 1.0 / 7))
        assert np.array_equal(got, np.argmax(logits, axis=1))

    def test_hand_value(self):
        # adjusted = [2 - ln 0.1, 1 - ln 0.9] = [4.303, 1.105]
        prior = np.array([0.1, 0.9])
        logits = np.array([2.0, 1.0])
        adjusted = logits - np.log(prior)
        assert adjusted == pytest.approx([4.303, 1.105], abs=1e-3)
        assert balanced_prediction(logits, prior) == 0

    def test_matches_probability_ratio_form(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            l = int(rng.integers(2, 9))
            logits = rng.standard_normal(l) * 4
            prior = rng.dirichlet(np.ones(l)) + 0.02
            prior /= prior.sum()
            via_ratio = int(np.argmax(softmax(logits) / prior))
            assert balanced_prediction(logits, prior) == via_ratio


class TestKDLoss:
    def test_teacher_equals_student_is_zero(self):
        logits = np.array([1.0, -0.5, 2.0])
        loss, grad = psd_kd_loss(softmax(logits), logits)
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.abs(grad).max() < 1e-15

    def test_onehot_teacher_reduces_to_ce(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal((4, 5))
        labels = rng.integers(0, 5, size=4)
        kd_loss, kd_grad = psd_kd_loss(one_hot(labels, 5), logits)
        ce_loss, ce_grad = softmax_ce(logits, labels)
        assert kd_loss == pytest.approx(ce_loss, abs=1e-12)
        assert np.abs(kd_grad - ce_grad).max() < 1e-15

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(7)
        for trial in range(10):
            l = int(rng.integers(2, 6))
            model = init_model([4, 6, l], seed=trial + 50)
            x = rng.standard_normal((3, 4))
            teacher = rng.dirichlet(np.ones(l), size=3)
            err = finite_diff_check(model, x, lambda lg: psd_kd_loss(teacher, lg))
            assert err < 1e-4

    def test_combined_objective_finite_difference(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            l = int(rng.integers(2, 6))
            model = init_model([4, 5, l], seed=trial + 80)
            x = rng.standard_normal((3, 4))
            labels = rng.integers(0, l, size=3)
            teacher = rng.dirichlet(np.ones(l), size=3)
            prior = rng.dirichlet(np.ones(l)) + 0.05
            prior /= prior.sum()

            def combined(lg):
                ce, ce_grad = calibrated_ce_loss(lg, labels, prior)
                kd, kd_grad = psd_kd_loss(teacher, lg)
                return ce + kd, ce_grad + kd_grad

            assert finite_diff_check(model, x, combined) < 1e-4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            psd_kd_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0, 0.0]))

    # KL(p || q) itself: log q is a logit vector whose softmax is q.
    def test_kl_identical_is_zero(self):
        p = np.array([0.5, 0.5])
        assert psd_kd_loss(p, np.log(p))[0] == pytest.approx(0.0, abs=1e-12)

    def test_kl_onehot_target(self):
        got, _ = psd_kd_loss(np.array([1.0, 0.0]), np.log([0.5, 0.5]))
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_kl_hand_value(self):
        got, _ = psd_kd_loss(np.array([0.8, 0.2]), np.log([0.5, 0.5]))
        want = 0.8 * math.log(0.8 / 0.5) + 0.2 * math.log(0.2 / 0.5)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.19274, abs=1e-5)

    def test_kl_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            assert psd_kd_loss(p, np.log(q))[0] >= 0.0
            assert psd_kd_loss(p, np.log(p))[0] == pytest.approx(0.0, abs=1e-12)

    def test_nan_teacher_rejected(self):
        with pytest.raises(ContractViolation):
            psd_kd_loss(np.array([np.nan, np.nan]), np.log([0.5, 0.5]))
        with pytest.raises(ContractViolation):
            psd_kd_loss(np.array([[0.5, 0.5], [np.nan, 0.5]]), np.zeros((2, 2)))

    def test_teacher_domain_violations(self):
        with pytest.raises(ContractViolation):
            psd_kd_loss(np.array([0.7, 0.4]), np.log([0.5, 0.5]))
        with pytest.raises(ContractViolation):
            psd_kd_loss(np.array([1.2, -0.2]), np.log([0.5, 0.5]))
        with pytest.raises(ContractViolation):
            psd_kd_loss(np.array([0.5, 0.5]), np.log([1.0 / 3] * 3))


class TestClientHistory:
    def test_round_trip(self):
        rng = np.random.default_rng(9)
        probs = rng.dirichlet(np.ones(4), size=6)
        hist = ClientHistory(probs, recorded_round=17)
        cid, back = ClientHistory.from_bytes(hist.to_bytes(client_id=3))
        assert cid == 3
        assert back.recorded_round == 17
        assert np.array_equal(back.probs, hist.probs)

    def test_truncated_record(self):
        hist = ClientHistory(np.full((2, 2), 0.5), recorded_round=0)
        data = hist.to_bytes(client_id=0)
        with pytest.raises(ValueError, match="byte offset"):
            ClientHistory.from_bytes(data[:-4])
        with pytest.raises(ValueError, match="byte offset"):
            ClientHistory.from_bytes(data[:10])

    def test_negative_dimensions_name_the_offset(self):
        # header: client_id, recorded_round, n_k, num_classes; the
        # product (-1) * (-1) matches the 8 payload bytes.
        data = struct.pack("<4q", 0, 0, -1, -1) + bytes(8)
        with pytest.raises(ValueError, match="byte offset 16"):
            ClientHistory.from_bytes(data)
        with pytest.raises(ValueError, match="byte offset 24"):
            ClientHistory.from_bytes(struct.pack("<4q", 0, 0, 1, -1))

    def test_rejects_non_probability_rows(self):
        with pytest.raises(ContractViolation):
            ClientHistory(np.array([[0.9, 0.3]]), recorded_round=0)

    def test_rejects_nan_rows(self):
        probs = np.array([[np.nan, np.nan], [0.5, 0.5]])
        with pytest.raises(ContractViolation):
            ClientHistory(probs, recorded_round=1)
        with pytest.raises(ContractViolation):
            # header: client_id, recorded_round, n_k, num_classes
            ClientHistory.from_bytes(struct.pack("<4q", 0, 1, 2, 2) + probs.astype("<f8").tobytes())

    def test_rejects_empty_history(self):
        with pytest.raises(ContractViolation):
            ClientHistory(np.zeros((0, 3)), recorded_round=0)
        with pytest.raises(ContractViolation):
            # header: client_id, recorded_round, n_k, num_classes
            ClientHistory.from_bytes(struct.pack("<4q", 0, 0, 0, 3))


def _client_data(seed=0, classes=4, dim=8, per_class=30, spread=0.3):
    ds = synth_generate(classes, dim, per_class, seed=seed, spread=spread)
    prior = class_prior(ds.labels, classes, epsilon=1.0)
    return ds, prior


class TestLocalTrainer:
    def test_first_round_rhpk_equals_cll_only(self):
        # Without history the first-epoch distillation term vanishes, so a
        # single-epoch run with all flags on matches calibrated-CE-only SGD.
        ds, prior = _client_data()
        model = init_model([8, 6, 4], seed=0)
        base = dict(t_total=10, epochs=1, batch_size=16, seed=5)
        cfg_full = ExperimentConfig(**base, algorithm="fedpsd", rhpk=True, psd=True, cll=True)
        cfg_cll = ExperimentConfig(**base, algorithm="fedpsd", rhpk=False, psd=False, cll=True)
        p1, h1, l1 = local_train_fedpsd(model, ds.features, ds.labels, prior, None, 0, 3, 0.05, cfg_full)
        p2, h2, l2 = local_train_fedpsd(model, ds.features, ds.labels, prior, None, 0, 3, 0.05, cfg_cll)
        assert l1 == l2
        for a, b in zip(p1.arrays(), p2.arrays()):
            assert np.array_equal(a, b)
        assert np.array_equal(h1.probs, h2.probs)

    def test_history_shape_and_round(self):
        ds, prior = _client_data()
        model = init_model([8, 6, 4], seed=1)
        cfg = ExperimentConfig(algorithm="fedpsd", t_total=10, epochs=2, batch_size=32, seed=0)
        params, hist, losses = local_train_fedpsd(
            model, ds.features, ds.labels, prior, None, 0, 4, 0.05, cfg
        )
        assert hist.probs.shape == (ds.num_samples, 4)
        assert hist.recorded_round == 4
        assert np.abs(hist.probs.sum(axis=1) - 1.0).max() < 1e-9
        # history equals the trained model's softmax over the local set
        assert np.array_equal(hist.probs, softmax(forward(params, ds.features)))
        assert len(losses) == 2 * math.ceil(ds.num_samples / 32)

    def test_mismatched_history_rejected(self):
        ds, prior = _client_data()
        model = init_model([8, 6, 4], seed=1)
        cfg = ExperimentConfig(algorithm="fedpsd", t_total=10, seed=0)
        bad = ClientHistory(np.full((3, 4), 0.25), recorded_round=0)
        with pytest.raises(ContractViolation, match="history"):
            local_train_fedpsd(model, ds.features, ds.labels, prior, bad, 0, 1, 0.05, cfg)

    def test_warm_history_teacher_lowers_first_epoch_loss(self):
        # Paired round-1 runs from one round-0 model that differ only in
        # the first-epoch teacher: the recorded history vs a one-hot
        # history, which fuses to the one-hot labels. The soft target sits
        # nearer the model's own outputs, so its version of the
        # first-epoch objective is cheaper.
        ds, prior = _client_data(seed=3, per_class=40)
        cfg = ExperimentConfig(
            algorithm="fedpsd", t_total=2, epochs=3, batch_size=20, seed=9,
            rhpk=True, psd=True, cll=True,
        )
        model = init_model([8, 6, 4], seed=2)
        batches = math.ceil(ds.num_samples / 20)
        # round 0: shared by both arms (no history yet)
        p, warm, _ = local_train_fedpsd(model, ds.features, ds.labels, prior, None, 0, 0, 0.05, cfg)
        cold = ClientHistory(one_hot(ds.labels, 4), 0)

        def first_epoch_mean(hist):
            _, _, losses = local_train_fedpsd(p, ds.features, ds.labels, prior, hist, 0, 1, 0.05, cfg)
            return float(np.mean(losses[:batches]))

        assert first_epoch_mean(warm) <= first_epoch_mean(cold)

    def test_non_finite_loss_reports_context(self):
        ds, prior = _client_data()
        model = init_model([8, 6, 4], seed=3)
        cfg = ExperimentConfig(algorithm="fedpsd", t_total=10, epochs=2, batch_size=32, seed=0)
        poisoned = ds.features.copy()
        poisoned[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match=r"round 1, client 7, epoch 1"):
            local_train_fedpsd(model, poisoned, ds.labels, prior, None, 7, 1, 0.05, cfg)


class TestTracedNames:
    def test_benchmark_hooks_stay_bound(self):
        # perfbench/ counts ModelParams.__post_init__ calls and times the
        # nn functions the trainer looks up through psd's module globals;
        # a refactor that drops either hook breaks traced runs silently.
        assert "__post_init__" in vars(nn.ModelParams)
        for name in ("sgd_step", "_forward_cached", "_backprop_from_acts", "softmax_ce"):
            assert vars(psd).get(name) is getattr(nn, name), name
