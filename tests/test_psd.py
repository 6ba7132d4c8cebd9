"""Fusion labels, calibrated loss, distillation, and the local trainer."""
import dataclasses
import math
import types

import numpy as np
import pytest

from fedpsd import engine, nn, psd
from fedpsd.config import ExperimentConfig
from fedpsd.data import RowView, class_prior, synth_generate
from fedpsd.nn import (
    ContractViolation,
    finite_diff_check,
    forward,
    init_model,
    log_softmax,
    one_hot,
    softmax_ce,
)
from fedpsd.psd import (
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
        for truth in (np.array([1.0, 0.0, 0.0]), np.array([[1.0, 0.0]])):
            with pytest.raises(ContractViolation, match="must be matching vectors or batches"):
                fuse_labels(np.array([0.6, 0.4]), truth, 0.5)


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

    def test_empty_batch_rejected(self):
        prior = np.full(3, 1.0 / 3)
        empty, no_labels = np.zeros((0, 3)), np.zeros(0, dtype=np.int64)
        with pytest.raises(ContractViolation, match="non-empty"):
            calibrated_ce_loss(empty, no_labels, prior)
        for teacher in (None, np.zeros((0, 3))):
            with pytest.raises(ContractViolation, match="non-empty"):
                psd.local_loss(empty, no_labels, np.log(prior), teacher)

    def test_nan_prior_rejected(self):
        with pytest.raises(ContractViolation):
            calibrated_ce_loss(np.zeros(2), 0, np.array([np.nan, 0.5]))
        with pytest.raises(ContractViolation):
            balanced_prediction(np.zeros(2), np.array([np.nan, np.nan]))
        with pytest.raises(ContractViolation, match="log_prior must be a finite vector"):
            psd.local_loss(np.zeros((3, 4)), np.zeros(3, dtype=np.int64), np.array([np.nan, 0, 0, 0]))

    def test_zero_prior_rejected(self):
        with pytest.raises(ContractViolation):
            calibrated_ce_loss(np.array([0.0, 0.0]), 0, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("length", [1, 2, 4], ids=["one", "L-1", "L+1"])
    @pytest.mark.parametrize("logits", [np.array([0.3, -1.2, 0.8]), np.array([[0.3, -1.2, 0.8]] * 2)])
    def test_prior_of_the_wrong_length_rejected(self, length, logits):
        # A one-entry prior would broadcast into a uniform shift: plain CE
        # and the plain argmax, with no error.
        prior = np.full(length, 1.0 / length)
        labels = np.zeros(logits.shape[:-1], dtype=np.int64)
        with pytest.raises(ContractViolation, match=f"prior of length {length} does not match"):
            calibrated_ce_loss(logits, labels, prior)
        with pytest.raises(ContractViolation, match=f"prior of length {length} does not match"):
            balanced_prediction(logits, prior)
        if logits.ndim == 2:
            # A log prior of the logits' own shape would broadcast too.
            for log_prior in (np.log(prior), np.zeros(logits.shape)):
                with pytest.raises(ContractViolation, match="finite vector of length 3"):
                    psd.local_loss(logits, labels, log_prior)


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
            via_ratio = int(np.argmax(np.exp(log_softmax(logits)) / prior))
            assert balanced_prediction(logits, prior) == via_ratio


class TestKDLoss:
    def test_teacher_equals_student_is_zero(self):
        logits = np.array([1.0, -0.5, 2.0])
        loss, grad = psd_kd_loss(np.exp(log_softmax(logits)), logits)
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

    def test_trainer_loss_is_the_two_wrappers_summed(self):
        # The trainer's per-batch local_loss and the public wrappers share
        # one copy of each term, so a batch's loss and gradient are theirs
        # to the bit.
        rng = np.random.default_rng(9)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        teacher = rng.dirichlet(np.ones(4), size=6)
        prior = rng.dirichlet(np.ones(4)) + 0.05
        prior /= prior.sum()
        loss, grad, probs = psd.local_loss(logits, labels, np.log(prior), teacher)
        ce, ce_grad = calibrated_ce_loss(logits, labels, prior)
        kd, kd_grad = psd_kd_loss(teacher, logits)
        assert loss == ce + kd
        assert grad.tobytes() == (ce_grad + kd_grad).tobytes()
        assert probs.tobytes() == np.exp(nn.log_softmax(logits)).tobytes()
        assert psd.local_loss(logits, labels)[2] is None

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractViolation):
            psd_kd_loss(np.array([0.5, 0.5]), np.array([1.0, 0.0, 0.0]))
        # A (1, 4) teacher would broadcast over the batch.
        for shape in ((1, 4), (3, 5)):
            teacher = np.full(shape, 1.0 / shape[1])
            with pytest.raises(ContractViolation, match="teacher shape"):
                psd.local_loss(np.zeros((3, 4)), np.zeros(3, dtype=np.int64), teacher=teacher)

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
        with pytest.raises(ContractViolation):
            psd.local_loss(np.zeros((2, 2)), [0, 1], teacher=np.array([[0.5, 0.5], [np.nan, 0.5]]))

    def test_teacher_domain_violations(self):
        with pytest.raises(ContractViolation):
            psd_kd_loss(np.array([0.7, 0.4]), np.log([0.5, 0.5]))
        with pytest.raises(ContractViolation):
            psd_kd_loss(np.array([1.2, -0.2]), np.log([0.5, 0.5]))
        with pytest.raises(ContractViolation):
            psd_kd_loss(np.array([0.5, 0.5]), np.log([1.0 / 3] * 3))
        teacher = np.full((3, 4), 0.25)
        teacher[1] = [1.5, -0.5, 0.0, 0.0]
        with pytest.raises(ContractViolation, match="probability vectors"):
            psd.local_loss(np.zeros((3, 4)), np.zeros(3, dtype=np.int64), teacher=teacher)


def _client_data(seed=0, classes=4, dim=8, per_class=30, spread=0.3):
    return synth_generate(classes, dim, per_class, seed=seed, spread=spread)


class TestProximalTerm:
    def test_value_and_gradient(self):
        params = init_model([3, 4, 2], seed=1)
        anchor = init_model([3, 4, 2], seed=2)
        loss, grads = psd.proximal_term(params, anchor, 0.5)
        diff = [p - a for p, a in zip(params.arrays(), anchor.arrays())]
        w = np.concatenate([d.ravel() for d in diff])
        assert loss == 0.5 * 0.5 * float((w * w).sum())
        for got, d in zip(grads.arrays(), diff, strict=True):
            assert got.tobytes() == (0.5 * d).tobytes()

    def test_same_size_in_another_layout_rejected(self):
        # 4*2 + 2 + 2*3 + 3 == 1*2 + 2 + 2*5 + 5 == 19 parameters.
        params, anchor = init_model([4, 2, 3], 0), init_model([1, 2, 5], 0)
        assert params.flat.size == anchor.flat.size
        with pytest.raises(ContractViolation, match="shapes do not match"):
            psd.proximal_term(params, anchor, 0.1)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ContractViolation, match="shapes do not match"):
            psd.proximal_term(init_model([4, 2, 3], 0), init_model([4, 3, 3], 0), 0.1)

    @pytest.mark.parametrize("mu", [math.nan, -0.1, math.inf])
    def test_mu_must_be_finite_and_non_negative(self, mu):
        model = init_model([4, 2, 3], 0)
        with pytest.raises(ContractViolation, match="mu must be finite and non-negative"):
            psd.proximal_term(model, model.copy(), mu)


class TestLocalTrainer:
    def test_first_round_rhpk_equals_cll_only(self):
        # Without history the first-epoch distillation term vanishes, so a
        # single-epoch run with all flags on matches calibrated-CE-only SGD.
        ds = _client_data()
        model = init_model([8, 6, 4], seed=0)
        base = dict(t_total=10, epochs=1, batch_size=16, seed=5, base_lr=0.05, lr_decay=1.0)
        cfg_full = ExperimentConfig(**base, algorithm="fedpsd", rhpk=True, psd=True, cll=True)
        cfg_cll = ExperimentConfig(**base, algorithm="fedpsd", rhpk=False, psd=False, cll=True)
        p1, h1, l1 = local_train_fedpsd(model, ds.features, ds.labels, None, 0, 3, cfg_full)
        p2, h2, l2 = local_train_fedpsd(model, ds.features, ds.labels, None, 0, 3, cfg_cll)
        assert l1 == l2
        for a, b in zip(p1.arrays(), p2.arrays()):
            assert np.array_equal(a, b)
        assert h2 is None
        assert np.array_equal(h1, np.exp(nn.log_softmax(forward(p2, ds.features))))

    def test_history_shape_and_round(self):
        ds = _client_data()
        model = init_model([8, 6, 4], seed=1)
        cfg = ExperimentConfig(
            algorithm="fedpsd", t_total=10, epochs=2, batch_size=32, seed=0, base_lr=0.05,
            lr_decay=1.0,
        )
        params, hist, losses = local_train_fedpsd(
            model, ds.features, ds.labels, None, 0, 4, cfg
        )
        assert hist.shape == (ds.num_samples, 4)
        assert np.abs(hist.sum(axis=1) - 1.0).max() < 1e-9
        # history equals the trained model's probabilities over the local set
        assert np.array_equal(hist, np.exp(nn.log_softmax(forward(params, ds.features))))
        assert len(losses) == 2 * math.ceil(ds.num_samples / 32)

    def test_mismatched_history_rejected(self):
        ds = _client_data()
        model = init_model([8, 6, 4], seed=1)
        cfg = ExperimentConfig(algorithm="fedpsd", t_total=10, seed=0, base_lr=0.05, lr_decay=1.0)
        bad = np.full((3, 4), 0.25)
        with pytest.raises(ContractViolation, match="history"):
            local_train_fedpsd(model, ds.features, ds.labels, bad, 0, 1, cfg)

    @pytest.mark.parametrize(
        "case", ["not_normalised", "negative", "nan_row", "empty", "one_dimensional"]
    )
    def test_malformed_history_rejected_under_rhpk(self, case):
        ds = _client_data()
        model = init_model([8, 6, 4], seed=1)
        cfg = ExperimentConfig(
            algorithm="fedpsd", t_total=10, seed=0, rhpk=True, base_lr=0.05, lr_decay=1.0
        )
        n = ds.num_samples
        history = np.full((n, 4), 0.25)
        if case == "not_normalised":
            history[5] = 0.3
        elif case == "negative":
            history[5] = [1.5, -0.5, 0.0, 0.0]
        elif case == "nan_row":
            history[5] = np.nan
        elif case == "empty":
            history = np.zeros((0, 4))
        else:
            history = history.ravel()
        with pytest.raises(ContractViolation):
            local_train_fedpsd(model, ds.features, ds.labels, history, 0, 1, cfg)

    def test_history_pass_runs_only_under_rhpk(self, monkeypatch):
        # The post-training forward over the local set builds the history,
        # which only rhpk reads; without rhpk nothing may pay for it.
        ds = _client_data()
        model = init_model([8, 6, 4], seed=1)
        cfg = ExperimentConfig(
            algorithm="fedpsd", t_total=10, epochs=1, batch_size=32, seed=0, base_lr=0.05,
            lr_decay=1.0,
        )

        def history_pass(*args):
            raise AssertionError("history pass ran")

        monkeypatch.setattr(psd, "forward", history_pass)
        off = dataclasses.replace(cfg, rhpk=False)
        _, history, _ = local_train_fedpsd(model, ds.features, ds.labels, None, 0, 1, off)
        assert history is None
        with pytest.raises(AssertionError, match="history pass"):
            local_train_fedpsd(model, ds.features, ds.labels, None, 0, 1, cfg)

    def test_warm_history_teacher_lowers_first_epoch_loss(self):
        # Paired round-1 runs from one round-0 model that differ only in
        # the first-epoch teacher: the recorded history vs a one-hot
        # history, which fuses to the one-hot labels. The soft target sits
        # nearer the model's own outputs, so its version of the
        # first-epoch objective is cheaper.
        ds = _client_data(seed=3, per_class=40)
        cfg = ExperimentConfig(
            algorithm="fedpsd", t_total=2, epochs=3, batch_size=20, seed=9,
            rhpk=True, psd=True, cll=True, base_lr=0.05, lr_decay=1.0,
        )
        model = init_model([8, 6, 4], seed=2)
        batches = math.ceil(ds.num_samples / 20)
        # round 0: shared by both arms (no history yet)
        p, warm, _ = local_train_fedpsd(model, ds.features, ds.labels, None, 0, 0, cfg)
        cold = one_hot(ds.labels, 4)

        def first_epoch_mean(hist):
            _, _, losses = local_train_fedpsd(p, ds.features, ds.labels, hist, 0, 1, cfg)
            return float(np.mean(losses[:batches]))

        assert first_epoch_mean(warm) <= first_epoch_mean(cold)

    @pytest.mark.parametrize("case", ["wide", "narrow", "short", "long", "one_dimensional"])
    def test_malformed_local_set_rejected_before_training(self, case):
        # Checked once per call, so no batch meets a raw numpy shape or
        # index error: the per-batch loss runs unchecked.
        ds = _client_data()
        model = init_model([8, 6, 4], seed=3)
        cfg = ExperimentConfig(
            algorithm="fedpsd", t_total=10, epochs=2, batch_size=32, seed=0, base_lr=0.05,
            lr_decay=1.0,
        )
        features = {
            "wide": np.hstack([ds.features, ds.features[:, :1]]),
            "narrow": ds.features[:, :-1],
            "short": ds.features[:-1],
            "long": np.vstack([ds.features, ds.features[:1]]),
            "one_dimensional": ds.features[:, 0],
        }[case]
        with pytest.raises(ContractViolation, match="client 7 features"):
            local_train_fedpsd(model, features, ds.labels, None, 7, 1, cfg)

    def test_malformed_row_view_rejected_before_training(self):
        ds = _client_data()
        model = init_model([8, 6, 4], seed=3)
        cfg = ExperimentConfig(algorithm="fedpsd", t_total=10, seed=0, base_lr=0.05, lr_decay=1.0)
        view = RowView(ds, np.arange(ds.num_samples - 1))
        with pytest.raises(ContractViolation, match=r"client 2 features of shape \(119, 8\)"):
            local_train_fedpsd(model, view, ds.labels, None, 2, 1, cfg)

    def test_non_finite_loss_reports_context(self):
        ds = _client_data()
        model = init_model([8, 6, 4], seed=3)
        cfg = ExperimentConfig(
            algorithm="fedpsd", t_total=10, epochs=2, batch_size=32, seed=0, base_lr=0.05,
            lr_decay=1.0,
        )
        poisoned = ds.features.copy()
        poisoned[0, 0] = np.nan
        with pytest.raises(FloatingPointError, match=r"round 1, client 7, epoch 1"):
            local_train_fedpsd(model, poisoned, ds.labels, None, 7, 1, cfg)

    def test_non_finite_gradient_reports_context(self):
        # At batch 2 the proximal gradient overflows while the data loss is
        # still finite, so the optimizer's error is the one that stops the run.
        rng = np.random.default_rng(0)
        features = rng.standard_normal((40, 4))
        labels = np.repeat([0, 1], 20)
        cfg = ExperimentConfig(
            algorithm="fedprox", prox_mu=1e308, base_lr=100.0, epochs=1, batch_size=10
        )
        model = init_model([4, 8, 2], 0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError) as info:
                local_train_fedpsd(model, features, labels, None, 3, 0, cfg)
        assert str(info.value) == (
            "non-finite gradient in layer 0 weight at round 0, client 3, epoch 1, batch 2"
        )
        assert isinstance(info.value.__cause__, FloatingPointError)


class TestTracedNames:
    def test_benchmark_hooks_stay_bound(self):
        # perfbench/ counts ModelParams.__post_init__ calls and times the
        # nn functions the trainer looks up through psd's module globals;
        # a refactor that drops either hook breaks traced runs silently.
        assert "__post_init__" in vars(nn.ModelParams)
        for name in ("sgd_step", "_forward_cached", "_backprop_from_acts"):
            assert vars(psd).get(name) is getattr(nn, name), name

    def test_traced_span_names_stay_bound(self):
        # perfbench wraps the fedpsd functions bound in each module's
        # globals and names each span <defining module>.<function>; it
        # derives engine.train_phase_s, engine.local_eval_s,
        # psd.history_s and the data.* metrics from these spans.
        bound = {
            engine: {
                "engine": ("run_round", "_train_one", "_local_accuracy", "_all_client_sweep", "aggregate"),
                "nn": ("forward", "top1_accuracy"),
                "psd": ("local_train_fedpsd",),
                "data": (
                    "synth_generate", "load_idx_files", "partition_sharding",
                    "partition_dirichlet", "client_test_split",
                ),
            },
            psd: {"psd": ("_kd_rows",), "nn": ("forward",)},
        }
        for module, layers in bound.items():
            for layer, names in layers.items():
                for name in names:
                    fn = vars(module).get(name)
                    assert isinstance(fn, types.FunctionType), (module.__name__, name)
                    assert (fn.__module__, fn.__name__) == (f"fedpsd.{layer}", name)
