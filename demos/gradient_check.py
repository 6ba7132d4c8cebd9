#!/usr/bin/env python3
"""Check every analytic gradient against central finite differences.

The training path never calls an autodiff framework, so the backprop
must be right by construction. This demo builds small random models and
compares the analytic gradient of each loss (plain CE, calibrated CE,
distillation KL, their sum, and FedProx's proximal penalty) with a
numerical estimate, printing the worst relative error per loss.
``calibrated_ce_loss`` and ``psd_kd_loss`` wrap the trainer's per-batch
loss, and ``proximal_term`` wraps the trainer's own proximal pull.
"""
import numpy as np

from fedpsd import (
    calibrated_ce_loss,
    finite_diff_check,
    init_model,
    proximal_term,
    psd_kd_loss,
    softmax_ce,
)


def main() -> None:
    rng = np.random.default_rng(0)
    worst = {"plain ce": 0.0, "calibrated ce": 0.0, "distillation": 0.0,
             "combined": 0.0, "proximal": 0.0}

    for trial in range(10):
        num_classes = int(rng.integers(3, 6))
        dim = int(rng.integers(4, 8))
        sizes = [dim, int(rng.integers(5, 10)), num_classes]
        model = init_model(sizes, seed=trial)
        batch = rng.normal(size=(4, dim))
        labels = rng.integers(0, num_classes, size=4)
        prior = rng.dirichlet(np.full(num_classes, 4.0))
        teacher = rng.dirichlet(np.full(num_classes, 2.0), size=4)

        worst["plain ce"] = max(worst["plain ce"], finite_diff_check(
            model, batch, lambda lg: softmax_ce(lg, labels)))
        worst["calibrated ce"] = max(worst["calibrated ce"], finite_diff_check(
            model, batch, lambda lg: calibrated_ce_loss(lg, labels, prior)))
        worst["distillation"] = max(worst["distillation"], finite_diff_check(
            model, batch, lambda lg: psd_kd_loss(teacher, lg)))

        def combined(lg):
            ce, d_ce = calibrated_ce_loss(lg, labels, prior)
            kd, d_kd = psd_kd_loss(teacher, lg)
            return ce + kd, d_ce + d_kd

        worst["combined"] = max(worst["combined"], finite_diff_check(model, batch, combined))

        anchor = init_model(sizes, seed=100 + trial)
        worst["proximal"] = max(worst["proximal"], finite_diff_check(
            model, batch, lambda lg: softmax_ce(lg, labels),
            param_term=lambda m: proximal_term(m, anchor, 0.5)))

    print("worst relative error over 10 random models (tolerance 1e-4):")
    for name, err in worst.items():
        status = "ok" if err < 1e-4 else "FAIL"
        print(f"  {name:14s} {err:.3e}  {status}")


if __name__ == "__main__":
    main()
