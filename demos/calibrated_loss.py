#!/usr/bin/env python3
"""Why training on a skewed client wants a calibrated loss.

A client holding 95 samples of class 0 and 5 of class 1 drives plain CE
toward predicting the majority class everywhere. Adding ln P(y) to the
logits inside the training softmax makes the model spend its capacity
on the decision boundary instead; plain argmax at test time then
approximates the balanced rule argmax(f - ln P). The demo trains the
same tiny model both ways and compares per-class accuracy on a balanced
test set.
"""
import numpy as np

from fedpsd import (
    balanced_prediction,
    calibrated_ce_loss,
    class_prior,
    forward,
    init_model,
    init_optimizer,
    backprop,
    sgd_step,
    softmax_ce,
)


def make_skewed(rng, n_major=95, n_minor=5):
    x0 = rng.normal(loc=(-1.0, 0.0), scale=0.9, size=(n_major, 2))
    x1 = rng.normal(loc=(+1.0, 0.0), scale=0.9, size=(n_minor, 2))
    features = np.vstack([x0, x1])
    labels = np.array([0] * n_major + [1] * n_minor)
    return features, labels


def train(features, labels, prior=None, steps=200, lr=0.1):
    model = init_model([2, 16, 2], seed=1)
    opt = init_optimizer(model, learning_rate=lr, momentum=0.0, weight_decay=0.0)
    for _ in range(steps):
        logits = forward(model, features)
        if prior is None:
            _, dlogits = softmax_ce(logits, labels)
        else:
            _, dlogits = calibrated_ce_loss(logits, labels, prior)
        grads = backprop(model, features, dlogits)
        model, opt = sgd_step(model, grads, opt)
    return model


def per_class_accuracy(model, features, labels):
    pred = np.argmax(forward(model, features), axis=1)
    return [float(np.mean(pred[labels == c] == c)) for c in (0, 1)]


def main() -> None:
    rng = np.random.default_rng(3)
    features, labels = make_skewed(rng)
    prior = class_prior(labels, num_classes=2, epsilon=1.0)
    print(f"train prior: {np.round(prior, 3)} (95 vs 5 samples)")

    test_x0 = rng.normal(loc=(-1.0, 0.0), scale=0.9, size=(500, 2))
    test_x1 = rng.normal(loc=(+1.0, 0.0), scale=0.9, size=(500, 2))
    test_features = np.vstack([test_x0, test_x1])
    test_labels = np.array([0] * 500 + [1] * 500)

    plain = train(features, labels)
    calibrated = train(features, labels, prior=prior)

    acc_plain = per_class_accuracy(plain, test_features, test_labels)
    acc_cal = per_class_accuracy(calibrated, test_features, test_labels)
    print(f"plain CE, plain argmax:       class0 {acc_plain[0]:.3f}  class1 {acc_plain[1]:.3f}")
    print(f"calibrated CE, plain argmax:  class0 {acc_cal[0]:.3f}  class1 {acc_cal[1]:.3f}")

    logits = forward(plain, test_features)
    balanced = balanced_prediction(logits, prior)
    acc_bal = [float(np.mean(balanced[test_labels == c] == c)) for c in (0, 1)]
    print(f"plain CE, balanced decoding:  class0 {acc_bal[0]:.3f}  class1 {acc_bal[1]:.3f}")
    print()
    print("calibrated training bakes the prior correction into the model;")
    print("balanced decoding applies the same correction after the fact.")


if __name__ == "__main__":
    main()
