#!/usr/bin/env python3
"""Fusion labels and the round-driven mixing schedule.

A client's teacher signal is a convex mix alpha * P + (1 - alpha) * Y
of its previous soft outputs P and the one-hot truth Y, with alpha
growing linearly over the communication rounds: early rounds trust the
labels, late rounds trust accumulated personal knowledge. Below alpha
0.5 the true class always keeps the argmax, so the teacher never
contradicts the label outright.
"""
import numpy as np

from fedpsd import alpha_schedule, fuse_labels, one_hot


def main() -> None:
    t_total = 200
    print("alpha schedule over a 200-round experiment:")
    for t in (0, 20, 50, 100, 150, 200):
        print(f"  round {t:3d}: alpha = {alpha_schedule(t, t_total):.3f}")
    print()

    teacher = np.array([0.10, 0.70, 0.15, 0.05])
    truth = one_hot(np.array([2]), 4)[0]
    print(f"teacher (confidently wrong): {teacher}")
    print(f"truth one-hot:               {truth}")
    for alpha in (0.0, 0.25, 0.49, 0.75, 1.0):
        fused = fuse_labels(teacher, truth, alpha)
        marker = "argmax keeps truth" if int(np.argmax(fused)) == 2 else "teacher wins"
        print(f"  alpha {alpha:.2f}: {np.round(fused, 3)}  ({marker})")


if __name__ == "__main__":
    main()
