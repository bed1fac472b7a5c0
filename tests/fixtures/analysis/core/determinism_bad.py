"""Seeded determinism violations (fixture corpus — never imported)."""

import numpy as np


def rank(scores):
    order = np.argsort(scores)
    fast = scores.argsort(kind="quicksort")
    return order, fast
