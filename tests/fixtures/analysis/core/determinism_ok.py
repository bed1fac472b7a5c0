"""Clean near-misses for the determinism rule."""

import numpy as np


def rank(scores):
    order = np.argsort(scores, kind="stable")
    merged = scores.argsort(kind="mergesort")
    return order, merged
