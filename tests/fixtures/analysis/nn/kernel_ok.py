"""Clean near-misses for the numpy-kernel rule."""

import numpy as np


def scores(emissions, ids):
    table = np.zeros((2, 2), dtype=np.float64)
    index = np.asarray(ids, dtype=np.intp)
    weights = np.exp(emissions)  # not a constructor: dtype follows the input
    return table, weights[index]
