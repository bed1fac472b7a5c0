"""Seeded numpy-kernel violations (fixture corpus — never imported)."""

import numpy as np


def scores(emissions, ids):
    table = np.zeros((2, 2))
    index = np.asarray(ids)
    return table, emissions[index]
