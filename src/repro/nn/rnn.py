"""LSTM and bidirectional LSTM over padded batches.

Sequences are dense ``(batch, time, features)`` arrays accompanied by a
``(batch, time)`` mask; masked steps carry the previous hidden state through,
so padding never contaminates the recurrence.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor

__all__ = ["LSTM", "BiLSTM"]


class LSTM(Module):
    """Single-direction LSTM.

    Gate layout in the fused weight matrices is ``[input, forget, cell, output]``.
    The forget-gate bias is initialised to 1, the standard trick for gradient
    flow early in training.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.input_size = input_size
        self.hidden_size = hidden_size
        h = hidden_size
        self.w_ih = Parameter(init.xavier_uniform(rng, (4 * h, input_size)))
        self.w_hh = Parameter(np.concatenate([init.orthogonal(rng, (h, h)) for _ in range(4)], axis=0))
        bias = np.zeros(4 * h, dtype=np.float64)
        bias[h : 2 * h] = 1.0  # forget gate
        self.bias = Parameter(bias)

    def __call__(
        self,
        x: Tensor,
        mask: Optional[np.ndarray] = None,
        reverse: bool = False,
    ) -> Tensor:
        """Run the recurrence.

        Parameters
        ----------
        x:
            ``(B, T, input_size)`` inputs.
        mask:
            ``(B, T)`` 1/0 validity mask; ``None`` means all valid.
        reverse:
            process time steps from last to first (used by :class:`BiLSTM`).

        Returns
        -------
        Tensor
            ``(B, T, hidden_size)`` hidden states, aligned with the input
            order regardless of ``reverse``.
        """
        batch, steps, _ = x.shape
        h_size = self.hidden_size
        if mask is None:
            mask = np.ones((batch, steps), dtype=np.float64)
        mask = np.asarray(mask, dtype=np.float64)

        h = Tensor(np.zeros((batch, h_size), dtype=np.float64))
        c = Tensor(np.zeros((batch, h_size), dtype=np.float64))
        w_ih_t = self.w_ih.swapaxes(0, 1)
        w_hh_t = self.w_hh.swapaxes(0, 1)
        # Pre-compute the input contribution for all steps at once.
        x_proj = x.matmul(w_ih_t) + self.bias  # (B, T, 4H)

        order = range(steps - 1, -1, -1) if reverse else range(steps)
        outputs = [None] * steps
        for t in order:
            z = x_proj[:, t, :] + h.matmul(w_hh_t)  # (B, 4H)
            i_gate = z[:, 0:h_size].sigmoid()
            f_gate = z[:, h_size : 2 * h_size].sigmoid()
            g_gate = z[:, 2 * h_size : 3 * h_size].tanh()
            o_gate = z[:, 3 * h_size : 4 * h_size].sigmoid()
            c_new = f_gate * c + i_gate * g_gate
            h_new = o_gate * c_new.tanh()
            m = mask[:, t : t + 1]
            h = h_new * m + h * (1.0 - m)
            c = c_new * m + c * (1.0 - m)
            outputs[t] = h
        return Tensor.stack(outputs, axis=1)


class BiLSTM(Module):
    """Bidirectional LSTM: concatenation of forward and backward passes.

    Output feature size is ``2 * hidden_size``.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        super().__init__()
        self.hidden_size = hidden_size
        self.forward_lstm = LSTM(input_size, hidden_size, rng)
        self.backward_lstm = LSTM(input_size, hidden_size, rng)

    def __call__(self, x: Tensor, mask: Optional[np.ndarray] = None) -> Tensor:
        fwd = self.forward_lstm(x, mask=mask, reverse=False)
        bwd = self.backward_lstm(x, mask=mask, reverse=True)
        return Tensor.concat([fwd, bwd], axis=-1)
