"""First-order optimisers over flat parameter vectors.

Adam with the usual bias correction is the inner-loop optimiser, with the
customary constants BETA1, BETA2 and EPS.  Its update works in place: it
overwrites the parameters and the state's moments, and advances the
state's step count.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float
    scratch: tuple[np.ndarray, np.ndarray]  # two vectors the step writes through

    @staticmethod
    def fresh(n: int, lr: float = 1e-3) -> "AdamState":
        return AdamState(np.zeros(n), np.zeros(n), 0, lr, (np.empty(n), np.empty(n)))


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray) -> None:
    """One bias-corrected Adam update of ``params``, ``state.m``,
    ``state.v`` and ``state.t`` in place.

    params <- params - lr * m_hat / (sqrt(v_hat) + eps)
    """
    if params.shape != grad.shape or state.m.shape != params.shape:
        raise ValueError(
            f"mismatched shapes: params {params.shape}, grad {grad.shape}, state {state.m.shape}"
        )
    state.t += 1
    t = state.t
    m, v, (tmp, tmp2) = state.m, state.v, state.scratch
    m *= BETA1
    m += np.multiply(1.0 - BETA1, grad, out=tmp)
    v *= BETA2
    np.multiply(1.0 - BETA2, grad, out=tmp)
    v += np.multiply(tmp, grad, out=tmp)
    np.divide(m, 1.0 - BETA1**t, out=tmp)  # lr m_hat / (sqrt(v_hat) + eps)
    tmp *= state.lr
    np.sqrt(np.divide(v, 1.0 - BETA2**t, out=tmp2), out=tmp2)
    tmp2 += EPS
    params -= np.divide(tmp, tmp2, out=tmp)
