"""First-order optimisers over flat parameter vectors.

Adam with the usual bias correction is the inner-loop optimiser, with the
customary constants BETA1, BETA2 and EPS.  Its update is a pure function:
state and parameters in, new state and parameters out.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float = 1e-3

    @staticmethod
    def fresh(n: int, lr: float = 1e-3) -> "AdamState":
        return AdamState(np.zeros(n), np.zeros(n), 0, lr)


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray):
    """One bias-corrected Adam update.

    params <- params - lr * m_hat / (sqrt(v_hat) + eps)
    """
    params = np.asarray(params, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if params.shape != grad.shape or state.m.shape != params.shape:
        raise ValueError(
            f"mismatched shapes: params {params.shape}, grad {grad.shape}, state {state.m.shape}"
        )
    t = state.t + 1
    m = BETA1 * state.m + (1.0 - BETA1) * grad
    v = BETA2 * state.v + (1.0 - BETA2) * grad * grad
    m_hat = m / (1.0 - BETA1**t)
    v_hat = v / (1.0 - BETA2**t)
    new_params = params - state.lr * m_hat / (np.sqrt(v_hat) + EPS)
    return replace(state, m=m, v=v, t=t), new_params
