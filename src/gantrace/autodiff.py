"""The one counted vector-Jacobian product of a problem's joint gradient.

The influence sweep's cost contract is one such product per traced step,
however many instances it scores: the step's row scores come with the
product.  ``propagate_query`` is its only caller, so the count read here is
the sweep's.
"""

from __future__ import annotations

import numpy as np

_vjp_gradient_calls = 0


def vjp_gradient_call_count() -> int:
    return _vjp_gradient_calls


def vjp_of_gradient(problem, vector: np.ndarray, params: np.ndarray, latents: np.ndarray,
                    data_rows: np.ndarray, denom: int) -> tuple[np.ndarray, np.ndarray]:
    """``vector^T J`` for the Jacobian ``J`` of ``problem.joint_gradient``
    and the data rows' scores, as ``problem.joint_gradient_vjp`` returns
    them, counted as one call."""
    global _vjp_gradient_calls
    pair = problem.joint_gradient_vjp(vector, params, latents, data_rows, denom)
    _vjp_gradient_calls += 1
    return pair
