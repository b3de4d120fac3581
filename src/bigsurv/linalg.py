"""The scaled, refined solve of weighted Gram systems shared by the
calibration and regression estimators, and the error that names
collinear controls when the system is not solvable."""

from __future__ import annotations

import numpy as np

__all__ = ["SingularControlsError", "gram_solve"]

# beyond this the control set is treated as collinear rather than solvable
CONDITION_LIMIT = 1e12


class SingularControlsError(ValueError):
    """A control/regressor set is collinear beyond working precision."""

    def __init__(self, message: str, names=()):
        super().__init__(message)
        self.names = tuple(names)


def _collinear_names(scaled_gram: np.ndarray, names) -> tuple[str, ...]:
    _, _, vt = np.linalg.svd(scaled_gram)
    null = np.abs(vt[-1])
    keep = null >= 0.3 * null.max()
    return tuple(str(names[j]) for j in np.flatnonzero(keep))


def gram_solve(x: np.ndarray, d: np.ndarray, rhs: np.ndarray, names=None):
    """Solve ``(sum_i d_i x_i x_i') sol = rhs`` with column scaling.

    Columns are rescaled to unit weighted norm before solving (results
    are mapped back exactly), the scaled condition number is estimated,
    and one step of iterative refinement keeps the residual near
    working precision.  Returns ``(sol, condition)``.
    """
    x = np.asarray(x, float)
    if x.ndim != 2:
        raise ValueError("x must be (n, p)")
    n, p = x.shape
    if names is None:
        names = [f"control[{j}]" for j in range(p)]
    xd = x * np.asarray(d, float)[:, None]
    gram = xd.T @ x
    scale = np.sqrt(np.diag(gram))
    if not np.all(scale > 0):
        dead = [str(names[j]) for j in np.flatnonzero(scale <= 0)]
        raise SingularControlsError(
            f"controls with zero weighted norm: {', '.join(dead)}", dead
        )
    scaled = gram / np.outer(scale, scale)
    condition = float(np.linalg.cond(scaled))
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        bad = _collinear_names(scaled, names)
        raise SingularControlsError(
            f"collinear controls (condition {condition:.2e}): {', '.join(bad)}", bad
        )
    rhs_s = np.asarray(rhs, float) / scale
    sol_s = np.linalg.solve(scaled, rhs_s)
    sol_s += np.linalg.solve(scaled, rhs_s - scaled @ sol_s)
    return sol_s / scale, condition

