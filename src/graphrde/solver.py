"""Fixed-step integration of the window-piecewise dynamics.

The control (a window's log-signature) is constant within each window,
so integration proceeds window by window.  Each window is stepped over
unit time, as in the log-ODE method: on a window of length L,
dX/dt = f(X) ell / L over [0, L] is the same map as dX/ds = f(X) ell over
[0, 1].  ``steps_per_window`` equal steps of Euler or classical
Runge-Kutta 4 per window land exactly on its end.  All state
updates go through the taped tensor ops, so gradients flow through the
unrolled solver (discretize-then-optimize).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor as T
from .errors import BlowupError, ConfigError, NonFiniteError
from .tensor import Tensor

METHODS = ("euler", "rk4")
CONVERGENCE_EXPONENTS = range(2, 7)  # ``convergence_order`` steps by 2^-k for these k

RhsFn = Callable[[list[Tensor]], list[Tensor]]


@dataclass
class SolveSpec:
    """Integration method and resolution."""

    method: str = "rk4"
    steps_per_window: int = 2

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"unknown solver method {self.method!r}; expected one of {METHODS}")
        if self.steps_per_window < 1:
            raise ConfigError(f"steps_per_window must be >= 1, got {self.steps_per_window}")


def step(method: str, rhs: RhsFn, state: list[Tensor], h: float) -> list[Tensor]:
    """One fixed step of the chosen method on a list-of-tensors state."""
    if method == "euler":
        k1 = rhs(state)
        return [s + h * d for s, d in zip(state, k1)]
    if method == "rk4":
        k1 = rhs(state)
        k2 = rhs([s + (h / 2.0) * d for s, d in zip(state, k1)])
        k3 = rhs([s + (h / 2.0) * d for s, d in zip(state, k2)])
        k4 = rhs([s + h * d for s, d in zip(state, k3)])
        return [
            s + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
            for s, a, b, c, d in zip(state, k1, k2, k3, k4)
        ]
    raise ConfigError(f"unknown solver method {method!r}")


def integrate(
    state: list[Tensor],
    coords: np.ndarray,
    spec: SolveSpec,
    rhs: Callable[[list[Tensor], Tensor], list[Tensor]],
) -> list[Tensor]:
    """March a list-of-tensors state across every log-signature window.

    Window ``w`` has log-signature ``coords[w]``, which must
    broadcast-match the state's leading axes, shape (.., nodes, L);
    ``rhs(state, ell)`` is the state's derivative on the window, which
    spans unit time.
    """
    h = 1.0 / spec.steps_per_window
    for w in range(len(coords)):
        ell = T.constant(coords[w])

        def window_rhs(tensors: list[Tensor]) -> list[Tensor]:
            return rhs(tensors, ell)

        for k in range(spec.steps_per_window):
            try:
                state = step(spec.method, window_rhs, state, h)
            except NonFiniteError as exc:
                raise BlowupError(
                    f"state diverged during window {w}, step {k}: {exc}", window=w, step=k
                ) from exc
    return state


def convergence_order(method: str) -> float:
    """Measured order of accuracy on the linear test problem z' = -z.

    Integrates over [0, 1] from z(0) = 1 at step sizes 2^-k for k in
    ``CONVERGENCE_EXPONENTS`` and returns the slope of log(error) against
    log(h); Euler should measure close to 1, RK4 close to 4.
    """
    hs, errs = [], []
    for k in CONVERGENCE_EXPONENTS:
        h = 2.0**-k
        n = round(1.0 / h)
        state = [T.constant(1.0)]
        rhs: RhsFn = lambda ts: [-1.0 * ts[0]]
        for _ in range(n):
            state = step(method, rhs, state, h)
        hs.append(h)
        errs.append(abs(state[0].item() - math.exp(-1.0)))
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return float(slope)
