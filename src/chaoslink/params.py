"""Map coefficients and settling configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SystemParams:
    """Coefficients of the linear mixing stage plus fold asymmetry and coupling.

    ``a``, ``b``, ``c`` populate the 3x3 mixing matrix, ``beta`` in [0, 1]
    sets the tent-fold asymmetry, and ``gamma`` is the gain applied to the
    first state variable when forming the scalar output ``gamma*x + z``.
    """

    a: float = -4.0 / 3.0
    b: float = 1.0
    c: float = 1.0 / 3.0
    beta: float = 0.5
    gamma: float = -1.0

    def __post_init__(self):
        for name in ("a", "b", "c", "beta", "gamma"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {self.beta}")

    def matrix(self) -> np.ndarray:
        """Linear transformation applied to the state before folding."""
        return np.array(
            [
                [self.a, 0.0, self.b],
                [0.0, self.c, 1.0],
                [1.0, 1.0, 0.0],
            ]
        )

    def replace(self, **changes) -> "SystemParams":
        from dataclasses import replace as _replace

        return _replace(self, **changes)


DEFAULT_PARAMS = SystemParams()


@dataclass(frozen=True)
class SettlingConfig:
    """Normalized hold time ``t_n = T/tau`` of the sample-and-hold stage.

    Each clocked update only moves a fraction ``(1 - exp(-t_n))**2`` of the
    way toward the exact map image, which damps the dynamics for short hold
    times.
    """

    t_n: float

    def __post_init__(self):
        if not (math.isfinite(self.t_n) and self.t_n > 0.0):
            raise ValueError(f"t_n must be positive and finite, got {self.t_n!r}")

    @property
    def weight(self) -> float:
        """Blend weight (1 - exp(-t_n))**2, strictly inside (0, 1)."""
        return (1.0 - math.exp(-self.t_n)) ** 2
