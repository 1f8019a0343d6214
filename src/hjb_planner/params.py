"""Shared model constants for the production-planning solver."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass


def exact_int(name: str, value) -> int:
    """value as an exact int; a ValueError naming the field refuses 2.5 and 2.0."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ModelParams:
    """Problem constants shared by every module.

    n_goods : number of good types, N >= 1.
    sigma   : diffusion coefficient of each inventory component
              (inventory-units per sqrt(time)), > 0.
    radius  : Euclidean-norm threshold at which production stops, > 0.

    The value kernel is normalized to u(0) = 1: the optimal control is
    invariant under rescaling of the kernel, and the expected cost uses
    log-differences, where the scale cancels anyway.
    """

    n_goods: int
    sigma: float
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_goods", exact_int("n_goods", self.n_goods))
        object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "radius", float(self.radius))
        if self.n_goods < 1:
            raise ValueError(f"n_goods must be >= 1, got {self.n_goods}")
        if not (math.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError(f"sigma must be a positive finite real, got {self.sigma}")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"radius must be a positive finite real, got {self.radius}")
