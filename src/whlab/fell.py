"""Fell-topology convergence on a grid and concrete order-compactification models.

Two desk models of the order compactification Omega (the closure of the
right translates P^{-1}a of the inverted semigroup):

* ``halfline``  P = [0, infinity) in R; Omega is [0, infinity] with x standing
  for the ray (-infinity, x] and the infinite point standing for R itself.
* ``discrete``  P = N in Z; same picture with integer values.

Convergence of closed-set sequences is judged on a sampling grid.  The Fell
liminf/limsup tail quantifiers are vacuous on a literal finite list (both
collapse to the final set), so the finite-sequence convention here is: the
first half of the list is burn-in, the second half is taken as representative
of the asymptotic behavior, and liminf/limsup become the fattened
intersection/union over that tail, with one-grid-step fattening.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InputValidationError

INF = math.inf

# The most grid points a ClosedSetModel window may hold.  fell_limit judges
# every point of the grid in Python, so a grid this long already takes
# seconds; a window beyond it is rejected before anything is allocated.
MAX_GRID_POINTS = 100_000


@dataclass(frozen=True)
class OmegaPoint:
    """A point of an order-compactification model.

    model "halfline": value is a float in [0, inf]; inf encodes the full line.
    model "discrete": value is an int >= 0 or inf.
    """

    model: str
    value: object

    def __post_init__(self):
        if self.model not in ("halfline", "discrete"):
            raise InputValidationError(f"unknown model {self.model!r}")
        if self.value != INF and self.value < 0:
            raise InputValidationError(f"{self.model} value must be >= 0 or inf")

    @property
    def is_infinite(self) -> bool:
        return self.value == INF


def halfline(x) -> OmegaPoint:
    return OmegaPoint("halfline", float(x) if x != INF else INF)


def discrete_value(n):
    """A unit of the discrete model as an int >= 0 or INF; anything else is rejected."""
    if isinstance(n, numbers.Real) and not isinstance(n, bool) and n >= 0 and (n == INF or int(n) == n):
        return INF if n == INF else int(n)
    raise InputValidationError(f"unit value must be a nonnegative integer or inf: {n}")


def integer_value(g) -> int:
    """An integer (a group element of Z) as an int; 2.0 is accepted, a bool or
    anything that is not an integer is rejected."""
    if isinstance(g, numbers.Real) and not isinstance(g, bool):
        if isinstance(g, numbers.Integral) or (math.isfinite(g) and int(g) == g):
            return int(g)
    raise InputValidationError(f"group element must be an integer: {g!r}")


def discrete(n) -> OmegaPoint:
    return OmegaPoint("discrete", discrete_value(n))


def point_contains(x: OmegaPoint, g) -> bool:
    """Raw membership g in the closed set that x stands for."""
    return True if x.is_infinite else g <= x.value


def translate(x: OmegaPoint, g) -> OmegaPoint:
    """Right translate X.g; the result may land in the extended model
    (halfline/discrete value below zero) rather than Omega itself."""
    if x.is_infinite:
        return x
    value = x.value + g
    return OmegaPoint(x.model, value) if value >= 0 else ExtendedPoint(x.model, value)


@dataclass(frozen=True)
class ExtendedPoint:
    """A point of the extended model (union of Omega right-translates)."""

    model: str
    value: object

    @property
    def is_infinite(self) -> bool:
        return self.value == INF


def in_omega(x) -> bool:
    """Whether a (possibly extended) point lies in Omega itself."""
    return x.is_infinite or x.value >= 0


def omega_qset(x: OmegaPoint, g) -> bool:
    """Membership of g in Q_X = {g : X.g in Omega}, computed model-explicitly.

    Equals the raw inverse-membership test g^{-1} in X; the test suite checks
    that the two routes agree.
    """
    return True if x.is_infinite else x.value + g >= 0


@dataclass
class ClosedSetModel:
    """A closed subset of the line presented by a membership oracle on a
    windowed grid.

    ambient "Z" uses the integer grid (grid_step forced to 1, no fattening);
    ambient "R" samples window on a uniform grid of the given step.
    """

    ambient: str
    membership: Callable[[float], bool]
    window: tuple
    grid_step: float = 1.0

    def __post_init__(self):
        if self.ambient not in ("Z", "R"):
            raise InputValidationError(f"unknown ambient {self.ambient!r}")
        if self.ambient == "Z":
            self.grid_step = 1.0
        if not (math.isfinite(self.grid_step) and self.grid_step > 0):
            raise InputValidationError("grid_step must be a positive finite number")
        lo, hi = self.window
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise InputValidationError("window must be a finite nondegenerate interval")
        # grid steps across the window; inf when (hi - lo) / step overflows
        steps = math.floor(hi) - math.ceil(lo) if self.ambient == "Z" else (hi - lo) / self.grid_step
        if not steps < MAX_GRID_POINTS:
            raise InputValidationError(
                f"window holds about {float(steps) + 1:.3g} grid points, more than MAX_GRID_POINTS = {MAX_GRID_POINTS}"
            )

    def grid(self) -> np.ndarray:
        lo, hi = self.window
        if self.ambient == "Z":
            return np.arange(math.ceil(lo), math.floor(hi) + 1, dtype=float)
        n = int(math.floor((hi - lo) / self.grid_step + 1e-9)) + 1
        return lo + self.grid_step * np.arange(n)

    def near(self, p: float) -> bool:
        """Fattened membership: the set comes within one grid step of p."""
        if self.ambient == "Z":
            return bool(self.membership(p))
        h = self.grid_step
        return bool(self.membership(p) or self.membership(p - h) or self.membership(p + h))

    def compatible_with(self, other: "ClosedSetModel") -> bool:
        return (
            self.ambient == other.ambient
            and self.window == other.window
            and abs(self.grid_step - other.grid_step) < 1e-12
        )


# boundary slack for the shipped membership oracles: grid points are floats
# and may drift by rounding onto the wrong side of a closed boundary
MEMBERSHIP_SLACK = 1e-9


def ray(endpoint: float, ambient: str, window, grid_step: float = 1.0) -> ClosedSetModel:
    """The lower ray (-infinity, endpoint]."""
    return ClosedSetModel(
        ambient, lambda t, e=endpoint: t <= e + MEMBERSHIP_SLACK, tuple(window), grid_step
    )


def interval(lo: float, hi: float, ambient: str, window, grid_step: float = 1.0) -> ClosedSetModel:
    return ClosedSetModel(
        ambient,
        lambda t, a=lo, b=hi: a - MEMBERSHIP_SLACK <= t <= b + MEMBERSHIP_SLACK,
        tuple(window),
        grid_step,
    )


def finite_set(points, ambient: str, window, grid_step: float = 1.0) -> ClosedSetModel:
    pts = sorted(float(p) for p in points)

    def member(t, pts=tuple(pts)):
        return any(abs(t - p) <= MEMBERSHIP_SLACK for p in pts)

    return ClosedSetModel(ambient, member, tuple(window), grid_step)


@dataclass
class FellLimit:
    converged: bool
    grid: np.ndarray
    liminf_mask: np.ndarray
    limsup_mask: np.ndarray


def fell_limit(seq) -> FellLimit:
    """Grid-discretized Fell limit of a finite sequence of closed sets.

    The tail half of the list is taken as the asymptotic behavior (see the
    module docstring for the convention): liminf is the fattened intersection
    over the tail, limsup the fattened union, and the sequence converges
    exactly when the two masks agree on every grid point.
    """
    seq = list(seq)
    if not seq:
        raise InputValidationError("empty sequence")
    first = seq[0]
    for s in seq[1:]:
        if not first.compatible_with(s):
            raise InputValidationError("sets must share ambient, window and grid")

    grid = first.grid()
    tail = seq[len(seq) // 2 :]
    liminf_mask = np.array([all(s.near(p) for s in tail) for p in grid])
    limsup_mask = np.array([any(s.near(p) for s in tail) for p in grid])
    converged = bool(np.array_equal(liminf_mask, limsup_mask))
    return FellLimit(converged, grid, liminf_mask, limsup_mask)
