"""Contracting-homotopy verification for order compactifications.

A homotopy specification packages a family phi_t together with the model's
boundary test, orbit test and order test.  The verifier checks, on the
uniform grid of T_GRID_POINTS values of t and a sample set, the three clauses
of the contracting-homotopy condition:

  (1) every phi_t maps boundary samples back into the boundary,
  (2) for t in (0, 1], phi_t lands in the semigroup orbit and phi_t(X) is
      contained in X in the model order,
  (3) phi_0 is the identity and phi_1 lands in the boundary,

plus a continuity probe (adjacent grid jumps in the model metric, each at
most CONTINUITY_THRESHOLD).

Path tables: ``spec.path(t, x)`` gives phi_t(x) for a whole array of t, a
row per t, and every test maps a table to one boolean per row.  The verifier
evaluates each sample's path once, on t = 0, t = 1 and the grid; continuity
is one stacked distance of consecutive rows, and the failure messages come
from the tables in the order of a loop over (sample, t).

Two concrete homotopies are shipped.  On the half-line compactification
[0, inf] the normalized contraction

    phi_t(x) = (1-t) x / sqrt((1 - (1-t)^2) x^2 + 1),

whose value at the infinite point is the closed-form limit
(1-t)/sqrt(1-(1-t)^2) for t in (0, 1], handled symbolically.  On the
upper-half-circle unitary model the angle rotation

    phi_t(U) = exp(i((1-t) g(U) + t pi)),

with g the eigenvalue angles (``principal_angles``), through the functional
calculus: the path is the (T, d) table of eigenvalues on the d columns of
U's spectral frame V, and the images V diag(lambda_t) V* are one (T, d, d)
stack sharing that frame exactly.  Deliberately broken variants of both
are shipped for mutation testing of the verifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import spectra
from .errors import DomainError, InputValidationError
from .fell import INF
from .moebius import ZPoint, _in_z
from .spectra import CLUSTER_TOL

T_GRID_POINTS = 65
IDENTITY_TOL = 1e-9  # how far phi_0 may move a sample in the model metric
CONTINUITY_THRESHOLD = 0.25  # the largest jump allowed between adjacent grid points
# slack of the unitary order test; its square root bounds the shared-frame residual
ORDER_TOL = 1e-9

# the per-t failures, in the order the verifier reports them at one t
_PER_T_FAILURES = (
    "boundary not preserved at t={t:.4f}, sample {label}",
    "phi_t leaves the orbit at t={t:.4f}, sample {label}",
    "order containment fails at t={t:.4f}, sample {label}",
    "continuity probe jump {jump:.3f} at t={t:.4f}, sample {label}",
)


@dataclass
class HomotopySpec:
    """A candidate contracting homotopy together with its model's tests: the
    boundary test takes a table or a sample, the orbit test a table,
    ``order_test`` a table and its sample; ``distance`` goes row by row.
    ``describe`` labels a sample in failure messages, and ``sample_check``
    tells whether a sample lies in the model."""

    name: str
    model: str
    path: Callable
    boundary_test: Callable
    orbit_test: Callable
    order_test: Callable
    distance: Callable
    describe: Callable
    sample_check: Callable


def uniform_grid() -> np.ndarray:
    """T_GRID_POINTS evenly spaced values of t from 0 to 1."""
    return np.linspace(0.0, 1.0, T_GRID_POINTS)


def verify_condition_h(spec: HomotopySpec, samples) -> dict:
    """Run all clauses on the grid and samples; returns the report dict, whose
    ``failures`` lists every failure message in order and whose
    ``sample_failures`` holds each sample's messages."""
    t_grid = uniform_grid()
    samples = list(samples)
    for x in samples:
        if not spec.sample_check(x):
            raise InputValidationError(f"sample {x!r} lies outside the model")

    by_sample = []  # each sample's failure messages
    endpoints_ok = True
    failed = np.zeros(len(_PER_T_FAILURES), dtype=bool)  # per-t failure kinds seen
    max_jump = 0.0
    later = t_grid > 0.0
    t_all = np.concatenate(([0.0, 1.0], t_grid))

    for x in samples:
        failures = []
        by_sample.append(failures)
        label = spec.describe(x)
        table = spec.path(t_all, x)
        boundary = spec.boundary_test(table)
        # clause (3): phi_0 = id, and phi_1 lands in the boundary
        if spec.distance(table[0], x) > IDENTITY_TOL:
            endpoints_ok = False
            failures.append(f"phi_0 differs from the identity at sample {label}")
        if not boundary[1]:
            endpoints_ok = False
            failures.append(f"phi_1 misses the boundary at sample {label}")
        grid = table[2:]
        jumps = spec.distance(grid[1:], grid[:-1])
        max_jump = max(max_jump, *jumps.tolist())
        bad = np.zeros((len(t_grid), len(_PER_T_FAILURES)), dtype=bool)
        if spec.boundary_test(x):
            bad[:, 0] = ~boundary[2:]
        bad[later, 1] = ~spec.orbit_test(grid[later])
        bad[later, 2] = ~spec.order_test(grid[later], x)
        bad[1:, 3] = jumps > CONTINUITY_THRESHOLD
        failed |= bad.any(axis=0)
        for i, kind in zip(*bad.nonzero()):  # row-major: t by t, each t's failures in order
            failures.append(_PER_T_FAILURES[kind].format(t=t_grid[i], jump=jumps[i - 1], label=label))

    clauses = dict(boundary_invariance=not failed[0], orbit_and_order=not failed[1:3].any(), endpoints=endpoints_ok)
    return {
        "suite": "condition_H",
        "model": spec.model,
        "name": spec.name,
        "clauses": clauses,
        "continuity_probe": {"passed": not failed[3], "max_jump": max_jump},
        "passed": all(clauses.values()) and not failed[3],
        "failures": [message for failures in by_sample for message in failures],
        "sample_failures": by_sample,
        "samples": len(samples),
        "t_points": len(t_grid),
    }


# ---------------------------------------------------------------------------
# half-line model: Omega = [0, inf], boundary = {0}, orbit = finite points


def halfline_distance(a, b):
    """The model metric |c(a) - c(b)|, c(x) = x/(1+x) and c(inf) = 1, elementwise."""
    with np.errstate(invalid="ignore"):  # inf / inf, replaced by 1
        a, b = (np.where(x == INF, 1.0, x / (1.0 + x)) for x in map(np.asarray, (a, b)))
    return np.abs(a - b)


def _halfline_path(t: np.ndarray, x: float) -> np.ndarray:
    s = 1.0 - t
    if x == INF:
        # closed-form limit of the formula as x -> inf; phi_0(inf) = inf
        with np.errstate(divide="ignore"):
            return np.where(t == 0.0, INF, s / np.sqrt(1.0 - s * s))
    return s * x / np.sqrt((1.0 - s * s) * x * x + 1.0)


def make_halfline_homotopy() -> HomotopySpec:
    return HomotopySpec(
        name="halfline-contraction",
        model="halfline",
        path=_halfline_path,
        boundary_test=lambda p: np.abs(p) <= 1e-12,
        orbit_test=lambda p: p != INF,
        order_test=lambda p, x: (x == INF) | ((p != INF) & (p <= x + 1e-12)),
        distance=halfline_distance,
        describe=lambda x: "inf" if x == INF else f"{x:.6g}",
        sample_check=lambda x: x == INF or x >= 0.0,
    )


def make_halfline_mutant() -> HomotopySpec:
    """Broken variant: the normalizer is dropped, so phi_t no longer pulls the
    infinite point into the orbit for t in (0, 1)."""
    def path(t: np.ndarray, x: float) -> np.ndarray:
        return np.where(t == 1.0, 0.0, INF) if x == INF else (1.0 - t) * x

    return replace(make_halfline_homotopy(), name="halfline-mutant-no-normalizer", path=path)


def halfline_samples(rng: np.random.Generator, count: int = 50) -> list:
    """Boundary, a spread of orbit points, and the infinite point."""
    out = [0.0, INF]
    out.extend(float(x) for x in rng.uniform(0.0, 10.0, size=max(count - 4, 1)))
    out.extend([1e-3, 1e3])
    return out[:max(count, 3)]


# ---------------------------------------------------------------------------
# unitary model: Z = upper-half-circle spectra, boundary = {-1 in spectrum}


@dataclass
class UnitaryPath:
    """phi_t(U) over an array of t: the (T, d) eigenvalue table on the columns
    of U's spectral frame and the (T, d, d) images; rows index like an array."""

    eigenvalues: np.ndarray
    u: np.ndarray

    def __getitem__(self, rows) -> "UnitaryPath":
        return UnitaryPath(self.eigenvalues[rows], self.u[rows])


def principal_angles(z: ZPoint) -> np.ndarray:
    """The angle g of the eigenvalue of each column of U's frame, unwrapped
    into [-s, pi + s] with s = sqrt(CLUSTER_TOL) and not clamped, so exp(i g)
    is U's own eigenvalue even just below the real axis."""
    eigenvalues = z.dec.values
    theta = np.angle(eigenvalues)
    slack = math.sqrt(CLUSTER_TOL)
    theta = np.where(theta <= slack - math.pi, theta + 2.0 * math.pi, theta)
    outside = theta < -slack
    if outside.any():
        raise DomainError(f"eigenvalue {eigenvalues[outside][0]} lies outside the upper half circle")
    return theta


def _rotation(phase: Callable) -> Callable:
    """The path t -> exp(i phase(t, g(U))) through U's spectral frame."""
    def path(t: np.ndarray, z: ZPoint) -> UnitaryPath:
        table = np.exp(1j * phase(t[:, None], principal_angles(z)))
        return UnitaryPath(table, replace(z.dec, values=table).reconstruct())

    return path


def _eigenvalue_table(p) -> np.ndarray:
    """The eigenvalue table of a path; a Z point's spectrum as one row."""
    return p.dec.values[None] if isinstance(p, ZPoint) else p.eigenvalues


def order_containment_table(path: UnitaryPath, z: ZPoint) -> np.ndarray:
    """Row by row, whether U_t lies in U in the model order: U_t acts on the
    eigenspace of U spanned by the k frame columns V_c of one value as
    lambda_c = trace(V_c* U_t V_c) / k, and Re lambda_c <= Re(U's eigenvalue
    there) + ORDER_TOL.  A row with ||U_t V_c - lambda_c V_c||_F >
    sqrt(ORDER_TOL) shares no frame with U: raises."""
    v, own = z.dec.vectors, z.dec.values
    same = own[:, None] == own[None, :]  # same[j, l]: columns j and l hold one eigenvalue
    images = path.u @ v  # column j: U_t v_j
    scalars = np.einsum("aj,taj->tj", v.conj(), images) @ same / same.sum(axis=0)
    squared = np.linalg.norm(images - scalars[:, None, :] * v, axis=1) ** 2 @ same
    if (squared > ORDER_TOL).any():
        raise DomainError("not comparable via a shared spectral frame")
    return (scalars.real <= own.real + ORDER_TOL).all(axis=1)


def make_unitary_homotopy() -> HomotopySpec:
    return HomotopySpec(
        name="unitary-angle-rotation",
        model="unitary",
        path=_rotation(lambda t, theta: (1.0 - t) * theta + t * math.pi),
        boundary_test=lambda p: (np.abs(_eigenvalue_table(p) + 1.0) <= math.sqrt(CLUSTER_TOL)).any(axis=-1),
        orbit_test=lambda p: (np.abs(_eigenvalue_table(p) - 1.0) > CLUSTER_TOL).all(axis=-1),
        order_test=order_containment_table,
        distance=lambda a, b: spectra.operator_norm(a.u - b.u),
        describe=lambda z: f"U(dim={z.dim})",
        sample_check=lambda z: isinstance(z, ZPoint) and _in_z(z.dec.values),
    )


def make_unitary_mutant() -> HomotopySpec:
    """Broken variant: the t*pi drift is dropped, so phi_1 collapses to the
    identity instead of -1 and the boundary is not preserved."""
    return replace(
        make_unitary_homotopy(),
        name="unitary-mutant-no-drift",
        path=_rotation(lambda t, theta: (1.0 - t) * theta),
    )
