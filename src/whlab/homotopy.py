"""Contracting-homotopy verification for order compactifications.

A homotopy specification packages a family phi_t together with the model's
boundary test, orbit test and order test.  The verifier checks, on a t-grid
and a sample set, the three clauses of the contracting-homotopy condition:

  (1) every phi_t maps boundary samples back into the boundary,
  (2) for t in (0, 1], phi_t lands in the semigroup orbit and phi_t(X) is
      contained in X in the model order,
  (3) phi_0 is the identity and phi_1 lands in the boundary,

plus a continuity probe (adjacent grid jumps in the model metric).

Two concrete homotopies are shipped.  On the half-line compactification
[0, inf] the normalized contraction

    phi_t(x) = (1-t) x / sqrt((1 - (1-t)^2) x^2 + 1),

whose value at the infinite point is the closed-form limit
(1-t)/sqrt(1-(1-t)^2) for t in (0, 1], handled symbolically.  On the
upper-half-circle unitary model the angle rotation

    phi_t(U) = exp(i((1-t) g(U) + t pi)),

with g the principal angle in [0, pi], applied through the functional
calculus so that phi_t(U) shares U's spectral frame exactly.  Deliberately
broken variants of both are shipped for mutation testing of the verifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import spectra
from .errors import DomainError, InputValidationError
from .fell import INF
from .moebius import ZPoint
from .spectra import CLUSTER_TOL, DEFAULT_TOL, SpectralDecomposition

DEFAULT_T_GRID = 65


@dataclass
class HomotopySpec:
    """A candidate contracting homotopy together with its model's tests."""

    name: str
    model: str
    phi: Callable
    boundary_test: Callable
    orbit_test: Callable
    order_test: Callable
    distance: Callable
    describe: Callable = staticmethod(lambda x: repr(x))
    sample_check: Callable | None = None


def uniform_grid(points: int = DEFAULT_T_GRID) -> np.ndarray:
    if points < 2:
        raise InputValidationError("need at least the endpoints 0 and 1")
    return np.linspace(0.0, 1.0, points)


def verify_condition_h(
    spec: HomotopySpec,
    t_grid=None,
    samples=None,
    tol: float = 1e-9,
    continuity_threshold: float = 0.25,
) -> dict:
    """Run all clauses on the grid and samples; returns the report dict."""
    t_grid = uniform_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    if abs(t_grid[0]) > 1e-15 or abs(t_grid[-1] - 1.0) > 1e-15:
        raise InputValidationError("t grid must include 0 and 1")
    if samples is None:
        raise InputValidationError("samples are required")
    samples = list(samples)

    if spec.sample_check is not None:
        for x in samples:
            if not spec.sample_check(x):
                raise InputValidationError(f"sample {x!r} lies outside the model")

    failures = []
    clause_boundary = True
    clause_orbit_order = True
    clause_endpoints = True
    continuity_ok = True
    max_jump = 0.0

    for idx, x in enumerate(samples):
        label = spec.describe(x)
        # clause (3): phi_0 = id
        if spec.distance(spec.phi(0.0, x), x) > tol:
            clause_endpoints = False
            failures.append(f"phi_0 differs from the identity at sample {label}")
        # clause (3): phi_1 lands in the boundary
        if not spec.boundary_test(spec.phi(1.0, x)):
            clause_endpoints = False
            failures.append(f"phi_1 misses the boundary at sample {label}")
        is_boundary = spec.boundary_test(x)
        previous = None
        for t in t_grid:
            image = spec.phi(float(t), x)
            if is_boundary and not spec.boundary_test(image):
                clause_boundary = False
                failures.append(f"boundary not preserved at t={t:.4f}, sample {label}")
            if t > 0.0:
                if not spec.orbit_test(image):
                    clause_orbit_order = False
                    failures.append(f"phi_t leaves the orbit at t={t:.4f}, sample {label}")
                if not spec.order_test(image, x):
                    clause_orbit_order = False
                    failures.append(f"order containment fails at t={t:.4f}, sample {label}")
            if previous is not None:
                jump = spec.distance(image, previous)
                max_jump = max(max_jump, jump)
                if jump > continuity_threshold:
                    continuity_ok = False
                    failures.append(
                        f"continuity probe jump {jump:.3f} at t={t:.4f}, sample {label}"
                    )
            previous = image

    clauses = {
        "boundary_invariance": clause_boundary,
        "orbit_and_order": clause_orbit_order,
        "endpoints": clause_endpoints,
    }
    return {
        "suite": "condition_H",
        "model": spec.model,
        "name": spec.name,
        "clauses": clauses,
        "continuity_probe": {"passed": continuity_ok, "max_jump": max_jump},
        "passed": all(clauses.values()) and continuity_ok,
        "failures": failures,
        "samples": len(samples),
        "t_points": len(t_grid),
    }


# ---------------------------------------------------------------------------
# half-line model: Omega = [0, inf], boundary = {0}, orbit = finite points


def _halfline_metric_coordinate(x: float) -> float:
    return 1.0 if x == INF else x / (1.0 + x)


def halfline_distance(a: float, b: float) -> float:
    return abs(_halfline_metric_coordinate(a) - _halfline_metric_coordinate(b))


def make_halfline_homotopy() -> HomotopySpec:
    def phi(t: float, x: float) -> float:
        s = 1.0 - t
        if x == INF:
            # closed-form limit of the formula as x -> inf
            return INF if t == 0.0 else s / math.sqrt(1.0 - s * s)
        return s * x / math.sqrt((1.0 - s * s) * x * x + 1.0)

    return HomotopySpec(
        name="halfline-contraction",
        model="halfline",
        phi=phi,
        boundary_test=lambda x: x != INF and abs(x) <= 1e-12,
        orbit_test=lambda x: x != INF,
        order_test=lambda new, old: old == INF or (new != INF and new <= old + 1e-12),
        distance=halfline_distance,
        describe=lambda x: "inf" if x == INF else f"{x:.6g}",
        sample_check=lambda x: x == INF or x >= 0.0,
    )


def make_halfline_mutant() -> HomotopySpec:
    """Broken variant: the normalizer is dropped, so phi_t no longer pulls the
    infinite point into the orbit for t in (0, 1)."""
    def phi(t: float, x: float) -> float:
        s = 1.0 - t
        if x == INF:
            return 0.0 if s == 0.0 else INF
        return s * x

    good = make_halfline_homotopy()
    return HomotopySpec(
        name="halfline-mutant-no-normalizer",
        model="halfline",
        phi=phi,
        boundary_test=good.boundary_test,
        orbit_test=good.orbit_test,
        order_test=good.order_test,
        distance=good.distance,
        describe=good.describe,
        sample_check=good.sample_check,
    )


def halfline_samples(rng: np.random.Generator, count: int = 50) -> list:
    """Boundary, a spread of orbit points, and the infinite point."""
    out = [0.0, INF]
    out.extend(float(x) for x in rng.uniform(0.0, 10.0, size=max(count - 4, 1)))
    out.extend([1e-3, 1e3])
    return out[:max(count, 3)]


# ---------------------------------------------------------------------------
# unitary model: Z = upper-half-circle spectra, boundary = {-1 in spectrum}


def angle_log(u, tol: float = DEFAULT_TOL, cluster: float = CLUSTER_TOL, seed: int = 0):
    """g(U): the Hermitian with the principal angles of U in [0, pi] on U's
    spectral projections; eigenvalues within the clustering threshold of the
    endpoints are clamped."""
    if isinstance(u, ZPoint):
        dec = u.dec
    else:
        dec = spectra.unitary_eig(u, tol=100 * tol, seed=seed)
    angles = [_principal_angle(lam, cluster, tol) for lam in dec.eigenvalues]
    out = np.zeros((dec.dim, dec.dim), dtype=np.complex128)
    for theta, proj in zip(angles, dec.projections):
        out += theta * proj
    return 0.5 * (out + out.conj().T)


def _principal_angle(lam: complex, cluster: float, tol: float) -> float:
    theta = float(np.angle(lam))
    if theta < 0.0:
        if theta >= -math.sqrt(max(tol, cluster)):
            return 0.0
        if theta <= -math.pi + math.sqrt(max(tol, cluster)):
            return math.pi
        raise DomainError(f"eigenvalue {lam} lies outside the upper half circle")
    return min(theta, math.pi)


def rotate_zpoint(z: ZPoint, t: float) -> ZPoint:
    """phi_t through the functional calculus; the spectral frame is shared."""
    angles = [_principal_angle(lam, CLUSTER_TOL, z.tol) for lam in z.dec.eigenvalues]
    new_eigs = np.array([np.exp(1j * ((1.0 - t) * th + t * math.pi)) for th in angles])
    u = np.zeros((z.dim, z.dim), dtype=np.complex128)
    for lam, proj in zip(new_eigs, z.dec.projections):
        u += lam * proj
    dec = SpectralDecomposition(new_eigs, list(z.dec.projections), tol=z.tol)
    return ZPoint(u=u, dec=dec, tol=z.tol)


def order_containment_unitary(u1: ZPoint, u2: ZPoint, tol: float = 1e-9) -> bool:
    """Containment of the model point of u1 in that of u2 when both share
    u2's spectral frame: Re(eigenvalue of u1) <= Re(eigenvalue of u2)
    projection by projection."""
    for lam2, proj in zip(u2.dec.eigenvalues, u2.dec.projections):
        trace = np.trace(proj).real
        if trace < 0.5:
            continue
        lam1 = complex(np.trace(proj @ u1.u)) / trace
        residual = np.linalg.norm(u1.u @ proj - lam1 * proj)
        if residual > math.sqrt(tol):
            raise DomainError("not comparable via a shared spectral frame")
        if lam1.real > lam2.real + tol:
            return False
    return True


def _has_minus_one(z: ZPoint, cluster: float = CLUSTER_TOL) -> bool:
    return bool(min(abs(lam + 1.0) for lam in z.dec.eigenvalues) <= math.sqrt(cluster))


def _misses_one(z: ZPoint, cluster: float = CLUSTER_TOL) -> bool:
    return bool(min(abs(lam - 1.0) for lam in z.dec.eigenvalues) > cluster)


def _in_z(z) -> bool:
    return isinstance(z, ZPoint) and all(
        float(np.imag(lam)) >= -1e-7 for lam in z.dec.eigenvalues
    )


def make_unitary_homotopy(tol: float = 1e-9) -> HomotopySpec:
    return HomotopySpec(
        name="unitary-angle-rotation",
        model="unitary",
        phi=lambda t, z: rotate_zpoint(z, t),
        boundary_test=_has_minus_one,
        orbit_test=_misses_one,
        order_test=lambda new, old: order_containment_unitary(new, old, tol=tol),
        distance=lambda a, b: spectra.operator_norm(a.u - b.u),
        describe=lambda z: f"U(dim={z.dim})",
        sample_check=_in_z,
    )


def make_unitary_mutant(tol: float = 1e-9) -> HomotopySpec:
    """Broken variant: the t*pi drift is dropped, so phi_1 collapses to the
    identity instead of -1 and the boundary is not preserved."""
    def phi(t: float, z: ZPoint) -> ZPoint:
        angles = [_principal_angle(lam, CLUSTER_TOL, z.tol) for lam in z.dec.eigenvalues]
        new_eigs = np.array([np.exp(1j * (1.0 - t) * th) for th in angles])
        u = np.zeros((z.dim, z.dim), dtype=np.complex128)
        for lam, proj in zip(new_eigs, z.dec.projections):
            u += lam * proj
        return ZPoint(u=u, dec=SpectralDecomposition(new_eigs, list(z.dec.projections), tol=z.tol), tol=z.tol)

    good = make_unitary_homotopy(tol=tol)
    return HomotopySpec(
        name="unitary-mutant-no-drift",
        model="unitary",
        phi=phi,
        boundary_test=good.boundary_test,
        orbit_test=good.orbit_test,
        order_test=good.order_test,
        distance=good.distance,
        describe=good.describe,
        sample_check=good.sample_check,
    )
