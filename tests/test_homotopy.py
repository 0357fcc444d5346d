"""Contracting-homotopy verifier tests."""

import math

import numpy as np
import pytest

from whlab import homotopy, moebius, spectra
from whlab.errors import DomainError, InputValidationError
from whlab.fell import INF


def test_rotate_zpoint_follows_principal_angles():
    # g(U) has the principal angles 0 and pi/2; phi_t moves each toward pi
    z = moebius.zpoint(np.diag([1.0 + 0j, 1j]))
    assert np.allclose(homotopy.rotate_zpoint(z, 0.0).u, z.u, atol=1e-10)
    half = homotopy.rotate_zpoint(z, 0.5).u
    assert np.allclose(half, np.diag([1j, np.exp(0.75j * math.pi)]), atol=1e-10)
    # the angle of -1 is pi, which every phi_t fixes
    minus = moebius.zpoint(-np.eye(2))
    assert np.allclose(homotopy.rotate_zpoint(minus, 0.5).u, -np.eye(2), atol=1e-10)


def test_rotate_zpoint_rejects_lower_halfcircle():
    u = np.diag([np.exp(-0.5j), 1.0 + 0j])
    z = moebius.ZPoint(u=u, dec=spectra.unitary_eig(u))
    with pytest.raises(DomainError):
        homotopy.rotate_zpoint(z, 0.5)


def test_halfline_formula_values():
    spec = homotopy.make_halfline_homotopy()
    assert spec.phi(0.0, 3.7) == pytest.approx(3.7)
    assert spec.phi(1.0, 3.7) == pytest.approx(0.0)
    assert spec.phi(0.0, INF) == INF
    t = 0.25
    s = 1 - t
    assert spec.phi(t, INF) == pytest.approx(s / math.sqrt(1 - s * s))
    # monotone contraction: the image never exceeds the argument
    for x in (0.1, 1.0, 10.0, 1e4):
        for t in (0.1, 0.5, 0.9):
            assert spec.phi(t, x) <= x


def test_halfline_verifier_passes(rng):
    spec = homotopy.make_halfline_homotopy()
    samples = homotopy.halfline_samples(rng, 50)
    assert 0.0 in samples and INF in samples
    report = homotopy.verify_condition_h(spec, samples=samples)
    assert report["passed"]
    assert report["clauses"] == {
        "boundary_invariance": True,
        "orbit_and_order": True,
        "endpoints": True,
    }


def test_halfline_mutant_fails_orbit_clause(rng):
    report = homotopy.verify_condition_h(
        homotopy.make_halfline_mutant(), samples=homotopy.halfline_samples(rng, 20)
    )
    assert not report["passed"]
    assert not report["clauses"]["orbit_and_order"]
    assert any("orbit" in msg for msg in report["failures"])


def test_unitary_rotation_spectral_drift(rng):
    z = moebius.random_zpoint(rng, 3)
    rotated = homotopy.rotate_zpoint(z, 1.0)
    assert spectra.operator_norm(rotated.u + np.eye(3)) <= 1e-9  # phi_1 = -1
    half = homotopy.rotate_zpoint(z, 0.5)
    assert moebius.classify_zpoint(half.u) != moebius.ZClass.OUTSIDE


def test_unitary_boundary_eigenvalue_is_fixed(rng):
    z = moebius.random_zpoint(rng, 3, force_boundary=True)
    for t in (0.0, 0.3, 0.8, 1.0):
        rotated = homotopy.rotate_zpoint(z, t)
        assert min(abs(lam + 1.0) for lam in rotated.dec.eigenvalues) <= 1e-9


def test_order_containment_examples(rng):
    z = moebius.random_zpoint(rng, 3)
    assert homotopy.order_containment_unitary(z, z)
    for t in (0.2, 0.7, 1.0):
        rotated = homotopy.rotate_zpoint(z, t)
        assert homotopy.order_containment_unitary(rotated, z)
    # strictly rotated points do not contain the original
    angles = [abs(np.angle(lam)) for lam in z.dec.eigenvalues]
    if any(a < math.pi - 0.1 for a in angles):
        rotated = homotopy.rotate_zpoint(z, 0.5)
        assert not homotopy.order_containment_unitary(z, rotated)


def test_order_containment_needs_shared_frame(rng):
    z1 = moebius.random_zpoint(rng, 3)
    z2 = moebius.random_zpoint(rng, 3)
    with pytest.raises(DomainError):
        homotopy.order_containment_unitary(z1, z2)


def test_unitary_verifier_passes(rng):
    from whlab.suites import unitary_samples

    spec = homotopy.make_unitary_homotopy()
    samples = unitary_samples(rng, count=50, dim=3)
    report = homotopy.verify_condition_h(spec, samples=samples)
    assert report["passed"], report["failures"][:5]
    assert report["samples"] == 50 and report["t_points"] == 65


def test_unitary_mutant_fails(rng):
    from whlab.suites import unitary_samples

    report = homotopy.verify_condition_h(
        homotopy.make_unitary_mutant(), samples=unitary_samples(rng, count=12, dim=2)
    )
    assert not report["passed"]
    assert not report["clauses"]["endpoints"]  # phi_1 is the identity, not -1


def test_verifier_requires_endpoints():
    spec = homotopy.make_halfline_homotopy()
    with pytest.raises(InputValidationError):
        homotopy.verify_condition_h(spec, t_grid=[0.0, 0.5], samples=[1.0])


def test_verifier_rejects_samples_outside_model():
    spec = homotopy.make_halfline_homotopy()
    with pytest.raises(InputValidationError):
        homotopy.verify_condition_h(spec, samples=[1.0, -0.5])
    with pytest.raises(InputValidationError):
        homotopy.verify_condition_h(homotopy.make_unitary_homotopy(), samples=["junk"])


def test_report_shape(rng):
    spec = homotopy.make_halfline_homotopy()
    report = homotopy.verify_condition_h(spec, samples=[0.0, 1.0, INF])
    assert report["suite"] == "condition_H"
    assert report["model"] == "halfline"
    assert set(report["clauses"]) == {"boundary_invariance", "orbit_and_order", "endpoints"}
    assert isinstance(report["failures"], list)
