"""Contracting-homotopy verifier tests."""

import math
from dataclasses import replace

import numpy as np
import pytest

from frames import clusters
from whlab import homotopy, moebius, spectra
from whlab.errors import DomainError, InputValidationError
from whlab.fell import INF


def _path(spec, x, *ts):
    return spec.path(np.array(ts, dtype=float), x)


def test_rotation_path_follows_principal_angles():
    # g(U) has the principal angles 0 and pi/2; phi_t moves each toward pi
    spec = homotopy.make_unitary_homotopy()
    z = moebius.zpoint(np.diag([1.0 + 0j, 1j]))
    path = _path(spec, z, 0.0, 0.5)
    assert np.allclose(path.u[0], z.u, atol=1e-10)
    assert np.allclose(path.u[1], np.diag([1j, np.exp(0.75j * math.pi)]), atol=1e-10)
    assert np.allclose(np.sort_complex(path.eigenvalues[1]), np.sort_complex([1j, np.exp(0.75j * math.pi)]))
    # the angle of -1 is pi, which every phi_t fixes
    minus = moebius.zpoint(-np.eye(2))
    assert np.allclose(_path(spec, minus, 0.5).u[0], -np.eye(2), atol=1e-10)


def test_principal_angles_reject_lower_halfcircle():
    u = np.diag([np.exp(-0.5j), 1.0 + 0j])
    z = moebius.ZPoint(u=u, dec=spectra.unitary_eig(u))
    with pytest.raises(DomainError):
        homotopy.principal_angles(z)
    with pytest.raises(DomainError):
        _path(homotopy.make_unitary_homotopy(), z, 0.5)


def test_halfline_formula_values():
    spec = homotopy.make_halfline_homotopy()
    assert _path(spec, 3.7, 0.0, 1.0) == pytest.approx([3.7, 0.0])
    t = 0.25
    s = 1 - t
    inf_path = _path(spec, INF, 0.0, t)
    assert inf_path[0] == INF
    assert inf_path[1] == pytest.approx(s / math.sqrt(1 - s * s))
    # monotone contraction: the image never exceeds the argument
    for x in (0.1, 1.0, 10.0, 1e4):
        assert (_path(spec, x, 0.1, 0.5, 0.9) <= x).all()


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
    path = _path(homotopy.make_unitary_homotopy(), z, 1.0, 0.5)
    assert spectra.operator_norm(path.u[0] + np.eye(3)) <= 1e-9  # phi_1 = -1
    assert moebius.classify_zpoint(path.u[1]) != moebius.ZClass.OUTSIDE


def test_unitary_boundary_eigenvalue_is_fixed(rng):
    z = moebius.random_zpoint(rng, 3, boundary=True)
    path = _path(homotopy.make_unitary_homotopy(), z, 0.0, 0.3, 0.8, 1.0)
    assert (np.abs(path.eigenvalues + 1.0).min(axis=1) <= 1e-9).all()


def test_order_containment_examples(rng):
    spec = homotopy.make_unitary_homotopy()
    z = moebius.random_zpoint(rng, 3)
    assert homotopy.order_containment_table(_path(spec, z, 0.0), z).all()
    assert homotopy.order_containment_table(_path(spec, z, 0.2, 0.7, 1.0), z).all()
    # strictly rotated points do not contain the original
    angles = [abs(np.angle(lam)) for lam in clusters(z.dec)[0]]
    if any(a < math.pi - 0.1 for a in angles):
        rotated = moebius.zpoint(_path(spec, z, 0.5).u[0])
        assert not homotopy.order_containment_table(_path(spec, z, 0.0), rotated).any()


def test_order_containment_needs_shared_frame(rng):
    spec = homotopy.make_unitary_homotopy()
    z1 = moebius.random_zpoint(rng, 3)
    z2 = moebius.random_zpoint(rng, 3)
    with pytest.raises(DomainError):
        homotopy.order_containment_table(_path(spec, z1, 0.0, 0.5), z2)


def test_order_containment_needs_one_scalar_per_eigenspace():
    # U_t keeps every column of U's frame but splits U's double eigenvalue i:
    # no scalar acts on that eigenspace, so the frames are not shared
    z = moebius.zpoint(np.diag([1j, 1j, 1.0]))
    split = np.where(np.isclose(z.dec.values, 1j), 1j * np.exp([0.0, 0.1, 0.2]), z.dec.values)
    path = homotopy.UnitaryPath(split[None], replace(z.dec, values=split).reconstruct()[None])
    with pytest.raises(DomainError):
        homotopy.order_containment_table(path, z)


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


EDGE_ANGLES = {
    # eigenvalues zpoint accepts just below the real axis: near -1 within
    # ENTRY_TOL, near 1 within CLUSTER_TOL
    "minus-one-2e-9": -math.pi + 2e-9,
    "minus-one-1e-6": -math.pi + 1e-6,
    "one-5e-9": -5e-9,
}


@pytest.mark.parametrize("angle", EDGE_ANGLES.values(), ids=EDGE_ANGLES.keys())
def test_verifier_accepts_the_z_points_zpoint_accepts(angle):
    # phi_0 must give back U itself: a clamped angle moved it by the dip
    z = moebius.zpoint(np.diag([np.exp(1j * angle), np.exp(1j)]))
    spec = homotopy.make_unitary_homotopy()
    assert spectra.operator_norm(_path(spec, z, 0.0).u[0] - z.u) <= 1e-14
    report = homotopy.verify_condition_h(spec, samples=[z])
    assert report["passed"], report["failures"]


@pytest.mark.parametrize("angle", [-5e-8, -math.pi + 1e-4, -0.5])
def test_verifier_rejects_the_points_zpoint_rejects(angle):
    u = np.diag([np.exp(1j * angle), np.exp(1j)])
    with pytest.raises(DomainError):
        moebius.zpoint(u)
    z = moebius.ZPoint(u=u, dec=spectra.unitary_eig(u))
    with pytest.raises(InputValidationError):
        homotopy.verify_condition_h(homotopy.make_unitary_homotopy(), samples=[z])


def _reference_verify(spec, t_grid, samples, tol=1e-9, threshold=0.25):
    """Condition (H) judged one (sample, t) at a time on one-row paths, as a
    plain loop: the oracle for the table verifier."""
    failures, max_jump = [], 0.0
    boundary_ok = orbit_order_ok = endpoints_ok = continuity_ok = True
    for x in samples:
        label = spec.describe(x)
        if spec.distance(_path(spec, x, 0.0)[0], x) > tol:
            endpoints_ok = False
            failures.append(f"phi_0 differs from the identity at sample {label}")
        if not spec.boundary_test(_path(spec, x, 1.0))[0]:
            endpoints_ok = False
            failures.append(f"phi_1 misses the boundary at sample {label}")
        is_boundary = bool(spec.boundary_test(x))
        previous = None
        for t in t_grid:
            image = _path(spec, x, t)
            if is_boundary and not spec.boundary_test(image)[0]:
                boundary_ok = False
                failures.append(f"boundary not preserved at t={t:.4f}, sample {label}")
            if t > 0.0:
                if not spec.orbit_test(image)[0]:
                    orbit_order_ok = False
                    failures.append(f"phi_t leaves the orbit at t={t:.4f}, sample {label}")
                if not spec.order_test(image, x)[0]:
                    orbit_order_ok = False
                    failures.append(f"order containment fails at t={t:.4f}, sample {label}")
            if previous is not None:
                jump = float(spec.distance(image, previous)[0])
                max_jump = max(max_jump, jump)
                if jump > threshold:
                    continuity_ok = False
                    failures.append(f"continuity probe jump {jump:.3f} at t={t:.4f}, sample {label}")
            previous = image
    clauses = {"boundary_invariance": boundary_ok, "orbit_and_order": orbit_order_ok, "endpoints": endpoints_ok}
    return clauses, failures, max_jump, continuity_ok


ORACLE_SPECS = {
    "halfline": (homotopy.make_halfline_homotopy, lambda rng: homotopy.halfline_samples(rng, 20)),
    "halfline-mutant": (homotopy.make_halfline_mutant, lambda rng: homotopy.halfline_samples(rng, 20)),
    # phi_0 = phi_0.1 of the good spec, which fails the identity clause
    "halfline-late-start": (
        lambda: replace(homotopy.make_halfline_homotopy(), path=lambda t, x: homotopy._halfline_path(0.1 + 0.9 * t, x)),
        lambda rng: homotopy.halfline_samples(rng, 20),
    ),
    "unitary": (homotopy.make_unitary_homotopy, lambda rng: _unitary_samples(rng, 8, 3)),
    "unitary-mutant": (homotopy.make_unitary_mutant, lambda rng: _unitary_samples(rng, 8, 2)),
}


def _unitary_samples(rng, count, dim):
    from whlab.suites import unitary_samples

    return unitary_samples(rng, count=count, dim=dim)


@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_table_verifier_matches_the_per_point_loop(name):
    # the halfline mutant's jump at t = 1 fails the continuity probe
    make, draw = ORACLE_SPECS[name]
    spec = make()
    for seed in range(10):
        samples = draw(np.random.default_rng(seed))
        report = homotopy.verify_condition_h(spec, samples=samples)
        clauses, failures, max_jump, continuity_ok = _reference_verify(spec, homotopy.uniform_grid(), samples)
        assert report["clauses"] == clauses
        assert report["failures"] == failures
        assert report["continuity_probe"]["passed"] == continuity_ok
        assert report["continuity_probe"]["max_jump"] == pytest.approx(max_jump, rel=0, abs=1e-14)
        assert report["passed"] == (all(clauses.values()) and continuity_ok)
