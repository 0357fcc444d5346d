"""Moebius action and upper-half-circle geometry tests.

Scalar oracles, all by direct arithmetic:
  (-1) [+] b      = ((2i+b)(-1) - b) / (-b + 2i - b) = (b+i)/(b-i)
  psi(1)          = (-1+i)/(1+i) = i
  psi_inv(i)      = i(1-i)/(1+i) = 1
  contraction     A=1, B=1 -> 1/(1*1+1) = 1/2, with inverse (1-0.5)^-1 0.5 = 1
Pair oracle: diag(1, i) splits into E = diag(1,0) and A = diag(0,1) since
i = cayley(1).
"""

import numpy as np
import pytest

from whlab import jordan, moebius, spectra
from whlab.errors import DomainError, InputValidationError
from whlab.jordan import OrderRelation
from whlab.moebius import PairRep, ZClass
from whlab.sampling import (
    random_hermitian,
    random_positive,
    random_positive_definite,
    random_unitary,
)


def _m(x):
    return np.array(x, dtype=complex)


def test_boxplus_zero_is_identity(rng):
    for dim in range(1, 5):
        u = random_unitary(rng, dim)
        assert spectra.operator_norm(moebius.boxplus(u, np.zeros((dim, dim))) - u) <= 1e-12


def test_boxplus_scalar_matches_cayley():
    for b in (-3.0, -0.5, 0.0, 1.0, 7.5):
        out = moebius.boxplus(_m([[-1.0]]), _m([[b]]))[0, 0]
        assert out == pytest.approx((b + 1j) / (b - 1j))


def test_boxplus_fixes_one():
    for b in (np.diag([1.0, -2.0]), _m([[0.0, 1.0], [1.0, 0.0]])):
        out = moebius.boxplus(np.eye(2), b)
        assert spectra.operator_norm(out - np.eye(2)) <= 1e-12


def test_boxplus_action_law(rng):
    for dim in range(1, 5):
        for _ in range(50):
            u = random_unitary(rng, dim)
            a = random_hermitian(rng, dim)
            b = random_hermitian(rng, dim)
            lhs = moebius.boxplus(moebius.boxplus(u, a), b)
            rhs = moebius.boxplus(u, a + b)
            assert spectra.operator_norm(lhs - rhs) <= 1e-9


def test_boxplus_output_unitary(rng):
    for _ in range(50):
        u = random_unitary(rng, 3)
        b = random_hermitian(rng, 3)
        spectra.assert_unitary(moebius.boxplus(u, b), tol=1e-9)


def test_cayley_equivariance(rng):
    for dim in range(1, 5):
        for _ in range(50):
            a = random_hermitian(rng, dim)
            b = random_hermitian(rng, dim)
            lhs = moebius.boxplus(spectra.cayley(a), b)
            assert spectra.operator_norm(lhs - spectra.cayley(a + b)) <= 1e-9


def test_invertibility_margin(rng):
    for dim in range(1, 7):
        eye = np.eye(dim)
        for _ in range(200):
            u = random_unitary(rng, dim)
            b = random_hermitian(rng, dim)
            smin = np.linalg.svd(b @ u + 2j * eye - b, compute_uv=False)[-1]
            assert smin > 1e-6


def test_classify_zpoint_examples():
    assert moebius.classify_zpoint(np.eye(2)) == ZClass.INTERIOR_ORBIT
    assert moebius.classify_zpoint(-np.eye(2)) == ZClass.BOUNDARY
    outside = np.diag([1j, np.exp(-1j * np.pi / 4)])
    assert moebius.classify_zpoint(outside) == ZClass.OUTSIDE


def test_z_stability_under_cone_translates(rng):
    for _ in range(40):
        z = moebius.random_zpoint(rng, 3)
        b = random_positive(rng, 3)
        assert moebius.classify_zpoint(moebius.boxplus(z.u, b)) != ZClass.OUTSIDE


def test_psi_values():
    assert moebius.psi(_m([[0.0]]))[0, 0] == pytest.approx(1.0)
    assert moebius.psi(_m([[1.0]]))[0, 0] == pytest.approx(1j)
    assert moebius.psi_inv(_m([[1j]]))[0, 0] == pytest.approx(1.0)


def test_psi_roundtrip_and_classification(rng):
    for _ in range(30):
        a = random_positive(rng, 3)
        u = moebius.psi(a)
        assert moebius.classify_zpoint(u) == ZClass.INTERIOR_ORBIT
        assert spectra.operator_norm(moebius.psi_inv(u) - a) <= 1e-9 * max(1.0, spectra.operator_norm(a))


def test_psi_inv_rejects_minus_one_spectrum():
    with pytest.raises(DomainError):
        moebius.psi_inv(-np.eye(2))


def test_contraction_scalar_values():
    assert moebius.moebius_contraction(_m([[1.0]]), _m([[1.0]]))[0, 0] == pytest.approx(0.5)
    a = _m([[2.0, 0.5], [0.5, 1.0]])
    assert np.allclose(moebius.moebius_contraction(a, np.zeros((2, 2))), a)
    assert moebius.contraction_inverse(_m([[0.5]]), _m([[1.0]]))[0, 0] == pytest.approx(1.0)
    assert moebius.contraction_inverse(_m([[0.0]]), _m([[2.0]]))[0, 0] == pytest.approx(0.0)


def test_contraction_agrees_with_chart(rng):
    for _ in range(25):
        a = random_positive(rng, 3)
        b = random_positive(rng, 3)
        direct = moebius.moebius_contraction(a, b)
        chart = moebius.psi_inv(moebius.boxplus(moebius.psi(a), b))
        assert spectra.operator_norm(direct - chart) <= 1e-8


def test_contraction_resolvent_identity(rng):
    # B^{-1} - A(BA+1)^{-1} = B^{-1}(1+BA)^{-1} for interior A, B
    for _ in range(25):
        a = random_positive_definite(rng, 3)
        b = random_positive_definite(rng, 3)
        b_inv = np.linalg.inv(b)
        lhs = b_inv - moebius.moebius_contraction(a, b)
        rhs = b_inv @ np.linalg.inv(np.eye(3) + b @ a)
        assert spectra.operator_norm(lhs - rhs) <= 1e-10


def test_contraction_range_and_inverse(rng):
    for dim in range(1, 5):
        for _ in range(25):
            b = random_positive_definite(rng, dim)
            b_inv = np.linalg.inv(b)
            a = random_positive(rng, dim)
            c = moebius.moebius_contraction(a, b)
            assert jordan.order_compare(c, 0.5 * (b_inv + b_inv.conj().T)) == OrderRelation.LT
            recovered = moebius.contraction_inverse(c, b)
            assert spectra.operator_norm(recovered - a) <= 1e-8
            assert spectra.operator_norm(moebius.moebius_contraction(recovered, b) - c) <= 1e-8


def test_contraction_inverse_roundtrip_from_c_side(rng):
    b = random_positive_definite(rng, 3)
    b_inv = np.linalg.inv(b)
    c = 0.5 * (b_inv + b_inv.conj().T) / 2.0
    a = moebius.contraction_inverse(c, b)
    assert spectra.lambda_min(a) >= -1e-10
    assert spectra.operator_norm(moebius.moebius_contraction(a, b) - c) <= 1e-8


def test_contraction_inverse_accepts_b_at_entry_tolerance():
    # B's skew part 1e-8 passes the ENTRY_TOL guard of both maps
    b = np.diag([2.0, 3.0]) + 1e-8 * np.array([[0.0, 1.0], [0.0, 0.0]])
    c = np.diag([0.1, 0.1])
    a = moebius.contraction_inverse(c, b)
    assert np.allclose(a, np.diag([0.1 / 0.8, 0.1 / 0.7]), atol=1e-7)
    assert spectra.operator_norm(moebius.moebius_contraction(a, b) - c) <= 1e-7


def test_contraction_inverse_guards_each_operand_once(monkeypatch):
    # B positive definite and sym(B^-1) - C, Hermitian by construction, are
    # read without lambda_min's second guard
    calls = []
    guard = spectra.assert_hermitian

    def counting(m, tol=spectra.DEFAULT_TOL):
        calls.append(tol)
        return guard(m, tol=tol)

    monkeypatch.setattr(spectra, "assert_hermitian", counting)
    monkeypatch.setattr(moebius, "assert_hermitian", counting)
    moebius.contraction_inverse(_m([[0.5]]), _m([[1.0]]))
    assert len(calls) == 2


def test_lambda_min_is_smallest_eigenvalue_not_cluster_mean():
    # -5e-9 and 4e-9 lie within CLUSTER_TOL of each other; their mean
    # -5e-10 would put m inside every 1e-9 cone test
    m = np.diag([-5e-9, 4e-9])
    zero = np.zeros((2, 2))
    assert spectra.lambda_min(m) == pytest.approx(-5e-9)
    assert jordan.classify(jordan.hermitian_algebra(2), m) == jordan.ConeClass.OUTSIDE_CONE
    assert jordan.order_compare(zero, m) == OrderRelation.INCOMPARABLE_OR_GT
    assert moebius.qset_contains(PairRep(zero, zero), m, tol=1e-9) is False


def test_qset_contains_checks_dimensions():
    one = PairRep(np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(InputValidationError):
        moebius.qset_contains(one, np.diag([-5e-9, 4e-9]))


def test_contraction_inverse_rejects_out_of_range(rng):
    b = random_positive_definite(rng, 2)
    b_inv = np.linalg.inv(b)
    too_big = 0.5 * (b_inv + b_inv.conj().T) + np.eye(2)
    with pytest.raises(DomainError):
        moebius.contraction_inverse(too_big, b)


def test_pair_encode_examples():
    p = moebius.pair_encode(moebius.zpoint(-np.eye(2)))
    assert np.allclose(p.e, 0.0) and np.allclose(p.a, 0.0)
    p = moebius.pair_encode(moebius.zpoint(np.eye(2)))
    assert np.allclose(p.e, np.eye(2)) and np.allclose(p.a, 0.0)
    p = moebius.pair_encode(moebius.zpoint(np.diag([1.0, 1j])))
    assert np.allclose(p.e, np.diag([1.0, 0.0]), atol=1e-10)
    assert np.allclose(p.a, np.diag([0.0, 1.0]), atol=1e-10)


def test_zpoint_accepts_exactly_what_pair_encode_encodes():
    # eigenvalues just below the equator: the -1 side (inverse Cayley value
    # about Im/2) within sqrt(tol) is in Z; the +1 side (value about 2/Im) only
    # within the cluster radius that pair_encode folds into E
    root = np.sqrt(spectra.DEFAULT_TOL)
    offsets = [0.5 * spectra.CLUSTER_TOL, 2 * spectra.CLUSTER_TOL, 0.5 * root, 2 * root, 1e-6]
    angles = [side + sign * d for side in (0.0, np.pi) for d in offsets for sign in (1, -1)]
    phases = np.exp(1j * np.array(angles))
    q = random_unitary(np.random.default_rng(7), 2)
    unitaries = [spectra.cayley(_m([[-1e6]]))] + [_m([[lam]]) for lam in phases]
    unitaries += [q @ np.diag([lam, 1j]) @ q.conj().T for lam in phases]
    rejected = 0
    for u in unitaries:
        try:
            z = moebius.zpoint(u)
        except DomainError:
            rejected += 1
            assert moebius.classify_zpoint(u) == ZClass.OUTSIDE
            continue
        assert moebius.classify_zpoint(u) != ZClass.OUTSIDE
        moebius.pair_encode(z)
    assert 0 < rejected < len(unitaries)


def test_pair_roundtrip_random(rng):
    for dim in range(1, 5):
        for _ in range(30):
            z = moebius.random_zpoint(rng, dim)
            pair = moebius.pair_encode(z)
            assert spectra.operator_norm(moebius.pair_decode(pair).u - z.u) <= 1e-8


def test_pair_decode_validates_compression():
    bad_a = np.diag([1.0, 1.0])  # not compressed to range(1-E)
    with pytest.raises(Exception):
        PairRep(e=np.diag([1.0, 0.0]), a=bad_a)


def test_pair_translation_identity(rng):
    for _ in range(30):
        z = moebius.random_zpoint(rng, 3)
        pair = moebius.pair_encode(z)
        b = random_positive(rng, 3)
        comp = np.eye(3) - pair.e
        shifted = PairRep(e=pair.e, a=pair.a + comp @ b @ comp)
        lhs = moebius.boxplus(moebius.pair_decode(pair).u, b)
        assert spectra.operator_norm(lhs - moebius.pair_decode(shifted).u) <= 1e-8


def test_qset_contains_cone_at_origin(rng):
    origin = PairRep(e=np.zeros((3, 3)), a=np.zeros((3, 3)))
    for _ in range(40):
        b = random_positive(rng, 3)
        assert moebius.qset_contains(origin, b)
        h = random_hermitian(rng, 3)
        expected = spectra.lambda_min(h) >= -1e-10
        assert moebius.qset_contains(origin, h) == expected


def test_qset_scaled_projection_and_minus_a(rng):
    for _ in range(20):
        pair = moebius.pair_encode(moebius.random_zpoint(rng, 3))
        for alpha in (-100.0, -1.0, 0.5, 64.0):
            assert moebius.qset_contains(pair, alpha * pair.e)
        assert moebius.qset_contains(pair, -pair.a)


def test_separate_points_equal_pairs(rng):
    pair = moebius.pair_encode(moebius.random_zpoint(rng, 3))
    twin = PairRep(e=pair.e.copy(), a=pair.a.copy())
    assert moebius.separate_points(pair, twin) is None


def test_separate_points_projection_witness():
    p1 = PairRep(e=np.diag([1.0, 0.0]), a=np.zeros((2, 2)))
    p2 = PairRep(e=np.zeros((2, 2)), a=np.zeros((2, 2)))
    witness = moebius.separate_points(p1, p2)
    assert witness is not None
    assert moebius.qset_contains(p1, witness) != moebius.qset_contains(p2, witness)


def test_separate_points_a_witness():
    p1 = PairRep(e=np.zeros((2, 2)), a=np.diag([0.0, 1.0]))
    p2 = PairRep(e=np.zeros((2, 2)), a=np.diag([0.0, 2.0]))
    witness = moebius.separate_points(p1, p2)
    assert moebius.qset_contains(p1, witness) != moebius.qset_contains(p2, witness)


def test_separate_points_random_pairs(rng):
    found = 0
    for _ in range(40):
        p1 = moebius.pair_encode(moebius.random_zpoint(rng, 3))
        p2 = moebius.pair_encode(moebius.random_zpoint(rng, 3))
        if p1.close_to(p2, tol=1e-8):
            continue
        witness = moebius.separate_points(p1, p2)
        assert witness is not None
        found += 1
    assert found >= 30


def test_boxplus_rejects_mismatched_shapes():
    with pytest.raises(Exception):
        moebius.boxplus(np.eye(2), np.eye(3))
