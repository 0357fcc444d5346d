"""Jordan algebra and cone classification tests."""

import numpy as np
import pytest

from whlab import jordan, spectra
from whlab.errors import InputValidationError
from whlab.jordan import ConeClass, OrderRelation
from whlab.sampling import random_hermitian, random_positive

DIAG = [np.diag([1.0, 0.0]).astype(complex)]


def test_empty_generators_span_identity():
    alg = jordan.generate_algebra([], dim=2)
    assert alg.rank == 1
    assert alg.contains(3.0 * np.eye(2))


def test_diagonal_generator_gives_diagonal_algebra():
    alg = jordan.generate_algebra(DIAG)
    assert alg.rank == 2
    assert alg.contains(np.diag([5.0, -2.0]))
    assert not alg.contains(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_elementary_hermitians_generate_full_space():
    alg = jordan.hermitian_algebra(2)
    assert alg.rank == 4  # real dimension of Herm(2)


def test_generate_rejects_non_hermitian():
    with pytest.raises(InputValidationError):
        jordan.generate_algebra([np.array([[0.0, 1.0], [0.0, 0.0]])])


def test_closure_is_idempotent(rng):
    for dim in (2, 3):
        gens = [random_hermitian(rng, dim) for _ in range(2)]
        alg = jordan.generate_algebra(gens, dim=dim)
        again = jordan.generate_algebra(alg.basis, dim=dim)
        assert alg.rank == again.rank
        assert all(again.contains(b) for b in alg.basis)
        assert all(alg.contains(b) for b in again.basis)


def test_basis_closed_under_anticommutator(rng):
    alg = jordan.generate_algebra([random_hermitian(rng, 3)], dim=3)
    for a in alg.basis:
        for b in alg.basis:
            assert alg.contains(0.5 * (a @ b + b @ a))


def test_classify_examples():
    full = jordan.hermitian_algebra(2)
    assert jordan.classify(full, np.eye(2)) == ConeClass.INTERIOR
    diag_alg = jordan.generate_algebra(DIAG)
    assert jordan.classify(diag_alg, np.diag([1.0, 0.0])) == ConeClass.BOUNDARY
    assert jordan.classify(diag_alg, np.array([[0.0, 1.0], [1.0, 0.0]])) == ConeClass.OUTSIDE_ALGEBRA
    assert jordan.classify(full, -np.eye(2)) == ConeClass.OUTSIDE_CONE


def test_classify_cone_axioms(rng):
    full = jordan.hermitian_algebra(3)
    for _ in range(30):
        a = random_positive(rng, 3) + 0.05 * np.eye(3)
        b = random_positive(rng, 3) + 0.05 * np.eye(3)
        assert jordan.classify(full, a) == ConeClass.INTERIOR
        assert jordan.classify(full, a + b) == ConeClass.INTERIOR
        t = float(rng.uniform(0.2, 4.0))
        assert jordan.classify(full, t * a) == ConeClass.INTERIOR
        eps = 0.5 * spectra.lambda_min(a)
        assert jordan.classify(full, a - eps * np.eye(3)) == ConeClass.INTERIOR


def test_order_compare_examples():
    assert jordan.order_compare(np.zeros((2, 2)), np.eye(2)) == OrderRelation.LT
    a = np.array([[2.0, 1.0], [1.0, 3.0]], dtype=complex)
    assert jordan.order_compare(a, a) == OrderRelation.LEQ
    assert (
        jordan.order_compare(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        == OrderRelation.INCOMPARABLE_OR_GT
    )


def test_order_compare_dimension_mismatch():
    with pytest.raises(InputValidationError):
        jordan.order_compare(np.eye(2), np.eye(3))
    # a stack is compared with a stack of its own shape, never broadcast
    with pytest.raises(InputValidationError):
        jordan.order_compare(np.array([np.eye(2)] * 3), np.eye(2))


def test_basis_of_wrong_size_rejected():
    with pytest.raises(InputValidationError):
        jordan.JordanAlgebra(dim=2, basis=[np.eye(3)])


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(lambda alg, m: alg.project(m), id="project"),
        pytest.param(lambda alg, m: alg.distance(m), id="distance"),
        pytest.param(lambda alg, m: alg.contains(m), id="contains"),
        pytest.param(jordan.classify, id="classify"),
    ],
)
def test_matrix_of_wrong_size_rejected(entry):
    with pytest.raises(InputValidationError, match="dimension mismatch with the algebra"):
        entry(jordan.hermitian_algebra(2), np.eye(3))


# Reference closure: per-candidate modified Gram-Schmidt (two passes) and a
# per-element projection, one trace inner product at a time.


def _inner(a, b):
    return float(np.real(np.vdot(a, b)))


def _reference_orthonormalize(candidates, basis, tol):
    basis = list(basis)
    for cand in candidates:
        v = np.asarray(cand, dtype=np.complex128)
        for _ in range(2):
            for b in basis:
                v = v - _inner(b, v) * b
        norm = np.linalg.norm(v)
        if norm > max(tol, 1e-12):
            basis.append(v / norm)
    return basis


def _reference_algebra(generators, dim, tol=jordan.DEFAULT_TOL):
    basis = _reference_orthonormalize([np.eye(dim)] + list(generators), [], tol)
    for _ in range(dim * dim):
        grown = _reference_orthonormalize([0.5 * (a @ b + b @ a) for a in basis for b in basis], basis, tol)
        if len(grown) == len(basis):
            break
        basis = grown
    return [0.5 * (b + b.conj().T) for b in basis]


def _reference_project(basis, m):
    out = np.zeros(m.shape, dtype=np.complex128)
    for b in basis:
        out += _inner(b, m) * b
    return out


def _generators(kind, rng, dim):
    if kind.startswith("random"):
        return [random_hermitian(rng, dim) for _ in range(int(kind[-1]))]
    if kind == "diagonal":
        return [np.diag(rng.normal(size=dim)) for _ in range(2)]
    g, h = random_hermitian(rng, dim), random_hermitian(rng, dim)
    return [g, 2.0 * np.eye(dim), g, h, -0.5 * np.eye(dim), h, g]


@pytest.mark.parametrize("dim", range(1, 7))
@pytest.mark.parametrize("kind", ["random1", "random2", "random3", "diagonal", "duplicates"])
def test_closure_matches_reference(kind, dim, rng):
    gens = _generators(kind, rng, dim)
    alg = jordan.generate_algebra(gens, dim=dim)
    ref = _reference_algebra(gens, dim)
    assert alg.rank == len(ref)
    if kind == "diagonal":
        assert alg.rank == dim
    assert all(alg.contains(b) for b in ref)
    assert all(np.linalg.norm(b - _reference_project(ref, b)) <= jordan.DEFAULT_TOL for b in alg.basis)
    basis = np.asarray(alg.basis)
    gram = np.real(np.einsum("aij,bij->ab", basis.conj(), basis))
    assert np.abs(gram - np.eye(alg.rank)).max() <= 1e-12
    i, j = np.triu_indices(alg.rank)
    products = 0.5 * (basis[i] @ basis[j] + basis[j] @ basis[i])
    assert all(alg.contains(p) for p in products)
    m = random_hermitian(rng, dim)
    assert np.linalg.norm(alg.project(m) - _reference_project(ref, m)) <= 1e-12


def test_single_matrix_entry_points_reject_stacks():
    stack = np.array([np.eye(2), np.eye(2)])
    with pytest.raises(InputValidationError):
        jordan.generate_algebra([stack])
    with pytest.raises(InputValidationError):
        jordan.classify(jordan.hermitian_algebra(2), stack)
