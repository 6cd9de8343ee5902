import numpy as np
import pytest

from endotriv import backend
from endotriv.gf import field_spec

RNG = np.random.default_rng(42)


def ref_product(F, a, b):
    """a @ b, (r, n) times (n, k), by the scalar triple loop over the
    field's element ops."""
    (r, n), k = a.shape, b.shape[1]
    out = np.zeros((r, k), dtype=np.uint8)
    for i in range(r):
        for j in range(k):
            acc = 0
            for t in range(n):
                acc = int(F.add[acc, F.mul[a[i, t], b[t, j]]])
            out[i, j] = acc
    return out


def random_matrices(q, n, m=64):
    return RNG.integers(0, q, size=(m, n, n)).astype(np.uint8)


def random_invertible(F, n, m=64):
    """m matrices P L U, invertible by construction, with the determinants
    sign(P) * prod(diag U) read off the factors."""
    mats, dets = [], []
    for _ in range(m):
        L = np.tril(RNG.integers(0, F.q, size=(n, n)), -1).astype(np.uint8)
        L[np.arange(n), np.arange(n)] = 1
        U = np.triu(RNG.integers(0, F.q, size=(n, n)), 1).astype(np.uint8)
        U[np.arange(n), np.arange(n)] = RNG.integers(1, F.q, size=n)
        perm = RNG.permutation(n)
        det = 1
        for d in U.diagonal():
            det = int(F.mul[det, d])
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        mats.append(ref_product(F, L, U)[perm])
        dets.append(F.neg_el(det) if inversions % 2 else det)
    return np.stack(mats), np.array(dets)


@pytest.mark.parametrize("q,n", [(2, 3), (3, 2), (4, 3), (5, 4), (9, 2),
                                 (7, 3), (8, 4), (13, 6), (256, 3)])
def test_kernels_match_scalar_references(q, n):
    F = field_spec(q)

    # products: the scalar triple loop; row 0 of A[0] times column 0 of B[0]
    # adds q - 1 to q - 1, the largest index into the flattened add table
    A, B = random_matrices(q, n), random_matrices(q, n)
    A[0, 0], B[0, :, 0] = 1, q - 1
    got = backend.mm_one(A, B[0], F)
    assert all(np.array_equal(got[t], ref_product(F, A[t], B[0])) for t in range(len(A)))
    # one tall matrix times a wide one: every row of A times B[0] and B[1]
    wide = backend.mm_one(A.reshape(-1, n), np.concatenate(B[:2], axis=1), F)
    ref = [np.concatenate([ref_product(F, A[t], B[0]), ref_product(F, A[t], B[1])], axis=1)
           for t in range(len(A))]
    assert np.array_equal(wide, np.concatenate(ref))
    # the 2-D matrix is multiplied as the batch of it alone
    batched = backend.mm_one(A.reshape(1, -1, n), np.concatenate(B[:2], axis=1), F)
    assert np.array_equal(batched, wide[None])

    # determinant is multiplicative, also across singular factors
    dA, dB = backend.det_many(A, F), backend.det_many(B, F)
    AB = np.stack([ref_product(F, A[t], B[t]) for t in range(len(A))])
    dAB = backend.det_many(AB, F)
    assert all(dAB[t] == F.mul[dA[t], dB[t]] for t in range(len(A)))

    # invertible inputs: known determinants
    M, dets = random_invertible(F, n)
    assert np.array_equal(backend.det_many(M, F), dets)

    # singular inputs: last row a multiple of the first
    S = M.copy()
    S[:, -1] = F.mul[RNG.integers(0, q, size=(len(S), 1)), S[:, 0]]
    assert (backend.det_many(S, F) == 0).all()


@pytest.mark.parametrize("q,n", [(2, 1), (2, 6), (256, 1), (256, 6), (7, 3)])
def test_mixed_batches_keep_rows_apart(q, n):
    """Singular and invertible rows interleaved in one batch: each row's
    determinant is that of the row alone."""
    F = field_spec(q)
    M, dets = random_invertible(F, n)
    singular = RNG.random(len(M)) < 0.5
    for t in np.nonzero(singular)[0]:
        # one row set to a multiple of another (the zero row when n = 1)
        i, j = RNG.choice(n, size=2, replace=False) if n > 1 else (0, 0)
        M[t, i] = 0 if n == 1 else F.mul[int(RNG.integers(0, q)), M[t, j]]
    det = backend.det_many(M, F)
    assert det.dtype == np.int64
    assert np.array_equal(det, np.where(singular, 0, dets))


@pytest.mark.parametrize("q,n", [(2, 6), (5, 4), (256, 3)])
def test_pivot_in_last_row_for_every_column(q, n):
    """Rows U_1, ..., U_{n-1}, U_0 of an invertible upper triangular U:
    after each swap the next pivot is again the only candidate in its
    column, and it sits in the last row.  det = (-1)^(n-1) prod(diag U)."""
    F = field_spec(q)
    mats, dets = [], []
    for _ in range(16):
        U = np.triu(RNG.integers(0, q, size=(n, n)), 1).astype(np.uint8)
        U[np.arange(n), np.arange(n)] = RNG.integers(1, q, size=n)
        det = 1
        for d in U.diagonal():
            det = int(F.mul[det, d])
        mats.append(np.roll(U, -1, axis=0))
        dets.append(F.neg_el(det) if n % 2 == 0 else det)
    A = np.stack(mats)
    assert not A[:, :-1, 0].any()
    assert np.array_equal(backend.det_many(A, F), dets)


@pytest.mark.parametrize("n", [1, 3])
def test_empty_batch(n):
    F = field_spec(4)
    det = backend.det_many(np.zeros((0, n, n), dtype=np.uint8), F)
    assert det.shape == (0,) and det.dtype == np.int64
    b = random_matrices(4, n, m=1)[0]
    for shape in ((0, n, n), (2, 0, n), (0, n)):  # no matrices; of no rows; no rows
        prod = backend.mm_one(np.zeros(shape, dtype=np.uint8), b, F)
        assert prod.shape == shape and prod.dtype == np.uint8


def test_backend_name():
    assert backend.backend_name() == "numpy"
