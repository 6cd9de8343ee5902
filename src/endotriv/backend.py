"""Batched GF(q) matrix kernels in numpy.

Matrices are (n, n) uint8 arrays of field-element encodings; batches are
(m, n, n).  Field arithmetic goes through the q x q `mul`/`add` tables of
a FieldSpec (uint8 for q <= 256, which is the enumeration regime).
tests/test_backend.py checks every kernel against scalar references built
from the field's element operations.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    return "numpy"


def mm_one(batch, b, field):
    """Right-multiply every matrix in `batch` by `b`."""
    mul, add = field.mul, field.add
    terms = mul[batch[:, :, :, None], b[None, None, :, :]]
    acc = terms[:, :, 0, :]
    for k in range(1, batch.shape[1]):
        acc = add[acc, terms[:, :, k, :]]
    return acc


def mm_pairs(A, B, field):
    """Pairwise products A[i] @ B[i]."""
    mul, add = field.mul, field.add
    terms = mul[A[:, :, :, None], B[:, None, :, :]]
    acc = terms[:, :, 0, :]
    for k in range(1, A.shape[1]):
        acc = add[acc, terms[:, :, k, :]]
    return acc


def inverse_many(batch, field):
    """(inverses, ok): Gauss-Jordan per matrix; ok[t] is False where
    batch[t] is singular, and out[t] is then unspecified."""
    mul, add, neg, inv = field.mul, field.add, field.neg, field.inv_table
    m, n, _ = batch.shape
    out = np.empty_like(batch)
    ok = np.empty(m, dtype=np.bool_)
    for t in range(m):
        a = np.concatenate([batch[t], np.eye(n, dtype=batch.dtype)], axis=1)
        good = True
        for col in range(n):
            nz = np.nonzero(a[col:, col])[0]
            if nz.size == 0:
                good = False
                break
            piv = col + int(nz[0])
            if piv != col:
                a[[col, piv]] = a[[piv, col]]
            a[col] = mul[a[col], inv[a[col, col]]]
            for i in range(n):
                if i != col and a[i, col]:
                    a[i] = add[a[i], neg[mul[a[i, col], a[col]]]]
        ok[t] = good
        if good:
            out[t] = a[:, n:]
    return out, ok


def det_many(batch, field):
    mul, add, neg, inv = field.mul, field.add, field.neg, field.inv_table
    m, n, _ = batch.shape
    out = np.empty(m, dtype=np.int64)
    for t in range(m):
        a = batch[t].copy()
        det = 1
        for col in range(n):
            nz = np.nonzero(a[col:, col])[0]
            if nz.size == 0:
                det = 0
                break
            piv = col + int(nz[0])
            if piv != col:
                a[[col, piv]] = a[[piv, col]]
                det = int(neg[det])
            det = int(mul[det, a[col, col]])
            pinv = inv[a[col, col]]
            for i in range(col + 1, n):
                if a[i, col]:
                    f = mul[a[i, col], pinv]
                    a[i] = add[a[i], neg[mul[f, a[col]]]]
        out[t] = det
    return out


def scale_many(batch, s, field):
    return field.mul[int(s), batch]


def canon_min(batch, scalars, field):
    """Lexicographically least scalar multiple, per matrix."""
    if scalars.shape[0] <= 1:
        return batch
    m = batch.shape[0]
    flat = batch.reshape(m, -1)
    best = flat.copy()
    for s in scalars[1:]:
        cand = field.mul[int(s), flat]
        # lexicographic comparison row by row
        diff = cand.astype(np.int32) - best.astype(np.int32)
        idx = np.argmax(diff != 0, axis=1)
        take = diff[np.arange(m), idx] < 0
        best[take] = cand[take]
    return best.reshape(batch.shape)
