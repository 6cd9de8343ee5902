"""Batched GF(q) matrix kernels in numpy.

Matrices are (n, n) uint8 arrays of field-element encodings; batches are
(m, n, n).  Field arithmetic goes through the q x q `mul`/`add` tables of
a FieldSpec (uint8 for q <= 256, which is the enumeration regime).  Each
kernel works on the whole batch at once: its Python loops run over matrix
columns and rows, never over the batch.
Inverses and determinants share one Gauss-Jordan elimination.
tests/test_backend.py checks every kernel against scalar references built
from the field's element operations.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    return "numpy"


def mm_one(batch, b, field):
    """Right-multiply every (r, n) matrix in the (m, r, n) `batch` by the
    (n, k) matrix `b`."""
    mul, add = field.mul, field.add
    terms = mul[batch[:, :, :, None], b[None, None, :, :]]
    acc = terms[:, :, 0, :]
    for k in range(1, batch.shape[2]):
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


def _gauss_jordan(a, field):
    """Row-reduce the left (n, n) block of every (n, w) matrix in `a` to
    the identity, in place, one batched step per column and row (so the
    temporaries are (m, w), not (m, n, w)).  Returns (det, ok) of the left
    blocks; a singular row meets a zero pivot, so its det is 0."""
    mul, add, neg, inv = field.mul, field.add, field.neg, field.inv_table
    m, n, _ = a.shape
    rows = np.arange(m)
    det = np.ones(m, dtype=mul.dtype)
    ok = np.ones(m, dtype=np.bool_)
    for col in range(n):
        piv = col + np.argmax(a[:, col:, col] != 0, axis=1)
        det = np.where(piv != col, neg[det], det)
        a[rows, col], a[rows, piv] = a[rows, piv], a[rows, col]
        pv = a[:, col, col]
        ok &= pv != 0
        det = mul[det, pv]
        prow = mul[a[:, col, col:], inv[pv][:, None]]
        a[:, col, col:] = prow
        for i in range(n):
            if i != col:
                a[:, i, col:] = add[a[:, i, col:], neg[mul[a[:, i, col, None], prow]]]
    return det, ok


def inverse_many(batch, field):
    """(inverses, ok): Gauss-Jordan on [A | I], batched over the leading axis;
    ok[t] is False where batch[t] is singular, and its inverse unspecified."""
    n = batch.shape[1]
    a = np.concatenate([batch, np.broadcast_to(np.eye(n, dtype=batch.dtype), batch.shape)], 2)
    ok = _gauss_jordan(a, field)[1]
    return np.ascontiguousarray(a[:, :, n:]), ok


def det_many(batch, field):
    """int64 determinants, batched over the leading axis; 0 on singular rows."""
    return _gauss_jordan(batch.copy(), field)[0].astype(np.int64)
