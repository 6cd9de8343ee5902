"""Batched GF(q) matrix kernels in numpy: the row product of the closure
and determinants, which the Lie-type generators and the certificates' checks
read (a closure reads a generator's invertibility off its row action).

Matrices are (n, n) uint8 arrays of field-element encodings; batches are
(m, n, n).  Field arithmetic goes through the q x q uint8 `mul`/`add`
tables that every FieldSpec has (q <= 256).  Each kernel works on the
whole batch at once: its Python loops run over matrix columns and rows,
never over the batch.  `mm_one` multiplies as R. A. Parker's Meat-axe
does ("The computer calculation of modular characters", 1984): it builds
the table of field multiples of b's rows once, takes each row's terms
from it, and adds them with flat takes from `add`, looping in Python only
over the n inner columns.  Inverses, determinants and powers of group
elements come from the closure's index tables, in matgrp.
tests/test_backend.py checks every kernel against scalar references built
from the field's element operations.
"""

from __future__ import annotations

import numpy as np


def backend_name() -> str:
    return "numpy"


def mm_one(batch, b, field):
    """Right-multiply every row of `batch`, of any shape (..., n), by the
    (n, k) matrix `b`: one (r, n) matrix, or every matrix of an (m, r, n)
    batch."""
    cols = field.mul[:, b]
    acc = cols[batch[..., 0], 0]
    for i in range(1, batch.shape[-1]):
        acc = field.add.ravel()[acc.astype(np.intp) * field.q + cols[batch[..., i], i]]
    return acc


def det_many(batch, field):
    """int64 determinants, batched over the leading axis; 0 on singular rows.
    Gaussian elimination, one step per column over the whole batch."""
    mul, add, neg, inv = field.mul, field.add, field.neg, field.inv_table
    a = batch.copy()
    m, n, _ = a.shape
    rows = np.arange(m)
    det = np.ones(m, dtype=mul.dtype)
    for col in range(n):
        piv = col + np.argmax(a[:, col:, col] != 0, axis=1)
        det = np.where(piv != col, neg[det], det)
        a[rows, col], a[rows, piv] = a[rows, piv], a[rows, col]
        pv = a[:, col, col]
        det = mul[det, pv]
        prow = mul[a[:, col, col:], inv[pv][:, None]]
        for i in range(col + 1, n):
            a[:, i, col:] = add[a[:, i, col:], neg[mul[a[:, i, col, None], prow]]]
    return det.astype(np.int64)
