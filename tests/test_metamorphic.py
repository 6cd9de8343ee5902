"""Answers that cannot depend on the basis.

Each quotient G/Z is closed a second and a third time, from its generators
moved by a map that sends G onto itself: conjugation by a seeded random M in
GL(n,q), and the inverse-transpose g -> (g^-1)^T (det only inverts inside the
same image).  The new closures number their elements in another order, so a
wrong key, index or walk table that keeps a group closed would show as a
difference in some brute-force answer.
"""

import numpy as np
import pytest

from endotriv import backend, liea
from endotriv import matgrp as mg
from endotriv.classify import tf_rank_oracle
from endotriv.corpus import load_corpus
from endotriv.gf import field_spec

# enumerable corpus quotients of at most 60 480 elements; together about 1 s
NAMES = ["PGL(3,4) p=3", "PSL(3,4) p=3", "SL(2,13):2/Z2 p=2", "GL(2,5) p=2"]
SEED = 20261019


def _inverse(F, g):
    return liea._matrix_power(F, g, liea.order_gl(g.shape[0], F.q) - 1)


def _random_gl(F, n, rng):
    """An invertible M that is not scalar: a scalar centralizes G and would
    give back the same closure."""
    while True:
        m = rng.integers(0, F.q, (n, n)).astype(np.uint8)
        if backend.det_many(m[None], F)[0] and not np.array_equal(m, m[0, 0] * np.eye(n)):
            return m


def _maps(F, n):
    m = _random_gl(F, n, np.random.default_rng(SEED))
    m_inv = _inverse(F, m)
    return {"conjugation": lambda g: backend.mm_one(backend.mm_one(m[None], g, F), m_inv, F)[0],
            "inverse-transpose": lambda g: _inverse(F, g).T.copy()}


def _answers(G, p, case, monkeypatch):
    """|G/Z|, |S|, |N_G(S)|, the p-rank, n_G and both abelianizations."""
    S = mg.sylow_subgroup_of(G, p)
    N = mg.normalizer(G, S)
    full = G.as_subgroup()
    monkeypatch.setattr(liea, "enumerate_quotient", lambda *args, **kwargs: G)
    oracle = tf_rank_oracle(*case)
    return (G.order, S.order, N.order, oracle.p_rank, oracle.n_g,
            mg.quotient_structure(full, mg.commutator_subgroup(full)),
            mg.quotient_structure(N, mg.commutator_subgroup(N)))


@pytest.mark.parametrize("name", NAMES)
def test_answers_survive_a_change_of_basis(name, monkeypatch):
    entry = {e.name: e for e in load_corpus()}[name]
    assert entry.cap_class == "enumerable"
    n, q, p, det, z = case = (entry.n, entry.q, entry.p, entry.det, entry.z)
    F = field_spec(q)
    G = liea.enumerate_quotient(n, q, det, z)
    assert G.order <= 60_480
    want = _answers(G, p, case, monkeypatch)
    gens = liea.levi_generators([n], q, det)
    for label, f in _maps(F, n).items():
        moved = [f(g) for g in gens]
        H = liea.quotient_closure(F, moved, z, liea.levi_order([n], q, det), None,
                                  f"{name} by {label}")
        # a second numbering of the same set of cosets
        assert not np.array_equal(H.elements, G.elements), label
        assert np.array_equal(np.sort(H.lookup_batch(G.elements)), np.arange(G.order)), label
        assert _answers(H, p, case, monkeypatch) == want, label
