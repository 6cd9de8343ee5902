"""Answers that cannot depend on the basis.

Each quotient G/Z is closed again from its generator list moved by a map
that sends G onto itself: conjugation by a seeded random M in GL(n,q), the
inverse-transpose g -> (g^-1)^T (det only inverts inside the same image),
for q = p^k with k > 1 the Frobenius x -> x^p on every entry (det goes to
det^p, inside the same image), and the list reversed.  The new closures
number their elements in another order, so a wrong key, index or walk table
that keeps a group closed would show as a difference in some brute-force
answer.  Reversal also changes which generators Dimino's closure takes for
each subgroup, so no answer may depend on that choice.  Proof certificates
are moved by a diagonal M, by the reversal and, for k > 1, by the
Frobenius map, and must keep their verdicts; the composite-iii one, whose
groups have two block shapes, by an M block-diagonal on both instead of a
diagonal one.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from endotriv import backend, liea, rho
from endotriv import matgrp as mg
from endotriv.classify import tf_rank_oracle
from endotriv.corpus import load_corpus
from endotriv.gf import field_spec
from test_rho import _torus_certificate

# enumerable corpus quotients of at most 60 480 elements; together about 1 s,
# and about 0.5 s more for the elementary abelian counts and the chains
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


def _frobenius(F):
    """x -> x^p on every entry of a matrix."""
    table = np.array([F.pow_el(x, F.char) for x in range(F.q)], dtype=np.uint8)
    return lambda g: table[g]


def _maps(F, n):
    """label -> a map from a generator list of G to another one."""
    m = _random_gl(F, n, np.random.default_rng(SEED))
    m_inv = _inverse(F, m)
    each = {"conjugation": lambda g: backend.mm_one(backend.mm_one(m[None], g, F), m_inv, F)[0],
            "inverse-transpose": lambda g: _inverse(F, g).T.copy()}
    if F.degree > 1:
        each["frobenius"] = _frobenius(F)
    maps = {label: lambda gens, f=f: [f(g) for g in gens] for label, f in each.items()}
    maps["reversal"] = lambda gens: gens[::-1]
    return maps


def _answers(G, p, case, monkeypatch):
    """|G/Z|, |S|, |N_G(S)|, the p-rank, n_G, both abelianizations, the
    number of elementary abelian subgroups of S of each rank and the chain
    of S up to level 3."""
    S = mg.sylow_subgroup_of(G, p)
    N = mg.normalizer(G, S)
    full = G.as_subgroup()
    monkeypatch.setattr(liea, "enumerate_quotient", lambda *args, **kwargs: G)
    oracle = tf_rank_oracle(*case)
    return (G.order, S.order, N.order, oracle.p_rank, oracle.n_g,
            mg.quotient_structure(full, mg.commutator_subgroup(full)),
            mg.quotient_structure(N, mg.commutator_subgroup(N)),
            Counter(e.rank for e in mg.elementary_abelian_subgroups(S, p)),
            rho.rho_chain(G, S, S, max_i=3).to_json())


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
        moved = f(gens)
        H = liea.quotient_closure(F, moved, z, liea.levi_order([n], q, det), None,
                                  f"{name} by {label}")
        # a second numbering of the same set of cosets
        assert not np.array_equal(H.elements, G.elements), label
        assert np.array_equal(np.sort(H.lookup_batch(G.elements)), np.arange(G.order)), label
        assert _answers(H, p, case, monkeypatch) == want, label


def _diagonal_conjugation(F, n):
    """g -> M g M^-1 for a seeded diagonal, non-scalar M, on one matrix or a
    batch.  A diagonal M keeps Q diagonal, H monomial and every block shape,
    so each group of a certificate closes again to the same set of cosets."""
    rng = np.random.default_rng(SEED)
    d = np.ones(n, dtype=np.int64)
    while len(set(d.tolist())) == 1:
        d = rng.integers(1, F.q, n)
    d_inv = np.array([F.inv_el(int(a)) for a in d])
    return lambda g: F.mul[F.mul[d[:, None], g], d_inv]


def _block_conjugation(F, n, shapes):
    """g -> M g M^-1 for a seeded M that is block-diagonal on the common
    refinement of the given block shapes, with a random invertible block on
    each part (a random nonzero scalar on a part of size 1): M lies in
    every block group of those shapes, so each closes again to the same
    set of cosets."""
    rng = np.random.default_rng(SEED)
    cuts = sorted({0, n} | {sum(shape[:i]) for shape in shapes for i in range(len(shape))})
    m = mg.block_embed(n, [(a, _random_gl(F, b - a, rng) if b - a > 1 else
                            np.array([[rng.integers(1, F.q)]], dtype=np.uint8))
                           for a, b in zip(cuts, cuts[1:])])
    m_inv = _inverse(F, m)
    return lambda g: backend.mm_one(backend.mm_one(m[None], g, F), m_inv, F)[0]


def _certificate_maps(F, n):
    """label -> a map from a generator list of a certificate's group to
    another one that closes to the same set of cosets."""
    conj = _diagonal_conjugation(F, n)
    maps = {"diagonal conjugation": lambda gens: [conj(g) for g in gens],
            "reversal": lambda gens: gens[::-1]}
    if F.degree > 1:
        maps["frobenius"] = lambda gens, f=_frobenius(F): [f(g) for g in gens]
    return maps


def _move_certificate(cert, move):
    """Every group of the certificate closed again from its moved generator
    list, modulo the same scalars, and every element moved with it."""
    def close(G):
        return None if G is None else mg.MatrixGroup.generate(
            G.field, move([G.elements[g] for g in G.gen_idx]),
            z_order=G.z_order, name=f"{G.name}^M")

    def evidence(ev):
        return ev if ev is None or ev.witness_gens is None else dataclasses.replace(
            ev, witness_gens=move(ev.witness_gens))

    H, c = close(cert.H), cert.containment
    assert not np.array_equal(H.elements, cert.H.elements)
    return dataclasses.replace(
        cert, H=H,
        containment=dataclasses.replace(c, q_subgroup=close(c.q_subgroup), sylow=close(c.sylow)),
        H_evidence=evidence(cert.H_evidence),
        witnesses=[dataclasses.replace(w, element=move([w.element])[0],
                                       aux_group=close(w.aux_group),
                                       aux_evidence=evidence(w.aux_evidence))
                   for w in cert.witnesses])


# family -> (its default certificate, a tamper, the clause the tamper fails);
# SL(3,4) is perfect, so the sleps certificate cannot fail (gen)
CERTIFICATES = {
    "rp-case": (_torus_certificate, lambda c: dataclasses.replace(c, witnesses=[]), "(gen)"),
    "sleps": (lambda: rho.build_central_scalar_certificate(3, 4, 3),
              lambda c: dataclasses.replace(c, H_evidence=rho.TrivialityEvidence(
                  "normal-p-subgroup", witness_gens=[c.H.elements[c.H.gen_idx[0]]])), "(A)"),
}


@pytest.mark.parametrize("family", CERTIFICATES)
def test_certificate_verdicts_survive_a_change_of_basis(family):
    # about 1.4 s for both families on a 2-core host, 0.75 s of it the reversal
    # and Frobenius moves
    build, tamper, clause = CERTIFICATES[family]
    cert = build()
    moved = {label: _move_certificate(cert, move)
             for label, move in _certificate_maps(cert.H.field, cert.H.n).items()}
    for label, c in moved.items():
        assert rho.check_certificate(c).verdict == "PASS", label
    for label, c in {"unmoved": cert, **moved}.items():
        report = rho.check_certificate(tamper(c))
        assert (report.verdict, report.failed_clause) == ("FAIL", clause), label


def test_composite_iii_verdicts_survive_a_block_conjugation(composite_iii_certificate):
    """SL(4,4) at p = 3: H has blocks (1, 3) and the witness's group (2, 2),
    so the conjugator is block-diagonal on (1, 1, 2), with a non-diagonal
    2 x 2 part.  The certificate is also moved by the reversal and, as
    q = 4, the Frobenius map of the other certificates.  Each moved
    certificate PASSes and a forged (A) evidence FAILs on each and on the
    original.  Budget 3 s; about 1.3 s on a 2-core host."""
    cert = composite_iii_certificate
    shapes = [cert.containment.blocks] + [w.aux_evidence.split.blocks for w in cert.witnesses]
    assert shapes == [(1, 3), (2, 2)]
    conj = _block_conjugation(cert.H.field, cert.H.n, shapes)
    maps = _certificate_maps(cert.H.field, cert.H.n)
    maps["block conjugation"] = lambda gens: [conj(g) for g in gens]
    del maps["diagonal conjugation"]  # a special case of the block conjugation
    assert maps.keys() == {"reversal", "frobenius", "block conjugation"}
    moved = {label: _move_certificate(cert, move) for label, move in maps.items()}
    for label, c in moved.items():
        assert rho.check_certificate(c).verdict == "PASS", label
    for label, c in {"unmoved": cert, **moved}.items():
        forged = dataclasses.replace(c, H_evidence=rho.TrivialityEvidence(
            "normal-p-subgroup", witness_gens=[c.H.elements[c.H.gen_idx[0]]]))
        report = rho.check_certificate(forged)
        assert (report.verdict, report.failed_clause) == ("FAIL", "(A)"), label
