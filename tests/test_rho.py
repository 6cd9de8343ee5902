import dataclasses
import functools
import random

import numpy as np
import pytest

from endotriv import liea, rho
from endotriv import matgrp as mg
from endotriv.errors import CapExceeded, DomainError
from endotriv.gf import field_spec


def quaternion_group():
    F3 = field_spec(3)
    return mg.MatrixGroup.generate(F3, [[[0, 2], [1, 0]], [[1, 1], [1, 2]]],
                                   name="Q8")


def test_quaternion_chain_stalls_below_normalizer():
    G = quaternion_group()
    S = G.as_subgroup()
    ch = rho.rho_chain(G, S, S, max_i=5)
    assert ch.orders()[0] == 2  # the derived subgroup of Q8
    assert ch.stabilized_at is not None
    assert not ch.reached_normalizer
    assert ch.chain[-1].order == 2 < ch.normalizer.order == 8


def test_p_group_first_level_is_derived_subgroup():
    G = quaternion_group()
    S = G.as_subgroup()
    ch = rho.rho_chain(G, S, S, max_i=2)
    derived = mg.commutator_subgroup(S)
    assert ch.chain[0].members == derived.members


def test_trivial_base_rejected():
    G = quaternion_group()
    with pytest.raises(DomainError):
        rho.rho_chain(G, G.as_subgroup(), mg.trivial_subgroup(G))


def test_chain_independent_of_subgroup_order(monkeypatch):
    G = liea.enumerate_group(2, 5)
    S = liea.sylow_in(G, liea.compute_params(2, 5, 2))
    base = rho.rho_chain(G, S, S, max_i=3)
    lattice = rho.nontrivial_subgroups
    rng = random.Random(5)

    def shuffled(G, S):
        subs = lattice(G, S)
        rng.shuffle(subs)
        return subs

    monkeypatch.setattr(rho, "nontrivial_subgroups", shuffled)
    for _ in range(3):
        again = rho.rho_chain(G, S, S, max_i=3)
        assert [c.members for c in again.chain] == [c.members for c in base.chain]


def test_lattice_cap(monkeypatch):
    G = liea.enumerate_group(2, 17, 16)  # Sylow 2-subgroup of order 512
    S = liea.sylow_in(G, liea.compute_params(2, 17, 2, 16))
    monkeypatch.setattr(mg, "all_subgroups", None)  # refused before any enumeration
    monkeypatch.setattr(rho, "_naive_closure", None)
    with pytest.raises(CapExceeded):
        rho.nontrivial_subgroups(G, S)
    with pytest.raises(CapExceeded):
        rho.rho_chain_naive(G, S, S)


DUAL_CASES = [(2, 3, 1, 2), (2, 3, 2, 2), (2, 4, 1, 3), (2, 5, 1, 2),
              (2, 5, 1, 3), (3, 2, 1, 3), (3, 2, 1, 7), (2, 7, 1, 3)]


@pytest.mark.parametrize("n,q,det,p", DUAL_CASES)
def test_fast_and_naive_engines_agree(n, q, det, p):
    G = liea.enumerate_group(n, q, det)
    assert G.order <= 2000
    S = mg.sylow_subgroup_of(G, p)
    fast = rho.rho_chain(G, S, S, max_i=3)
    slow = rho.rho_chain_naive(G, S, S, max_i=3)
    assert fast.orders() == slow.orders()
    assert [c.members for c in fast.chain] == [c.members for c in slow.chain]
    assert fast.reached_normalizer == slow.reached_normalizer
    assert fast.normalizer.members == slow.normalizer.members


def test_both_engines_refuse_q_outside_s():
    G = liea.enumerate_group(2, 3)
    S = mg.sylow_subgroup_of(G, 2)
    Q = mg.sylow_subgroup_of(G, 3)
    for engine in (rho.rho_chain, rho.rho_chain_naive):
        with pytest.raises(DomainError, match="contained in S"):
            engine(G, S, Q)


@pytest.mark.parametrize("n,q,det,p", [(2, 3, 2, 2), (2, 7, 1, 3)])
def test_naive_twin_runs_without_the_subgroup_algebra(monkeypatch, n, q, det, p):
    # the twin is evidence only while it shares no subgroup routine with the engine
    G = liea.enumerate_group(n, q, det)
    S = mg.sylow_subgroup_of(G, p)
    fast = rho.rho_chain(G, S, S, max_i=3)
    for name in ("_closure_indices", "generated_subgroup", "find_generators",
                 "normalizer", "commutator_subgroup", "all_subgroups"):
        monkeypatch.setattr(mg, name, None)
    for name in ("sandwich_all", "conj_map"):
        monkeypatch.setattr(G, name, None)
    slow = rho.rho_chain_naive(G, S, S, max_i=3)
    assert [c.members for c in slow.chain] == [c.members for c in fast.chain]
    assert slow.normalizer.members == fast.normalizer.members
    assert slow.reached_normalizer == fast.reached_normalizer


def _matrix_mul(F, a, b):
    prods = F.mul[a[:, :, None], b[None, :, :]]  # [i, k, j] = a[i, k] b[k, j]
    out = prods[:, 0]
    for k in range(1, a.shape[0]):
        out = F.add[out, prods[:, k]]
    return out


def _matrix_twin(G):
    """Closure, normalizer and commutator subgroup computed on G's matrices
    with the field tables, each result mapped back to indices by index_of."""
    F, one = G.field, mg.identity_matrix(G.n)
    mats = [G.elements[i] for i in range(G.order)]
    invs = []
    for a in mats:  # a^-1 is the power b of a with b a = 1
        b = one
        while not np.array_equal(_matrix_mul(F, b, a), one):
            b = _matrix_mul(F, b, a)
        invs.append(b)

    def closure(seed):
        out, frontier = {G.index_of(one)}, [one]
        while frontier:
            nxt = []
            for x in frontier:
                for g in seed:
                    y = _matrix_mul(F, x, mats[g])
                    if (i := G.index_of(y)) not in out:
                        out.add(i)
                        nxt.append(y)
            frontier = nxt
        return out

    def conj(g, x):
        return G.index_of(_matrix_mul(F, _matrix_mul(F, mats[g], mats[x]), invs[g]))

    def normalizer(members):
        return {g for g in range(G.order) if all(conj(g, x) in members for x in members)}

    def commutator(members):
        return closure({G.index_of(_matrix_mul(F, _matrix_mul(F, mats[a], mats[b]),
                                               _matrix_mul(F, invs[a], invs[b])))
                        for a in members for b in members})

    return closure, normalizer, commutator


@pytest.mark.parametrize("group", ["Q8", "SL(2,3)"])
def test_naive_primitives_match_matrix_arithmetic(group):
    # the twin reads G's multiplication table; this checks it against matrices
    G = quaternion_group() if group == "Q8" else liea.enumerate_group(2, 3)
    closure, normalizer, commutator = _matrix_twin(G)
    for p in (2, 3):
        if G.order % p:
            continue
        for key in mg.conjugate_orbit(G, mg.sylow_subgroup_of(G, p).key()):
            members = frozenset(key)
            for x in key:
                for y in key:
                    assert rho._naive_closure(G, [x, y]) == closure([x, y])
            N = rho._naive_normalizer(G, members)
            assert N == normalizer(members)
            assert rho._naive_commutator(G, members) == commutator(members)
            assert rho._naive_commutator(G, N) == commutator(N)


def test_naive_twin_refuses_groups_without_a_table(monkeypatch):
    G = liea.enumerate_quotient(2, 7, 6, 1)  # GL(2,7), 2016 elements
    S = mg.sylow_subgroup_of(G, 3)
    for name in ("_right", "_mul", "cayley"):  # refused before any product
        monkeypatch.setattr(G, name, None)
    for run in (lambda: rho._naive_closure(G, G.gen_idx),
                lambda: rho.rho_chain_naive(G, S, S)):
        with pytest.raises(CapExceeded) as exc:
            run()
        assert exc.value.cap == mg.MatrixGroup.CAYLEY_LIMIT < G.order


# criterion 3's nonabelian Sylow subgroups of p-rank 3, each enumerated on its own
CRITERION_3_SYLOWS = {"Syl3-GL(3,4)": (3, 4, 3, 3), "Syl3-GL(3,7)": (3, 7, 3, 6)}


def _lattice_case(case):
    """(G, S, p) for a lattice test case."""
    if case == "Q8":
        G = quaternion_group()
        return G, G.as_subgroup(), 2
    if case == "rp-case":  # the Sylow subgroup of the rp-case certificate, order 243
        _, Sg = liea.build_sylow(liea.compute_params(3, 19, 3, 1, 3))
        return Sg, Sg.as_subgroup(), 3
    if case in CRITERION_3_SYLOWS:
        _, Sg = liea.build_sylow(liea.compute_params(*CRITERION_3_SYLOWS[case]))
        return Sg, Sg.as_subgroup(), 3
    if case == "SL(2,4)":  # the whole group, not a p-group
        G = liea.enumerate_group(2, 4)
        return G, G.as_subgroup(), 2
    n, q, det, p = case
    G = liea.enumerate_group(n, q, det)
    return G, mg.sylow_subgroup_of(G, p), p


def _elementary_abelian_in_table(G, subs, p):
    """The subgroups in `subs` that are abelian of exponent p, read off G's
    multiplication table."""
    tab, keep = G.cayley(), []
    for T in subs:
        block = tab[np.ix_(T.idx, T.idx)]
        powers = np.full(T.order, G.identity_idx)
        for _ in range(p):
            powers = tab[powers, T.idx]
        if (block == block.T).all() and (powers == G.identity_idx).all():
            keep.append(T)
    return keep


@pytest.mark.parametrize("case", ["Q8", "rp-case", *DUAL_CASES, *CRITERION_3_SYLOWS, "SL(2,4)"],
                         ids=lambda c: c if isinstance(c, str) else "-".join(map(str, c)))
def test_lattice_matches_naive_twin(case):
    # cyclic extension against the twin's joins of cyclic subgroups
    G, S, p = _lattice_case(case)
    slow = rho._naive_subgroups(G, S)
    if case == "SL(2,4)":
        with pytest.raises(DomainError, match="p-group"):
            mg.all_subgroups(S)
    else:
        fast = mg.all_subgroups(S)
        assert [T.members for T in fast] == [T.members for T in slow]
        assert [(T.order, T.key()) for T in fast] == sorted((T.order, T.key()) for T in fast)
        for T in fast:
            assert rho._naive_closure(G, T.gen_idx) == T.members, T.key()
        if case == "rp-case":
            assert len(fast) == 144
    # the elementary abelian subgroups, ranks and maximal flags, from the twin's lattice
    eas = _elementary_abelian_in_table(G, slow, p)
    found = mg.elementary_abelian_subgroups(S, p)
    assert len(found) == len(eas)
    assert {e.subgroup.members: (p ** e.rank, e.maximal) for e in found} == {
        T.members: (T.order, not any(T.members < U.members for U in eas)) for T in eas}


def test_cyclic_extension_runs_without_closures(monkeypatch):
    # both enumerations build each subgroup as a union of cosets
    G = liea.enumerate_group(2, 3, 2)  # GL(2,3), a certify chain group
    S = mg.sylow_subgroup_of(G, 2)  # semidihedral of order 16
    monkeypatch.setattr(mg, "_closure_indices", None)
    eas = mg.elementary_abelian_subgroups(S, 2)
    assert [(e.rank, e.maximal) for e in eas] == [(0, False)] + [(1, False)] * 5 + [(2, True)] * 2
    assert [T.order for T in mg.all_subgroups(S)] == [1] + [2] * 5 + [4] * 5 + [8] * 3 + [16]


def test_first_level_equals_normalizer_commutator():
    G = liea.enumerate_group(2, 5)
    S = liea.sylow_in(G, liea.compute_params(2, 5, 2))
    ch = rho.rho_chain(G, S, S, max_i=1)
    N = mg.normalizer(G, S)
    assert ch.chain[0].members == mg.commutator_subgroup(N).members


# ---------------------------------------------------------------------------
# certificates

def test_central_scalar_certificate_passes():
    cert = rho.build_central_scalar_certificate(3, 4, 3)
    report = rho.check_certificate(cert)
    assert report.verdict == "PASS"


def test_certificate_requires_generation():
    cert = rho.build_central_scalar_certificate(3, 4, 3)
    cert.witnesses = cert.witnesses[:1]
    cert.sylow_in_H = mg.trivial_subgroup(cert.H)
    report = rho.check_certificate(cert)
    assert report.verdict == "FAIL" and report.failed_clause == "(gen)"


def test_unproved_evidence_is_incomplete():
    cert = rho.build_central_scalar_certificate(3, 4, 3)
    cert.H_evidence = rho.TrivialityEvidence(kind="unproved")
    report = rho.check_certificate(cert)
    assert report.verdict == "INCOMPLETE"


def test_block_count_certificate_passes():
    cert = _real_certificate("blocks")
    report = rho.check_certificate(cert)
    assert report.verdict == "PASS"
    kinds = {w.aux_evidence.kind for w in cert.witnesses if w.aux_evidence}
    assert "block-split" in kinds


def test_replay_families():
    out = rho.replay_proof_certificates("sl62")
    assert out[0]["verdict"] == "SKIPPED"
    out2 = rho.replay_proof_certificates("sleps")
    verdicts = {(v["n"], v["q"], v["p"]): v["verdict"] for v in out2}
    assert verdicts[(3, 4, 3)] == "PASS"
    assert verdicts[(6, 2, 3)] == "SKIPPED"
    for fam in ("composite-i", "composite-ii"):
        assert rho.replay_proof_certificates(fam)[0]["verdict"] == "SKIPPED"
    with pytest.raises(DomainError):
        rho.replay_proof_certificates("nonsense")
    with pytest.raises(DomainError, match="n, q and p together"):
        rho.replay_proof_certificates("composite-iii", 4, 4)


def test_block_count_builder_splits_n(monkeypatch):
    # n = (a p^s + b) e with p^s <= n/e < p^(s+1); the blocks are (b e, a p^s e)
    for (n, q, p), detail in {(9, 4, 3): "n/e = 9 = 1\\*9", (6, 2, 3): "n/e = 3 = 1\\*3",
                              (5, 2, 3): "e = 2 to divide n = 5"}.items():
        with pytest.raises(DomainError, match=detail):
            rho.build_block_count_certificate(n, q, p)
    monkeypatch.setattr(mg.MatrixGroup, "generate", None)  # refused before any closure
    for (n, q, p), blocks in {(5, 4, 3): [2, 3], (7, 4, 3): [1, 6], (8, 2, 3): [2, 6],
                              (11, 3, 2): [3, 8]}.items():
        with pytest.raises(CapExceeded) as exc:
            rho.build_block_count_certificate(n, q, p)
        assert exc.value.needed == liea.levi_order(blocks, q, 1)


def test_torus_quotient_rejects_degenerate_scaled_torus():
    # for n = p = 3 the scaled-torus witness collapses to a scalar unless
    # the square of p divides q-1
    with pytest.raises(DomainError):
        rho.build_torus_quotient_certificate(3, 7, 3)
    with pytest.raises(DomainError):
        rho.build_torus_quotient_certificate(3, 4, 3)


def test_torus_quotient_builds_no_whole_group(monkeypatch):
    # at (3,19,3) the corner block group has 123120 elements and the
    # monomial group 1944; only their quotients by Z3 are closed
    orders = []
    generate = mg.MatrixGroup.generate.__func__

    def spy(cls, field, gens, cap=None, scalars=None, name="G"):
        G = generate(cls, field, gens, cap=cap, scalars=scalars, name=name)
        orders.append(G.order)
        return G

    monkeypatch.setattr(mg.MatrixGroup, "generate", classmethod(spy))
    cert = rho.build_torus_quotient_certificate(3, 19, 3)
    assert (cert.H.order, cert.witnesses[-1].aux_group.order) == (648, 41040)
    assert not {123120, 1944} & set(orders)


@functools.cache
def _real_certificate(kind):
    if kind == "torus":
        return rho.build_torus_quotient_certificate(3, 19, 3)
    return rho.build_block_count_certificate(4, 4, 3)


def _transvection_conjugate(S):
    """The closure of t g t^-1 over S's generators g, for t = I + E_01."""
    F, n = S.field, S.n
    t, t_inv = mg.identity_matrix(n), mg.identity_matrix(n)
    t[0, 1], t_inv[0, 1] = 1, F.neg_el(1)
    gens = [_matrix_mul(F, _matrix_mul(F, t, S.elements[g]), t_inv) for g in S.gen_idx]
    return mg.MatrixGroup.generate(F, gens, name="S^t")


def _tamper_containment(cert, **fields):
    return dataclasses.replace(cert, containment=dataclasses.replace(cert.containment, **fields))


SYLOW_IMAGE_TAMPERS = {
    "torus-S-wrong-order": ("torus", lambda c: _tamper_containment(
        c, sylow=c.containment.q_subgroup), "S has wrong order"),
    "torus-S-outside-H": ("torus", lambda c: _tamper_containment(
        c, sylow=_transvection_conjugate(c.containment.sylow)), "S is not contained in H"),
    "blocks-S-outside-H": ("blocks", lambda c: _tamper_containment(
        c, sylow=_transvection_conjugate(c.containment.sylow)), "S is not contained in H"),
    "torus-image-mismatch": ("torus", lambda c: dataclasses.replace(
        c, sylow_in_H=c.H.as_subgroup()), "declared Sylow image mismatches S"),
    "torus-Q-not-diagonal": ("torus", lambda c: _tamper_containment(
        c, q_subgroup=c.containment.sylow), "Q is not diagonal"),
    # |Det| of order 2 leaves the Sylow 3-subgroup alone but doubles the monomial group
    "torus-H-not-full": ("torus", lambda c: _tamper_containment(c, det_order=2),
                         "H is not the full monomial subgroup"),
    "blocks-repeated-size": ("blocks", lambda c: _tamper_containment(c, blocks=(2, 2)),
                             "blocks must partition n with distinct sizes"),
}


@pytest.mark.parametrize("case", SYLOW_IMAGE_TAMPERS)
def test_tampered_containment_fails_the_sylow_clause(case):
    kind, tamper, detail = SYLOW_IMAGE_TAMPERS[case]
    report = rho.check_certificate(tamper(_real_certificate(kind)))
    assert (report.verdict, report.failed_clause) == ("FAIL", "(S)")
    assert report.clauses[-1] == rho.ClauseResult("(S)", False, detail)


def test_unemitted_certificate_kinds_are_not_checked():
    cert = _real_certificate("torus")
    report = rho.check_certificate(dataclasses.replace(
        cert, containment=rho.SylowContainment(kind="ambient-scan")))
    assert (report.verdict, report.failed_clause) == ("INCOMPLETE", None)
    assert report.clauses[-1].detail == "unknown containment kind 'ambient-scan'"
    report = rho.check_certificate(dataclasses.replace(
        cert, H_evidence=rho.TrivialityEvidence(kind="self-normalizing-sylow")))
    assert (report.verdict, report.failed_clause) == ("FAIL", "(A)")
    assert report.clauses[-1].detail == "evidence kind 'self-normalizing-sylow' is not checkable"
