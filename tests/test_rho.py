import dataclasses
import functools
import itertools
import random

import numpy as np
import pytest

from endotriv import liea, rho
from endotriv import matgrp as mg
from endotriv.errors import CapExceeded, DomainError
from endotriv.gf import field_spec
from test_matgrp import _matmul_pairs, _python_closure


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
    S = mg.image(G, liea.build_sylow(liea.compute_params(2, 5, 2))[1])
    base = rho.rho_chain(G, S, S, max_i=3)
    lattice = rho.nontrivial_subgroups
    rng = random.Random(5)

    def shuffled(S):
        subs = lattice(S)
        rng.shuffle(subs)
        return subs

    monkeypatch.setattr(rho, "nontrivial_subgroups", shuffled)
    for _ in range(3):
        again = rho.rho_chain(G, S, S, max_i=3)
        assert [c.members for c in again.chain] == [c.members for c in base.chain]


def test_lattice_cap(monkeypatch):
    G = liea.enumerate_group(2, 17, 16)  # Sylow 2-subgroup of order 512
    S = mg.image(G, liea.build_sylow(liea.compute_params(2, 17, 2, 16))[1])
    monkeypatch.setattr(mg, "all_subgroups", None)  # refused before any enumeration
    monkeypatch.setattr(rho, "_naive_closure", None)
    with pytest.raises(CapExceeded):
        rho.nontrivial_subgroups(S)
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


@pytest.mark.parametrize("max_i", [0, -3])
def test_both_engines_refuse_fewer_than_one_level(monkeypatch, max_i):
    G = quaternion_group()
    S = G.as_subgroup()
    monkeypatch.setattr(mg, "all_subgroups", None)  # refused before any lattice
    monkeypatch.setattr(rho, "_naive_closure", None)
    for engine in (rho.rho_chain, rho.rho_chain_naive):
        with pytest.raises(DomainError, match=f"max_i must be a positive integer, got {max_i}"):
            engine(G, S, S, max_i=max_i)


def _conjugates_by_matrices(G, gs, idx):
    """Row i: the sorted indices of g x g^-1 for g = gs[i] and every x in
    idx, each a product of matrices by the field tables."""
    g, x = np.repeat(gs, len(idx)), np.tile(idx, len(gs))
    gx = _matmul_pairs(G.field, G.elements[g], G.elements[x])
    conj = _matmul_pairs(G.field, gx, G.elements[G.inv[g]])
    return np.sort(G.lookup_batch(conj).reshape(len(gs), len(idx)), axis=1)


def test_chain_commutes_with_conjugation_above_the_table_limit():
    # For Q' = g Q g^-1 in the lattice of S = Syl_2(SL(3,3)): N(Q') and
    # [N(Q'), N(Q')] are g N(Q) g^-1 and g [N(Q), N(Q)] g^-1 for any such g,
    # and when g also normalizes S it permutes the lattice, so every level
    # of the chain of Q' is the conjugate of Q's.  The reference conjugates
    # with matrix products; the naive twin refuses this G.
    G = liea.enumerate_group(3, 3)
    S = mg.sylow_subgroup_of(G, 2)
    assert G.order == 5616
    with pytest.raises(CapExceeded):
        rho.rho_chain_naive(G, S, S)
    every = np.arange(G.order)
    one = np.broadcast_to(mg.identity_matrix(G.n), G.elements.shape)
    assert np.array_equal(_matmul_pairs(G.field, G.elements, G.elements[G.inv]), one)
    lattice = {T.key(): T for T in rho.nontrivial_subgroups(S)}
    assert len(lattice) == 14
    chains = {k: rho.rho_chain(G, S, T, max_i=4) for k, T in lattice.items()}
    fixes_s = (_conjugates_by_matrices(G, every, S.idx) == S.idx).all(axis=1)
    rng = np.random.default_rng(3)
    moved = 0
    for k, T in lattice.items():
        witnesses: dict[tuple, list[int]] = {}
        for g, row in enumerate(map(tuple, _conjugates_by_matrices(G, every, T.idx).tolist())):
            if row in lattice:
                witnesses.setdefault(row, []).append(g)
        for k2, gs in witnesses.items():
            ch, ch2 = chains[k], chains[k2]
            g = int(rng.choice(gs))
            for H, H2 in [(ch.normalizer, ch2.normalizer), (ch.chain[0], ch2.chain[0])]:
                assert _conjugates_by_matrices(G, [g], H.idx)[0].tolist() == H2.idx.tolist()
            in_ns = [g for g in gs if fixes_s[g]]
            if not in_ns:
                continue
            g = int(rng.choice(in_ns))
            assert ch2.orders() == ch.orders()
            for L, L2 in zip(ch.chain, ch2.chain):
                assert _conjugates_by_matrices(G, [g], L.idx)[0].tolist() == L2.idx.tolist()
            assert (ch2.stabilized_at, ch2.reached_normalizer) == (
                ch.stabilized_at, ch.reached_normalizer)
            moved += k2 != k
    assert moved  # some subgroup has a conjugate under N(S) besides itself


@pytest.mark.parametrize("n,q,det,p", [(2, 3, 2, 2), (2, 7, 1, 3)])
def test_naive_twin_runs_without_the_subgroup_algebra(monkeypatch, n, q, det, p):
    # the twin is evidence only while it shares no subgroup routine with the engine
    G = liea.enumerate_group(n, q, det)
    S = mg.sylow_subgroup_of(G, p)
    fast = rho.rho_chain(G, S, S, max_i=3)
    for name in ("_closure_indices", "generated_subgroup", "find_generators",
                 "normalizer", "commutator_subgroup", "all_subgroups",
                 "conjugate_orbit", "subgroup_conjugacy_classes"):
        monkeypatch.setattr(mg, name, None)
    for name in ("sandwich_all", "_gen_conj"):
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


@pytest.mark.parametrize("group", ["Q8", "SL(2,3)", "GL(2,3)"])
def test_naive_closure_matches_python_bfs(group):
    # duplicate seeds and the identity among them, as a list and as an array
    G = quaternion_group() if group == "Q8" else liea.enumerate_group(2, 3, 2 if group == "GL(2,3)" else 1)
    tab = rho._naive_table(G)[0].tolist()
    rng = np.random.default_rng(7)
    for size in (0, 1, 2, 3, 5):
        for _ in range(6):
            seeds = rng.integers(0, G.order, size=size).tolist()
            seeds += seeds[:2] + [G.identity_idx]
            ref = _python_closure(tab, seeds)
            assert rho._naive_closure(G, seeds) == ref, seeds
            assert rho._naive_closure(G, np.array(seeds, dtype=np.int64)) == ref, seeds


def test_naive_twin_refuses_groups_without_a_table(monkeypatch):
    G = liea.enumerate_quotient(2, 7, 6, 1)  # GL(2,7), 2016 elements
    S = mg.sylow_subgroup_of(G, 3)
    for name in ("_right", "_mul", "acts"):  # refused before any product or table fill
        monkeypatch.setattr(G, name, None)
    for run in (lambda: rho._naive_closure(G, G.gen_idx),
                lambda: rho.rho_chain_naive(G, S, S)):
        with pytest.raises(CapExceeded) as exc:
            run()
        assert exc.value.cap == rho.NAIVE_TABLE_CAP < G.order


# criterion 3's nonabelian Sylow subgroups of p-rank 3, each enumerated on its own
CRITERION_3_SYLOWS = {"Syl3-GL(3,4)": (3, 4, 3, 3), "Syl3-GL(3,7)": (3, 7, 3, 6),
                      "Syl3-GL(4,4)": (4, 4, 3, 3)}


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
    tab, keep = rho._naive_table(G)[0], []
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
    S = mg.image(G, liea.build_sylow(liea.compute_params(2, 5, 2))[1])
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


def test_block_count_certificate_passes(composite_iii_certificate):
    cert = composite_iii_certificate
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
def _torus_certificate():
    return rho.build_torus_quotient_certificate(3, 19, 3)


@pytest.fixture
def real_certificate(request):
    """A builder's certificate by kind: the torus one at (3, 19, 3), or the
    session's composite-iii one at (4, 4, 3)."""
    def get(kind):
        if kind == "torus":
            return _torus_certificate()
        return request.getfixturevalue("composite_iii_certificate")
    return get


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
    # S preserves the split (1, 3) of GF(4)^4, so the one block of size 4 is reducible
    "blocks-reducible": ("blocks", lambda c: _tamper_containment(c, blocks=(4,)),
                         "block at 0 of size 4 is reducible under S"),
}


@pytest.mark.parametrize("case", SYLOW_IMAGE_TAMPERS)
def test_tampered_containment_fails_the_sylow_clause(case, real_certificate):
    kind, tamper, detail = SYLOW_IMAGE_TAMPERS[case]
    report = rho.check_certificate(tamper(real_certificate(kind)))
    assert (report.verdict, report.failed_clause) == ("FAIL", "(S)")
    assert report.clauses[-1] == rho.ClauseResult("(S)", False, detail)


# (n, q, p, det), witnesses, containment of S, the (S) detail.  No builder's
# H can reach these two checks: (gen) holds only for the H its witnesses make.
HAND_BUILT = {
    # x is not monomial, and <S, x> has the monomial group's order 72
    "non-monomial-H": ((2, 7, 3, 6), lambda: [mg.matrix([[1, 4], [1, 5]])],
                       lambda S: rho.SylowContainment(kind="diagonal-characters", q_subgroup=S,
                                                      sylow=S, det_order=6),
                       "H has a non-monomial generator"),
    # <S, SL(3,2)> = SL(3,2), not the block group of blocks (2, 1)
    "non-block-H": ((3, 2, 3, 1), lambda: liea.sl_generators(3, 2),
                    lambda S: rho.SylowContainment(kind="isotypic-blocks", sylow=S,
                                                   blocks=(2, 1), det_order=1),
                    "H is not the full block group"),
}


@pytest.mark.parametrize("case", HAND_BUILT)
def test_hand_built_h_fails_the_sylow_clause(case):
    (n, q, p, det), witnesses, containment, detail = HAND_BUILT[case]
    xs = witnesses()
    _, S = liea.build_sylow(liea.compute_params(n, q, p, det))
    H = mg.MatrixGroup.generate(S.field, [S.elements[g] for g in S.gen_idx] + xs)
    cert = rho.MethodCertificate(
        "hand-built", p, n, q, liea.group_order(n, q, det), H,
        mg.Subgroup(H, np.unique(H.lookup_batch(S.elements))), containment(S),
        rho.TrivialityEvidence(kind="unproved"),
        [rho.GeneratorWitness(f"x{i}", x, "B1") for i, x in enumerate(xs)])
    report = rho.check_certificate(cert)
    assert report.clauses[0] == rho.ClauseResult("(gen)", True, "witnesses and S generate H")
    assert (report.verdict, report.failed_clause) == ("FAIL", "(S)")
    assert report.clauses[-1] == rho.ClauseResult("(S)", False, detail)


def _orbit_spans_are_full(F, mats):
    """Brute-force irreducibility: the orbit of every nonzero column vector
    under the group <mats> spans GF(q)^d, the span built as the additive
    closure of the orbit's GF(q)-multiples."""
    d = mats[0].shape[0]

    def act(m, v):
        return tuple(functools.reduce(lambda acc, k: int(F.add[acc, F.mul_el(int(m[i, k]), v[k])]),
                                      range(d), 0) for i in range(d))

    for v in itertools.product(range(F.q), repeat=d):
        if not any(v):
            continue
        orbit, frontier = {v}, [v]
        while frontier:
            frontier = list({act(m, u) for u in frontier for m in mats} - orbit)
            orbit.update(frontier)
        span = {(0,) * d}
        for u in orbit:
            if u not in span:
                span = {tuple(int(F.add[a, F.mul_el(c, b)]) for a, b in zip(s, u))
                        for s in span for c in range(F.q)}
        if len(span) < F.q ** d:
            return False
    return True


def _block_cases():
    """(q, generators, off, dim): Singer, Singer-plus-Frobenius, Frobenius,
    scalar Singer powers, diagonal tori and the blocks of Sylow subgroups."""
    cases = []
    for q, e in [(2, 2), (2, 3), (3, 2), (4, 2), (5, 2), (2, 4), (3, 3)]:
        F = field_spec(q)
        w, frob = liea.singer_block(q, e)
        scalar = functools.reduce(lambda a, _: _matrix_mul(F, a, w),
                                  range((q ** e - 1) // (q - 1) - 1), w)
        cases += [(q, [w], 0, e), (q, [w, frob], 0, e), (q, [frob], 0, e), (q, [scalar], 0, e)]
    for q, d in [(3, 2), (4, 3), (5, 2)]:
        torus = mg.identity_matrix(d)
        torus[0, 0] = field_spec(q).primitive
        cases += [(q, [torus], 0, d), (q, [torus[:1, :1]], 0, 1)]
    for (n, q, p), blocks in [((4, 4, 3), [(0, 1), (1, 3), (0, 4)]), ((2, 7, 3), [(0, 2)]),
                              ((2, 5, 3), [(0, 2)]), ((3, 2, 3), [(0, 3), (0, 2)])]:
        _, S = liea.build_sylow(liea.compute_params(n, q, p))
        cases += [(q, [S.elements[g] for g in S.gen_idx], off, dim) for off, dim in blocks]
    return cases


def test_block_irreducibility_matches_the_span_of_every_orbit():
    verdicts = []
    for q, gens, off, dim in _block_cases():
        F = field_spec(q)
        got = rho._block_irreducible(F, gens, off, dim)
        assert got == _orbit_spans_are_full(F, [g[off:off + dim, off:off + dim] for g in gens]), \
            (q, off, dim, gens)
        verdicts.append(got)
    assert set(verdicts) == {True, False}


def test_unemitted_certificate_kinds_are_not_checked():
    cert = _torus_certificate()
    report = rho.check_certificate(dataclasses.replace(
        cert, containment=rho.SylowContainment(kind="ambient-scan")))
    assert (report.verdict, report.failed_clause) == ("INCOMPLETE", None)
    assert report.clauses[-1].detail == "unknown containment kind 'ambient-scan'"
    report = rho.check_certificate(dataclasses.replace(
        cert, H_evidence=rho.TrivialityEvidence(kind="self-normalizing-sylow")))
    assert (report.verdict, report.failed_clause) == ("FAIL", "(A)")
    assert report.clauses[-1].detail == "evidence kind 'self-normalizing-sylow' is not checkable"
