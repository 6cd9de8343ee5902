import dataclasses
import functools
import itertools
import random
import tracemalloc
import weakref

import numpy as np
import pytest

from endotriv import abst, backend, liea, rho
from endotriv import matgrp as mg
from endotriv.classify import tf_rank_oracle
from endotriv.errors import CapExceeded, DomainError
from endotriv.gf import field_spec
from test_matgrp import _contents, _matmul_pairs, _python_closure, quaternion_group


def test_quaternion_chain_stalls_below_normalizer():
    G = quaternion_group()
    S = G.as_subgroup()
    ch = rho.rho_chain(G, S, S, max_i=5)
    assert ch.orders()[0] == 2  # the derived subgroup of Q8
    assert ch.stabilized_at is not None
    assert not ch.reached_normalizer
    assert ch.chain[-1].order == 2 < ch.normalizer.order == 8


# (group, chain orders, |N_G(S)|, N_G(S) modulo the last level) at p = 2 with
# Q = S and four levels: none reaches N_G(S), and K, the p'-part of that
# quotient, is 0 for Q8 and GL(2,3) but Z/3 for SL(2,3).  Reaching N_G(S)
# is sufficient for K = 0, not necessary.
UNREACHED_CHAINS = [
    ("Q8", [2, 2], 8, abst.from_cyclic_orders([2, 2]), abst.TRIVIAL),
    ("SL(2,3)", [8, 8, 8], 24, abst.cyclic(3), abst.cyclic(3)),
    ("GL(2,3)", [4, 8, 8], 16, abst.cyclic(2), abst.TRIVIAL),
]


@pytest.mark.parametrize("engine", [rho.rho_chain, rho.rho_chain_naive])
@pytest.mark.parametrize("name, orders, n_order, top, k", UNREACHED_CHAINS)
def test_unreached_normalizer_leaves_k_open(engine, name, orders, n_order, top, k):
    G = {"Q8": quaternion_group, "SL(2,3)": lambda: liea.enumerate_group(2, 3),
         "GL(2,3)": lambda: liea.enumerate_group(2, 3, 2)}[name]()
    S = mg.sylow_subgroup_of(G, 2)
    ch = engine(G, S, S, max_i=4)
    quotient = mg.quotient_structure(ch.normalizer, ch.chain[-1])
    assert (ch.orders(), ch.normalizer.order, ch.reached_normalizer) == (orders, n_order, False)
    assert (quotient, abst.prime_to_p_part(quotient, 2)) == (top, k)


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
    monkeypatch.setattr(mg, "normalizer", None)  # the fast engine refuses before N(Q)
    with pytest.raises(CapExceeded):
        rho.rho_chain(G, S, S)


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


def test_both_engines_refuse_subgroups_of_another_group(monkeypatch):
    # a Sylow 3-subgroup of SL(2,5) asked of GL(2,5), and GL(2,5)'s asked of
    # SL(2,5): the naive twin returned a chain for the first and raised a raw
    # IndexError on the second; both engines refuse before any scan
    G, K = liea.enumerate_group(2, 5, 4), liea.enumerate_group(2, 5)
    SG, SK = mg.sylow_subgroup_of(G, 3), mg.sylow_subgroup_of(K, 3)
    monkeypatch.setattr(mg, "normalizer", None)
    monkeypatch.setattr(rho, "_naive_table", None)
    for group, own, other in ((G, SG, SK), (K, SK, SG)):
        for S, Q in ((other, other), (own, other), (other, own)):
            for engine in (rho.rho_chain, rho.rho_chain_naive):
                with pytest.raises(DomainError, match="does not live in the given group"):
                    engine(group, S, Q)


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
                 "normalizer", "commutator_subgroup", "all_subgroups"):
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


def _orbit_reference(G, H):
    """Keys of the conjugates of H from sandwich_all: column g of the
    stacked g h g^-1 (h in H), sorted, is the key of g H g^-1."""
    cols = np.sort(np.stack([G.sandwich_all(int(h)) for h in H.idx]), axis=0)
    return {tuple(c) for c in cols.T.tolist()}


# NAIVE_BLOCK values for the block seams: 1 and 7 cut every product array
# into single rows, 100 into pieces of several rows with a shorter last one
# (4 rows of SL(2,3), 2 of GL(2,3)), and the default holds these groups whole
NAIVE_BLOCKS = [1, 7, 100, rho.NAIVE_BLOCK]


@pytest.mark.parametrize("group", ["Q8", "SL(2,3)"])
def test_naive_primitives_match_matrix_arithmetic(monkeypatch, group):
    # the twin reads G's multiplication table; this checks it against
    # matrices, at each block size on a fresh G and table
    for block in NAIVE_BLOCKS:
        monkeypatch.setattr(rho, "NAIVE_BLOCK", block)
        G = quaternion_group() if group == "Q8" else liea.enumerate_group(2, 3)
        closure, normalizer, commutator = _matrix_twin(G)
        for p in (2, 3):
            if G.order % p:
                continue
            for key in _orbit_reference(G, mg.sylow_subgroup_of(G, p)):
                members, mask = frozenset(key), mg._mask(G, list(key))
                for x in key:
                    for y in key:
                        pair = mg._mask(G, [x, y])
                        assert _contents(rho._naive_closure(G, pair)) == closure([x, y])
                N = rho._naive_normalizer(G, mask)
                assert _contents(N) == normalizer(members)
                assert _contents(rho._naive_commutator(G, mask)) == commutator(members)
                assert _contents(rho._naive_commutator(G, N)) == commutator(_contents(N))


# (n, q, p, det, z) -> (rank-2 elementary abelian subgroups of S maximal in G/Z, G-classes)
FUSION = {(2, 7, 2, 2, 2): (4, 2), (2, 3, 2, 2, 1): (2, 1), (2, 3, 2, 2, 2): (2, 2)}


@pytest.mark.parametrize("n, q, p, det, z", FUSION)
def test_oracle_classes_match_the_naive_table(n, q, p, det, z):
    # fusion read off the twin's multiplication table: g x g^-1 = tab[tab[g, x], inv[g]]
    G = liea.enumerate_quotient(n, q, det, z)
    tab, inv = rho._naive_table(G)
    xs, one = np.arange(G.order), 0
    power = xs
    for _ in range(p - 1):
        power = tab[power, xs]
    pts, commute = xs[(power == one) & (xs != one)], tab == tab.T
    in_s = pts[mg._mask(G, mg.sylow_subgroup_of(G, p).idx)[pts]]
    subs = {_contents(rho._naive_closure(G, mg._mask(G, [a, b])))
            for a in in_s for b in in_s if commute[a, b]}
    subs = [E for E in subs if len(E) == p * p
            and not any(commute[x, list(E)].all() for x in pts if x not in E)]
    classes = {frozenset(map(frozenset, tab[tab[:, list(E)], inv[:, None]].tolist()))
               for E in subs}
    assert (len(subs), len(classes)) == FUSION[n, q, p, det, z]
    assert tf_rank_oracle(n, q, p, det, z).n_g == len(classes)


@pytest.mark.parametrize("group", ["Q8", "SL(2,3)", "GL(2,3)"])
def test_naive_closure_matches_python_bfs(monkeypatch, group):
    # duplicate seeds and the identity among them, on a seed mask that the
    # closure leaves as it was, at each block size on a fresh G and table
    for block in NAIVE_BLOCKS:
        monkeypatch.setattr(rho, "NAIVE_BLOCK", block)
        G = (quaternion_group() if group == "Q8"
             else liea.enumerate_group(2, 3, 2 if group == "GL(2,3)" else 1))
        tab = rho._naive_table(G)[0]
        # an int16 table whose columns are C-ordered rows, tab[i, j] = i * j for every pair
        assert tab.dtype == np.int16 and tab.T.flags.c_contiguous
        i, j = np.divmod(np.arange(G.order ** 2), G.order)
        assert np.array_equal(tab[i, j], G._mul(i, j))
        tab = tab.tolist()
        rng = np.random.default_rng(7)
        for size in (0, 1, 2, 3, 5):
            for _ in range(6):
                seeds = rng.integers(0, G.order, size=size).tolist()
                seeds += seeds[:2] + [0]
                ref = _python_closure(tab, seeds)
                mask = mg._mask(G, seeds)
                assert _contents(rho._naive_closure(G, mask)) == ref, seeds
                assert mask.sum() == len(set(seeds)), seeds  # the seed mask is not written


def test_naive_commutator_spans_two_blocks():
    # SL(2,7): the 336 x 336 pairs fill two default blocks of rows, and the
    # closure of their commutators is the one read off the table in Python
    G = liea.enumerate_group(2, 7)
    xs = np.arange(G.order)
    assert len(rho._blocks(xs, G.order)) == 2
    tab, inv = (a.tolist() for a in rho._naive_table(G))
    comms = {tab[tab[a][b]][tab[inv[a]][inv[b]]]
             for a in range(G.order) for b in range(G.order)}
    assert _contents(rho._naive_commutator(G, mg._mask(G, xs))) == _python_closure(tab, comms)


def _traced_peak_mb(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_naive_twin_peaks_at_its_table_plus_a_block():
    # SL(2,9), 720 elements, 1 MB of table: forming the 518 400 pairs of a
    # commutator subgroup in one array takes the chain at p = 2 (table
    # included) to 8.0 MB and that commutator subgroup alone to 7.0 MB
    G = liea.enumerate_group(2, 9)
    S = mg.sylow_subgroup_of(G, 2)
    assert _traced_peak_mb(lambda: rho.rho_chain_naive(G, S, S, max_i=3)) < 2.5
    rho._naive_table(G)
    every = np.ones(G.order, dtype=bool)
    assert _traced_peak_mb(lambda: rho._naive_commutator(G, every)) < 2.0


@pytest.mark.parametrize("n, q, det", [(2, 3, 2), (2, 7, 1)])  # GL(2,3), SL(2,7)
def test_naive_joins_close_each_union_once(monkeypatch, n, q, det):
    # a join is the closure of a union M u C: no union is closed twice, and
    # none that is already a subgroup found; the cyclic subgroups come off
    # the power table, not from closures
    G = liea.enumerate_group(n, q, det)
    S = mg.sylow_subgroup_of(G, 2)
    closure, closed = rho._naive_closure, []
    found = {m.tobytes() for m in rho._naive_cyclics(G, S.idx)}

    def spy(G, seed):
        key = seed.tobytes()
        assert key not in closed and key not in found, np.flatnonzero(seed)
        closed.append(key)
        found.add((out := closure(G, seed)).tobytes())
        return out

    monkeypatch.setattr(rho, "_naive_closure", spy)
    subs = rho._naive_subgroups(G, S)
    assert {mg._mask(G, T.idx).tobytes() for T in subs} == found


@pytest.mark.parametrize("n, q, det, calls", [(2, 3, 2, (14, 7)), (2, 7, 1, (10, 8))])
def test_naive_twin_takes_one_commutator_per_distinct_normalizer(monkeypatch, n, q, det, calls):
    # GL(2,3), SL(2,7) at p = 2, on a lattice found beforehand: one
    # normalizer per nontrivial subgroup, and one commutator subgroup and
    # one closure a level per distinct normalizer
    G = liea.enumerate_group(n, q, det)
    S = mg.sylow_subgroup_of(G, 2)
    whole = rho._naive_subgroups(G, S)
    subs = [T for T in whole if T.order > 1]
    distinct = {mg._mask(G, mg.normalizer(G, T).idx).tobytes() for T in subs}
    monkeypatch.setattr(rho, "_naive_subgroups", lambda G, S: whole)
    seen = {"_naive_normalizer": [], "_naive_commutator": [], "_naive_closure": []}
    for name, log in seen.items():
        monkeypatch.setattr(rho, name, lambda G, members, f=getattr(rho, name), log=log:
                            log.append(members.tobytes()) or f(G, members))
    ch = rho.rho_chain_naive(G, S, S, max_i=3)
    normalizers, commutators = seen["_naive_normalizer"], seen["_naive_commutator"]
    assert (len(normalizers), len(commutators)) == calls
    assert sorted(normalizers) == sorted(mg._mask(G, T.idx).tobytes() for T in subs)
    assert sorted(commutators) == sorted(distinct)
    assert len(seen["_naive_closure"]) == len(distinct) * len(ch.chain)


@pytest.mark.parametrize("n, q, det", [(2, 3, 2), (2, 7, 1), (2, 9, 1)])  # GL(2,3), SL(2,7), SL(2,9)
def test_chain_scans_each_generator_prefix_once(monkeypatch, n, q, det):
    # at p = 2 the fast engine visits Q = S and the other nontrivial subgroups
    # by their generators: one conjugation row per distinct generator prefix,
    # at most the longest generator tuple's count live at once and none once
    # the chain is done, and its distinct normalizers are mg.normalizer's,
    # each generated by its generators
    G = liea.enumerate_group(n, q, det)
    S = mg.sylow_subgroup_of(G, 2)
    visits = [S] + [T for T in rho.nontrivial_subgroups(S) if T != S]
    prefixes = {T.gen_idx[:i] for T in visits for i in range(1, len(T.gen_idx) + 1)}
    deepest = max(len(T.gen_idx) for T in visits)
    normalizers = {mg.normalizer(G, T).key() for T in visits}
    rows, met, scan, commutator = [], [], G.sandwich_all, mg.commutator_subgroup

    def spy(h):
        row = scan(h)
        rows.append(weakref.ref(row))
        assert sum(r() is not None for r in rows) <= deepest
        return row

    monkeypatch.setattr(G, "sandwich_all", spy)
    monkeypatch.setattr(mg, "commutator_subgroup", lambda N: met.append(N) or commutator(N))
    ch = rho.rho_chain(G, S, S, max_i=3)
    assert len(rows) == len(prefixes) < sum(len(T.gen_idx) for T in visits)
    assert all(r() is None for r in rows)
    assert sorted(N.key() for N in met) == sorted(normalizers)
    assert ch.normalizer == mg.normalizer(G, S)
    for N in met:
        assert mg.generated_subgroup(G, N.gen_idx) == N


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


def test_naive_twin_finds_q_in_its_own_lattice(monkeypatch):
    G = liea.enumerate_group(2, 3, 1)
    S = mg.sylow_subgroup_of(G, 2)
    whole = rho._naive_subgroups(G, S)
    # a lattice that misses Q is an error, not a list to patch
    monkeypatch.setattr(rho, "_naive_subgroups", lambda G, S: whole[:-1])
    with pytest.raises(ValueError):
        rho.rho_chain_naive(G, S, S)


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
        powers = np.full(T.order, 0)
        for _ in range(p):
            powers = tab[powers, T.idx]
        if (block == block.T).all() and (powers == 0).all():
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
            gens = mg._mask(G, list(T.gen_idx))
            assert _contents(rho._naive_closure(G, gens)) == T.members, T.key()
        if case == "rp-case":
            assert len(fast) == 144
    # the elementary abelian subgroups, ranks and maximal flags, from the twin's lattice
    eas = _elementary_abelian_in_table(G, slow, p)
    found = mg.elementary_abelian_subgroups(S, p)
    assert len(found) == len(eas)
    assert {e.subgroup.members: (p ** e.rank, e.maximal) for e in found} == {
        T.members: (T.order, not any(T.members < U.members for U in eas)) for T in eas}


@pytest.mark.parametrize("case", ["Q8", (2, 3, 1, 2), (2, 3, 2, 2), (2, 7, 1, 2), "SL(2,4)"],
                         ids=lambda c: c if isinstance(c, str) else "-".join(map(str, c)))
def test_power_table_rows_are_the_cyclic_subgroups(monkeypatch, case):
    # Q8, and SL(2,3), GL(2,3), SL(2,7) at p = 2, and the whole of SL(2,4):
    # the row of x in the power table is the Python BFS closure of {x}, at
    # each block size
    G, S, _ = _lattice_case(case)
    tab = rho._naive_table(G)[0].tolist()
    want = [_python_closure(tab, [x]) for x in S.idx.tolist()]
    for block in NAIVE_BLOCKS:
        monkeypatch.setattr(rho, "NAIVE_BLOCK", block)
        assert [_contents(m) for m in rho._naive_cyclics(G, S.idx)] == want, block


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


def test_every_certify_instance_gets_a_verdict():
    # 336 instances in about 0.5 s: no builder or clause lets an error out,
    # and the one FAIL is SL(2,3), which is not perfect: [H,H]S = Q8
    out = [entry for family in ("rp-case", "sleps", "composite-iii") for n in range(2, 6)
           for q in (2, 3, 4, 5, 7, 8, 9) for p in (2, 3, 5, 7)
           for entry in rho.replay_proof_certificates(family, n, q, p, cap=20000)]
    assert len(out) == 336
    assert {e["verdict"] for e in out} == {"PASS", "FAIL", "INVALID", "SKIPPED"}
    assert [(e["family"], e["n"], e["q"], e["p"], e["failed_clause"])
            for e in out if e["verdict"] == "FAIL"] == [("sleps", 2, 3, 2, "(gen)")]


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


def test_block_count_split_is_checked_before_any_closure(monkeypatch):
    # n = 3 halves into blocks (1, 2) and e = 1 for p = 2: no balanced split,
    # so the answer is INVALID before any group is closed, whatever the cap
    monkeypatch.setattr(mg.MatrixGroup, "generate", None)
    [entry] = rho.replay_proof_certificates("composite-iii", 3, 9, 2, cap=100)
    assert (entry["verdict"], entry["reason"]) == ("INVALID", "balanced block split unavailable")


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

    def spy(cls, field, gens, cap=None, z_order=1, name="G"):
        G = generate(cls, field, gens, cap=cap, z_order=z_order, name=name)
        orders.append(G.order)
        return G

    monkeypatch.setattr(mg.MatrixGroup, "generate", classmethod(spy))
    cert = rho.build_torus_quotient_certificate(3, 19, 3)
    assert (cert.H.order, cert.witnesses[-1].aux_group.order) == (648, 41040)
    assert not {123120, 1944} & set(orders)


@functools.cache
def _torus_certificate():
    return rho.build_torus_quotient_certificate(3, 19, 3)


@functools.cache
def _central_scalar_certificate():
    return rho.build_central_scalar_certificate(3, 4, 3)


@pytest.fixture
def real_certificate(request):
    """A builder's certificate by kind: the torus one at (3, 19, 3), the
    central-scalar one at (3, 4, 3), or the session's composite-iii one at
    (4, 4, 3)."""
    def get(kind):
        if kind == "torus":
            return _torus_certificate()
        if kind == "scalar":
            return _central_scalar_certificate()
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


def _central_quotient(S, z):
    """S closed again modulo the scalars of order z."""
    return mg.MatrixGroup.generate(S.field, S.elements[S.gen_idx], z_order=z)


def _diagonal_q(cert, order, *exponents):
    """A torus q_subgroup: the group generated by diag(z^e_0, ..., z^e_(n-1))
    for each row of exponents, z the field's element of the given order."""
    F = cert.containment.sylow.field
    z = F.element_of_order(order)
    return mg.MatrixGroup.generate(F, [np.diag([F.pow_el(z, e) for e in row])
                                       for row in exponents])


SYLOW_IMAGE_TAMPERS = {
    "torus-S-wrong-order": ("torus", lambda c: _tamper_containment(
        c, sylow=c.containment.q_subgroup), "S has wrong order"),
    "torus-S-outside-H": ("torus", lambda c: _tamper_containment(
        c, sylow=_transvection_conjugate(c.containment.sylow)), "S is not contained in H"),
    "blocks-S-outside-H": ("blocks", lambda c: _tamper_containment(
        c, sylow=_transvection_conjugate(c.containment.sylow)), "S is not contained in H"),
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
    # GF(4)^x has no element of order 2 or 0: refused before any field call
    "scalar-det-order-2": ("scalar", lambda c: _tamper_containment(c, det_order=2),
                           "det order 2 must divide q-1=3"),
    "scalar-det-order-0": ("scalar", lambda c: _tamper_containment(c, det_order=0),
                           "det order 0 must divide q-1=3"),
    # the monomial group modulo Z3 relabelled as the whole group
    "torus-as-whole-group": ("torus", lambda c: _tamper_containment(c, kind="whole-group"),
                             "whole-group applies to plain groups"),
    # the two-block group holds S but is a proper subgroup of SL(4,4)
    "blocks-as-whole-group": ("blocks", lambda c: _tamper_containment(c, kind="whole-group"),
                              "H is not the whole group"),
    # <diag(z9, z9^-1, 1)> misses the scalars of order 3 that H is taken modulo
    "torus-kernel-outside-Q": ("torus", lambda c: _tamper_containment(
        c, q_subgroup=_diagonal_q(c, 9, (1, 8, 0))), "quotient kernel not inside Q"),
    "torus-Q-scalar": ("torus", lambda c: _tamper_containment(
        c, q_subgroup=_diagonal_q(c, 3, (1, 1, 1))), "coordinate characters 0,1 of Q coincide"),
    # the det-one diagonal torus of GL(3,19) holds the scalars and elements of order 2
    "torus-Q-outside-S": ("torus", lambda c: _tamper_containment(
        c, q_subgroup=_diagonal_q(c, 18, (1, 17, 0), (0, 1, 17))), "Q is not contained in S"),
    # <diag(z9, z9^-1, 1), z3> holds the scalars, but S's coordinate rotation moves it
    "torus-Q-not-characteristic": ("torus", lambda c: _tamper_containment(
        c, q_subgroup=_diagonal_q(c, 9, (1, 8, 0), (3, 3, 3))),
        "Q is not the unique abelian subgroup of type Z/3 + Z/9 in S (4 found)"),
    # S preserves the split (1, 3) of GF(4)^4, not (3, 1)
    "blocks-not-preserved": ("blocks", lambda c: _tamper_containment(c, blocks=(3, 1)),
                             "S does not preserve the blocks"),
    # S modulo the scalars of order 3 holds S up to scalars, but is a quotient
    "blocks-H-quotient": ("blocks", lambda c: dataclasses.replace(
        c, H=_central_quotient(c.containment.sylow, 3)), "isotypic-blocks applies to plain groups"),
}


@pytest.mark.parametrize("case", SYLOW_IMAGE_TAMPERS)
def test_tampered_containment_fails_the_sylow_clause(case, real_certificate):
    kind, tamper, detail = SYLOW_IMAGE_TAMPERS[case]
    report = rho.check_certificate(tamper(real_certificate(kind)))
    assert (report.verdict, report.failed_clause) == ("FAIL", "(S)")
    assert report.clauses[-1] == rho.ClauseResult("(S)", False, detail)


# (n, q, p, det), the matrices that generate H with S, the containment of S,
# the (S) detail.  No builder's H reaches these two checks.
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
    (n, q, p, det), extra, containment, detail = HAND_BUILT[case]
    _, S = liea.build_sylow(liea.compute_params(n, q, p, det))
    H = mg.MatrixGroup.generate(S.field, [S.elements[g] for g in S.gen_idx] + extra())
    cert = rho.MethodCertificate("hand-built", p, H, containment(S),
                                 rho.TrivialityEvidence(kind="unproved"))
    report = rho.check_certificate(cert)
    assert (report.verdict, report.failed_clause) == ("FAIL", "(S)")
    assert report.clauses == [rho.ClauseResult("(S)", False, detail)]


def _orbit_spans_are_full(F, mats):
    """Brute-force irreducibility: the orbit of every nonzero column vector
    under the group <mats> spans GF(q)^d, the span built as the additive
    closure of the orbit's GF(q)-multiples."""
    d = mats[0].shape[0]

    def act(m, v):
        return tuple(functools.reduce(lambda acc, k: int(F.add[acc, F.mul[m[i, k], v[k]]]),
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
                span = {tuple(int(F.add[a, F.mul[c, b]]) for a, b in zip(s, u))
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
        w, _, frob = F.singer_block(e)
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


def _with_corner(cert, **fields):
    """The certificate with its last witness changed: the torus one's corner
    rotation, composite-iii's connector torus."""
    corner = dataclasses.replace(cert.witnesses[-1], **fields)
    return dataclasses.replace(cert, witnesses=cert.witnesses[:-1] + [corner])


def _transvection(n, i, j):
    """I + E_ij, outside every monomial and every block group that splits i from j."""
    t = mg.identity_matrix(n)
    t[i, j] = 1
    return t


def _aux_meeting_h_trivially(cert):
    """The corner rotation's fields for an auxiliary group of order 3 inside
    the corner block group that meets H trivially, with its own evidence."""
    L, H = cert.witnesses[-1].aux_group, cert.H
    cubes_one = L.elements_satisfying_power(3)
    bad = next(i for i in range(L.order) if cubes_one[i] and i != 0
               and not H.locate(backend.mm_one(np.stack([mg.identity_matrix(L.n), L.elements[i]]),
                                               L.elements[i], L.field))[1].any())
    K = mg.MatrixGroup.generate(L.field, [L.elements[bad]], z_order=L.z_order, name="corrupt")
    return {"aux_group": K, "aux_evidence": rho.TrivialityEvidence(
        kind="normal-p-subgroup", witness_gens=[L.elements[bad]])}


# one tamper of the rp-case certificate per exit of the checker, with the
# expected (verdict, failed_clause, last clause checked)
VERDICT_EXITS = {
    "witness-outside-H": (lambda c: _with_corner(c, element=_transvection(3, 0, 2)),
                          ("FAIL", "(gen)", "(gen)")),
    # [H,H]S has 324 of the 648 elements of H, and not the corner rotation
    "no-witnesses": (lambda c: dataclasses.replace(c, witnesses=[]), ("FAIL", "(gen)", "(gen)")),
    "unknown-containment": (lambda c: dataclasses.replace(
        c, containment=rho.SylowContainment(kind="ambient-scan")), ("INCOMPLETE", None, "(S)")),
    "containment-fails": (lambda c: _tamper_containment(c, q_subgroup=c.containment.sylow),
                          ("FAIL", "(S)", "(S)")),
    "A-unproved": (lambda c: dataclasses.replace(c, H_evidence=rho.TrivialityEvidence("unproved")),
                   ("INCOMPLETE", None, "(A)")),
    "A-unknown-kind": (lambda c: dataclasses.replace(
        c, H_evidence=rho.TrivialityEvidence("self-normalizing-sylow")), ("FAIL", "(A)", "(A)")),
    "aux-evidence-missing": (lambda c: _with_corner(c, aux_evidence=None),
                             ("INCOMPLETE", None, "(2)(a)[corner-rotation]")),
    "aux-witness-outside-K": (lambda c: _with_corner(c, aux_evidence=rho.TrivialityEvidence(
        "normal-p-subgroup", witness_gens=[_transvection(3, 0, 2)])),
        ("FAIL", "(2)(a)", "(2)(a)[corner-rotation]")),
    "aux-meets-H-trivially": (lambda c: _with_corner(c, **_aux_meeting_h_trivially(c)),
                              ("FAIL", "(2)(b)", "(2)(b)[corner-rotation]")),
    # with H as its auxiliary group the corner rotation would have to lie in [H,H]
    "corner-outside-aux-commutator": (lambda c: _with_corner(
        c, aux_group=c.H, aux_evidence=c.H_evidence),
        ("FAIL", "(2)(c)", "(2)(c)[corner-rotation]")),
    "untampered": (lambda c: c, ("PASS", None, "(2)(c)[corner-rotation]")),
}


@pytest.mark.parametrize("case", VERDICT_EXITS)
def test_every_verdict_exit_is_reached(case):
    tamper, want = VERDICT_EXITS[case]
    report = rho.check_certificate(tamper(_torus_certificate()))
    assert (report.verdict, report.failed_clause, report.clauses[-1].clause) == want


def test_witness_outside_h_fails_gen_and_checks_nothing_after(monkeypatch):
    cert = VERDICT_EXITS["witness-outside-H"][0](_torus_certificate())
    monkeypatch.setattr(mg, "commutator_subgroup", None)  # [H,H] is not taken
    report = rho.check_certificate(cert)
    assert (report.verdict, report.failed_clause) == ("FAIL", "(gen)")
    assert [(c.clause, c.ok) for c in report.clauses] == [("(S)", True), ("(gen)", False)]
    assert report.clauses[-1].detail == "witness corner-rotation is not in H"


# evidence that names no group, witness, blocks or order, or a Sylow group
# taken after the quotient, is a violated clause, not an error:
# (kind of certificate, tamper, the clause it fails, its detail)
MALFORMED_EVIDENCE = {
    "A-witness-gens-missing": ("torus", lambda c: dataclasses.replace(
        c, H_evidence=rho.TrivialityEvidence("normal-p-subgroup")),
        "(A)", "normal-p-subgroup needs witness generators"),
    "A-witness-gens-empty": ("torus", lambda c: dataclasses.replace(
        c, H_evidence=rho.TrivialityEvidence("normal-p-subgroup", witness_gens=[])),
        "(A)", "normal-p-subgroup needs witness generators"),
    "aux-group-missing": ("torus", lambda c: _with_corner(c, aux_group=None),
                          "(2)(a)", "no auxiliary group"),
    "aux-witness-gens-missing": ("torus", lambda c: _with_corner(
        c, aux_evidence=rho.TrivialityEvidence("normal-p-subgroup")),
        "(2)(a)", "normal-p-subgroup needs witness generators"),
    "block-split-det-order-missing": ("composite-iii", lambda c: _with_corner(
        c, aux_evidence=dataclasses.replace(c.witnesses[-1].aux_evidence, det_order=None)),
        "(2)(a)", "block-split needs a split, a determinant order and a plain block group"),
    # H itself is the block group of (1, 3) over GF(4), whose GL(1,4) factor
    # meets SL(4,4) in the trivial group, of order prime to 3
    "block-split-factor-prime-to-p": ("composite-iii", lambda c: _with_corner(
        c, aux_group=c.H, aux_evidence=rho.TrivialityEvidence(
            "block-split", split=liea.BlockSplit((1, 3), (0,), (1,)), det_order=1)),
        "(2)(a)", "block split (0,)|(1,), factor orders 1,60480 not both divisible by 3"),
    "isotypic-blocks-missing": ("composite-iii", lambda c: _tamper_containment(c, blocks=None),
                                "(S)", "isotypic-blocks needs the blocks"),
    "isotypic-sylow-missing": ("composite-iii", lambda c: _tamper_containment(c, sylow=None),
                               "(S)", "isotypic-blocks needs the Sylow group and det_order"),
    "diagonal-sylow-missing": ("torus", lambda c: _tamper_containment(c, sylow=None),
                               "(S)", "diagonal-characters needs the Sylow group and det_order"),
    "diagonal-q-subgroup-missing": ("torus", lambda c: _tamper_containment(c, q_subgroup=None),
                                    "(S)", "diagonal-characters needs the group Q"),
    "diagonal-det-order-missing": ("torus", lambda c: _tamper_containment(
        c, det_order=None), "(S)", "diagonal-characters needs the Sylow group and det_order"),
    # the order-3 scalars of GL(4,4) meet S trivially: the order holds, and
    # the determinants of the quotient's representatives are read
    "isotypic-sylow-central-quotient": ("composite-iii", lambda c: _tamper_containment(
        c, sylow=_central_quotient(c.containment.sylow, 3)),
        "(S)", "S violates the determinant condition"),
}


@pytest.mark.parametrize("case", MALFORMED_EVIDENCE)
def test_malformed_evidence_fails_its_clause(case, real_certificate):
    kind, tamper, clause, detail = MALFORMED_EVIDENCE[case]
    report = rho.check_certificate(tamper(real_certificate(kind)))
    assert (report.verdict, report.failed_clause) == ("FAIL", clause)
    assert report.clauses[-1].detail == detail


def test_verdict_is_read_off_the_first_clause_that_does_not_hold(real_certificate):
    # the last clause checked is the first that does not hold, if any: None
    # when it cannot be checked, False when it is violated
    tampered = [tamper(_torus_certificate()) for tamper, _ in VERDICT_EXITS.values()]
    tampered += [tamper(real_certificate(kind)) for kind, tamper, *_ in MALFORMED_EVIDENCE.values()]
    certs = [rho.build_central_scalar_certificate(3, 4, 3), real_certificate("composite-iii")]
    for cert in certs + tampered:
        report = rho.check_certificate(cert)
        last = report.clauses[-1]
        assert (report.verdict == "INCOMPLETE") == (last.ok is None)
        assert (report.verdict == "FAIL") == (
            last.ok is False and report.failed_clause == last.clause.split("[")[0])
        assert (report.verdict == "PASS") == all(c.ok is True for c in report.clauses)
