import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from endotriv import backend, liea, rho
from endotriv import matgrp as mg
from endotriv.abst import cyclic, from_cyclic_orders
from endotriv.classify import cyclic_quotient_normalizer
from endotriv.errors import CapExceeded, DomainError
from endotriv.gf import factorize, field_spec, p_part
from test_classify import CYCLIC_EXT_CASES


def sl23():
    return liea.enumerate_group(2, 3)


def _p_rank(T, p):
    return max(e.rank for e in mg.elementary_abelian_subgroups(T.as_subgroup(), p))


def _matmul_pairs(F, a, b):
    """a[i] @ b[i] over GF(q) for two (m, n, n) matrix batches, by the field tables."""
    terms = F.mul[a[:, :, :, None], b[:, None, :, :]]  # [i, row, k, col]
    acc = terms[:, :, 0]
    for k in range(1, a.shape[2]):
        acc = F.add[acc, terms[:, :, k]]
    return acc


def element_orders(G, xs=None, K=None):
    """For each index x in xs (default: all of G), the least k with x^k in
    the index set K (default: the identity), the powers x^k taken as matrix
    products and looked up by key."""
    xs = np.arange(G.order) if xs is None else np.asarray(xs)
    K = [G.identity_idx] if K is None else K
    base = G.elements[xs]
    orders, power, k = np.zeros(len(xs), dtype=np.int64), base, 1
    while not orders.all():
        orders[(orders == 0) & np.isin(G.lookup_batch(power), K)] = k
        power, k = _matmul_pairs(G.field, power, base), k + 1
    return orders


def test_closure_orders():
    F2 = field_spec(2)
    triv = mg.MatrixGroup.generate(F2, [mg.identity_matrix(2)])
    assert triv.order == 1
    assert sl23().order == 24
    assert liea.enumerate_group(2, 5, 4).order == 480  # (q^2-1)(q^2-q)


def test_closure_idempotent():
    G = sl23()
    again = mg.MatrixGroup.generate(G.field, [G.elements[i] for i in range(G.order)])
    assert again.order == G.order


def test_closure_rejects_singular_generator():
    F3 = field_spec(3)
    with pytest.raises(DomainError):
        mg.MatrixGroup.generate(F3, [[[1, 0], [0, 0]]])


def test_closure_rejects_entries_outside_the_field():
    """An entry that is not an integer in [0, q) names no element of GF(q):
    [[1, 3], [0, 1]] read in base 3 is diag(2, 1), and a uint8 cast reads
    258 as 2 and 1.9 as 1, so each is refused before any work, and a lookup
    does not find it as another element."""
    F3 = field_spec(3)
    G = liea.enumerate_group(2, 3, 2)
    for bad in ([[1, 3], [0, 1]], np.array([[1, 258], [0, 1]]), [[1, 256], [0, 1]],
                [[1.9, 2.2], [0, 1]], [[1, -1], [0, 1]], [[1, 2 ** 70], [0, 1]]):
        with pytest.raises(DomainError, match=r"^matrix entries must be integers in \[0, 3\)$"):
            mg.MatrixGroup.generate(F3, [bad])
        assert not G.locate([bad])[1][0]
        with pytest.raises(KeyError):
            G.index_of(bad)
    assert G.locate([[[1, 2.0], [0, 1]]])[1][0]  # a whole float names its integer


def test_closure_cap():
    with pytest.raises(CapExceeded):
        liea.enumerate_group(2, 5, cap=50)


def test_cap_from_the_environment(monkeypatch):
    monkeypatch.setenv("ENDOTRIV_CAP", "50")
    with pytest.raises(CapExceeded):
        liea.enumerate_group(2, 5)
    for bad in ["abc", "-5", "1.5", " ", "\u00b2"]:  # the last is a superscript two
        monkeypatch.setenv("ENDOTRIV_CAP", bad)
        with pytest.raises(DomainError, match="^ENDOTRIV_CAP must be a non-negative integer"):
            mg.enumeration_cap()


def test_negative_cap_override_is_refused():
    assert mg.enumeration_cap(0) == 0
    with pytest.raises(DomainError, match="non-negative integer, got -5"):
        mg.enumeration_cap(-5)
    with pytest.raises(DomainError, match="non-negative"):
        liea.enumerate_group(2, 3, cap=-1)


def test_lagrange_checked_on_construction():
    G = sl23()
    with pytest.raises(DomainError):
        mg.Subgroup(G, np.arange(5))  # 5 does not divide 24


def test_normalizer_examples():
    G = sl23()
    full = G.as_subgroup()
    assert mg.normalizer(G, full).order == G.order
    q8 = mg.commutator_subgroup(full)
    assert q8.order == 8
    assert mg.normalizer(G, q8).order == 24  # normal
    G5 = liea.enumerate_group(2, 5)
    S = mg.image(G5, liea.build_sylow(liea.compute_params(2, 5, 2))[1])
    assert mg.normalizer(G5, S).order == 24  # index 5


def test_normalizer_iterated_fixpoint():
    G5 = liea.enumerate_group(2, 5)
    S = mg.image(G5, liea.build_sylow(liea.compute_params(2, 5, 2))[1])
    N = mg.normalizer(G5, S)
    assert N.members >= S.members
    N2 = mg.intersection(mg.normalizer(G5, S), N)
    assert N2.members == N.members


def test_commutator_examples():
    G = sl23()
    torus = mg.generated_subgroup(G, [G.index_of(np.array([[2, 0], [0, 2]],
                                                          dtype=np.uint8))])
    assert mg.commutator_subgroup(torus).order == 1  # abelian
    G5 = liea.enumerate_group(2, 5)
    assert mg.commutator_subgroup(G5.as_subgroup()).order == G5.order  # perfect
    assert mg.commutator_subgroup(G.as_subgroup()).order == 8


def test_quotient_structure_examples():
    G = sl23()
    full = G.as_subgroup()
    q8 = mg.commutator_subgroup(full)
    assert mg.quotient_structure(full, full).is_trivial
    assert mg.quotient_structure(full, q8) == cyclic(3)
    # non-normal K rejected
    G5 = liea.enumerate_group(2, 5)
    S = mg.image(G5, liea.build_sylow(liea.compute_params(2, 5, 2))[1])
    with pytest.raises(DomainError):
        mg.quotient_structure(G5.as_subgroup(), S)
    with pytest.raises(DomainError):
        # quotient by the trivial subgroup is nonabelian here
        mg.quotient_structure(full, mg.trivial_subgroup(G))


@pytest.mark.parametrize("n, q, det", [(2, 3, 1), (2, 7, 6)])  # SL(2,3); GL(2,7)
def test_checks_refuse_non_normal_and_nonabelian(n, q, det):
    G = liea.enumerate_group(n, q, det)
    full, syl3 = G.as_subgroup(), mg.sylow_subgroup_of(G, 3)
    assert not mg.is_normal(full, syl3)
    with pytest.raises(DomainError, match="K is not normal in H"):
        mg.quotient_structure(full, syl3)
    with pytest.raises(DomainError, match="H/K is not abelian"):
        mg.quotient_structure(full, mg.trivial_subgroup(G))
    assert not full.is_abelian()


def test_subgroup_conjugacy_singleton():
    G = sl23()
    q8 = mg.commutator_subgroup(G.as_subgroup())
    assert len(mg.subgroup_conjugacy_classes(G, [q8])) == 1


def test_dihedral_kleins_fuse_in_wrapper():
    # D16 as 8x8 permutation matrices over GF(2); D8 = <R^2, s> inside it.
    F2 = field_spec(2)
    R = mg.permutation_matrix([(i + 1) % 8 for i in range(8)])
    s = mg.permutation_matrix([(8 - i) % 8 for i in range(8)])
    D16 = mg.MatrixGroup.generate(F2, [R, s], name="D16")
    assert D16.order == 16
    r2 = D16.index_of(np.array(
        mg.permutation_matrix([(i + 2) % 8 for i in range(8)]), dtype=np.uint8))
    si = D16.index_of(s)
    D8 = mg.generated_subgroup(D16, [r2, si])
    assert D8.order == 8
    eas = mg.elementary_abelian_subgroups(D8, 2)
    kleins = [e.subgroup for e in eas if e.rank == 2]
    assert len(kleins) == 2
    classes = mg.subgroup_conjugacy_classes(D16, kleins)
    assert len(classes) == 1  # swapped by the order-8 rotation


def test_elementary_abelian_examples():
    # order coprime to p: only the trivial subgroup
    F7 = field_spec(7)
    c3 = mg.MatrixGroup.generate(F7, [np.array([[2]], dtype=np.uint8)])
    eas = mg.elementary_abelian_subgroups(c3.as_subgroup(), 5)
    assert [(e.rank, e.maximal) for e in eas] == [(0, True)]
    # quaternion group: one C2, maximal
    G = sl23()
    q8m = mg.commutator_subgroup(G.as_subgroup())
    q8 = mg.MatrixGroup.generate(G.field, [G.elements[i] for i in q8m.gen_idx])
    eas8 = mg.elementary_abelian_subgroups(q8.as_subgroup(), 2)
    nontriv = [(e.rank, e.maximal) for e in eas8 if e.rank > 0]
    assert nontriv == [(1, True)]
    # SL(2,4): five maximal Klein subgroups, rank 2
    a5 = liea.enumerate_group(2, 4)
    eas4 = mg.elementary_abelian_subgroups(a5.as_subgroup(), 2)
    v4 = [e for e in eas4 if e.rank == 2]
    assert len(v4) == 5 and all(e.maximal for e in v4)
    assert _p_rank(a5, 2) == 2
    assert len(mg.subgroup_conjugacy_classes(a5, [e.subgroup for e in v4])) == 1


def test_p_rank_matches_parameter_formula():
    # p-rank of G equals r for e > 1, and n or n-1 for e = 1 according to
    # whether p divides the determinant image order
    cases = [(2, 5, 2, 1), (2, 5, 2, 4), (3, 4, 3, 1), (3, 4, 3, 3),
             (2, 7, 3, 1), (2, 7, 3, 6), (2, 5, 3, 1), (3, 2, 7, 1),
             (2, 9, 2, 1), (2, 9, 2, 8)]
    for (n, q, p, det) in cases:
        params = liea.compute_params(n, q, p, det)
        _, S = liea.build_sylow(params)
        assert _p_rank(S, p) == params.p_rank, (n, q, p, det)


def test_generic_sylow_finder():
    G = liea.enumerate_group(2, 5)
    for p, expect in [(2, 8), (3, 3), (5, 5)]:
        S = mg.sylow_subgroup_of(G, p)
        assert S.order == expect
        assert S.order == p_part(G.order, p)


def test_central_quotient_groups():
    psl = liea.enumerate_quotient(2, 3, 1, 2)
    assert psl.order == 12
    assert mg.commutator_subgroup(psl.as_subgroup()).order == 4  # A4' = V4
    pgl = liea.enumerate_quotient(2, 3, 2, 2, name="PGL(2,3)")
    assert pgl.order == 24
    # S4: two conjugacy classes of maximal Kleins
    eas = mg.elementary_abelian_subgroups(pgl.as_subgroup(), 2)
    v4 = [e.subgroup for e in eas if e.rank == 2 and e.maximal]
    assert len(mg.subgroup_conjugacy_classes(pgl, v4)) == 2


def test_abelian_type():
    G = liea.enumerate_group(2, 5, 4)
    z = mg.centralizer(G, G.as_subgroup())
    assert z.abelian_type() == cyclic(4)
    params = liea.compute_params(2, 7, 3, 6)
    _, S = liea.build_sylow(params)
    assert S.as_subgroup().abelian_type() == from_cyclic_orders([3, 3])


def _coset_orders(G, H, K):
    """The order of each coset xK of H/K (K normal), by brute force: the
    least k with x^k in K for every x in H, from matrix products.  The |K|
    elements of a coset share its order, so every |K|-th of the sorted
    orders lists each coset once."""
    return sorted(element_orders(G, H.idx, K.idx).tolist())[::K.order]


def _type_from_orders(orders):
    """The abelian group with these element orders: its p-part has
    log_p(n_i / n_(i-1)) cyclic factors of order >= p^i, where n_i counts
    the orders dividing p^i."""
    factors = []
    for p in factorize(len(orders)):
        n = [sum(p ** i % o == 0 for o in orders) for i in range(len(orders).bit_length())]
        ge = [round(math.log(b / a, p)) for a, b in zip(n, n[1:])] + [0]
        factors += [p ** i for i in range(1, len(ge)) for _ in range(ge[i - 1] - ge[i])]
    return from_cyclic_orders(factors)


# the Sylow subgroups of the certify benchmark's chain groups, (n, q, det, p)
CHAIN_SYLOWS = [(2, 3, 1, 2), (2, 3, 1, 3), (2, 3, 2, 2), (2, 4, 1, 3), (2, 4, 1, 5),
                (2, 5, 1, 2), (2, 5, 1, 3), (3, 2, 1, 3), (3, 2, 1, 7), (2, 7, 1, 2),
                (2, 7, 1, 3), (2, 9, 1, 2), (2, 9, 1, 5)]


def test_abelian_type_matches_coset_orders():
    q8 = mg.MatrixGroup.generate(field_spec(3), [[[0, 2], [1, 0]], [[1, 1], [1, 2]]])
    _, rp_sylow = liea.build_sylow(liea.compute_params(3, 19, 3, 1, 3))  # rp-case's Sg
    groups = [(q8, q8.as_subgroup()), (rp_sylow, rp_sylow.as_subgroup())]
    for n, q, det, p in CHAIN_SYLOWS:
        G = liea.enumerate_group(n, q, det)
        groups.append((G, mg.sylow_subgroup_of(G, p)))
    types = set()
    for G, S in groups:
        triv = mg.trivial_subgroup(G)
        for T in mg.all_subgroups(S):
            if T.is_abelian():
                ab = T.abelian_type()
                assert ab == _type_from_orders(_coset_orders(G, T, triv)), (G.name, T.key())
                types.add(ab)
            else:
                with pytest.raises(DomainError, match="nonabelian"):
                    T.abelian_type()
    assert {(2, 2), (3, 9), (9, 9)} <= {t.invariant_factors for t in types}


def test_quotient_structure_matches_coset_orders():
    # the abelianizations N(S)/Z -> N/N' behind the cyclic-Sylow branch
    types = set()
    for n, q, p, d, z in CYCLIC_EXT_CASES:
        N = cyclic_quotient_normalizer(liea.compute_params(n, q, p, d, z)).as_subgroup()
        comm = mg.commutator_subgroup(N)
        ab = mg.quotient_structure(N, comm)
        assert ab == _type_from_orders(_coset_orders(N.parent, N, comm)), (n, q, p, d, z)
        types.add(ab)
    assert any(len(ab.invariant_factors) > 1 for ab in types)


@pytest.mark.parametrize("idx", [[0, 0], [0, -1], [0, 49], [0, 5, 5, 7]])
def test_subgroup_refuses_bad_index_arrays(idx):
    G = liea.enumerate_group(2, 3, 2)  # GL(2,3), 48 elements
    with pytest.raises(DomainError, match="distinct|lie in"):
        mg.Subgroup(G, np.array(idx))


def test_all_subgroups_of_quaternion():
    G = sl23()
    q8m = mg.commutator_subgroup(G.as_subgroup())
    subs = mg.all_subgroups(q8m)
    # Q8: 1, Z, three C4s, Q8
    assert sorted(s.order for s in subs) == [1, 2, 4, 4, 4, 8]


def test_all_subgroups_refuses_non_p_group(monkeypatch):
    G = sl23()  # order 24
    assert [s.order for s in mg.all_subgroups(mg.trivial_subgroup(G))] == [1]
    for name in ("_right", "_mul"):  # refused before any product
        monkeypatch.setattr(G, name, None)
    with pytest.raises(DomainError, match="p-group"):
        mg.all_subgroups(G.as_subgroup())


def test_commutator_is_normal_with_abelian_quotient():
    for (n, q, det) in [(2, 3, 2), (2, 4, 3), (2, 5, 4), (2, 7, 6)]:
        G = liea.enumerate_group(n, q, det)
        full = G.as_subgroup()
        comm = mg.commutator_subgroup(full)
        assert mg.is_normal(full, comm)
        mg.quotient_structure(full, comm)  # raises unless abelian


def test_global_elementary_abelian_rank_matches_formula():
    # exhaustive rank over the whole group (not just a Sylow subgroup)
    for (n, q, p, det) in [(2, 5, 2, 1), (2, 5, 2, 4), (2, 7, 3, 1),
                           (3, 2, 3, 1), (2, 9, 2, 1)]:
        G = liea.enumerate_group(n, q, det)
        params = liea.compute_params(n, q, p, det)
        assert _p_rank(G, p) == params.p_rank, (n, q, p, det)


@pytest.mark.parametrize("n, q, det", [(2, 5, 1), (2, 3, 2)])  # SL(2,5), GL(2,3)
def test_closure_extends_closed_subgroups(n, q, det):
    # the naive twin closes <H, x> from scratch and is the reference
    G = liea.enumerate_group(n, q, det)
    for H in mg.all_subgroups(mg.sylow_subgroup_of(G, 2)):
        for x in range(G.order):
            grown = mg._closure_indices(G, H.gen_idx + (x,), H.idx)
            ref = sorted(rho._naive_closure(G, np.append(H.idx, x)))
            assert grown.dtype == np.int64 and np.array_equal(grown, ref), (H.key(), x)


def test_find_generators_rejects_unclosed_set():
    G = sl23()
    x = int(np.flatnonzero(element_orders(G) > 2)[0])
    with pytest.raises(DomainError, match="not closed"):
        mg.find_generators(G, np.array([G.identity_idx, x]))
    xinv = G.index_of(_inverse_matrix(G, x))
    H = mg.generated_subgroup(G, [x, xinv])
    assert H.gen_idx == (min(x, xinv),)
    assert H.members == rho._naive_closure(G, [x])
    assert mg.generated_subgroup(G, mg.find_generators(G, H.idx)) == H


def test_generated_subgroup_ignores_seed_order_and_repeats():
    # the least seed outside the closure so far is the next generator, so a
    # shuffled seed list with repeats gives the sorted list's idx and gen_idx
    G = liea.enumerate_group(2, 5, 4)  # GL(2,5)
    rng = np.random.default_rng(11)
    for size in (1, 2, 3, 8, 40):
        seeds = np.sort(rng.choice(G.order, size=size, replace=False))
        want = mg.generated_subgroup(G, seeds.tolist())
        mixed = rng.permutation(np.concatenate([seeds, seeds[: size // 2 + 1], [G.identity_idx]]))
        for given in (mixed, mixed.tolist(), mixed.astype(np.int32)):
            got = mg.generated_subgroup(G, given)
            assert np.array_equal(got.idx, want.idx) and got.gen_idx == want.gen_idx, size
    assert mg.generated_subgroup(G, []) == mg.trivial_subgroup(G)


def _python_closure(tab, seeds):
    """<seeds> by breadth-first search on a Python copy of the table."""
    seeds, seen = list(seeds), {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in seeds:
                y = tab[x][g]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


@pytest.mark.parametrize("n, q, det", [(2, 5, 1), (2, 3, 2)])  # SL(2,5), GL(2,3)
def test_closure_skips_redundant_generators(n, q, det):
    # every element of a subgroup as a generator, the identity among them,
    # against a Python-set BFS on the multiplication table
    G = liea.enumerate_group(n, q, det)
    tab = rho._naive_table(G)[0].tolist()
    xs = range(0, G.order, 7)
    for H in mg.all_subgroups(mg.sylow_subgroup_of(G, 2)):
        everything = H.idx.tolist()
        assert np.array_equal(mg._closure_indices(G, everything), H.idx)
        assert np.array_equal(H.idx, sorted(_python_closure(tab, everything)))
        for x in xs:
            ref = sorted(_python_closure(tab, everything + [x]))
            assert np.array_equal(mg._closure_indices(G, everything + [x]), ref), (H.key(), x)
            assert np.array_equal(mg._closure_indices(G, everything + [x], H.idx), ref), (H.key(), x)


def test_closure_on_both_sides_of_the_coset_bound():
    # <H, x> grown from H by element rounds (|H| < COSET_MIN) and by whole
    # cosets of H (|H| >= COSET_MIN), against the naive twin's closure from
    # scratch; x runs over elements that normalize H and elements that do not
    G = liea.enumerate_group(2, 5, 4)  # GL(2,5), 480 elements
    upper = G.elements[:, 1, 0] == 0
    diagonal = np.flatnonzero(upper & (G.elements[:, 0, 1] == 0))  # 16 elements
    borel = np.flatnonzero(upper)  # 80 elements
    assert len(diagonal) < mg.COSET_MIN <= len(borel)
    xs = range(0, G.order, 7)
    for idx in (diagonal, borel):
        H = mg.generated_subgroup(G, idx)
        assert np.array_equal(H.idx, idx)
        normalizing = rho._naive_normalizer(G, H.idx)
        assert {x in normalizing for x in xs} == {True, False}
        for x in xs:
            grown = mg._closure_indices(G, H.gen_idx + (x,), H.idx)
            ref = sorted(rho._naive_closure(G, np.append(H.idx, x)))
            assert np.array_equal(grown, ref), (len(idx), x)


def test_large_base_grows_by_whole_cosets(monkeypatch):
    # from COSET_MIN elements of H on, an element outside H is walked once,
    # in its coset, and a round multiplies only the few representatives;
    # element rounds would walk each new element once per generator
    G = liea.enumerate_group(2, 5, 4)  # GL(2,5), 480 elements
    H = mg.generated_subgroup(G, np.flatnonzero(G.elements[:, 1, 0] == 0))  # Borel, 80
    assert H.order >= mg.COSET_MIN and len(H.gen_idx) >= 2
    x = int(np.flatnonzero(~mg._mask(G, H.idx))[0])
    walked, right = [], G._right
    monkeypatch.setattr(G, "_right", lambda idxs, j: walked.append(len(idxs)) or right(idxs, j))
    K = mg._closure_indices(G, H.gen_idx + (x,), H.idx)
    assert np.array_equal(K, np.arange(G.order))
    assert sum(walked) <= len(K), sum(walked)


def _singer_normalizer(key):
    """N_G(S)/Z of a cyclic-Sylow tuple (n, q, p, det, z)."""
    return cyclic_quotient_normalizer(liea.compute_params(*key))


@pytest.mark.parametrize("key, order", [((4, 8, 5, 7, 7), 585), ((5, 5, 11, 2, 2), 781)])
def test_large_cyclic_commutator_subgroups_match_matrix_closure(key, order):
    # above the naive twin's table cap: the seed commutators' matrices are
    # closed on their own, modulo the same scalars, and looked up in G
    G = _singer_normalizer(key)
    assert G.order > rho.NAIVE_TABLE_CAP
    full = G.as_subgroup()
    D = mg.commutator_subgroup(full)
    R = mg.MatrixGroup.generate(G.field, G.elements[mg._generator_commutators(full)],
                                scalars=G.scalars)
    assert D.order == R.order == order
    assert D.members == frozenset(G.lookup_batch(R.elements).tolist())


def test_cyclic_closure_walks_logarithmically_often(monkeypatch):
    # the powers of x by doubling: closing <x> takes about log2 |<x>| walks,
    # where one power per round would take |<x>|
    G = _singer_normalizer((5, 5, 11, 2, 2))
    x = mg.commutator_subgroup(G.as_subgroup()).gen_idx[0]
    walks, right = [], G._right
    monkeypatch.setattr(G, "_right", lambda idxs, j: walks.append(j) or right(idxs, j))
    k = len(mg._closure_indices(G, [x]))
    assert k >= 100
    assert len(walks) <= math.ceil(math.log2(k)) + 1, (k, len(walks))


def _merge_reference(old, new):
    """np.insert of new[i] into old[i] at the places that keep old[0] sorted."""
    at = np.searchsorted(old[0], new[0])
    return [np.insert(a, at, b) for a, b in zip(old, new)]


def test_merge_sorted_matches_np_insert():
    rng = np.random.default_rng(23)
    for size, share in [(1, 0), (1, 1), (40, 0), (40, 7), (40, 40), (500, 123), (3, 200)]:
        keys = np.unique(rng.integers(-10 ** 12, 10 ** 12, size=size + share))
        picked = np.zeros(len(keys), dtype=bool)
        picked[rng.choice(len(keys), size=share, replace=False)] = True
        old = (keys[~picked], rng.integers(0, 2 ** 31, size=int((~picked).sum())).astype(np.int32))
        new = (keys[picked], rng.integers(0, 2 ** 31, size=share).astype(np.int32))
        got, ref = mg._merge_sorted(old, new), _merge_reference(old, new)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    # rows of subgroup keys as void scalars, as conjugate_orbit keeps them
    for width, rows, share in [(4, 30, 0), (4, 30, 9), (16, 200, 50), (16, 1, 1)]:
        void = np.dtype((np.void, 8 * width))
        data = np.unique(rng.integers(0, 9, size=(rows + share, width)), axis=0)
        keys = np.sort(np.ascontiguousarray(data).view(void).ravel())
        picked = np.zeros(len(keys), dtype=bool)
        picked[rng.choice(len(keys), size=min(share, len(keys)), replace=False)] = True
        got, = mg._merge_sorted((keys[~picked],), (keys[picked],))
        ref, = _merge_reference((keys[~picked],), (keys[picked],))
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
        assert got.tobytes() == keys.tobytes()


def _subgroup_sample(G):
    """The subgroups of G's Sylow 2- and 3-subgroups, G, [G, G] and the centre."""
    full = G.as_subgroup()
    subs = {}
    for p in (2, 3):
        for T in mg.all_subgroups(mg.sylow_subgroup_of(G, p)):
            subs.setdefault(T.key(), T)
    for T in (full, mg.commutator_subgroup(full), mg.centralizer(G, full)):
        subs.setdefault(T.key(), T)
    return list(subs.values())


@pytest.mark.parametrize("n, q, det", [(2, 3, 1), (2, 3, 2), (2, 7, 1)])  # SL(2,3), GL(2,3), SL(2,7)
def test_membership_routines_match_set_definitions(n, q, det):
    G = liea.enumerate_group(n, q, det)
    tab, inv = (a.tolist() for a in rho._naive_table(G))
    sets = {T.key(): set(T.idx.tolist()) for T in _subgroup_sample(G)}
    conj = lambda g, x: tab[tab[g][x]][inv[g]]
    for T in _subgroup_sample(G):
        ref = {g for g in range(G.order) if {conj(g, x) for x in sets[T.key()]} == sets[T.key()]}
        assert mg.normalizer(G, T).members == ref, T.key()
    for H in _subgroup_sample(G):
        hs = sets[H.key()]
        for K in _subgroup_sample(G):
            ks = sets[K.key()]
            normal = ks <= hs and all(conj(h, k) in ks for h in hs for k in ks)
            assert mg.is_normal(H, K) == normal, (H.key(), K.key())
            abelian = normal and all(tab[tab[a][b]][inv[tab[b][a]]] in ks for a in hs for b in hs)
            if not ks <= hs:
                with pytest.raises(DomainError, match="K is not contained in H"):
                    mg.quotient_structure(H, K)
            elif not normal:
                with pytest.raises(DomainError, match="K is not normal in H"):
                    mg.quotient_structure(H, K)
            elif not abelian:
                with pytest.raises(DomainError, match="H/K is not abelian"):
                    mg.quotient_structure(H, K)
            else:  # Z/n_1 + ... + Z/n_r has prod gcd(d, n_i) elements of order dividing d
                ab, m = mg.quotient_structure(H, K), len(hs) // len(ks)
                for d in (d for d in range(1, m + 1) if m % d == 0):
                    power = {h: 0 for h in hs}  # h -> h^d, by repeated products
                    for h in hs:
                        for _ in range(d):
                            power[h] = tab[power[h]][h]
                    cosets = sum(power[h] in ks for h in hs) // len(ks)
                    assert cosets == math.prod(math.gcd(d, f) for f in ab.invariant_factors)


@pytest.mark.parametrize("idx, message", [
    ([0, 0], "distinct"), ([5, 5, 7], "distinct"), ([0, 0, 49], "distinct"),
    ([], "identity"), ([-1, 3], "identity"), ([1, 2, 3], "identity"),
    ([-1, 0, 3], "lie in"), ([0, 49], "lie in"), ([0, 49, 50, 51, 52], "lie in"),
    ([0, 1, 2, 3, 4], "Lagrange")])
def test_subgroup_checks_run_in_order(idx, message):
    # distinct, then identity, then range, then Lagrange: each case breaks
    # its own check and every later one, and passes every earlier one
    G = liea.enumerate_group(2, 3, 2)  # GL(2,3), 48 elements
    with pytest.raises(DomainError) as exc:
        mg.Subgroup(G, np.array(idx, dtype=np.int64))
    assert message in str(exc.value)


# index arithmetic against matrix products: GL(2,7) (2016) and SL(2,13)/Z2
# (1092) above the naive twin's table cap, SL(2,5) and PGL(2,5) below it
INDEX_GROUPS = [(2, 7, 6, 1), (2, 13, 1, 2), (2, 5, 1, 1), (2, 5, 4, 4)]


def _index_group(n, q, det, z):
    return liea.enumerate_quotient(n, q, det, z)


def _products(G, left, j):
    """index_of(x * j) for every index x in `left`, from the matrix kernel."""
    prods = backend.mm_one(G.elements[np.asarray(left, dtype=np.int64)],
                           G.elements[j], G.field)
    return [G.index_of(m) for m in prods]


def _inverse_matrix(G, x):
    """The matrix x^-1 as x^(|GL(n,q)| - 1), by matrix powers."""
    return liea._matrix_power(G.field, G.elements[x], liea.order_gl(G.n, G.field.q) - 1)


@pytest.mark.parametrize("n, q, det, z", INDEX_GROUPS)
def test_index_arithmetic_matches_matrix_products(n, q, det, z):
    G = _index_group(n, q, det, z)
    F = G.field
    rng = np.random.default_rng(5)
    xs = rng.integers(0, G.order, size=48)
    for j in [0, *G.gen_idx, *rng.integers(0, G.order, size=4)]:
        ref = _products(G, xs, int(j))
        assert list(G._right(xs, int(j))) == ref
    ys = rng.integers(0, G.order, size=len(xs))
    prods = _matmul_pairs(F, G.elements[xs], G.elements[ys])
    assert G._mul(xs, ys).tolist() == G.lookup_batch(prods).tolist()
    for k, g in enumerate(G.gen_idx):  # row k: x -> gens[k]^-1 x gens[k]
        ginv = _inverse_matrix(G, g)
        for x in xs:
            gxg = backend.mm_one(backend.mm_one(ginv[None], G.elements[int(x)], F),
                                 G.elements[g], F)[0]
            assert G._gen_conj[k, int(x)] == G.index_of(gxg)
    for g in rng.integers(0, G.order, size=3):
        g = int(g)
        ginv = _inverse_matrix(G, g)
        assert G.inv[g] == G.index_of(ginv)
        sandwich = G.sandwich_all(g)
        for y in xs:
            y = int(y)
            yinv = _inverse_matrix(G, y)
            ygy = backend.mm_one(backend.mm_one(G.elements[y][None], G.elements[g], F),
                                 yinv, F)[0]
            assert sandwich[y] == G.index_of(ygy)
    if q > 5:
        with pytest.raises(CapExceeded):
            rho._naive_table(G)
    else:
        table, inv = rho._naive_table(G)
        for j in range(G.order):
            assert list(table[:, j]) == _products(G, range(G.order), j)
        assert (table[np.arange(G.order), inv] == G.identity_idx).all()


@pytest.mark.parametrize("n, q, det, z", INDEX_GROUPS[:2])
def test_index_layer_needs_no_kernel_or_key_after_construction(monkeypatch, n, q, det, z):
    G = _index_group(n, q, det, z)

    def refuse(*args, **kwargs):
        raise AssertionError("kernel or element-key lookup after construction")

    for name in ("mm_one", "det_many"):
        monkeypatch.setattr(backend, name, refuse)
    for name in ("locate", "lookup_batch", "index_of"):
        monkeypatch.setattr(mg.MatrixGroup, name, refuse)
    monkeypatch.setattr(G, "_lookup", None)
    S = mg.sylow_subgroup_of(G, 2)
    N = mg.normalizer(G, S)
    assert mg.centralizer(G, S).members <= N.members
    comm = mg.commutator_subgroup(N)
    assert mg.quotient_structure(N, comm).torsion_order == N.order // comm.order
    subs = mg.all_subgroups(S)
    classes = mg.subgroup_conjugacy_classes(G, subs)
    assert sum(len(c) for c in classes) == len(subs)


@pytest.mark.parametrize("n, q, det, z", INDEX_GROUPS)
def test_power_masks_match_element_orders(n, q, det, z):
    G = _index_group(n, q, det, z)
    orders = element_orders(G)
    for e in (1, 2, 3, 4, 6, 8, 9, 12):
        mask = G.elements_satisfying_power(e)
        assert mask.dtype == np.bool_
        assert np.array_equal(mask, e % orders == 0), e
    for e in (2, 3, 9):  # kept per exponent, still equal to the element orders
        cached = G.elements_satisfying_power(e)
        assert cached is G.elements_satisfying_power(e)
        assert np.array_equal(cached, e % orders == 0), e


def test_power_masks_refuse_exponents_below_one():
    G = _index_group(2, 5, 1, 1)
    for e in (0, -2):
        with pytest.raises(DomainError, match="e >= 1"):
            G.elements_satisfying_power(e)
    assert not G._power_masks and not G._power_maps


def test_power_masks_on_a_deep_tree_match_matrix_powers():
    # GL(2,13): 26 208 elements, 17 BFS levels below the identity.  The
    # reference moves the basis rows e_r by x, e times over: every row
    # vector times every element is one backend.mm_one call, and x^e is
    # the identity when each e_r x^e == e_r.
    G = liea.enumerate_group(2, 13, 12)
    assert (G.order, len(G.levels) - 2) == (26208, 17)
    F, n, q = G.field, G.n, G.field.q
    digits = np.array(list(np.ndindex(*(q,) * n)), dtype=np.uint8)  # vector v, digits of v
    wide = G.elements.transpose(1, 0, 2).reshape(n, -1)  # every element side by side
    imgs = backend.mm_one(digits[:, None], wide, F).reshape(len(digits), G.order, n)
    basis = q ** np.arange(n - 1, -1, -1)  # place values of the digits, and e_r as vectors
    act = imgs.astype(np.int64) @ basis  # act[v, x]: v x
    cols = np.arange(G.order)[:, None]
    for e in (2, 3, 8, 9, 27, 60):
        rows = np.broadcast_to(basis, (G.order, n))
        for _ in range(e):
            rows = act[rows, cols]
        expect = (rows == basis).all(axis=1)
        assert 0 < expect.sum() < G.order
        assert np.array_equal(G.elements_satisfying_power(e), expect), e


def test_power_masks_reuse_the_prime_maps(monkeypatch):
    G = _index_group(2, 7, 6, 1)
    orders = element_orders(G)
    walks = []
    walk = mg._walk_up
    monkeypatch.setattr(mg, "_walk_up", lambda *a: walks.append(1) or walk(*a))
    for p in (2, 3):
        assert np.array_equal(G.elements_satisfying_power(p), p % orders == 0)
        walks.clear()
        assert np.array_equal(G.elements_satisfying_power(p ** 3), p ** 3 % orders == 0)
        assert not walks, p


def _orbit_reference(G, H):
    """Keys of the conjugates of H from sandwich_all: column g of the
    stacked g h g^-1 (h in H), sorted, is the key of g H g^-1."""
    cols = np.sort(np.stack([G.sandwich_all(int(h)) for h in H.idx]), axis=0)
    return {tuple(c) for c in cols.T.tolist()}


def _orbit_cases():
    psl34 = liea.enumerate_quotient(3, 4, 1, 3)  # PSL(3,4)
    S3 = mg.sylow_subgroup_of(psl34, 3)
    yield psl34, [e.subgroup for e in mg.elementary_abelian_subgroups(S3, 3) if e.rank == 2]
    sl27 = liea.enumerate_group(2, 7)
    yield sl27, mg.all_subgroups(mg.sylow_subgroup_of(sl27, 2))
    G = sl23()
    yield G, [mg.commutator_subgroup(G.as_subgroup())]  # Q8


def test_conjugate_orbit_matches_sandwich_reference():
    sizes = []
    for G, subs in _orbit_cases():
        for H in subs:
            key = H.key()
            orbit = mg.conjugate_orbit(G, key)
            assert orbit == _orbit_reference(G, H), (G.name, key)
            assert len(orbit) == G.order // mg.normalizer(G, H).order
            sizes.append(len(orbit))
    assert sizes[0] == 280 and sizes[-1] == 1  # PSL(3,4) at p = 3; Q8 is normal


def test_conjugate_orbit_refuses_unsorted_keys():
    G = sl23()
    key = mg.sylow_subgroup_of(G, 3).key()
    assert len(mg.conjugate_orbit(G, key)) == 4
    for bad in (key[::-1], (key[0], key[1], key[1]), ()):
        with pytest.raises(DomainError, match="strictly increasing"):
            mg.conjugate_orbit(G, bad)


@pytest.mark.parametrize("n, q, det, z", INDEX_GROUPS)
def test_dets_follow_the_tree(n, q, det, z):
    G = _index_group(n, q, det, z)
    if z > 1:
        with pytest.raises(DomainError):
            G.dets()
    else:
        d = G.dets()
        assert d.dtype == np.int64
        assert np.array_equal(d, backend.det_many(G.elements, G.field))


def test_inverse_roundtrip():
    """x * x^-1 is the identity, by matrix products, in groups and quotients."""
    F = field_spec(5)
    gens = liea.levi_generators([2], 5, 4)
    rng = np.random.default_rng(3)
    for G, dtype in [(mg.MatrixGroup.generate(F, gens), np.int64),
                     (mg.MatrixGroup.generate(F, gens, scalars=[1, 4]), np.int64),
                     (_index_group(2, 13, 1, 2), np.int64)]:
        assert G.inv.dtype == dtype
        for x in [0, *G.gen_idx, *rng.integers(0, G.order, size=16)]:
            x = int(x)
            prod = backend.mm_one(G.elements[x][None], G.elements[G.inv[x]], G.field)[0]
            assert G.index_of(prod) == G.identity_idx


# the closure against an independent reference: a plain-Python BFS over
# tuple matrices, products from the field's element operations and the
# brute-force least scalar multiple as each coset's representative

def _ref_mul(F, a, b):
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = 0
            for k in range(n):
                acc = int(F.add[acc, F.mul_el(a[i][k], b[k][j])])
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _ref_closure(F, gens, scalars=(1,)):
    """(elements, acts, parent, via, levels, inv) of the generator-major BFS."""
    def canon(a):
        return min(tuple(tuple(F.mul_el(s, x) for x in row) for row in a) for s in scalars)

    gens = [canon(tuple(tuple(int(x) for x in row) for row in g)) for g in gens]
    n = len(gens[0])
    ident = canon(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
    elements, index = [ident], {ident: 0}
    acts, parent, via, levels = [[] for _ in gens], [0], [0], [0, 1]
    while True:
        lo, hi = levels[-2], len(elements)
        for k, g in enumerate(gens):
            for x in range(lo, hi):
                y = canon(_ref_mul(F, elements[x], g))
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
                    parent.append(x)
                    via.append(k)
                acts[k].append(index[y])
        if len(elements) == hi:
            break
        levels.append(len(elements))
    # inverses down the tree: (p g)^-1 = g^-1 p^-1, g^-1 a power of g
    ginv = []
    for g in gens:
        y = g
        while canon(_ref_mul(F, y, g)) != ident:
            y = canon(_ref_mul(F, y, g))
        ginv.append(y)
    inv_mats = [ident]
    for x in range(1, len(elements)):
        inv_mats.append(canon(_ref_mul(F, ginv[via[x]], inv_mats[parent[x]])))
    return elements, acts, parent, via, levels, [index[m] for m in inv_mats]


def _assert_matches_reference(G, ref):
    elements, acts, parent, via, levels, inv = ref
    assert [tuple(map(tuple, m.tolist())) for m in G.elements] == elements
    assert G.acts.tolist() == acts
    assert G.gen_idx == [a[0] for a in acts]
    assert G.parent.tolist() == parent and G.via.tolist() == via
    assert G.levels.tolist() == levels and G.inv.tolist() == inv


def _dihedral(q):
    """<diag(w, w^-1, 1), a transposition> over GF(q): row indices reach q^3."""
    F = field_spec(q)
    d = mg.identity_matrix(3)
    d[0, 0], d[1, 1] = F.primitive, F.inv_el(F.primitive)
    return F, [d, mg.permutation_matrix([1, 0, 2])]


def _wreath_6_4():
    """C3 wr C3 inside GL(6,4): 6 x 6 entries over GF(4) read as one base-4
    number pass int64."""
    F = field_spec(4)
    d = mg.identity_matrix(6)
    d[0, 0] = F.primitive
    return F, [d, mg.permutation_matrix([1, 2, 0, 3, 4, 5])]


def _s4_16():
    """S4 as permutation matrices over GF(16): 16 entries read as one
    base-16 number (2^64 values) pass int64, while the row orbit has 4 rows
    and the table 4^4 entries."""
    return field_spec(16), [mg.permutation_matrix([1, 0, 2, 3]),
                            mg.permutation_matrix([1, 2, 3, 0])]


REFERENCE_GROUPS = {
    "GL(2,5)": lambda: (field_spec(5), liea.levi_generators([2], 5, 4)),
    "C3 wr C3 in GL(6,4)": _wreath_6_4,
    "D254 in GL(3,128)": lambda: _dihedral(128),
    "D510 in GL(3,256)": lambda: _dihedral(256),
    "S4 in GL(4,16)": _s4_16,
}

# DIRECT_LIMIT values that force each numbering of a closure's products:
# sorted keys everywhere, or the direct-address table wherever R^n <= 2^22
# (12 MB for C3 wr C3 in GL(6,4); D510 in GL(3,256) would need 1.3e8
# entries, so D254 and D510 stay on sorted keys)
FORCED_LIMITS = {"sorted": 0, "direct": 1 << 22}


def _both_numberings(monkeypatch):
    """Force each numbering in turn, yielding its name, and check after
    each that the closures built took the table exactly where R^n was at
    most the forced limit."""
    taken = []  # (numbering class, R^n) of every closure
    for cls in (mg._DirectNumbering, mg._SortedNumbering):
        monkeypatch.setattr(cls, "__init__", lambda self, key0, bound, init=cls.__init__: (
            taken.append((type(self), bound)), init(self, key0, bound))[1])
    for name, limit in FORCED_LIMITS.items():
        monkeypatch.setattr(mg, "DIRECT_LIMIT", limit)
        taken.clear()
        yield name
        assert taken and all((kind is mg._DirectNumbering) == (bound <= limit)
                             for kind, bound in taken), (name, taken)


@pytest.mark.parametrize("name", list(REFERENCE_GROUPS))
def test_closure_matches_reference_bfs(name, monkeypatch):
    F, gens = REFERENCE_GROUPS[name]()
    ref = _ref_closure(F, gens)
    for _ in _both_numberings(monkeypatch):
        G = mg.MatrixGroup.generate(F, gens)
        _assert_matches_reference(G, ref)
        # entries read in base q would pass int64; the position keys do not
        wide = F.q ** (G.n * G.n) > mg.INT_KEY_LIMIT
        assert G._lookup.keys.dtype == np.int64
        assert name in ("C3 wr C3 in GL(6,4)", "D510 in GL(3,256)", "S4 in GL(4,16)") or not wide


def test_object_keys_through_the_direct_table(monkeypatch):
    """S4 over GF(16) takes the table at the module's own bound: its entries
    read in base 16 would need Python ints, its position keys are int64,
    and they find every element."""
    F, gens = _s4_16()
    taken = []
    init = mg._DirectNumbering.__init__
    monkeypatch.setattr(mg._DirectNumbering, "__init__",
                        lambda self, key0, bound: (taken.append(bound), init(self, key0, bound))[1])
    G = mg.MatrixGroup.generate(F, gens)
    assert taken == [4 ** 4] and G.order == 24 and G._lookup.keys.dtype == np.int64
    assert G.lookup_batch(G.elements).tolist() == list(range(24))


@pytest.mark.parametrize("cap", [50, 1000])
def test_cap_refusal_on_both_numberings(cap, monkeypatch):
    """The closure of GL(3,4) (R^n = 63^3 <= DIRECT_LIMIT) refuses alike on
    either numbering, past the row orbit."""
    F, gens, refusals = field_spec(4), liea.levi_generators([3], 4, 3), []
    for _ in _both_numberings(monkeypatch):
        with pytest.raises(CapExceeded) as err:
            mg.MatrixGroup.generate(F, gens, cap=cap, name="GL(3,4)")
        refusals.append((str(err.value), err.value.needed, err.value.cap))
    assert refusals[0] == refusals[1] and refusals[0][1:] == (cap + 1, cap)


# PGL(2,5), SL(2,13)/Z2 and PGL(2,8), whose kernel is GF(8)'s 7 nonzero
# scalars: (n, q, det order, scalar subgroup order)
QUOTIENTS = [(2, 5, 4, 4), (2, 13, 1, 2), (2, 8, 7, 7)]
# (q, |Z|, generators of G, builder of G/Z): the groups above, and SL(3,7)'s
# block group L(2,1) (672 elements) and monomial group (72) modulo Z3
QUOTIENT_BUILDERS = {
    **{"-".join(map(str, c)): (c[1], c[3], partial(liea.levi_generators, [c[0]], *c[1:3]),
                               partial(liea.enumerate_quotient, *c)) for c in QUOTIENTS},
    "L(2,1)-7-1-3": (7, 3, partial(liea.levi_generators, [2, 1], 7, 1),
                     partial(liea.levi, [2, 1], 7, 1, z_order=3)),
    "monomial-3-7-1-3": (7, 3, lambda: liea.levi_generators([1] * 3, 7, 1)
                         + liea._block_swaps(1, 3, 7),
                         partial(liea.block_normalizer, 1, 3, 7, z_order=3)),
}


@pytest.mark.parametrize("name", list(QUOTIENT_BUILDERS))
def test_quotients_match_reference_bfs(name, monkeypatch):
    q, z, gens, build = QUOTIENT_BUILDERS[name]
    F = field_spec(q)
    zvals = sorted(F.subgroup_values(z))
    ref = _ref_closure(F, gens(), zvals)
    for _ in _both_numberings(monkeypatch):
        _assert_matches_reference(mg.MatrixGroup.generate(F, gens(), scalars=zvals), ref)
        _assert_matches_reference(build(), ref)


# (q, |Z|): dihedral groups diag(w, w^-1, 1), a transposition, whose only
# scalar is 1, modulo scalars they do not contain
OUTSIDE_KERNELS = [(7, 3), (13, 4)]


@pytest.mark.parametrize("q, z", OUTSIDE_KERNELS)
def test_quotient_by_a_kernel_outside_the_generated_group(q, z, monkeypatch):
    """<gens> Z / Z with Z not inside <gens>: every coset keeps one element,
    and the least multiple of a product can have a row (z e_3) that no word
    in the generators reaches, so the row orbit must be closed under Z."""
    F, gens = _dihedral(q)
    zvals = sorted(F.subgroup_values(z))
    ref = _ref_closure(F, gens, zvals)
    for _ in _both_numberings(monkeypatch):
        G = mg.MatrixGroup.generate(F, gens, scalars=zvals)
        assert G.order == mg.MatrixGroup.generate(F, gens).order == 2 * (q - 1)
        _assert_matches_reference(G, ref)


def test_closure_tabulates_nothing_over_the_row_space():
    """D510 in GL(3,256) has 510 elements over 256^3 = 16.7M row indices:
    its closure must stay far below one byte per row index."""
    F, gens = _dihedral(256)
    tracemalloc.start()
    try:
        G = mg.MatrixGroup.generate(F, gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.order == 510 and peak < 16 * 2 ** 20


@pytest.mark.parametrize("n, q, det, z", [(2, 7, 1, 1), *QUOTIENTS])
def test_lookup_refuses_non_members(n, q, det, z):
    """KeyError and False on matrices outside G (singular, of another size,
    with an entry that is not an integer in [0, q), given as an array or as
    nested lists, and for SL(2,q)/Z of a determinant other than 1,
    among them a multiple of an element by a scalar outside the quotient
    kernel); a multiple by a kernel scalar is the same element."""
    G = liea.enumerate_quotient(n, q, det, z)
    F = G.field
    x = G.elements[G.gen_idx[0]]
    zvals = sorted(F.subgroup_values(z))
    singular = np.zeros((n, n), dtype=np.uint8)
    singular[0, 0] = 1
    wider = np.zeros((n + 1) ** 2, dtype=np.uint8)
    wider[-n * n:] = x.ravel()  # read in base q, the same number as x's entries
    carried = x.ravel().copy()  # one less in a digit, q more in the next one:
    a = np.flatnonzero(carried[:-1])[0]  # in base q, the same number as x
    carried[a] -= 1
    carried[a + 1] += q
    aliased = x.astype(np.int64)
    aliased[0, 0] += 256  # read as x by a uint8 cast, as is x + 0.5
    outside = [singular, wider.reshape(n + 1, n + 1), carried.reshape(n, n),
               np.full((n, n), q, dtype=np.uint8), aliased, x + 0.5]
    if det == 1:
        s = next(s for s in range(2, q) if F.mul_el(s, s) != 1)  # det(s x) = s^2
        assert s not in zvals
        outside += [F.mul[s, x], mg.block_embed(n, [(0, np.array([[s]], dtype=np.uint8))])]
    for mat in outside + [m.tolist() for m in outside]:
        with pytest.raises(KeyError):
            G.index_of(mat)
        assert not G.locate([mat])[1][0]
    with pytest.raises(KeyError):
        G.lookup_batch(np.stack([x, singular]))
    for zs in zvals:
        assert G.index_of(F.mul[zs, x]) == G.gen_idx[0]
    assert G.lookup_batch(G.elements).tolist() == list(range(G.order))
    with pytest.raises(DomainError):  # a single matrix, not a batch of them
        G.locate(x)


@pytest.mark.parametrize("name", list(REFERENCE_GROUPS))
def test_position_keys_order_matrices_lexicographically(name, monkeypatch):
    """locate binary-searches the position keys of a matrix's rows: sorted
    by key, the elements are their matrices in lexicographic order, on
    either numbering and on both sides of INT_KEY_LIMIT (a limit of 1 makes
    every row index, and every key on the sorted path, a Python int)."""
    F, gens = REFERENCE_GROUPS[name]()
    for limit in (mg.INT_KEY_LIMIT, 1):
        monkeypatch.setattr(mg, "INT_KEY_LIMIT", limit)
        for numbering in _both_numberings(monkeypatch):
            G = mg.MatrixGroup.generate(F, gens)
            keys, key_idx = G._lookup.keys, G._lookup.key_idx
            rows = G.elements.reshape(G.order, -1)
            assert key_idx.tolist() == np.lexsort(rows.T[::-1]).tolist()
            assert all(a < b for a, b in zip(keys.tolist(), keys.tolist()[1:]))
            sorted_path = len(G._lookup.vec) ** G.n > FORCED_LIMITS[numbering]
            assert (keys.dtype == object) == (limit == 1 and sorted_path)
            assert (G._lookup.vec.dtype == object) == (limit == 1)
            assert G.lookup_batch(G.elements).tolist() == list(range(G.order))


def test_int_key_limit_both_sides(monkeypatch):
    """The int64 path and the Python-int path build identical groups."""
    built = {}
    for limit in (mg.INT_KEY_LIMIT, 1):
        monkeypatch.setattr(mg, "INT_KEY_LIMIT", limit)
        G = liea.enumerate_group(2, 5, 4)
        Q = liea.enumerate_quotient(2, 5, 4, 4)
        assert (G._lookup.vec.dtype == object) == (limit == 1)
        built[limit] = [(H.elements, H.acts, H.parent, H.via, H.levels, H.inv, H._lookup.keys)
                        for H in (G, Q)]
        assert Q.index_of(Q.elements[7]) == 7
    for a, b in zip(*built.values()):
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


@pytest.mark.parametrize("name", ["2-13-1-2", "L(2,1)-7-1-3", "monomial-3-7-1-3"])
def test_quotient_lookup_takes_the_least_multiple(name, monkeypatch):
    """On either numbering, every multiple of an element by a kernel scalar
    is found at that element; its multiple by a scalar s outside the kernel
    (det s^n != 1 in these groups of determinant one), a matrix of orbit
    rows that is not a member (two rows of an element swapped, determinant
    -1) and a matrix with a row outside the orbit are not found."""
    q, z, gens, _ = QUOTIENT_BUILDERS[name]
    F = field_spec(q)
    zvals = sorted(F.subgroup_values(z))
    for _ in _both_numberings(monkeypatch):
        G = mg.MatrixGroup.generate(F, gens(), scalars=zvals)
        n, everything = G.n, np.arange(G.order)
        for zs in zvals:
            assert np.array_equal(G.lookup_batch(F.mul[zs, G.elements]), everything)
        s = next(s for s in range(2, q) if F.pow_el(s, n) != 1)
        assert not G.locate(F.mul[s, G.elements])[1].any()
        swapped = G.elements[:, [1, 0, *range(2, n)]]
        wq, vec = q ** np.arange(n - 1, -1, -1), G._lookup.vec
        assert np.isin(swapped @ wq, vec).all()
        assert not G.locate(swapped)[1].any()
        missing = np.setdiff1d(np.arange(q ** n), vec)[-1]  # the least is the zero row
        for i in (0, n - 1):
            stray = G.elements.copy()
            stray[:, i] = missing // wq % q
            assert not G.locate(stray)[1].any()
