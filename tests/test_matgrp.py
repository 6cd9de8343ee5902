import numpy as np
import pytest

from endotriv import backend, liea, rho
from endotriv import matgrp as mg
from endotriv.abst import cyclic, from_cyclic_orders
from endotriv.errors import CapExceeded, DomainError
from endotriv.gf import field_spec


def sl23():
    return liea.enumerate_group(2, 3)


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


def test_closure_cap():
    with pytest.raises(CapExceeded):
        liea.enumerate_group(2, 5, cap=50)


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
    S = liea.sylow_in(G5, liea.compute_params(2, 5, 2))
    assert mg.normalizer(G5, S).order == 24  # index 5


def test_normalizer_iterated_fixpoint():
    G5 = liea.enumerate_group(2, 5)
    S = liea.sylow_in(G5, liea.compute_params(2, 5, 2))
    N = mg.normalizer(G5, S)
    assert N.members >= S.members
    N2 = mg.normalizer(G5, S, within=N)
    assert N2.members == N.members


def test_commutator_examples():
    G = sl23()
    torus = mg.subgroup_closure(G, [G.index_of(np.array([[2, 0], [0, 2]],
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
    S = liea.sylow_in(G5, liea.compute_params(2, 5, 2))
    with pytest.raises(DomainError):
        mg.quotient_structure(G5.as_subgroup(), S)
    with pytest.raises(DomainError):
        # quotient by the trivial subgroup is nonabelian here
        mg.quotient_structure(full, mg.trivial_subgroup(G))


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
    D8 = mg.subgroup_closure(D16, [r2, si])
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
    eas = mg.elementary_abelian_subgroups(c3, 5)
    assert [(e.rank, e.maximal) for e in eas] == [(0, True)]
    # quaternion group: one C2, maximal
    G = sl23()
    q8m = mg.commutator_subgroup(G.as_subgroup())
    q8 = mg.MatrixGroup.generate(G.field, [G.elements[i] for i in q8m.gen_idx])
    eas8 = mg.elementary_abelian_subgroups(q8, 2)
    nontriv = [(e.rank, e.maximal) for e in eas8 if e.rank > 0]
    assert nontriv == [(1, True)]
    # SL(2,4): five maximal Klein subgroups, rank 2
    a5 = liea.enumerate_group(2, 4)
    eas4 = mg.elementary_abelian_subgroups(a5, 2)
    v4 = [e for e in eas4 if e.rank == 2]
    assert len(v4) == 5 and all(e.maximal for e in v4)
    assert mg.p_rank(a5, 2) == 2
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
        assert mg.p_rank(S, p) == params.p_rank, (n, q, p, det)


def test_generic_sylow_finder():
    G = liea.enumerate_group(2, 5)
    for p, expect in [(2, 8), (3, 3), (5, 5)]:
        S = mg.sylow_subgroup_of(G, p)
        assert S.order == expect
        assert mg.sylow_check(G, S, p)


def test_central_quotient_groups():
    G = sl23()
    psl = G.central_quotient([1, 2])
    assert psl.order == 12
    assert mg.commutator_subgroup(psl.as_subgroup()).order == 4  # A4' = V4
    gl = liea.enumerate_group(2, 3, 2)
    pgl = gl.central_quotient([1, 2], name="PGL(2,3)")
    assert pgl.order == 24
    # S4: two conjugacy classes of maximal Kleins
    eas = mg.elementary_abelian_subgroups(pgl, 2)
    v4 = [e.subgroup for e in eas if e.rank == 2 and e.maximal]
    assert len(mg.subgroup_conjugacy_classes(pgl, v4)) == 2


def test_abelian_type():
    G = liea.enumerate_group(2, 5, 4)
    z = mg.center(G)
    assert z.abelian_type() == cyclic(4)
    params = liea.compute_params(2, 7, 3, 6)
    _, S = liea.build_sylow(params)
    assert S.as_subgroup().abelian_type() == from_cyclic_orders([3, 3])


def test_all_subgroups_of_quaternion():
    G = sl23()
    q8m = mg.commutator_subgroup(G.as_subgroup())
    subs = mg.all_subgroups(q8m)
    # Q8: 1, Z, three C4s, Q8
    assert sorted(s.order for s in subs) == [1, 2, 4, 4, 4, 8]


def test_commutator_is_normal_with_abelian_quotient():
    for (n, q, det) in [(2, 3, 2), (2, 4, 3), (2, 5, 4)]:
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
        assert mg.p_rank(G, p) == params.p_rank, (n, q, p, det)


@pytest.mark.parametrize("n, q, det", [(2, 5, 1), (2, 3, 2)])  # SL(2,5), GL(2,3)
def test_closure_extends_closed_subgroups(n, q, det):
    # the naive twin closes <H, x> from scratch and is the reference
    G = liea.enumerate_group(n, q, det)
    for H in mg.all_subgroups(mg.sylow_subgroup_of(G, 2)):
        for x in range(G.order):
            grown = mg._closure_indices(G, H.gen_idx + (x,), H.members)
            assert grown == rho._naive_closure(G, H.members | {x}), (H.key(), x)


def test_find_generators_rejects_unclosed_set():
    G = sl23()
    x = next(i for i in range(G.order) if G.order_of(i) > 2)
    with pytest.raises(DomainError, match="not closed"):
        mg.find_generators(G, np.array([G.identity_idx, x]))
    H = mg.generated_subgroup(G, [x, G.inv_idx(x)])
    assert H.gen_idx == (min(x, G.inv_idx(x)),)
    assert H.members == rho._naive_closure(G, [x])
    assert mg.subgroup_closure(G, mg.find_generators(G, H.idx)) == H


# index arithmetic against matrix products, on both sides of CAYLEY_LIMIT:
# GL(2,7) (2016) and SL(2,13)/Z2 (1092) above it, SL(2,5) and PGL(2,5) below
INDEX_GROUPS = [(2, 7, 6, 1), (2, 13, 1, 2), (2, 5, 1, 1), (2, 5, 4, 4)]


def _index_group(n, q, det, z):
    return liea.enumerate_quotient(n, q, det, z)


def _products(G, left, j):
    """index_of(x * j) for every index x in `left`, from the matrix kernel."""
    prods = backend.mm_one(G.elements[np.asarray(left, dtype=np.int64)],
                           G.elements[j], G.field)
    return [G.index_of(m) for m in prods]


@pytest.mark.parametrize("n, q, det, z", INDEX_GROUPS)
def test_index_arithmetic_matches_matrix_products(n, q, det, z):
    G = _index_group(n, q, det, z)
    F = G.field
    assert (G.order > G.CAYLEY_LIMIT) == (q > 5)
    rng = np.random.default_rng(5)
    xs = rng.integers(0, G.order, size=48)
    for j in [0, *G.gen_idx, *rng.integers(0, G.order, size=4)]:
        ref = _products(G, xs, int(j))
        assert list(G.right_mul_batch(xs, int(j))) == ref
        assert [G.mul_idx(int(x), int(j)) for x in xs] == ref
    for g in rng.integers(0, G.order, size=3):
        g = int(g)
        ginv = backend.inverse_many(G.elements[g][None], F)[0][0]
        assert G.inv_idx(g) == G.index_of(ginv)
        cmap = G.conj_map(g)
        for x in xs:
            gxg = backend.mm_one(backend.mm_one(G.elements[g][None], G.elements[int(x)], F),
                                 ginv, F)[0]
            assert cmap[int(x)] == G.index_of(gxg)
        sandwich = G.sandwich_all(g)
        for y in xs:
            y = int(y)
            yinv = backend.inverse_many(G.elements[y][None], F)[0][0]
            ygy = backend.mm_one(backend.mm_one(G.elements[y][None], G.elements[g], F),
                                 yinv, F)[0]
            assert sandwich[y] == G.index_of(ygy)
    table = G.cayley()
    if G.order > G.CAYLEY_LIMIT:
        assert table is None
    else:
        for j in range(G.order):
            assert list(table[:, j]) == _products(G, range(G.order), j)


@pytest.mark.parametrize("n, q, det, z", INDEX_GROUPS[:2])
def test_index_layer_needs_no_kernel_or_key_after_construction(monkeypatch, n, q, det, z):
    G = _index_group(n, q, det, z)
    S = mg.sylow_subgroup_of(G, 2)  # built with the power kernel, before the guard

    def refuse(*args, **kwargs):
        raise AssertionError("kernel or element-key lookup after construction")

    for name in ("mm_one", "mm_pairs", "inverse_many", "det_many", "scale_many",
                 "canon_min"):
        monkeypatch.setattr(backend, name, refuse)
    for name in ("lookup_batch", "index_of", "contains_matrix"):
        monkeypatch.setattr(mg.MatrixGroup, name, refuse)
    monkeypatch.setattr(G, "_index", None)
    N = mg.normalizer(G, S)
    assert mg.centralizer(G, S).members <= N.members
    comm = mg.commutator_subgroup(N)
    assert mg.quotient_structure(N, comm).torsion_order == N.order // comm.order
    subs = mg.all_subgroups(S)
    classes = mg.subgroup_conjugacy_classes(G, subs)
    assert sum(len(c) for c in classes) == len(subs)
