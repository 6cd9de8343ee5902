import itertools
import random

import numpy as np
import pytest

from endotriv import backend, gf, liea, rho
from endotriv import classify as classify_mod
from endotriv import matgrp as mg
from endotriv.classify import classify
from endotriv.errors import CapExceeded, DomainError, EndotrivError, GroupSpecError
from endotriv.gf import field_spec, p_part
from test_classify import SOLE_CANDIDATE
from test_matgrp import element_orders


def test_compute_params_examples():
    p1 = liea.compute_params(2, 5, 3)
    assert (p1.e, p1.t, p1.d, p1.r, p1.f) == (2, 1, 8, 1, 0)
    assert p1.sylow_cyclic
    p2 = liea.compute_params(4, 3, 5, det_order=2)
    assert (p2.e, p2.t, p2.d, p2.r, p2.f) == (4, 1, 16, 1, 0)
    assert p2.sylow_cyclic
    p3 = liea.compute_params(3, 4, 3, det_order=3)
    assert (p3.e, p3.t, p3.d, p3.r, p3.f) == (1, 1, 1, 3, 0)
    assert not p3.sylow_cyclic


def test_compute_params_validation():
    with pytest.raises(DomainError):
        liea.compute_params(2, 3, 3)  # p | q
    with pytest.raises(DomainError):
        liea.compute_params(2, 5, 4)  # p not prime
    with pytest.raises(DomainError):
        liea.compute_params(2, 5, 3, det_order=3)  # 3 does not divide q-1
    with pytest.raises(DomainError):
        liea.compute_params(2, 7, 3, det_order=1, z_order=3)  # z beyond center


def test_scalar_center_order_examples():
    assert liea.scalar_center_order(2, 7, 1) == 2
    assert liea.scalar_center_order(3, 4, 3) == 3
    assert liea.scalar_center_order(3, 4, 1) == 3


def test_sylow_abelian_flag():
    assert liea.compute_params(2, 7, 3, 6).sylow_abelian  # n=2 < pe=3
    assert not liea.compute_params(3, 4, 3, 3).sylow_abelian  # n=3 = pe


def test_build_sylow_examples():
    _, S = liea.build_sylow(liea.compute_params(2, 7, 3, 6))
    assert S.order == 9 and S.as_subgroup().is_abelian()
    shape2, S2 = liea.build_sylow(liea.compute_params(2, 5, 2, 4))
    assert S2.order == 32 and not S2.as_subgroup().is_abelian()
    assert "wr" in shape2
    _, S3 = liea.build_sylow(liea.compute_params(4, 2, 3, 1))
    assert S3.order == 9


def test_build_sylow_det_filter():
    # SL(2,5): quaternion of order 8 inside the wreath Sylow of GL(2,5)
    _, S = liea.build_sylow(liea.compute_params(2, 5, 2, 1))
    assert S.order == 8
    orders = sorted(element_orders(S).tolist())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]  # generalized quaternion


def _criterion_3_grid():
    for n, q, p in itertools.product(range(1, 5), [2, 3, 4, 5, 7, 8, 9], [2, 3, 5, 7]):
        if q % p and liea.order_gl(n, q) % p == 0 and p_part(liea.order_gl(n, q), p) <= 2 ** 12:
            yield n, q, p


def test_build_sylow_is_the_det_filtered_gl_sylow():
    """Reference: close the GL-level tower, keep the elements whose
    determinant lies in D_d, and compare with the Schreier-built S."""
    checked = 0
    for n, q, p in _criterion_3_grid():
        params = liea.compute_params(n, q, p)
        F = params.field
        S_gl = mg.MatrixGroup.generate(F, liea._gl_sylow_generators(n, q, p, params.e, params.t)[0])
        dets = backend.det_many(S_gl.elements, F)
        for d in [d for d in range(1, q) if (q - 1) % d == 0]:
            keep = np.flatnonzero(np.isin(dets, F.subgroup_values(d)))
            if len(keep) == 1:  # p does not divide |G|: refused, not built trivial
                with pytest.raises(DomainError, match=f"^p = {p} does not divide "):
                    liea.build_sylow(liea.compute_params(n, q, p, d))
            else:
                _, S = liea.build_sylow(liea.compute_params(n, q, p, d))
                assert np.array_equal(np.sort(S_gl.lookup_batch(S.elements)), keep), (n, q, p, d)
            checked += 1
    assert checked == 139


def test_build_sylow_is_one_closure(monkeypatch):
    calls = {"generate": 0, "find_generators": 0}
    generate = mg.MatrixGroup.generate.__func__

    def spy_generate(cls, *args, **kwargs):
        calls["generate"] += 1
        return generate(cls, *args, **kwargs)

    def spy_find_generators(*args):
        calls["find_generators"] += 1

    monkeypatch.setattr(mg.MatrixGroup, "generate", classmethod(spy_generate))
    monkeypatch.setattr(mg, "find_generators", spy_find_generators)
    # e = 1 with d < q-1 and d = q-1, semidihedral, e > 1
    for n, q, p, d in [(3, 7, 3, 2), (3, 7, 3, 6), (3, 7, 2, 1), (3, 3, 2, 2), (4, 2, 3, 1)]:
        calls["generate"] = 0
        _, S = liea.build_sylow(liea.compute_params(n, q, p, d))
        assert calls == {"generate": 1, "find_generators": 0}, (n, q, p, d)
        assert S.order == liea.compute_params(n, q, p, d).sylow_order()
    # a trivial S is refused before any closure
    calls["generate"] = 0
    with pytest.raises(DomainError, match=r"^p = 3 does not divide \|SL\(1,7\):2\| = 2$"):
        liea.build_sylow(liea.compute_params(1, 7, 3, 2))
    assert calls == {"generate": 0, "find_generators": 0}


def test_build_sylow_cap_admits_the_sylow_of_g():
    # |Syl_3(SL(2,7))| = 3 fits a cap of 5; |Syl_3(GL(2,7))| = 9 would not
    params = liea.compute_params(2, 7, 3, 1)
    _, S = liea.build_sylow(params, cap=5)
    assert S.order == params.sylow_order() == 3
    with pytest.raises(CapExceeded,
                       match=r"^closure of Syl_3\(GL\(2,7\)\) exceeds cap 5$") as exc:
        liea.build_sylow(liea.compute_params(2, 7, 3, 6), cap=5)
    assert exc.value.needed == 9


def test_det_preimage_generators():
    F = field_spec(7)
    t = np.array([[3, 0], [0, 1]], dtype=np.uint8)  # det 3, primitive mod 7
    t_inv = np.array([[5, 0], [0, 1]], dtype=np.uint8)
    s = np.array([[0, 1], [1, 0]], dtype=np.uint8)  # det -1 = 3^3
    for d in (1, 2, 3, 6):
        gens = liea.det_preimage_generators(F, t, t_inv, [s], d)
        H = mg.MatrixGroup.generate(F, gens)
        assert H.order == 12 * d  # the index-6/d subgroup of <t, s> = C_6 wr C_2
        assert np.isin(backend.det_many(H.elements, F), F.subgroup_values(d)).all()
    # det t = 2 has order 3 mod D_1: det s = -1 is not in <2>
    t2 = np.array([[2, 0], [0, 1]], dtype=np.uint8)
    t2_inv = np.array([[4, 0], [0, 1]], dtype=np.uint8)
    with pytest.raises(DomainError, match=r"outside <det t> D_1$"):
        liea.det_preimage_generators(F, t2, t2_inv, [s], 1)


def test_sylow_rejected_when_p_does_not_divide():
    with pytest.raises(DomainError, match=r"^p = 7 does not divide \|SL\(2,4\)\| = 60$"):
        liea.build_sylow(liea.compute_params(2, 4, 7))  # n < e
    # n = 1 = e with p prime to |Det G|: |S| = 1, though n < e fails
    params = liea.compute_params(1, 7, 3, 2)
    assert params.sylow_trivial and not params.sylow_cyclic
    with pytest.raises(DomainError, match=r"^p = 3 does not divide \|SL\(1,7\):2\| = 2$"):
        liea.build_sylow(params)


# (n, q, p, |Det G|, |Z|) breaking one input rule, and the one message for it
TUPLE_RULES = [((0, 5, 3, 1, 1), "dimension n=0 must be positive"),
               ((2, 6, 5, 1, 1), "6 is not a prime power"),
               ((2, 5, 4, 1, 1), "4 is not prime"),
               ((2, 5, 3, 3, 1), "det order 3 must divide q-1=4"),
               ((2, 5, 3, 0, 1), "det order 0 must divide q-1=4"),
               ((2, 5, 3, 1, 0), "|Z|=0 must divide the scalar center order 2"),
               ((2, 5, 3, 1, 4), "|Z|=4 must divide the scalar center order 2")]


@pytest.mark.parametrize("tup, message", TUPLE_RULES)
def test_each_tuple_rule_has_one_message(tup, message):
    n, q, p, det, z = tup
    entries = [lambda: liea.compute_params(*tup), lambda: classify(*tup),
               lambda: liea.quotient_sylow(*tup), lambda: classify_mod.tf_rank_oracle(*tup)]
    if p != 4:  # enumerate_quotient takes no p
        entries.append(lambda: liea.enumerate_quotient(n, q, det, z))
    for entry in entries:
        with pytest.raises(DomainError) as exc:
            entry()
        assert str(exc.value) == message


def test_p_not_dividing_the_quotient_has_one_message(monkeypatch):
    # refused by the order formula before anything is enumerated
    monkeypatch.setattr(liea, "enumerate_quotient", None)
    for tup, name, order in [((2, 4, 7, 1, 1), "SL(2,4)", 60),
                             ((1, 7, 3, 2, 1), "SL(1,7):2", 2),
                             ((1, 5, 2, 4, 4), "PGL(1,5)", 1)]:
        message = f"p = {tup[2]} does not divide |{name}| = {order}"
        for entry in (classify, liea.quotient_sylow, classify_mod.tf_rank_oracle):
            with pytest.raises(DomainError) as exc:
                entry(*tup)
            assert str(exc.value) == message, entry


SINGER_RELATION_PAIRS = [(3, 2), (5, 2), (4, 3), (2, 3)]


def test_singer_relation():
    for q, e in SINGER_RELATION_PAIRS:
        F = field_spec(q)
        w, _, g = F.singer_block(e)
        wq = liea._matrix_power(F, w, q)
        gi = liea._matrix_power(F, g, liea.order_gl(e, q) - 1)  # g^-1
        lhs = backend.mm_one(backend.mm_one(g[None], w, F), gi, F)[0]
        assert np.array_equal(lhs, wq)


def test_singer_generator_is_the_primitive_of_the_extension_field():
    # both come from gf._least_primitive over the same least irreducible, so
    # for prime q column 0 of w is GF(q^e).primitive written in base q
    pairs = [(q, e) for q in (2, 3, 5, 7, 11, 13) for e in range(2, 9) if q ** e <= 256]
    assert len(pairs) == 16
    for q, e in pairs:
        F = field_spec(q)
        w = F.singer_block(e)[0]
        prim = field_spec(q ** e).primitive
        assert w[:, 0].tolist() == [prim // q ** i % q for i in range(e)], (q, e)
        power, order = w, 1
        while not np.array_equal(power, mg.identity_matrix(e)):
            power, order = backend.mm_one(power[None], w, F)[0], order + 1
        assert order == q ** e - 1, (q, e)


def test_singer_blocks_kept_per_field():
    blocks = field_spec(4).singer_block(3)
    assert field_spec(4).singer_block(3)[0] is blocks[0]
    assert not any(m.flags.writeable for m in blocks)
    field_spec.cache_clear()  # drops the blocks with the field
    again = field_spec(4).singer_block(3)
    assert again[0] is not blocks[0]
    assert all(np.array_equal(a, b) for a, b in zip(again, blocks))


def _fuzz_stream(count):
    """The first `count` tuples of the totality-fuzz stream (seed 20260810),
    the tuples of one benchmark fuzz pass for count = 350."""
    rng, out = random.Random(20260810), []
    while len(out) < count:
        n, q, p = rng.randint(1, 6), rng.choice([2, 3, 4, 5, 7, 8, 9, 11, 13]), \
            rng.choice([2, 3, 5, 7, 11, 13])
        if q % p == 0:
            continue
        det = rng.choice([d for d in range(1, q) if (q - 1) % d == 0] or [1])
        zc = liea.scalar_center_order(n, q, det)
        out.append((n, q, p, det, rng.choice([x for x in range(1, zc + 1) if zc % x == 0])))
    return out


def test_fuzz_stream_extensions_resolve_by_their_candidates():
    # every cyclic.ext tuple of one benchmark fuzz pass: resolved exactly when
    # one middle term fits, null with two or more
    sole, trivial_quotient, unresolved = set(), set(), set()
    for case in _fuzz_stream(350):
        try:
            tc = classify(*case, cap=20000)
        except EndotrivError:
            continue
        if tc.case_tag != "cyclic.ext":
            continue
        cands, resolved = tc.result.candidates(), tc.to_json()["resolved"]
        if len(cands) > 1:
            assert resolved is None and tc.result.resolved is None, case
            unresolved.add(case)
            continue
        assert resolved == cands[0].to_json(), case
        (trivial_quotient if tc.result.quot.is_trivial else sole).add(case)
    assert sole == set(SOLE_CANDIDATE)
    assert len(trivial_quotient) == 2 and len(unresolved) == 11
    assert (2, 7, 3, 2, 2) in unresolved


@pytest.fixture(scope="module")
def fuzz_pass_calls():
    """Every FieldSpec.singer_block and det_preimage_generators call of one
    fuzz pass (350 tuples at cap 20 000, the abelianization cache emptied
    first): the (q, e) pairs asked for, and per Schreier call its arguments
    with the e of the Singer block it was given.  About 0.2 s."""
    singer, schreier, last_e = set(), [], []
    block, preimage = gf.FieldSpec.singer_block, liea.det_preimage_generators

    def singer_block(F, e):
        singer.add((F.q, e))
        last_e.append(e)
        return block(F, e)

    def det_preimage_generators(F, t, t_inv, others, d):
        schreier.append((last_e[-1], F, t, t_inv, others, d))
        return preimage(F, t, t_inv, others, d)

    mp = pytest.MonkeyPatch()
    mp.setattr(gf.FieldSpec, "singer_block", singer_block)
    mp.setattr(liea, "det_preimage_generators", det_preimage_generators)
    classify_mod._cyclic_ext_ab.cache_clear()
    try:
        for case in _fuzz_stream(350):
            try:
                classify(*case, cap=20_000)
            except EndotrivError:
                pass
    finally:
        mp.undo()
        classify_mod._cyclic_ext_ab.cache_clear()
    return singer, schreier


def test_singer_inverse_block(fuzz_pass_calls):
    """w w^-1 = I for every (q, e) of the fuzz pass and of the relation test."""
    pairs = fuzz_pass_calls[0] | set(SINGER_RELATION_PAIRS)
    assert {(13, 2), (8, 4), (3, 6)} <= pairs
    for q, e in sorted(pairs):
        F = field_spec(q)
        w, w_inv, _ = F.singer_block(e)
        assert np.array_equal(backend.mm_one(w[None], w_inv, F)[0], mg.identity_matrix(e)), (q, e)


def test_supplied_inverse_gives_the_same_generators(fuzz_pass_calls, monkeypatch):
    """On every Schreier call of the fuzz pass, the embedded w^-1 gives the
    generator list, byte for byte, that t^(q^e - 2) gives; build_sylow
    passes t^(|GL(n,q)|_p - 1), which must be t^-1."""
    calls = fuzz_pass_calls[1]
    assert len(calls) >= 10
    for e, F, t, t_inv, others, d in calls:
        power = liea._matrix_power(F, t, F.q ** e - 2)
        assert np.array_equal(t_inv, power)
        got = liea.det_preimage_generators(F, t, t_inv, others, d)
        ref = liea.det_preimage_generators(F, t, power, others, d)
        assert [g.tobytes() for g in got] == [g.tobytes() for g in ref]
    inverses, preimage = [], liea.det_preimage_generators
    monkeypatch.setattr(liea, "det_preimage_generators", lambda F, t, t_inv, *rest: (
        inverses.append((F, t, t_inv)), preimage(F, t, t_inv, *rest))[1])
    for n, q, p, d in [(2, 7, 3, 1), (4, 4, 3, 3), (3, 2, 3, 1), (2, 5, 2, 2), (3, 7, 2, 6)]:
        params = liea.compute_params(n, q, p, det_order=d)
        assert liea.build_sylow(params)[1].order == params.sylow_order()
    assert len(inverses) == 5
    for F, t, t_inv in inverses:
        assert np.array_equal(backend.mm_one(t[None], t_inv, F)[0], mg.identity_matrix(len(t)))


def test_levi_examples():
    full = liea.levi([3], 4, det_order=1)
    assert full.order == liea.order_sl(3, 4)  # single block: the whole group
    assert liea.levi([2, 2], 3, det_order=1).order == 1152
    assert liea.levi([2, 1], 4, det_order=1).order == 180
    with pytest.raises(DomainError):
        liea.levi([2, 0], 3)


def test_levi_split():
    assert liea.levi_split([2, 2], 4, 3) == liea.BlockSplit((2, 2), (0,), (1,))
    assert liea.levi_split([2, 1], 4, 3) is None  # only one block > 1
    # e = 2: the first block >= e is split off from the rest
    assert liea.levi_split([1, 2, 2], 5, 3) == liea.BlockSplit((1, 2, 2), (1,), (0, 2))
    assert liea.levi_split([1, 2], 5, 3) is None


def test_monomial_cap_refused_before_closure(monkeypatch):
    # the monomial group of SL(3,19) has order 18^2 * 3! = 1944 > 1000
    def refuse(cls, *args, **kwargs):
        raise AssertionError("closure started")

    monkeypatch.setattr(mg.MatrixGroup, "generate", classmethod(refuse))
    with pytest.raises(CapExceeded,
                       match=r"^closure of N\(L\(1\^3\)\):1 over GF\(19\) exceeds cap 1000$") as exc:
        liea.block_normalizer(1, 3, 19, cap=1000)
    assert exc.value.needed == 1944
    [entry] = rho.replay_proof_certificates("rp-case", cap=1000)
    assert entry["verdict"] == "SKIPPED"
    assert entry["reason"] == "closure of N(Q)/Z3 exceeds cap 1000"


def test_quotient_cap_refused_before_closure(monkeypatch):
    # PGL(3,4) has 60480 elements; the cap admits |GL(3,4)| = 181440, as before
    def refuse(cls, *args, **kwargs):
        raise AssertionError("closure started")

    monkeypatch.setattr(mg.MatrixGroup, "generate", classmethod(refuse))
    with pytest.raises(CapExceeded, match=r"^closure of PGL\(3,4\) exceeds cap 100000$") as exc:
        liea.enumerate_quotient(3, 4, 3, 3, cap=100_000)
    assert exc.value.needed == 181440


def test_quotient_closure_checks_its_order():
    """|G/Z| * |Z| = |G|, which fails when Z is not inside G: -I has
    determinant -1, so the block group of SL(3,7) meets Z2 trivially."""
    assert liea.levi([2, 1], 7, 1, z_order=3).order * 3 == liea.levi_order([2, 1], 7, 1)
    with pytest.raises(DomainError, match=r"order 2016 \* \|Z\| = 2 != expected 2016$"):
        liea.levi([2, 1], 7, 1, z_order=2)


# (build(cap), cap, the order the cap refuses, its message): e = 2 for p = 11
# over GF(263), where N_G(S) of order 528 fits a cap that N_GL(S) exceeds
ADMISSIONS = {
    "enumerate_group": (lambda cap: liea.enumerate_group(2, 263, cap=cap), 10,
                        liea.order_sl(2, 263), "closure of SL(2,263) exceeds cap 10"),
    "build_sylow": (lambda cap: liea.build_sylow(liea.compute_params(2, 263, 131), cap=cap),
                    10, 131, "closure of Syl_131(SL(2,263)) exceeds cap 10"),
    "levi": (lambda cap: liea.levi([1, 1], 263, cap=cap), 10, 262,
             "closure of L(1, 1):1 over GF(263) exceeds cap 10"),
    "block_normalizer": (lambda cap: liea.block_normalizer(1, 2, 263, cap=cap), 10, 524,
                         "closure of N(L(1^2)):1 over GF(263) exceeds cap 10"),
    "classify": (lambda cap: classify(2, 263, 131, 1, 2, cap=cap), 10, 524,
                 "closure of N_G(S)/Z2 exceeds cap 10"),
    "classify-e2": (lambda cap: classify(2, 263, 11, 1, 2, cap=cap), 10, 528,
                    "closure of N_G(S)/Z2 exceeds cap 10"),
    "classify-e2-N_GL(S)": (lambda cap: classify(2, 263, 11, 1, 2, cap=cap), 1000,
                            2 * (263 ** 2 - 1), "closure of N_GL(S) exceeds cap 1000"),
}


@pytest.mark.parametrize("name", sorted(ADMISSIONS))
def test_cap_then_field_size_before_any_field(name, monkeypatch):
    """Over the cap is refused first, then q > 256, and both before GF(q)."""
    build, cap, needed, cap_message = ADMISSIONS[name]
    seen = []
    real = gf.field_spec

    def spy(q):
        seen.append(q)
        return real(q)

    for mod in (gf, liea, rho):
        monkeypatch.setattr(mod, "field_spec", spy)
    with pytest.raises(DomainError, match=r"^enumeration supports q <= 256, got q=263$"):
        build(10 ** 9)
    assert 263 not in seen
    with pytest.raises(CapExceeded) as exc:
        build(cap)
    assert str(exc.value) == cap_message
    assert (exc.value.needed, exc.value.cap) == (needed, cap)
    assert 263 not in seen


@pytest.mark.parametrize("s, r, q", [(2, 2, 2), (1, 3, 4), (1, 2, 5)])
def test_levi_normalizer_matches_ambient_scan(s, r, q):
    # the built normalizer of r equal s x s blocks against the full scan of SL(sr, q)
    G = liea.enumerate_group(s * r, q)
    L = mg.generated_subgroup(G, [G.index_of(m) for m in liea.levi_generators([s] * r, q, 1)])
    N_true = mg.normalizer(G, L)
    N_built = liea.block_normalizer(s, r, q)
    built_keys = {N_built.elements[i].tobytes() for i in range(N_built.order)}
    true_keys = {G.elements[int(i)].tobytes() for i in N_true.idx}
    assert built_keys == true_keys


# the generator lists that the block-group family was closed from before
# `block_normalizer` and `levi` built it, written out as a reference

def _reference_group_generators(n, q, det_order):
    """SL(n,q)'s elementary, transvection and torus generators (the identity
    for n = 1), then diag(w^((q-1)/det_order), 1, ...) when det_order > 1."""
    F = field_spec(q)
    w, gens = F.primitive, []
    if n == 1:
        gens.append(mg.identity_matrix(1))
    else:
        for i in range(n - 1):
            for a, b in ((i, i + 1), (i + 1, i)):
                m = mg.identity_matrix(n)
                m[a, b] = 1
                gens.append(m)
        tv, tor = mg.identity_matrix(n), mg.identity_matrix(n)
        tv[0, 1] = w
        tor[0, 0], tor[1, 1] = w, F.inv_el(w)
        gens += [tv, tor]
    if det_order > 1:
        dg = mg.identity_matrix(n)
        dg[0, 0] = F.pow_el(w, (q - 1) // det_order)
        gens.append(dg)
    return gens


def _reference_swaps(s, r, q):
    """Adjacent block swaps; for odd s the lower-left block is negated."""
    F, n = field_spec(q), s * r
    swaps = []
    for i in range(r - 1):
        m = np.zeros((n, n), dtype=np.uint8)
        for j in range(n):
            if i * s <= j < (i + 2) * s:
                m[(j + s) if j < (i + 1) * s else (j - s), j] = 1
            else:
                m[j, j] = 1
        if s % 2:
            for j in range(i * s, (i + 1) * s):
                m[j + s, j] = F.neg_el(1)
        swaps.append(m)
    return swaps


# (n, q, det order, |Z|) of G/Z; (s, r, q, det order, |Z|) of a block normalizer,
# with s = 1 the monomial group
REFERENCE_CASES = [("quotient", (1, 7, 6, 1)), ("quotient", (2, 5, 4, 4)),
                   ("quotient", (3, 3, 2, 1)), ("quotient", (2, 9, 8, 2)),
                   ("normalizer", (1, 1, 5, 4, 2)), ("normalizer", (1, 3, 7, 1, 3)),
                   ("normalizer", (1, 4, 3, 2, 2)), ("normalizer", (2, 2, 3, 1, 1)),
                   ("normalizer", (1, 3, 4, 1, 1)), ("normalizer", (3, 2, 2, 1, 1))]


@pytest.mark.parametrize("kind, args", REFERENCE_CASES,
                         ids=[f"{k}-{'-'.join(map(str, a))}" for k, a in REFERENCE_CASES])
def test_block_family_matches_the_reference_generator_lists(kind, args):
    if kind == "quotient":
        n, q, d, z = args
        gens, G = _reference_group_generators(n, q, d), liea.enumerate_quotient(*args)
    else:
        s, r, q, d, z = args
        gens = liea.levi_generators([s] * r, q, d) + _reference_swaps(s, r, q)
        G = liea.block_normalizer(s, r, q, d, z)
    F = field_spec(q)
    ref = mg.MatrixGroup.generate(F, gens, z_order=z)
    assert G.elements.tobytes() == ref.elements.tobytes()
    assert np.array_equal(G.inv, ref.inv)


def test_corner_matrices_land_in_the_right_groups():
    x, y = liea._torus_corner(3, 19, 3)
    F = field_spec(19)
    assert int(backend.det_many(x[None], F)[0]) == 1
    assert int(backend.det_many(y[None], F)[0]) == 1
    assert y[0, 0] == y[1, 1] != y[2, 2]  # not scalar when 9 | q-1
    with pytest.raises(DomainError, match="p | q-1"):
        liea._torus_corner(3, 19, 5)


def test_group_spec_parsing():
    assert liea.parse_group_spec("PGL(3,4)") == (3, 4, 3, 3)
    assert liea.parse_group_spec("PSL(2,9)") == (2, 9, 1, 2)
    assert liea.parse_group_spec("SL(2,7):2") == (2, 7, 2, 1)
    for bad in ["SL(2,6)", "SP(4,3)", "SL(2,7):4", "PGL(2,7):2", "SL(x,y)"]:
        with pytest.raises(GroupSpecError):
            liea.parse_group_spec(bad)


def test_enumerate_spec_orders():
    assert liea.enumerate_quotient(*liea.parse_group_spec("PSL(2,5)")).order == 60
    assert liea.enumerate_quotient(*liea.parse_group_spec("PGL(2,3)")).order == 24
    with pytest.raises(CapExceeded):
        liea.enumerate_quotient(*liea.parse_group_spec("GL(4,5)"))


def test_sylow_order_matches_p_part_for_specs():
    for (n, q, p, det) in [(2, 9, 2, 8), (3, 3, 2, 2), (3, 5, 2, 1),
                           (4, 3, 2, 2), (2, 13, 3, 4), (3, 4, 3, 3)]:
        params = liea.compute_params(n, q, p, det)
        _, S = liea.build_sylow(params)
        assert S.order == p_part(liea.group_order(n, q, det), p)
