import math
import random

import numpy as np
import pytest

from endotriv import abst, backend, liea, rho
from endotriv import classify as classify_mod
from endotriv import matgrp as mg
from endotriv.abst import ExtensionDescriptor, cyclic, from_cyclic_orders
from endotriv.classify import classify, tf_rank_oracle, x_group
from endotriv.corpus import load_corpus
from endotriv.errors import AmbiguousCase, CapExceeded, DomainError, EndotrivError

CASES = [
    ((2, 3, 2, 1, 2), 1, (3,), "n2-char2.A.1.b.i"),
    ((2, 5, 2, 1, 1), 0, (2, 4), "n2-char2.B.1.a"),
    ((2, 7, 2, 1, 2), 2, (), "n2-char2.A.1.b.ii"),
    ((3, 7, 2, 1, 1), 1, (2,), "n3-char2.b.ii"),
    ((3, 5, 2, 1, 1), 1, (), "n3-char2.b.i"),
    ((3, 7, 3, 6, 6), 3, (), "n3-char3.a"),
    ((3, 4, 3, 1, 3), 1, (2, 2), "n3-char3.c"),
    ((4, 5, 2, 4, 1), 1, (), "generic"),
    ((2, 5, 3, 1, 1), 0, (2, 4), "cyclic.d.i"),
    ((4, 3, 5, 2, 1), 0, (2, 8), "cyclic.d.i"),
    ((3, 4, 3, 3, 3), 3, (), "n3-char3.a"),
    ((2, 7, 3, 1, 1), 0, (2, 4), "cyclic.c.ii"),
    ((2, 4, 3, 1, 1), 0, (4,), "cyclic.c.i"),
    ((2, 9, 2, 1, 2), 2, (), "n2-char2.B.2.b.i"),
    ((2, 5, 2, 1, 2), 1, (3,), "n2-char2.B.2.b.ii"),
    ((2, 5, 2, 4, 4), 2, (), "n2-char2.B.2.c"),
    ((2, 3, 2, 2, 1), 1, (2,), "n2-char2.A.2.a"),
    ((2, 3, 2, 2, 2), 2, (), "n2-char2.A.2.b"),
    ((2, 5, 2, 4, 1), 1, (), "n2-char2.B.1.b"),
    ((2, 13, 2, 2, 2), 1, (), "n2-char2.B.2.a"),
    ((3, 2, 3, 1, 1), 0, (4,), "cyclic.d.ii"),
    ((3, 2, 7, 1, 1), 0, (6,), "cyclic.d.i"),
    ((6, 2, 3, 1, 1), 1, (), "generic"),
    ((2, 7, 3, 6, 1), 1, (2,), "n2-odd.a"),
    ((5, 2, 7, 1, 1), 0, (2, 6), "cyclic.d.ii"),
    ((1, 7, 3, 6, 1), 0, (2, 2), "cyclic.b"),
    ((3, 19, 3, 1, 3), 4, (), "n3-char3.b"),
]


@pytest.mark.parametrize("args,rank,torsion,tag", CASES)
def test_classification_values(args, rank, torsion, tag):
    tc = classify(*args)
    assert tc.case_tag == tag
    assert tc.result == abst.AbelianStructure(rank, tuple(torsion))
    assert tc.tf_rank == rank


def test_nonperfect_base_corrected_x():
    tc = classify(2, 3, 2, 1, 1)
    assert tc.case_tag == "n2-char2.A.1.a"
    assert tc.result == from_cyclic_orders([4, 2, 3])
    assert tc.x_factor == cyclic(3)  # the X the clause used, not the formula
    assert any("non-perfect" in n for n in tc.notes)


def test_cyclic_extension_descriptor():
    tc = classify(2, 7, 3, 6, 6)  # PGL(2,7) at p = 3
    assert tc.case_tag == "cyclic.ext"
    assert isinstance(tc.result, ExtensionDescriptor)
    assert tc.result.sub == from_cyclic_orders([2, 2])
    assert tc.result.quot == cyclic(2)
    assert tc.result.resolved is None
    cands = tc.result.candidates()
    assert from_cyclic_orders([2, 2, 2]) in cands
    assert from_cyclic_orders([4, 2]) in cands


# the fuzz stream's cyclic.ext tuples with a Z/2 syzygy image and one
# abelian middle term (|sub| odd), which is then T: (n, q, p, det, z) -> T
SOLE_CANDIDATE = {(3, 9, 7, 8, 8): [6], (5, 5, 11, 2, 2): [10], (3, 11, 7, 5, 5): [6],
                  (5, 3, 11, 2, 2): [10], (1, 11, 5, 10, 2): [2], (3, 3, 13, 2, 2): [6]}


@pytest.mark.parametrize("case", list(SOLE_CANDIDATE))
def test_a_sole_candidate_resolves_the_extension(case):
    tc = classify(*case, cap=20000)
    want = from_cyclic_orders(SOLE_CANDIDATE[case])
    assert tc.case_tag == "cyclic.ext" and tc.result.quot == cyclic(2)
    assert tc.result.candidates() == (want,)
    assert tc.result.resolved == want
    assert tc.to_json()["resolved"] == want.to_json()


# isomorphic inputs: the closed form of a Z = 1 input is among the candidates
# of an isomorphic cyclic.ext input.  GL(3,2) = PSL(2,7); SL(2,4) = PGL(2,4)
ISOMORPHIC_CLOSED_FORMS = [((3, 2, 3, 1, 1), (2, 7, 3, 1, 2)),
                           ((2, 4, 5, 1, 1), (2, 4, 5, 3, 3))]


@pytest.mark.parametrize("closed,ext", ISOMORPHIC_CLOSED_FORMS)
def test_isomorphic_closed_form_is_a_candidate(closed, ext):
    tc, te = classify(*closed), classify(*ext)
    assert tc.case_tag.startswith("cyclic.") and te.case_tag == "cyclic.ext"
    assert tc.result == cyclic(4)
    assert tc.result in te.result.candidates() and te.result.resolved is None


def test_cyclic_extension_sub_matches_ambient_scan():
    # independent route: enumerate PGL(2,7), scan the Sylow-3 normalizer
    from endotriv import matgrp as mg
    G = liea.enumerate_quotient(2, 7, 6, 6)
    S = mg.sylow_subgroup_of(G, 3)
    N = mg.normalizer(G, S)
    ab = mg.quotient_structure(N, mg.commutator_subgroup(N))
    assert abst.prime_to_p_part(ab, 3) == from_cyclic_orders([2, 2])


def test_ambiguous_tuple():
    with pytest.raises(AmbiguousCase) as exc:
        classify(2, 5, 2, 4, 2)  # (r,s,t) = (1,2,2)
    assert exc.value.detail == {"r": 1, "s": 2, "t": 2, "q": 5}


def test_domain_errors():
    with pytest.raises(DomainError):
        classify(2, 4, 2)  # p | q
    with pytest.raises(DomainError):
        classify(2, 4, 7)  # n < e: p does not divide |G|
    with pytest.raises(DomainError):
        classify(1, 5, 2, 4, 4)  # Z absorbs the whole group's 2-part... |G/Z| coprime to p
    with pytest.raises(DomainError):
        classify(2, 5, 2, 3)  # det order must divide q-1


def test_x_group():
    assert x_group(liea.compute_params(4, 5, 2, 4, 1)).is_trivial
    assert x_group(liea.compute_params(2, 7, 2, 6, 1)) == cyclic(3)
    # Det(G) = Det(Z): trivial
    assert x_group(liea.compute_params(3, 4, 3, 1, 3)).is_trivial
    # the non-perfect base SL(2,3): the formula (trivial), not X(G/Z) = Z/3
    assert x_group(liea.compute_params(2, 3, 2, 1, 1)).is_trivial


def test_char3_split_arithmetic():
    # the three-free-rank clause applies exactly when 3 does not divide
    # (q-1)/|Det(G)|
    for q in (4, 7, 13):
        for det in (d for d in range(1, q) if (q - 1) % d == 0):
            # take Z = the full scalar center so its 3-part is absorbed
            zc = liea.scalar_center_order(3, q, det)
            tc = classify(3, q, 3, det, zc)
            expect_a = ((q - 1) // det) % 3 != 0
            assert (tc.case_tag == "n3-char3.a") == expect_a, (q, det)


def test_main_clause_free_rank_is_one():
    rng = random.Random(31)
    hits = 0
    while hits < 40:
        n = rng.randint(2, 6)
        q = rng.choice([2, 3, 4, 5, 7, 8, 9, 11, 13])
        p = rng.choice([2, 3, 5, 7, 11, 13])
        if q % p == 0:
            continue
        try:
            tc = classify(n, q, p, cap=20000)
        except EndotrivError:
            continue
        if tc.case_tag == "generic":
            assert tc.tf_rank == 1
            assert isinstance(tc.result, abst.AbelianStructure)
            assert tc.result.free_rank == 1
            hits += 1


def test_totality_fuzz_small():
    rng = random.Random(1234)
    ambiguous = 0
    for _ in range(1500):
        n = rng.randint(1, 6)
        q = rng.choice([2, 3, 4, 5, 7, 8, 9, 11, 13])
        p = rng.choice([2, 3, 5, 7, 11, 13])
        divs = [d for d in range(1, q) if (q - 1) % d == 0] or [1]
        det = rng.choice(divs)
        if q % p == 0:
            continue
        try:
            zc = liea.scalar_center_order(n, q, det)
            zdivs = [z for z in range(1, zc + 1) if zc % z == 0]
            z = rng.choice(zdivs)
            tc = classify(n, q, p, det, z, cap=20000)
            assert tc.case_tag
        except AmbiguousCase:
            ambiguous += 1
        except EndotrivError:
            pass
    assert ambiguous >= 0  # typed outcomes only; no silent fallthrough


def test_oracle_examples():
    # pure group theory: valid even in the defining characteristic
    r = tf_rank_oracle(2, 4, 2)
    assert (r.p_rank, r.n_g, r.tf_rank) == (2, 1, 1)
    r2 = tf_rank_oracle(3, 4, 3, 3, 3)  # PGL(3,4)
    assert (r2.p_rank, r2.n_g, r2.tf_rank) == (2, 3, 3)
    r3 = tf_rank_oracle(3, 4, 3, 1, 3)  # PSL(3,4)
    assert (r3.p_rank, r3.n_g, r3.tf_rank) == (2, 1, 1)
    r4 = tf_rank_oracle(3, 4, 3, 3)  # GL(3,4): the rank-2 maximal in S all extend in G
    assert (r4.p_rank, r4.n_g, r4.tf_rank) == (3, 0, 1)


def test_oracle_closes_only_the_quotient(monkeypatch):
    # PGL(3,4) = GL(3,4)/Z3 in one closure over cosets, without GL(3,4)
    orders = []
    generate = mg.MatrixGroup.generate.__func__

    def spy(cls, field, gens, cap=None, z_order=1, name="G"):
        G = generate(cls, field, gens, cap=cap, z_order=z_order, name=name)
        orders.append(G.order)
        return G

    monkeypatch.setattr(mg.MatrixGroup, "generate", classmethod(spy))
    tf_rank_oracle(3, 4, 3, 3, 3)
    assert orders == [60480]


def test_classify_oracle_consistency_spot():
    for args in [(2, 5, 2, 1, 1), (2, 9, 2, 1, 2), (2, 3, 2, 2, 2),
                 (3, 4, 3, 1, 3)]:
        tc = classify(*args)
        orc = tf_rank_oracle(*args)
        assert tc.tf_rank == orc.tf_rank, args


def test_json_shape():
    payload = classify(2, 5, 2).to_json()
    assert payload["rank"] == 0 and payload["torsion"] == [2, 4]
    assert payload["kind"] == "abelian" and payload["case_tag"]
    ext = classify(2, 7, 3, 6, 6).to_json()
    assert ext["kind"] == "extension" and ext["resolved"] is None


# non-perfect bases where x_factor (the determinant formula) is not X(G/Z):
# (n, q, p, det, z) -> (X(G/Z), the answer)
X_FACTOR_OUT_OF_DOMAIN = {(2, 2, 3, 1, 1): ([2], "Z/4"),  # SL(2,2) = S3
                          (2, 3, 2, 1, 2): ([3], "Z + Z/3")}  # PSL(2,3) = A4


@pytest.mark.parametrize("case", list(X_FACTOR_OUT_OF_DOMAIN))
def test_x_factor_is_the_determinant_formula_out_of_domain(case):
    n, q, p, det, z = case
    x_orders, answer = X_FACTOR_OUT_OF_DOMAIN[case]
    G = liea.enumerate_quotient(n, q, det, z).as_subgroup()
    ab = mg.quotient_structure(G, mg.commutator_subgroup(G))
    assert abst.prime_to_p_part(ab, p) == from_cyclic_orders(x_orders)
    tc = classify(*case)
    assert tc.x_factor == x_group(tc.params)
    assert tc.x_factor.is_trivial
    assert str(tc.result) == answer


def test_x_factor_matches_brute_force_on_enumerable_corpus():
    """x_factor is the p'-part of the enumerated G/Z's abelianization on every
    enumerable corpus entry but the out-of-domain ones, which are named."""
    out_of_domain = []
    for e in load_corpus():
        if e.cap_class != "enumerable":
            continue
        case = (e.n, e.q, e.p, e.det, e.z)
        G = liea.enumerate_quotient(e.n, e.q, e.det, e.z).as_subgroup()
        x = abst.prime_to_p_part(mg.quotient_structure(G, mg.commutator_subgroup(G)), e.p)
        if case in X_FACTOR_OUT_OF_DOMAIN:
            out_of_domain.append(e.name)
            assert x == from_cyclic_orders(X_FACTOR_OUT_OF_DOMAIN[case][0])
            assert classify(*case).x_factor.is_trivial
        else:
            assert x == classify(*case).x_factor, e.name
    assert out_of_domain == ["PSL(2,3) p=2"]


CYCLIC_AMBIENT_CASES = [(2, 5, 3, 1), (2, 7, 3, 1), (2, 4, 3, 1), (3, 2, 3, 1),
                        (3, 2, 7, 1), (2, 9, 5, 1), (1, 7, 3, 6), (2, 13, 3, 4),
                        (2, 4, 5, 3)]


@pytest.mark.parametrize("n,q,p,det", CYCLIC_AMBIENT_CASES)
def test_cyclic_closed_forms_factor_through_normalizer(n, q, p, det):
    # independent route: |T| must equal |X(N(S))| * |T(S)| with the
    # normalizer obtained by a full ambient scan
    from endotriv import matgrp as mg
    G = liea.enumerate_group(n, q, det)
    S = mg.sylow_subgroup_of(G, p)
    N = mg.normalizer(G, S)
    ab = mg.quotient_structure(N, mg.commutator_subgroup(N))
    x = abst.prime_to_p_part(ab, p)
    ts = 2 if S.order >= 3 else 1
    tc = classify(n, q, p, det, 1)
    assert tc.case_tag.startswith("cyclic.")
    assert math.prod(tc.result.invariant_factors) == math.prod(x.invariant_factors) * ts


def test_normalizer_cap_refused_before_closure(monkeypatch):
    # N_GL(S) has order 6 (4^6 - 1) = 24570 > 20000, though N_G(S) has 8190
    names = []
    generate = mg.MatrixGroup.generate.__func__

    def spy(cls, field, gens, cap=None, z_order=1, name="G"):
        names.append(name)
        return generate(cls, field, gens, cap=cap, z_order=z_order, name=name)

    monkeypatch.setattr(mg.MatrixGroup, "generate", classmethod(spy))
    with pytest.raises(CapExceeded, match=r"^closure of N_GL\(S\) exceeds cap 20000$") as exc:
        classify(6, 4, 13, 1, 3, cap=20000)
    assert exc.value.needed == 24570
    assert "N_GL(S)" not in names


# (n, q, p, z): e = 2, f = 0; e = 2, f = 1; e = 3, f = 0; e = 1 (PGL(2,7)-like)
CYCLIC_EXT_ORACLE = [(2, 5, 3, 2), (2, 9, 5, 2), (2, 11, 3, 2), (2, 13, 7, 2),
                     (3, 4, 5, 3), (3, 4, 7, 3), (2, 7, 3, 6)]
CYCLIC_EXT_CASES = [(n, q, p, d, z) for n, q, p, z in CYCLIC_EXT_ORACLE
                    for d in range(1, q) if (q - 1) % d == 0
                    and liea.scalar_center_order(n, q, d) % z == 0]


def _ext_ab(n, q, p, d, z, cap=None):
    par = liea.compute_params(n, q, p, d, z)
    return classify_mod._cyclic_ext_ab(n, q, par.e, par.f, d, z, cap)


@pytest.mark.parametrize("n,q,p,d,z", CYCLIC_EXT_CASES,
                         ids=["-".join(map(str, c)) for c in CYCLIC_EXT_CASES])
def test_cyclic_ext_ab_matches_ambient_normalizer(n, q, p, d, z):
    # independent route: enumerate G/Z, take a Sylow p-subgroup and its
    # normalizer by a full scan; the whole abelianization must agree
    assert classify(n, q, p, d, z).case_tag == "cyclic.ext"
    G = liea.enumerate_quotient(n, q, d, z)
    S = mg.sylow_subgroup_of(G, p)
    N = mg.normalizer(G, S)
    assert _ext_ab(n, q, p, d, z) == mg.quotient_structure(N, mg.commutator_subgroup(N))


def test_cyclic_ext_ab_keys_on_the_enumeration_cap():
    # None and DEFAULT_CAP are one cap, so the second call is a hit
    classify_mod._cyclic_ext_ab.cache_clear()
    try:
        first = classify(2, 7, 3, 2, 2)
        assert classify(2, 7, 3, 2, 2, cap=mg.DEFAULT_CAP).result == first.result
        info = classify_mod._cyclic_ext_ab.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
    finally:
        classify_mod._cyclic_ext_ab.cache_clear()


def test_cyclic_ext_ab_is_one_closure(monkeypatch):
    calls = {"generate": [], "find_generators": 0}
    generate = mg.MatrixGroup.generate.__func__

    def spy_generate(cls, field, gens, cap=None, z_order=1, name="G"):
        calls["generate"].append((field, [mg.matrix(g) for g in gens]))
        return generate(cls, field, gens, cap=cap, z_order=z_order, name=name)

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(mg.MatrixGroup, "generate", classmethod(spy_generate))
    monkeypatch.setattr(mg, "find_generators", counting("find_generators", mg.find_generators))
    for n, q, p, d, z in CYCLIC_EXT_CASES + [(5, 3, 13, 2, 2)]:  # the last: f = 2
        calls["generate"].clear()
        classify_mod._cyclic_ext_ab.cache_clear()
        _ext_ab(n, q, p, d, z)
        assert len(calls["generate"]) == 1, (n, q, p, d, z)
        assert calls["find_generators"] == 0
        F, gens = calls["generate"][0]
        dets = backend.det_many(np.stack(gens), F)
        assert np.isin(dets, F.subgroup_values(d)).all(), (n, q, p, d, z)


def test_sl42_at_p3_classify_and_route_b_disagree():
    # A known disagreement, kept visible until the paper's text or a proof
    # settles it.  classify answers T(SL(4,2)) = Z at p = 3 by the generic
    # clause.  Route B reads K(G) as the p'-part of N_G(S) / rho^inf(S), and
    # here it is Z/2.  S = C3 x C3 is not cyclic, quaternion or
    # semidihedral, so T(S) is torsion-free and, were both theorems to apply,
    # the torsion of T would be K = Z/2.
    tc = classify(4, 2, 3)
    assert (tc.case_tag, tc.result) == ("generic", abst.AbelianStructure(1, ()))
    G = liea.enumerate_group(4, 2)
    S = mg.sylow_subgroup_of(G, 3)
    chain = rho.rho_chain(G, S, S, max_i=10)
    assert (chain.normalizer.order, chain.orders()) == (72, [18, 36, 36])
    assert mg.quotient_structure(chain.normalizer, chain.chain[-1]) == cyclic(2)
