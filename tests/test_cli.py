import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from endotriv import classify as classify_mod
from endotriv import corpus as corpus_mod
from endotriv import cli, gf, liea, rho
from endotriv import matgrp as mg
from endotriv.cli import main
from endotriv.corpus import CorpusEntry, load_corpus, run_corpus
from endotriv.errors import AmbiguousCase, DomainError


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_json_golden(capsys):
    code, out, _ = run_cli(capsys, "classify", "2", "5", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 0 and payload["torsion"] == [2, 4]


def test_classify_verify(capsys):
    code, out, _ = run_cli(capsys, "classify", "3", "4", "3",
                           "--det", "1", "--z", "3", "--verify", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["oracle_status"] == "PASS"
    assert payload["oracle"]["n_G"] == 1


def test_classify_text_of_an_extension(capsys):
    # one candidate is the answer; two or more are listed as unresolved
    code, out, _ = run_cli(capsys, "classify", "5", "3", "11", "--det", "2", "--z", "2")
    assert code == 0
    assert out.splitlines()[0] == "[cyclic.ext] T = extension 1 -> Z/5 -> T -> Z/2 -> 0 (Z/10)"
    assert "candidate middle terms" not in out
    code, out, _ = run_cli(capsys, "classify", "2", "7", "3", "--det", "2", "--z", "2")
    assert code == 0 and "(unresolved)" in out
    assert "  candidate middle terms: Z/2 + Z/4 or Z/2 + Z/2 + Z/2" in out.splitlines()


def test_json_round_trip_stability(capsys):
    for args in (("classify", "2", "5", "2"), ("classify", "2", "7", "3",
                                               "--det", "6", "--z", "6"),
                 ("params", "2", "5", "3"), ("oracle", "PSL(2,5)", "2")):
        code, out, _ = run_cli(capsys, *args, "--json")
        assert code == 0
        payload = json.loads(out)
        assert json.loads(json.dumps(payload, sort_keys=True)) == payload


def test_exit_code_domain_error(capsys):
    for q in ("6", "0"):  # q = 0 is refused as q = 6 is, not by factorization
        code, out, _ = run_cli(capsys, "classify", "2", q, "2")
        assert code == 1
        assert json.loads(out) == {"error": "domain", "message": f"{q} is not a prime power"}


def test_large_field_refused_before_tables(monkeypatch, capsys):
    """q > 256 is refused before any GF(q) table is built; a group over the
    cap is refused first."""
    seen = []
    real = gf.field_spec

    def spy(q):
        seen.append(q)
        return real(q)

    for mod in (gf, liea, rho):
        monkeypatch.setattr(mod, "field_spec", spy)
    for q, args in ((4096, ("sylow", "2", "4096", "3")),
                    (4093, ("classify", "2", "4093", "3", "--z", "2")),
                    (263, ("classify", "2", "263", "131", "--z", "2")),
                    (257, ("classify", "3", "257", "3", "--det", "256", "--z", "2",
                           "--cap", "100000000"))):
        code, out, _ = run_cli(capsys, *args, "--json")
        assert code == 1
        assert json.loads(out) == {"error": "domain",
                                   "message": f"enumeration supports q <= 256, got q={q}"}
        assert q not in seen
    with pytest.raises(DomainError, match="q <= 256"):
        liea.enumerate_group(1, 4096)
    code, out, _ = run_cli(capsys, "certify", "rp-case", "3", "2017", "3", "--json")
    assert code == 0
    [entry] = json.loads(out)["verdicts"]
    assert entry["verdict"] == "SKIPPED"
    assert entry["reason"] == "closure of N(Q)/Z3 exceeds cap 2000000"
    assert not {4096, 2017} & set(seen)


def test_exit_code_cap(capsys):
    code, out, _ = run_cli(capsys, "classify", "2", "7", "3",
                           "--det", "6", "--z", "6", "--cap", "10")
    assert code == 2
    assert json.loads(out)["error"] == "cap-exceeded"


@pytest.mark.parametrize("cap", ["-5", "--cap=-5", "abc", "1.5", ""])
def test_cap_must_be_a_non_negative_integer(capsys, cap):
    args = [cap] if cap.startswith("--") else ["--cap", cap]
    code, out, err = run_cli(capsys, "classify", "2", "7", "3", "--det", "6", "--z", "6", *args)
    assert code == 64 and out == ""
    assert "--cap: must be a non-negative integer" in err


def test_exit_code_ambiguous(capsys):
    code, out, _ = run_cli(capsys, "classify", "2", "5", "2",
                           "--det", "4", "--z", "2")
    assert code == 3
    payload = json.loads(out)
    assert payload["error"] == "ambiguous"
    assert payload["detail"] == {"r": 1, "s": 2, "t": 2, "q": 5}


def test_exit_code_usage(capsys):
    code, _, err = run_cli(capsys, "oracle", "SL(2,X)", "2")
    assert code == 64 and "usage" in err
    code2, _, err2 = run_cli(capsys, "corpus", "run", "--filter", "nonsense")
    assert code2 == 64
    code3, _, _ = run_cli(capsys, "classify", "2")
    assert code3 == 64
    code4, out4, err4 = run_cli(capsys, "corpus", "run", "--filter", "bogus=1")
    assert code4 == 64 and "bogus" in err4 and out4 == ""


def test_shared_parser_keeps_no_state_between_calls(capsys):
    """One parser serves every `main` call of a process; `--filter`'s
    append default must not carry values from one call into the next."""
    assert cli._build_parser() is cli._build_parser()

    def listed(*filters):
        code, out, _ = run_cli(capsys, "corpus", "list", *filters, "--json")
        assert code == 0
        return json.loads(out)["entries"]

    assert listed("--filter", "name=PGL") == [
        "PGL(3,7) p=3", "PGL(3,4) p=3", "PGL(2,5) p=2", "PGL(2,3) p=2",
        "PGL(2,7) p=3"]
    assert listed("--filter", "name=GL(2") == [
        "PGL(2,5) p=2", "GL(2,3) p=2", "PGL(2,3) p=2", "GL(2,5) p=2",
        "GL(2,7) p=3", "PGL(2,7) p=3", "GL(2,4) p=3"]
    everything = listed()
    assert len(everything) == 34 and everything == [e.name for e in load_corpus()]
    assert run_cli(capsys, "corpus", "list", "--filter", "nonsense")[0] == 64
    assert listed("--filter", "provenance=DERIVED", "--filter", "section=cyclic") == [
        "GL(4,3) p=5", "SL(2,9) p=5", "SL(3,2) p=3", "SL(3,2) p=7",
        "SL(4,3) p=13", "GL(1,5) p=2", "PGL(2,7) p=3"]
    assert run_cli(capsys, "params", "2", "5", "3", "--json")[0] == 0


def test_rho_subcommand(capsys):
    code, out, _ = run_cli(capsys, "rho", "SL(2,5)", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["chain_orders"] == [8, 24, 24]
    assert payload["reached_normalizer"] is True


@pytest.mark.parametrize("max_i", ["0", "-3"])
def test_rho_max_i_must_be_a_positive_integer(max_i, capsys, monkeypatch):
    monkeypatch.setattr(liea, "enumerate_quotient", None)  # refused before enumerating
    code, out, err = run_cli(capsys, "rho", "SL(2,5)", "2", "--max-i", max_i, "--json")
    assert code == 64 and out == ""
    assert f"--max-i: must be a positive integer, got '{max_i}'" in err


@pytest.mark.parametrize("p", ["4", "1", "0"])
def test_rho_refuses_a_non_prime_p(p, capsys, monkeypatch):
    monkeypatch.setattr(liea, "enumerate_quotient", None)  # refused before enumerating
    code, out, _ = run_cli(capsys, "rho", "SL(2,5)", p, "--json")
    assert code == 1
    assert json.loads(out) == {"error": "domain", "message": f"{p} is not prime"}


@pytest.mark.parametrize("args,code,message", [
    (("PGL(2,5)", "2", "--cap", "10"), 2, "closure of PGL(2,5) exceeds cap 10"),
    (("PSL(3,4)", "3", "--cap", "10"), 2, "closure of PSL(3,4) exceeds cap 10"),
    (("PGL(2,5)", "7"), 1, "p = 7 does not divide |PGL(2,5)| = 120")])
def test_oracle_and_rho_name_the_quotient_alike(args, code, message, capsys):
    # one rule names G/Z, so a refusal reads the same from both commands
    for command in ("oracle", "rho"):
        got, out, _ = run_cli(capsys, command, *args, "--json")
        assert (got, json.loads(out)["message"]) == (code, message)


# the `group` field of rho --json and oracle --json: SL(3,2) = GL(3,2), and
# PSL(3,2) has a trivial center, so both are named GL(3,2)
GROUP_FIELDS = [("GL(2,3)", "2", "GL(2,3)"), ("SL(3,2)", "7", "GL(3,2)"),
                ("PGL(2,5)", "3", "PGL(2,5)"), ("PSL(2,9)", "3", "PSL(2,9)"),
                ("PSL(3,2)", "3", "GL(3,2)"), ("SL(2,7):2", "2", "SL(2,7):2")]


@pytest.mark.parametrize("group,p,name", GROUP_FIELDS)
def test_group_field_names_the_quotient(group, p, name, capsys):
    for argv in (["oracle"], ["rho"], ["rho", "--Q", "center"]):
        code, out, _ = run_cli(capsys, *argv, group, p, "--json")
        assert code == 0
        assert json.loads(out)["group"] == name


def test_rho_center_subcommand(capsys):
    code, out, _ = run_cli(capsys, "rho", "SL(2,3)", "2", "--Q", "center", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["base_order"] == 2  # Z(Q8) = {I, -I}
    assert payload["chain_orders"]


# `rho GROUP p --Q center --json` as printed when Q was the intersection of S
# with its full-scan centralizer in G, before matgrp.center replaced both
RHO_CENTER_PINNED = [
    ("SL(2,5)", "5", '{"base_order": 5, "chain_orders": [5, 5], "group": "SL(2,5)", '
     '"normalizer_order": 20, "p": 5, "reached_normalizer": false, "stabilized_at": 1, '
     '"sylow_order": 5}'),
    ("SL(2,7)", "2", '{"base_order": 2, "chain_orders": [336, 336, 336], "group": "SL(2,7)", '
     '"normalizer_order": 336, "p": 2, "reached_normalizer": true, "stabilized_at": 1, '
     '"sylow_order": 16}'),
    ("SL(3,3)", "3", '{"base_order": 3, "chain_orders": [27, 108, 108, 108], '
     '"group": "SL(3,3)", "normalizer_order": 108, "p": 3, "reached_normalizer": true, '
     '"stabilized_at": 2, "sylow_order": 27}'),
    ("PSL(3,4)", "3", '{"base_order": 9, "chain_orders": [18, 18, 18], "group": "PSL(3,4)", '
     '"normalizer_order": 72, "p": 3, "reached_normalizer": false, "stabilized_at": 1, '
     '"sylow_order": 9}'),
    ("GL(2,3)", "2", '{"base_order": 2, "chain_orders": [24, 24, 24], "group": "GL(2,3)", '
     '"normalizer_order": 48, "p": 2, "reached_normalizer": false, "stabilized_at": 1, '
     '"sylow_order": 16}'),
]


@pytest.mark.parametrize("group, p, expected", RHO_CENTER_PINNED)
def test_rho_center_output_is_pinned(group, p, expected, capsys):
    code, out, _ = run_cli(capsys, "rho", group, p, "--Q", "center", "--json")
    assert code == 0 and out == expected + "\n"


# outputs whose fields the records derive (the chain's stabilized_at and
# reached_normalizer, the Sylow group's claimed order and generators), as
# printed when the records stored them.  `--max-i 1` leaves one level, so
# nothing has stabilized.
DERIVED_PINNED = [
    (("sylow", "2", "5", "2", "--det", "4"),
     '{"abelian": false, "claimed_order": 32, "generators": [[[2, 0], [0, 1]], '
     '[[0, 1], [1, 0]]], "order": 32, "shape": "C_4 wr C_2^(wr 1)"}'),
    (("sylow", "3", "7", "2"),
     '{"abelian": false, "claimed_order": 32, "generators": [[[2, 5, 0], [2, 2, 0], [0, 0, 1]], '
     '[[5, 3, 0], [3, 2, 0], [0, 0, 1]], [[2, 4, 0], [4, 5, 0], [0, 0, 1]], '
     '[[5, 3, 0], [4, 5, 0], [0, 0, 6]], [[2, 3, 0], [4, 2, 0], [0, 0, 6]]], "order": 32, '
     '"shape": "SD_32 x C_2 ^ det"}'),
    (("sylow", "3", "4", "3", "--det", "3"),
     '{"abelian": false, "claimed_order": 81, "generators": [[[2, 0, 0], [0, 1, 0], '
     '[0, 0, 1]], [[0, 0, 1], [1, 0, 0], [0, 1, 0]]], "order": 81, '
     '"shape": "C_3 wr C_3^(wr 1)"}'),
    (("sylow", "1", "7", "3", "--det", "6"),
     '{"abelian": true, "claimed_order": 3, "generators": [[[2]]], "order": 3, "shape": "C_3"}'),
    (("rho", "SL(2,7)", "3"),
     '{"base_order": 3, "chain_orders": [3, 3], "group": "SL(2,7)", "normalizer_order": 12, '
     '"p": 3, "reached_normalizer": false, "stabilized_at": 1, "sylow_order": 3}'),
    (("rho", "SL(2,5)", "2", "--max-i", "1"),
     '{"base_order": 8, "chain_orders": [8], "group": "SL(2,5)", "normalizer_order": 24, '
     '"p": 2, "reached_normalizer": false, "stabilized_at": null, "sylow_order": 8}'),
]


@pytest.mark.parametrize("args, expected", DERIVED_PINNED)
def test_derived_fields_are_pinned(args, expected, capsys):
    assert run_cli(capsys, *args, "--json") == (0, expected + "\n", "")


def test_trivial_sylow_is_reported_and_refused(capsys):
    # n = e = 1 and p prime to |Det G|: |S| = 1 though n >= e
    code, out, _ = run_cli(capsys, "params", "1", "7", "3", "--det", "2", "--json")
    payload = json.loads(out)
    assert code == 0 and (payload["sylow_trivial"], payload["sylow_cyclic"]) == (True, False)
    for command in ("sylow", "classify"):
        code, out, _ = run_cli(capsys, command, "1", "7", "3", "--det", "2", "--json")
        assert (code, json.loads(out)) == (1, {"error": "domain",
                                               "message": "p = 3 does not divide |SL(1,7):2| = 2"})


@pytest.mark.parametrize("group, message", [("PGL(0,5)", "dimension n=0 must be positive"),
                                            ("SL(2,6)", "6 is not a prime power"),
                                            ("SL(2,5):3", "det order 3 must divide q-1=4")])
def test_group_spec_rules_have_the_tuple_messages(group, message, capsys):
    for command in ("oracle", "rho"):
        code, out, err = run_cli(capsys, command, group, "2", "--json")
        assert (code, out, err) == (64, "", f"usage error: {message}\n")


def test_cap_help_gives_the_default(capsys):
    with pytest.raises(SystemExit):
        main(["classify", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"enumeration cap (default {mg.DEFAULT_CAP})" in help_text


@pytest.mark.parametrize("cap", [(), ("--cap", "1000")])
def test_oracle_refuses_p_not_dividing_the_order_before_enumerating(cap, capsys, monkeypatch):
    # |PGL(3,4)| = 60480 is prime to 11: refused by the order formula, so a
    # cap below the closure's 181440 rows is never reached
    monkeypatch.setattr(liea, "enumerate_quotient", None)
    code, out, _ = run_cli(capsys, "oracle", "PGL(3,4)", "11", *cap, "--json")
    assert code == 1
    assert json.loads(out) == {"error": "domain",
                               "message": "p = 11 does not divide |PGL(3,4)| = 60480"}


def _disagreeing_oracle(*args, **kw):
    return classify_mod.RankOracle(p_rank=0, n_g=0, tf_rank=99)


def test_classify_verify_fails_when_the_oracle_disagrees(capsys, monkeypatch):
    monkeypatch.setattr(classify_mod, "tf_rank_oracle", _disagreeing_oracle)
    code, out, _ = run_cli(capsys, "classify", "3", "4", "3", "--z", "3", "--verify", "--json")
    payload = json.loads(out)
    assert code == 1
    assert (payload["oracle_status"], payload["oracle"]["tf_rank"], payload["tf_rank"]) == (
        "FAIL", 99, 1)


def test_corpus_oracle_disagreement_fails_the_row(capsys, monkeypatch):
    monkeypatch.setattr(classify_mod, "tf_rank_oracle", _disagreeing_oracle)
    code, out, _ = run_cli(capsys, "corpus", "run", "--oracle", "--filter", "name=SL(2,5) p=2",
                           "--json")
    report = json.loads(out)
    assert code == 1 and report["counts"] == {"PASS": 0, "FAIL": 2, "SKIP": 0}
    assert [(r["status"], r["oracle_status"]) for r in report["entries"]] == [("FAIL", "FAIL")] * 2


def test_corpus_row_that_raises_fails_with_its_error(monkeypatch):
    def refuse(*args, **kw):
        raise AmbiguousCase("no clause applies", {})

    monkeypatch.setattr(corpus_mod, "classify", refuse)
    monkeypatch.setattr(corpus_mod, "oracle_check", None)  # a failed row runs no oracle
    report = run_corpus({"name": "SL(2,5) p=2"}, oracle=True)
    assert report["counts"] == {"PASS": 0, "FAIL": 2, "SKIP": 0}
    assert [(r["status"], r["error"]) for r in report["entries"]] == [
        ("FAIL", "AmbiguousCase: no clause applies")] * 2


def test_certify_subcommand(capsys):
    code, out, _ = run_cli(capsys, "certify", "sl62", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdicts"][0]["verdict"] == "SKIPPED"


README_CLASSIFY = """\
[n3-char3.c] T = Z + Z/2 + Z/2
  note: 3 | (q-1)/det = 3; q = 4 mod 9
  oracle: PASS {'p_rank': 2, 'n_G': 1, 'tf_rank': 1}
"""


def test_text_output(capsys):
    # the README's example, printed without --json
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert README_CLASSIFY in readme
    assert run_cli(capsys, "classify", "3", "4", "3", "--det", "1", "--z", "3",
                   "--verify") == (0, README_CLASSIFY, "")


def test_certify_replays_the_given_instance(monkeypatch, capsys, composite_iii_replay):
    # composite-iii splits n/e = a p^s + b: 9 = 1*3^2 has b = 0, so SL(9,4) has no
    # certificate, and 5 = 1*3 + 2 needs blocks (2, 3), a group beyond the cap
    assert run_cli(capsys, "certify", "composite-iii", "4", "4", "3") == (
        0, "composite-iii (4,4,3): PASS\n", "")
    assert run_cli(capsys, "certify", "composite-iii", "9", "4", "3") == (
        1, "composite-iii (9,4,3): INVALID [needs n/e = a p^s + b with 1 <= b < p^s, "
           "got n/e = 9 = 1*9]\n", "")
    code, out, err = run_cli(capsys, "certify", "composite-iii", "4", "4", "--json")
    assert (code, out) == (64, "") and "n, q and p together" in err
    monkeypatch.setattr(mg.MatrixGroup, "generate", None)  # refused before any closure
    assert run_cli(capsys, "certify", "composite-iii", "5", "4", "3") == (
        0, "composite-iii (5,4,3): SKIPPED [closure of two-block group exceeds "
           "cap 2000000]\n", "")


def test_certify_refusal_families_within_the_cap_are_invalid(capsys):
    # SKIPPED means only that the cap refused the group a family would need
    for args, group_order in [(("sl62", "2", "3", "2"), 24), (("composite-i", "2", "3", "2"), 2),
                              (("sl62", "6", "2", "3", "--cap", "30000000000"), 20158709760)]:
        n, q, p = args[1:4]
        assert run_cli(capsys, "certify", *args) == (
            1, f"{args[0]} ({n},{q},{p}): INVALID [the cap admits order {group_order}, "
               "but no builder covers this instance]\n", "")


def test_certify_refuses_a_bad_p_or_q_before_building(capsys):
    # p = 1 divides every n for ever, p = 0 divides by zero, q = 1 asks for
    # p_val(0, p), q = 6 has no field, q <= 0 has no prime factors, and
    # n = -2 names no matrix group
    for args, reason in [(("rp-case", "3", "19", "1"), "1 is not prime"),
                         (("rp-case", "3", "19", "0"), "0 is not prime"),
                         (("sl62", "6", "2", "1"), "1 is not prime"),
                         (("composite-i", "6", "4", "0"), "0 is not prime"),
                         (("rp-case", "3", "1", "3"), "1 is not a prime power"),
                         (("composite-iii", "4", "0", "3"), "0 is not a prime power"),
                         (("rp-case", "3", "-4", "3"), "-4 is not a prime power"),
                         (("sl62", "6", "1", "3"), "1 is not a prime power"),
                         (("composite-i", "6", "1", "3"), "1 is not a prime power"),
                         (("composite-i", "6", "6", "3"), "6 is not a prime power"),
                         (("sl62", "6", "6", "3"), "6 is not a prime power"),
                         (("composite-i", "-2", "4", "3"), "dimension n=-2 must be positive")]:
        n, q, p = args[1:]
        assert run_cli(capsys, "certify", *args) == (
            1, f"{args[0]} ({n},{q},{p}): INVALID [{reason}]\n", ""), args


def test_sylow_subcommand(capsys):
    code, out, _ = run_cli(capsys, "sylow", "2", "5", "2", "--det", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 32 and "wr" in payload["shape"]


def test_corpus_run_and_filters(capsys):
    code, out, _ = run_cli(capsys, "corpus", "run", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["counts"]["FAIL"] == 0 and report["total"] >= 20
    code2, out2, _ = run_cli(capsys, "corpus", "run",
                             "--filter", "section=n3-char3", "--json")
    report2 = json.loads(out2)
    assert 0 < report2["total"] < report["total"]
    assert all("n3-char3" in r["clause"] for r in report2["entries"])


def test_corpus_oracle_under_a_small_cap_skips_what_the_cap_refuses(capsys):
    # the whole report comes back: the oracle refused on an entry is a SKIP
    # naming the refusal, as in classify --verify, and the entry still PASSes
    code, out, _ = run_cli(capsys, "corpus", "run", "--oracle", "--cap", "1000", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["counts"] == {"PASS": 34, "FAIL": 0, "SKIP": 0}
    oracle = {r["name"]: (r["oracle_status"], r["oracle"]) for r in report["entries"]
              if r.get("oracle_status", "SKIP") != "SKIP"}
    assert oracle["PSL(3,4) p=3"] == ("SKIP (closure of PSL(3,4) exceeds cap 1000)", None)
    assert oracle["SL(2,5) p=2"][0] == "PASS"
    statuses = {s.split(" ")[0] for s, _ in oracle.values()}
    assert statuses == {"PASS", "SKIP"}
    code, out, _ = run_cli(capsys, "classify", "3", "4", "3", "--z", "3", "--verify",
                           "--cap", "1000", "--json")
    payload = json.loads(out)
    assert code == 0
    assert (payload["oracle_status"], payload["oracle"]) == oracle["PSL(3,4) p=3"]


def test_corpus_corrupted_entry_fails(monkeypatch):
    entries = load_corpus()
    bad = CorpusEntry("corrupted", 2, 5, 2, 1, 1,
                      {"rank": 0, "torsion": [2, 2]}, "DERIVED",
                      "n2-char2.B.1.a", "enumerable")
    monkeypatch.setattr(corpus_mod, "_parsed_corpus", lambda: (*entries[:2], bad))
    report = corpus_mod.run_corpus()
    assert report["counts"]["FAIL"] == 1
    row = next(r for r in report["entries"] if r["name"] == "corrupted")
    assert row["status"] == "FAIL"
    assert row["expected"]["torsion"] == [2, 2]
    assert row["got"]["torsion"] == [2, 4]
    row["expected"]["torsion"].append(8)
    assert bad.expected["torsion"] == [2, 2]


def test_load_corpus_returns_a_fresh_list():
    first = load_corpus()
    first.pop()
    assert len(load_corpus()) == 34 and load_corpus() is not load_corpus()


def test_corpus_entries_do_not_share_expected():
    # a caller that edits an entry it was given changes no later load or run
    first = load_corpus()[0]
    rank = first.expected["rank"]
    first.expected["rank"] = rank + 9
    first.expected["torsion"].append(8)
    again = load_corpus()[0]
    assert again.expected["rank"] == rank and 8 not in again.expected["torsion"]
    only = {"name": first.name, "clause": first.clause}
    assert [e.expected for e in load_corpus(only)] == [again.expected]
    report = run_corpus(only)
    assert report["total"] == 1 and report["counts"]["FAIL"] == 0


def test_corpus_has_paper_citations():
    for e in load_corpus():
        if e.provenance == "PAPER":
            assert e.clause  # every pinned value names its clause
        assert e.cap_class in ("enumerable", "formula-only")


def test_offline_module_route():
    """`PYTHONPATH=src python -m endotriv.cli`, the route that needs no install."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run([sys.executable, "-m", "endotriv.cli", "params", "2", "5", "3", "--json"],
                         cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    payload = json.loads(out.stdout)
    assert (payload["n"], payload["q"], payload["p"], payload["e"], payload["t"]) == (2, 5, 3, 2, 1)
