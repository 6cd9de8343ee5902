import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from endotriv import corpus as corpus_mod
from endotriv import cli, gf, liea, rho
from endotriv import matgrp as mg
from endotriv.cli import main
from endotriv.corpus import CorpusEntry, load_corpus, run_corpus
from endotriv.errors import DomainError


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
    monkeypatch.setattr(liea, "enumerate_spec", None)  # refused before enumerating
    code, out, err = run_cli(capsys, "rho", "SL(2,5)", "2", "--max-i", max_i, "--json")
    assert code == 64 and out == ""
    assert f"--max-i: must be a positive integer, got '{max_i}'" in err


@pytest.mark.parametrize("p", ["4", "1", "0"])
def test_rho_refuses_a_non_prime_p(p, capsys, monkeypatch):
    monkeypatch.setattr(liea, "enumerate_spec", None)  # refused before enumerating
    code, out, _ = run_cli(capsys, "rho", "SL(2,5)", p, "--json")
    assert code == 1
    assert json.loads(out) == {"error": "domain", "message": f"{p} is not prime"}


def test_rho_center_subcommand(capsys):
    code, out, _ = run_cli(capsys, "rho", "SL(2,3)", "2", "--Q", "center", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["base_order"] == 2  # Z(Q8) = {I, -I}
    assert payload["chain_orders"]


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
