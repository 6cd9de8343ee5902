"""The three closed-loop workloads: one client, and the next item is sent only
after the previous one has completed.

Each workload turns the seed into a list of items, runs one item through
the program (`run`), and checks the answer (`check`) after the pass, so
that the check is neither timed nor traced.  Every call into the program
goes through a module attribute looked up at call time, so the traced pass
sees it.

- oracle: every entry of the pinned corpus through the CLI's
  ``corpus run --oracle``; builds element tables (write-heavy).
- fuzz: the totality-fuzz tuple stream through `classify` with the fuzz
  cap; formula answers, normalizer abelianizations and cap refusals.
- certify: the chain engine against its naive twin, and the rp-case proof
  certificate replay; subgroup algebra on existing tables (read-heavy).

The seed shuffles a fixed set of items.  Independent fuzz draws would put
a tuple costing seconds into some seeds and not others, and the spread
between seeds would then exceed any bound the benchmark could set.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from endotriv import classify as classify_mod
from endotriv import cli, gf, liea, rho
from endotriv import matgrp as mg
from endotriv.errors import AmbiguousCase, CapExceeded, DomainError


@dataclass(frozen=True)
class Item:
    id: int      # position in the unshuffled list; spans and digests use it
    key: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    fields: tuple[int, ...]                 # q of every field table it uses
    cap: int | None                         # cap passed to the program
    pool: Callable[[Path], list[tuple]]     # the fixed item keys
    run: Callable[[tuple], object]
    check: Callable[[tuple, object], bool]

    def items(self, seed: int, src: Path) -> list[Item]:
        items = [Item(i, k) for i, k in enumerate(self.pool(src))]
        random.Random(seed).shuffle(items)
        return items


# ---------------------------------------------------------------------------
# oracle: the pinned corpus through the CLI

def _corpus_entries(src: Path) -> list[tuple]:
    """(name, n, q, p, det, z, expected, clause, cap_class) per corpus line,
    read with the benchmark's own parser so the check does not rely on the
    program's."""
    out = []
    for line in (src / "endotriv" / "data" / "corpus.tsv").read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, tup, expected, _prov, clause, cap_class = (f.strip() for f in line.split("|"))
        n, q, p, det, z = (int(x) for x in tup.split())
        out.append((name, n, q, p, det, z, expected, clause, cap_class))
    return out


ORACLE_COPIES = 3


def _oracle_pool(src: Path) -> list[tuple]:
    """Every corpus entry; all but the two GL(3,4) quotients (PGL(3,4) and
    PSL(3,4), ~24 s together) ORACLE_COPIES times, so that the tail
    percentile falls among repeated sub-second entries rather than on one
    single 50 ms sample."""
    return [e for e in _corpus_entries(src)
            for _ in range(1 if e[1:3] == (3, 4) else ORACLE_COPIES)]


def _run_oracle(key):
    name, *_, clause, _cap_class = key
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["corpus", "run", "--oracle", "--json",
                         "--filter", f"name={name}", "--filter", f"clause={clause}"])
    report = json.loads(buf.getvalue())
    return {"code": code, "rows": report["entries"]}


def _structure(d: dict) -> tuple:
    return (d["rank"], tuple(d["torsion"]))


def _matches(expected: dict, got: dict) -> bool:
    if expected.get("kind") == "extension":
        return (got.get("kind") == "extension"
                and _structure(expected["sub"]) == _structure(got["sub"])
                and _structure(expected["quot"]) == _structure(got["quot"]))
    return got.get("kind") == "abelian" and _structure(expected) == _structure(got)


def _check_oracle(key, answer) -> bool:
    name, n, q, p, det, z, expected, _clause, cap_class = key
    rows = answer["rows"]
    if answer["code"] != 0 or len(rows) != 1 or rows[0]["name"] != name:
        return False
    row = rows[0]
    got = classify_mod.classify(n, q, p, det, z).to_json()
    if row["status"] != "PASS" or not _matches(json.loads(expected), got):
        return False
    if cap_class != "enumerable":
        return row.get("oracle_status") == "SKIP"
    return (row.get("oracle_status") == "PASS"
            and row["oracle"]["tf_rank"] == got["tf_rank"])


# ---------------------------------------------------------------------------
# fuzz: the totality-fuzz tuple stream

FUZZ_SEED = 20260810   # the stream of the test suite's totality fuzz
FUZZ_TUPLES = 350
FUZZ_CAP = 20_000


def _fuzz_stream(src: Path) -> list[tuple]:
    """The first FUZZ_TUPLES tuples of the totality-fuzz generator (n 1-6,
    q <= 13, primes p <= 13 not dividing q), each twice: the long fuzz
    revisits tuples, and a second visit is a cache hit unless the first
    was a refusal, which the cache does not keep."""
    rng = random.Random(FUZZ_SEED)
    out = []
    while len(out) < FUZZ_TUPLES:
        n = rng.randint(1, 6)
        q = rng.choice([2, 3, 4, 5, 7, 8, 9, 11, 13])
        p = rng.choice([2, 3, 5, 7, 11, 13])
        if q % p == 0:
            continue
        divs = [d for d in range(1, q) if (q - 1) % d == 0] or [1]
        det = rng.choice(divs)
        zc = liea.scalar_center_order(n, q, det)
        z = rng.choice([x for x in range(1, zc + 1) if zc % x == 0])
        out.append((n, q, p, det, z))
    return out + out


FUZZ_OUTCOMES = (AmbiguousCase, CapExceeded, DomainError)


def _run_fuzz(key):
    try:
        tc = classify_mod.classify(*key, cap=FUZZ_CAP)
    except FUZZ_OUTCOMES as exc:
        return {"outcome": type(exc).__name__, "message": str(exc)}
    return {"outcome": "result", "case_tag": tc.case_tag, "result": tc.to_json()}


def _check_fuzz(key, answer) -> bool:
    if answer["outcome"] == "result":
        return bool(answer["case_tag"])
    return answer["outcome"] in {c.__name__ for c in FUZZ_OUTCOMES}


# ---------------------------------------------------------------------------
# certify: chain engine against its naive twin, then the certificate replays

CHAIN_CORPUS = [
    ("Q8", None, 2),
    ("SL(2,3)", (2, 3, 1), 2), ("SL(2,3)", (2, 3, 1), 3),
    ("GL(2,3)", (2, 3, 2), 2),
    ("SL(2,4)", (2, 4, 1), 3), ("SL(2,4)", (2, 4, 1), 5),
    ("SL(2,5)", (2, 5, 1), 2), ("SL(2,5)", (2, 5, 1), 3),
    ("SL(3,2)", (3, 2, 1), 3), ("SL(3,2)", (3, 2, 1), 7),
    ("SL(2,7)", (2, 7, 1), 2), ("SL(2,7)", (2, 7, 1), 3),
    ("SL(2,9)", (2, 9, 1), 2), ("SL(2,9)", (2, 9, 1), 5),
]
# composite-iii (a 181 440-element group, ~40 s) is left out: with it one
# certify run alone would take half the time the benchmark may spend.
CERTIFICATE_FAMILIES = ["rp-case"]
CHAIN_COPIES = 15


def _certify_pool(src: Path) -> list[tuple]:
    """The two SL(2,9) chains once, every other chain CHAIN_COPIES times.

    The tail percentile (ten items beyond it) then falls in the middle of
    the fifteen copies of the SL(2,7), p = 2 chain, which run at different
    moments of the pass: the median of fifteen samples of one hard chain,
    not one sample of whichever small chain happens to rank eleventh."""
    chains = [("chain",) + c for c in CHAIN_CORPUS
              for _ in range(1 if c[0] == "SL(2,9)" else CHAIN_COPIES)]
    return chains + [("certificate", f) for f in CERTIFICATE_FAMILIES]


def _chain_json(chain) -> dict:
    return {"orders": chain.orders(),
            "members": [sorted(c.members) for c in chain.chain],
            "reached": chain.reached_normalizer}


def _run_certify(key):
    if key[0] == "certificate":
        return {"verdicts": rho.replay_proof_certificates(key[1])}
    _, name, spec, p = key
    if name == "Q8":
        G = mg.MatrixGroup.generate(gf.field_spec(3), [[[0, 2], [1, 0]], [[1, 1], [1, 2]]],
                                    name="Q8")
    else:
        G = liea.enumerate_group(*spec)
    S = mg.sylow_subgroup_of(G, p)
    return {"fast": _chain_json(rho.rho_chain(G, S, S, max_i=3)),
            "naive": _chain_json(rho.rho_chain_naive(G, S, S, max_i=3))}


def _check_certify(key, answer) -> bool:
    if key[0] == "certificate":
        verdicts = answer["verdicts"]
        return bool(verdicts) and all(v["verdict"] == "PASS" for v in verdicts)
    return answer["fast"] == answer["naive"] and len(answer["fast"]["orders"]) > 0


# ---------------------------------------------------------------------------

WORKLOADS = {
    "oracle": Workload("oracle", (2, 3, 4, 5, 7, 9, 13), None,
                       _oracle_pool, _run_oracle, _check_oracle),
    "fuzz": Workload("fuzz", (2, 3, 4, 5, 7, 8, 9, 11, 13), FUZZ_CAP,
                     _fuzz_stream, _run_fuzz, _check_fuzz),
    "certify": Workload("certify", (2, 3, 4, 5, 7, 9, 19), None,
                        _certify_pool, _run_certify, _check_certify),
}
