"""The versioned regression corpus and its runner.

Each entry pins a parameter tuple to an expected classification together
with a provenance tag (PAPER for values printed in the governing clause,
DERIVED for instantiated arithmetic), the clause tag, and whether the
quotient group is small enough for the brute-force rank oracle.
"""

from __future__ import annotations

import copy
import functools
import json
import time
from dataclasses import dataclass, replace
from importlib import resources

from .classify import classify, oracle_check
from .errors import EndotrivError

@dataclass(frozen=True)
class CorpusEntry:
    name: str
    n: int
    q: int
    p: int
    det: int
    z: int
    expected: dict
    provenance: str
    clause: str
    cap_class: str


@functools.cache
def _parsed_corpus() -> tuple[CorpusEntry, ...]:
    text = resources.files("endotriv").joinpath("data/corpus.tsv").read_text()
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, tup, expected, prov, clause, cap_class = \
            (f.strip() for f in line.split("|"))
        n, q, p, det, z = (int(x) for x in tup.split())
        out.append(CorpusEntry(name, n, q, p, det, z, json.loads(expected),
                               prov, clause, cap_class))
    return tuple(out)


_FILTERS = {
    "name": lambda e, v: v.lower() in e.name.lower(),
    "clause": lambda e, v: e.clause == v,
    "section": lambda e, v: e.clause.startswith(v),
    "provenance": lambda e, v: e.provenance == v,
    "cap_class": lambda e, v: e.cap_class == v,
}
FILTER_KEYS = tuple(_FILTERS)


def load_corpus(filters: dict[str, str] | None = None) -> list[CorpusEntry]:
    """The pinned entries that pass every filter (each key one of
    FILTER_KEYS), in a fresh list.  `corpus.tsv` is parsed once per process;
    each entry returned is a copy with its own `expected`."""
    return [replace(e, expected=copy.deepcopy(e.expected))
            for e in _parsed_corpus()
            if all(_FILTERS[k](e, v) for k, v in (filters or {}).items())]


def _same_structure(expected: dict, got: dict) -> bool:
    return (expected["rank"] == got["rank"]
            and list(expected["torsion"]) == list(got["torsion"]))


def _expected_matches(expected: dict, got: dict) -> bool:
    if expected.get("kind") == "extension":
        if got.get("kind") != "extension":
            return False
        return (_same_structure(expected["sub"], got["sub"])
                and _same_structure(expected["quot"], got["quot"]))
    return got.get("kind") == "abelian" and _same_structure(expected, got)


def run_corpus(filters: dict[str, str] | None = None, oracle: bool = False,
               cap: int | None = None) -> dict:
    """Execute every matching entry; with oracle=True also diff the
    brute-force rank count on enumerable entries."""
    entries = load_corpus(filters)
    results = []
    counts = {"PASS": 0, "FAIL": 0, "SKIP": 0}
    t0 = time.perf_counter()
    for e in entries:
        row = {"name": e.name, "clause": e.clause, "provenance": e.provenance}
        try:
            tc = classify(e.n, e.q, e.p, e.det, e.z, cap=cap)
            got = tc.to_json()
            ok = _expected_matches(e.expected, got)
            row["status"] = "PASS" if ok else "FAIL"
            if not ok:
                row["expected"] = e.expected
                row["got"] = {k: got.get(k) for k in
                              ("kind", "rank", "torsion", "sub", "quot")}
        except EndotrivError as exc:
            row["status"] = "FAIL"
            row["error"] = f"{type(exc).__name__}: {exc}"
        if oracle and row["status"] == "PASS":
            if e.cap_class == "enumerable":
                row.update(oracle_check(tc, cap))
                if row["oracle_status"] == "FAIL":
                    row["status"] = "FAIL"
            else:
                row["oracle_status"] = "SKIP"
        counts[row["status"]] = counts.get(row["status"], 0) + 1
        results.append(row)
    return {
        "entries": results,
        "counts": counts,
        "total": len(results),
        "elapsed_s": round(time.perf_counter() - t0, 3),
    }
