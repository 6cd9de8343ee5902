"""Command-line front end.

Exit codes: 0 success, 1 domain error, 2 enumeration cap exceeded,
3 ambiguous case tuple, 64 malformed command line or group spec.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import liea, rho
from . import matgrp as mg
from .abst import ExtensionDescriptor
from .classify import classify, oracle_check, tf_rank_oracle
from .corpus import FILTER_KEYS, load_corpus, run_corpus
from .errors import (AmbiguousCase, CapExceeded, DomainError, EndotrivError,
                     GroupSpecError)


class _UsageExit(Exception):
    """A usage error: its message is printed, and the exit code is 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageExit(message)


def _cap(text: str) -> int:
    """--cap: a non-negative integer, else a usage error."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _max_i(text: str) -> int:
    """--max-i: a positive integer, else a usage error."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def _emit(payload: dict, as_json: bool, text_lines=None):
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in (text_lines if text_lines is not None else
                     [json.dumps(payload, sort_keys=True, indent=2)]):
            print(line)


@functools.cache
def _build_parser() -> _Parser:
    """Built once per process; `main` shares it across calls."""
    ap = _Parser(prog="endotriv",
                 description="Endotrivial-module group classification for "
                             "SL(n,q) <= G <= GL(n,q) in coprime characteristic")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    common.add_argument("--cap", type=_cap, default=None,
                        help=f"enumeration cap (default {mg.DEFAULT_CAP})")
    instance = argparse.ArgumentParser(add_help=False)  # the tuple (n, q, p, --det)
    for name in ("n", "q", "p"):
        instance.add_argument(name, type=int)
    instance.add_argument("--det", type=int, default=1)
    quotient = argparse.ArgumentParser(add_help=False, parents=[instance])  # and --z
    quotient.add_argument("--z", type=int, default=1)
    sub = ap.add_subparsers(dest="command", required=True,
                            parser_class=_Parser)

    def add(name, *parents, **kw):
        return sub.add_parser(name, parents=[common, *parents], **kw)

    add("params", quotient, help="derived parameter record")
    add("sylow", instance, help="construct a Sylow p-subgroup")
    sp = add("classify", quotient, help="compute T(G/Z)")
    sp.add_argument("--verify", action="store_true",
                    help="also run the brute-force rank oracle when feasible")

    sp = add("oracle", help="brute-force rank oracle for a group spec")
    sp.add_argument("group", help='e.g. "SL(2,5)", "PGL(3,4)", "SL(2,7):2"')
    sp.add_argument("p", type=int)

    sp = add("rho", help="iterated normalizer-commutator chain")
    sp.add_argument("group")
    sp.add_argument("p", type=int)
    sp.add_argument("--Q", choices=["S", "center"], default="S",
                    help="base subgroup: the Sylow subgroup or its center")
    sp.add_argument("--max-i", type=_max_i, default=4)

    sp = add("certify", help="replay a stored proof-witness family")
    sp.add_argument("family", help="|".join(sorted(rho._FAMILIES)))
    sp.add_argument("n", type=int, nargs="?")
    sp.add_argument("q", type=int, nargs="?")
    sp.add_argument("p", type=int, nargs="?")

    sp = add("corpus", help="regression corpus runner")
    sp.add_argument("action", choices=["run", "list"])
    sp.add_argument("--filter", action="append", default=[],
                    help=f"key=value ({', '.join(FILTER_KEYS)})")
    sp.add_argument("--oracle", action="store_true",
                    help="also run rank oracles on enumerable entries")
    return ap


def _cmd_params(args) -> int:
    params = liea.compute_params(args.n, args.q, args.p, args.det, args.z)
    _emit(params.to_json(), args.json)
    return 0


def _cmd_sylow(args) -> int:
    params = liea.compute_params(args.n, args.q, args.p, args.det)
    shape, S = liea.build_sylow(params, cap=args.cap)
    payload = {
        "order": S.order,
        "claimed_order": params.sylow_order(),
        "shape": shape,
        "abelian": S.as_subgroup().is_abelian(),
        "generators": [S.elements[g].tolist() for g in S.gen_idx],
    }
    _emit(payload, args.json,
          [f"Sylow {args.p}-subgroup: order {S.order}, shape {shape}",
           f"generators: {len(S.gen_idx)}"])
    return 0


def _cmd_classify(args) -> int:
    tc = classify(args.n, args.q, args.p, args.det, args.z, cap=args.cap)
    payload = tc.to_json()
    if args.verify:
        payload.update(oracle_check(tc, args.cap))
    lines = [str(tc)] + [f"  note: {n}" for n in tc.notes]
    if isinstance(tc.result, ExtensionDescriptor) and tc.result.resolved is None:
        cands = " or ".join(str(c) for c in tc.result.candidates())
        if cands:
            lines.append(f"  candidate middle terms: {cands}")
    if "oracle_status" in payload:
        lines.append(f"  oracle: {payload['oracle_status']} {payload.get('oracle')}")
    _emit(payload, args.json, lines)
    if payload.get("oracle_status") == "FAIL":
        return 1
    return 0


def _cmd_oracle(args) -> int:
    n, q, det, z = liea.parse_group_spec(args.group)
    name = liea.group_name(n, q, det, z)
    orc = tf_rank_oracle(n, q, args.p, det, z, cap=args.cap)
    payload = {"group": name, "p": args.p, **orc.to_json()}
    _emit(payload, args.json,
          [f"{name} at p={args.p}: p-rank {orc.p_rank}, "
           f"n_G {orc.n_g}, torsion-free rank {orc.tf_rank}"])
    return 0


def _cmd_rho(args) -> int:
    n, q, det, z = liea.parse_group_spec(args.group)
    G, S = liea.quotient_sylow(n, q, args.p, det, z, cap=args.cap)
    Q = S if args.Q == "S" else mg.center(S)
    chain = rho.rho_chain(G, S, Q, max_i=args.max_i)
    payload = {"group": G.name, "p": args.p, "sylow_order": S.order,
               **chain.to_json()}
    _emit(payload, args.json,
          [f"{G.name}, p={args.p}: |S| = {S.order}, chain orders "
           f"{chain.orders()}, N(Q) order {chain.normalizer.order}, "
           f"reached={chain.reached_normalizer}"])
    return 0


def _cmd_certify(args) -> int:
    if (args.n, args.q, args.p).count(None) not in (0, 3):
        raise _UsageExit("certify takes n, q and p together, or none of them")
    out = rho.replay_proof_certificates(args.family, args.n, args.q, args.p,
                                        cap=args.cap)
    _emit({"verdicts": out}, args.json,
          [f"{v['family']} ({v['n']},{v['q']},{v['p']}): {v['verdict']}"
           + (f" [{v.get('reason', v.get('failed_clause') or '')}]"
              if v["verdict"] != "PASS" else "")
           for v in out])
    return 1 if any(v["verdict"] in ("FAIL", "INVALID") for v in out) else 0


def _cmd_corpus(args) -> int:
    filters = {}
    for f in args.filter:
        k, eq, v = f.partition("=")
        if not eq or k.strip() not in FILTER_KEYS:
            raise _UsageExit(f"bad filter {f!r}; expected key=value, "
                             f"key one of {', '.join(FILTER_KEYS)}")
        filters[k.strip()] = v.strip()
    if args.action == "list":
        names = [e.name for e in load_corpus(filters)]
        _emit({"entries": names}, args.json, names)
        return 0
    report = run_corpus(filters, oracle=args.oracle, cap=args.cap)
    lines = []
    for row in report["entries"]:
        mark = row["status"]
        if "oracle_status" in row:
            mark += f" (oracle {row['oracle_status']})"
        lines.append(f"{row['name']:22s} {row['clause']:20s} {mark}")
    lines.append(f"total {report['total']}: {report['counts']} "
                 f"in {report['elapsed_s']}s")
    _emit(report, args.json, lines)
    return 1 if report["counts"].get("FAIL") else 0


_DISPATCH = {
    "params": _cmd_params,
    "sylow": _cmd_sylow,
    "classify": _cmd_classify,
    "oracle": _cmd_oracle,
    "rho": _cmd_rho,
    "certify": _cmd_certify,
    "corpus": _cmd_corpus,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except (_UsageExit, GroupSpecError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 64
    except AmbiguousCase as exc:
        print(json.dumps({"error": "ambiguous", "message": str(exc),
                          "detail": exc.detail}, sort_keys=True))
        return 3
    except CapExceeded as exc:
        print(json.dumps({"error": "cap-exceeded", "message": str(exc),
                          "needed": exc.needed, "cap": exc.cap}, sort_keys=True))
        return 2
    except DomainError as exc:
        print(json.dumps({"error": "domain", "message": str(exc)},
                         sort_keys=True))
        return 1
    except EndotrivError as exc:  # pragma: no cover
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
