"""Iterated normalizer-commutator chains and machine-checkable certificates.

For a Sylow p-subgroup S of G and a nontrivial Q <= S, the chain is

    level 1:  [N_G(Q), N_G(Q)]
    level i:  < N_G(Q) /\\ level_{i-1}(R) : 1 != R <= S >

computed simultaneously for every nontrivial R <= S.  Reaching N_G(Q)
certifies that the trivial module is the only indecomposable with trivial
Sylow restriction; the chain engine only reports the group theory.

Two implementations are kept deliberately separate: the fast engine uses
the identity < U_R (N /\\ A_R) > = < N /\\ U_R A_R >, one mask over G for
the union of the levels; the naive engine enumerates its own subgroup
lattice and rescans every subgroup from definitions, as whole-array scans
of all of G on its multiplication table: a normalizer checks every member,
a commutator subgroup closes the commutators of every pair, inverses are
read off the table, and a group above NAIVE_TABLE_CAP is refused.  The
two share only the closure's Schreier tables.  The test suite diffs them.

Certificates package the hypotheses of the one-dimensionality criterion
(a subgroup H containing N_G(S), generator witnesses, and per-condition
evidence) so a verdict of PASS means every clause was machine-checked.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import backend, liea
from . import matgrp as mg
from .errors import CapExceeded, DomainError
from .gf import field_spec, is_prime, p_part, p_val, prime_power_split

S_ORDER_CAP = 256
NAIVE_TABLE_CAP = 1024  # largest group the naive twin builds a table for
_naive_tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # G -> (tab, inv)


# ---------------------------------------------------------------------------
# chain engine

@dataclass
class RhoChain:
    base: mg.Subgroup
    normalizer: mg.Subgroup
    chain: list[mg.Subgroup]
    stabilized_at: int | None
    reached_normalizer: bool

    def orders(self) -> list[int]:
        return [c.order for c in self.chain]

    def to_json(self) -> dict:
        return {
            "base_order": self.base.order,
            "normalizer_order": self.normalizer.order,
            "chain_orders": self.orders(),
            "stabilized_at": self.stabilized_at,
            "reached_normalizer": self.reached_normalizer,
        }


def _require_lattice_size(S: mg.Subgroup) -> None:
    if S.order > S_ORDER_CAP:
        raise CapExceeded(
            f"|S| = {S.order} exceeds the subgroup-lattice cap {S_ORDER_CAP}",
            needed=S.order, cap=S_ORDER_CAP)


def _require_levels(max_i: int) -> None:
    if max_i < 1:
        raise DomainError(f"max_i must be a positive integer, got {max_i}")


def nontrivial_subgroups(S: mg.Subgroup) -> list[mg.Subgroup]:
    _require_lattice_size(S)
    return [T for T in mg.all_subgroups(S) if T.order > 1]


def rho_chain(G: mg.MatrixGroup, S: mg.Subgroup, Q: mg.Subgroup,
              max_i: int = 4) -> RhoChain:
    """Exact chain for Q up to level max_i (fast engine).  Every level of R
    depends on R only through N_G(R), so the levels are kept once for each
    distinct normalizer, keyed by N.key(); many subgroups share one."""
    _require_levels(max_i)
    if Q.order <= 1:
        raise DomainError("Q must be a nontrivial subgroup of S")
    if not mg._mask(G, S.idx)[Q.idx].all():
        raise DomainError("Q must be contained in S")
    NQ = mg.normalizer(G, Q)
    nq = NQ.key()
    norms = {nq: NQ}
    for T in nontrivial_subgroups(S):
        if T != Q:
            N = mg.normalizer(G, T)
            norms.setdefault(N.key(), N)
    level = {k: mg.commutator_subgroup(N) for k, N in norms.items()}

    chain = [level[nq]]
    stabilized = None
    for i in range(2, max_i + 1):
        pool = np.zeros(G.order, dtype=bool)
        for L in level.values():
            pool[L.idx] = True
        nxt = {}
        for k, N in norms.items():
            seed = N.idx[pool[N.idx]]
            same = np.array_equal(seed, level[k].idx)  # already a subgroup: no growth
            nxt[k] = level[k] if same else mg.generated_subgroup(G, seed)
        fixpoint = all(nxt[k] == level[k] for k in norms)
        level = nxt
        chain.append(level[nq])
        if stabilized is None and chain[-1] == chain[-2]:
            stabilized = i - 1
        if fixpoint:
            break

    in_nq, prev = mg._mask(G, NQ.idx), mg.trivial_subgroup(G)
    for L in chain:
        if not mg._mask(G, L.idx)[prev.idx].all():
            raise DomainError("chain monotonicity violated")
        if not in_nq[L.idx].all():
            raise DomainError("chain escaped the normalizer")
        prev = L
    return RhoChain(Q, NQ, chain, stabilized, chain[-1] == NQ)


# -- the deliberately naive twin ---------------------------------------------

def _naive_table(G: mg.MatrixGroup) -> tuple[np.ndarray, np.ndarray]:
    """G's multiplication table tab[i, j] = i * j and its inverses, built
    once per group from the closure's Schreier tables alone: column j is
    column parent[j] moved by gens[via[j]], filled one BFS level at a time,
    and the inverse of i is where row i holds the identity, index 0.  A
    group above NAIVE_TABLE_CAP elements is refused before any product."""
    if G.order > NAIVE_TABLE_CAP:
        raise CapExceeded(
            f"|G| = {G.order} exceeds the multiplication-table cap {NAIVE_TABLE_CAP}",
            needed=G.order, cap=NAIVE_TABLE_CAP)
    tables = _naive_tables.get(G)
    if tables is None:
        acts, step = G.acts.ravel(), G.via.astype(np.int64) * G.order
        cols = np.empty((G.order, G.order), dtype=np.int32)
        cols[0] = np.arange(G.order)
        for lo, hi in zip(G.levels[1:-1], G.levels[2:]):
            cols[lo:hi] = acts.take(step[lo:hi, None] + cols[G.parent[lo:hi]])
        tables = _naive_tables[G] = cols.T, cols.argmin(axis=0)
    return tables


def _naive_closure(G, seed):
    """Every product of the seed elements (an index array, or any iterable
    of indices): a BFS on a mask over G, each round multiplying the new
    elements by every seed element and keeping the products not yet inside
    through a fresh mask."""
    tab, _ = _naive_table(G)
    inside = np.zeros(G.order, dtype=bool)
    inside[G.identity_idx] = True
    inside[seed if isinstance(seed, np.ndarray) else np.fromiter(seed, dtype=np.int64)] = True
    gens = frontier = inside.nonzero()[0]
    while frontier.size:
        fresh = np.zeros(G.order, dtype=bool)
        fresh[tab[frontier[:, None], gens]] = True
        fresh &= ~inside
        inside |= fresh
        frontier = fresh.nonzero()[0]
    return frozenset(inside.nonzero()[0].tolist())


def _naive_normalizer(G, members):
    """Every g with g x g^-1 in the set for every member x."""
    tab, inv = _naive_table(G)
    xs = np.fromiter(members, dtype=np.int64)
    inside = np.zeros(G.order, dtype=bool)
    inside[xs] = True
    conj = tab[tab[:, xs], inv[:, None]]
    return frozenset(inside[conj].all(axis=1).nonzero()[0].tolist())


def _naive_commutator(G, members):
    """The closure of a b a^-1 b^-1 over every pair of members."""
    tab, inv = _naive_table(G)
    xs = np.fromiter(members, dtype=np.int64)
    ys = inv[xs]
    return _naive_closure(G, tab[tab[xs[:, None], xs], tab[ys[:, None], ys]].ravel())


def _naive_subgroups(G: mg.MatrixGroup, S: mg.Subgroup) -> list[mg.Subgroup]:
    """Every subgroup of S, sorted by (order, key): joins of cyclic
    subgroups, each join closed from its generators."""
    _require_lattice_size(S)
    cyclics: dict[frozenset, tuple[int, ...]] = {frozenset([G.identity_idx]): ()}
    for x in S.idx:
        if x != G.identity_idx:
            cyclics.setdefault(_naive_closure(G, [int(x)]), (int(x),))
    subs = dict(cyclics)
    frontier = list(cyclics.items())
    while frontier:
        nxt = []
        for members, gens in frontier:
            for cmem, cgens in cyclics.items():
                if not cmem <= members:
                    joined = _naive_closure(G, gens + cgens)
                    if joined not in subs:
                        subs[joined] = gens + cgens
                        nxt.append((joined, gens + cgens))
        frontier = nxt
    out = [mg.Subgroup(G, np.array(sorted(m), dtype=np.int64), gen_idx=g)
           for m, g in subs.items()]
    out.sort(key=lambda T: (T.order, T.key()))
    return out


def rho_chain_naive(G: mg.MatrixGroup, S: mg.Subgroup, Q: mg.Subgroup,
                    max_i: int = 4) -> RhoChain:
    """Definition-chasing reimplementation used as the agreement oracle,
    on its own subgroup lattice."""
    _require_levels(max_i)
    if Q.order <= 1:
        raise DomainError("Q must be a nontrivial subgroup of S")
    if not set(Q.idx.tolist()) <= set(S.idx.tolist()):
        raise DomainError("Q must be contained in S")
    subs = [T for T in _naive_subgroups(G, S) if T.order > 1]
    if Q.key() not in [T.key() for T in subs]:
        subs.append(Q)
    norms = {T.key(): _naive_normalizer(G, T.idx) for T in subs}
    level = {T.key(): _naive_commutator(G, norms[T.key()]) for T in subs}
    qk = Q.key()
    chain_sets = [level[qk]]
    for _ in range(2, max_i + 1):
        nxt = {}
        for T in subs:
            tk = T.key()
            pieces = set()
            for R in subs:
                pieces |= (norms[tk] & level[R.key()])
            nxt[tk] = _naive_closure(G, pieces)
        if all(nxt[T.key()] == level[T.key()] for T in subs):
            level = nxt
            chain_sets.append(level[qk])
            break
        level = nxt
        chain_sets.append(level[qk])
    NQ = mg.Subgroup(G, np.array(sorted(norms[qk]), dtype=np.int64))
    stabilized = None
    for i in range(1, len(chain_sets)):
        if chain_sets[i] == chain_sets[i - 1]:
            stabilized = i
            break
    chain = [mg.Subgroup(G, np.array(sorted(cs), dtype=np.int64))
             for cs in chain_sets]
    return RhoChain(Q, NQ, chain, stabilized, chain_sets[-1] == norms[qk])


# ---------------------------------------------------------------------------
# evidence and certificates

@dataclass
class TrivialityEvidence:
    """Why every indecomposable module of `group` with trivial Sylow
    restriction has dimension one; only the checkable sufficient
    conditions are accepted."""

    kind: str  # normal-p-subgroup | block-split | unproved
    witness_gens: list[np.ndarray] | None = None   # for normal-p-subgroup
    split: liea.BlockSplit | None = None           # for block-split
    det_order: int | None = None                   # for block-split


@dataclass
class GeneratorWitness:
    label: str
    element: np.ndarray
    mode: str  # "B1" (in [H,H]S) or "B2" (via auxiliary subgroup)
    aux_group: mg.MatrixGroup | None = None
    aux_evidence: TrivialityEvidence | None = None


@dataclass
class SylowContainment:
    """Why H contains the normalizer of the Sylow subgroup."""

    kind: str  # whole-group | diagonal-characters | isotypic-blocks
    q_subgroup: mg.MatrixGroup | None = None        # for diagonal-characters (pre-quotient)
    sylow: mg.MatrixGroup | None = None             # pre-quotient Sylow as its own group
    det_order: int | None = None                    # |Det| of the ambient group
    blocks: tuple[int, ...] | None = None           # for isotypic-blocks


@dataclass
class MethodCertificate:
    description: str
    p: int
    n: int
    q: int
    ambient_order: int                      # order of the (possibly virtual) ambient G or G/Z
    H: mg.MatrixGroup                       # subgroup containing N(S), possibly a central quotient
    sylow_in_H: mg.Subgroup                 # image of the Sylow subgroup inside H
    containment: SylowContainment
    H_evidence: TrivialityEvidence
    witnesses: list[GeneratorWitness] = field(default_factory=list)


@dataclass
class ClauseResult:
    clause: str
    ok: bool
    detail: str


@dataclass
class CertificateReport:
    verdict: str  # PASS | FAIL | INCOMPLETE | SKIPPED
    clauses: list[ClauseResult]
    failed_clause: str | None = None
    description: str = ""

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "description": self.description,
            "failed_clause": self.failed_clause,
            "clauses": [{"clause": c.clause, "ok": c.ok, "detail": c.detail}
                        for c in self.clauses],
        }


def _check_triviality(K: mg.MatrixGroup, p: int, ev: TrivialityEvidence,
                      clauses: list[ClauseResult], tag: str) -> bool:
    if ev.kind == "normal-p-subgroup":
        try:
            idxs = K.lookup_batch(ev.witness_gens)
        except KeyError:
            clauses.append(ClauseResult(tag, False, "witness not inside the group"))
            return False
        W = mg.generated_subgroup(K, idxs)
        ok = W.order > 1 and p_part(W.order, p) == W.order
        if ok:
            full = K.as_subgroup()
            ok = mg.is_normal(full, W)
        clauses.append(ClauseResult(
            tag, ok, f"normal p-subgroup of order {W.order}" if ok
            else "witness subgroup not a nontrivial normal p-subgroup"))
        return ok
    if ev.kind == "block-split":
        sp = ev.split
        if sp is None or K.scalars is not None:
            clauses.append(ClauseResult(tag, False, "block-split needs a plain block group"))
            return False
        n = K.n
        ok = sum(sp.blocks) == n and liea.levi_order(list(sp.blocks), K.field.q,
                                                     ev.det_order) == K.order
        if ok:
            ok = _blocks_respected(K, sp.blocks)
        if ok:
            ok = sp.valid() and set(sp.part_a) | set(sp.part_b) == set(range(len(sp.blocks))) \
                and not (set(sp.part_a) & set(sp.part_b))
        clauses.append(ClauseResult(
            tag, ok,
            f"block split {sp.part_a}|{sp.part_b}, factor orders "
            f"{sp.order_a},{sp.order_b} both divisible by {sp.p}" if ok
            else "block-split hypotheses fail"))
        return ok
    clauses.append(ClauseResult(tag, False, f"evidence kind {ev.kind!r} is not checkable"))
    return False


def _blocks_respected(K: mg.MatrixGroup, blocks) -> bool:
    n = K.n
    mask = np.zeros((n, n), dtype=bool)
    off = 0
    for b in blocks:
        mask[off:off + b, off:off + b] = True
        off += b
    return all(not np.any(K.elements[g][~mask]) for g in K.gen_idx)


def _check_containment(cert: MethodCertificate,
                       clauses: list[ClauseResult]) -> bool | None:
    """True/False result, or None for not-checkable (INCOMPLETE)."""
    c = cert.containment
    H = cert.H
    if c.kind == "whole-group":
        ok = H.order == cert.ambient_order
        clauses.append(ClauseResult("(S)", ok, "H is the whole group" if ok
                                    else "H claimed to be the whole group but is not"))
        return ok
    if c.kind == "diagonal-characters":
        return _check_diagonal_characters(cert, clauses)
    if c.kind == "isotypic-blocks":
        return _check_isotypic_blocks(cert, clauses)
    clauses.append(ClauseResult("(S)", False, f"unknown containment kind {c.kind!r}"))
    return None


def _fail(clauses: list[ClauseResult], detail: str) -> bool:
    """Record a failed (S) clause; False, for the check to return."""
    clauses.append(ClauseResult("(S)", False, detail))
    return False


def _check_sylow_image(cert, clauses) -> bool:
    """S is a p-group of the ambient Sylow order (by the order formula) with
    determinants in the subgroup of order det_order, and sylow_in_H is
    exactly its image in H."""
    c = cert.containment
    Sg = c.sylow
    if Sg.order != p_part(liea.group_order(cert.n, cert.q, c.det_order), cert.p):
        return _fail(clauses, "S has wrong order")
    allowed = np.zeros(Sg.field.q, dtype=bool)  # a mask over GF(q)
    allowed[list(Sg.field.subgroup_values(c.det_order))] = True
    if not allowed[Sg.dets()].all():
        return _fail(clauses, "S violates the determinant condition")
    try:
        image = mg.image(cert.H, Sg)
    except KeyError:
        return _fail(clauses, "S is not contained in H")
    if image != cert.sylow_in_H:
        return _fail(clauses, "declared Sylow image mismatches S")
    return True


def _check_diagonal_characters(cert, clauses) -> bool:
    """N(S) <= H because Q is characteristic in S, Q is diagonal with
    pairwise distinct coordinate characters (so N(Q) is monomial), and H
    is the full monomial subgroup with the right determinant image."""
    c, H = cert.containment, cert.H
    Qg, Sg = c.q_subgroup, c.sylow
    n = cert.n
    if not _check_sylow_image(cert, clauses):
        return False
    # the kernel scalars must sit inside Q (so quotient normalizers correspond)
    zs = H.scalars
    if zs is not None and \
            not Qg.locate(Qg.field.mul[zs[:, None, None], mg.identity_matrix(n)])[1].all():
        return _fail(clauses, "quotient kernel not inside Q")
    # Q diagonal (hence abelian) with pairwise distinct coordinate characters
    qmats = [Qg.elements[i] for i in Qg.gen_idx]
    if any(np.any(m[~np.eye(n, dtype=bool)]) for m in qmats):
        return _fail(clauses, "Q is not diagonal")
    for i in range(n):
        for j in range(i + 1, n):
            if all(m[i, i] == m[j, j] for m in qmats):
                return _fail(clauses, f"coordinate characters {i},{j} of Q coincide")
    try:
        Qs = mg.image(Sg, Qg)
    except KeyError:
        return _fail(clauses, "Q is not contained in S")
    # Q characteristic in S: unique abelian subgroup of its type and order
    qtype = Qs.abelian_type()
    same = [T for T in mg.all_subgroups(Sg.as_subgroup())
            if T.order == Qs.order and T.is_abelian() and T.abelian_type() == qtype]
    if len(same) != 1 or same[0] != Qs:
        return _fail(clauses, f"Q is not the unique abelian subgroup of type {qtype} in S "
                              f"({len(same)} found)")
    # H is the monomial group with determinants in the given subgroup
    expect = liea.levi_order([1] * n, cert.q, c.det_order) * math.factorial(n)
    if H.scalars is not None:
        expect //= len(H.scalars)
    if H.order != expect:
        return _fail(clauses, "H is not the full monomial subgroup")
    if not all(liea.is_monomial_matrix(H.elements[g]) for g in H.gen_idx):
        return _fail(clauses, "H has a non-monomial generator")
    # S must be monomial too (it lands in H)
    if not all(liea.is_monomial_matrix(Sg.elements[i]) for i in range(Sg.order)):
        return _fail(clauses, "S is not monomial")
    clauses.append(ClauseResult(
        "(S)", True,
        "Q characteristic in S; N(Q) is monomial by the distinct-character "
        "eigenline argument; H is the full monomial subgroup"))
    return True


def _block_irreducible(F, gens, off: int, dim: int) -> bool:
    """The coordinate block [off, off+dim) is an irreducible module for the
    group generated by `gens` (which must preserve the block).

    Row vectors of the block are indexed by their base-q digits, and each
    generator becomes an index map.  `inside[f, v]` starts as f(v) = 0, over
    every nonzero functional f; dropping each v that some generator moves
    out of f's row, until nothing changes, leaves the largest invariant
    subspace inside ker f.  The block is irreducible iff that subspace is 0
    for every f.  The table holds about q^(2 dim) booleans, at most
    q^(dim^2) for dim >= 2, so the cap on the block group bounds it."""
    place = F.q ** np.arange(dim)
    vecs = (np.arange(F.q ** dim)[:, None] // place % F.q).astype(np.uint8)
    maps = [backend.mm_one(vecs[None], g[off:off + dim, off:off + dim], F)[0] @ place
            for g in gens]
    inside = backend.mm_one(vecs[None, 1:], vecs.T, F)[0] == 0
    while True:
        kept = np.logical_and.reduce([inside] + [inside[:, m] for m in maps])
        if np.array_equal(kept, inside):
            return not kept[:, 1:].any()
        inside = kept


def _check_isotypic_blocks(cert, clauses) -> bool:
    """N(S) <= H because S preserves the coordinate blocks, acts irreducibly
    on each, the blocks have pairwise distinct dimensions (hence are
    pairwise non-isomorphic S-modules), and H is the full block group."""
    c, H = cert.containment, cert.H
    Sg = c.sylow
    blocks = list(c.blocks)
    if sum(blocks) != cert.n or len(set(blocks)) != len(blocks):
        return _fail(clauses, "blocks must partition n with distinct sizes")
    if not _check_sylow_image(cert, clauses):
        return False
    if not _blocks_respected(Sg, blocks):
        return _fail(clauses, "S does not preserve the blocks")
    smats = [Sg.elements[i] for i in Sg.gen_idx]
    off = 0
    for b in blocks:
        if not _block_irreducible(Sg.field, smats, off, b):
            return _fail(clauses, f"block at {off} of size {b} is reducible under S")
        off += b
    if H.scalars is not None:
        return _fail(clauses, "isotypic-blocks applies to plain groups")
    if H.order != liea.levi_order(blocks, cert.q, c.det_order) or \
            not _blocks_respected(H, blocks):
        return _fail(clauses, "H is not the full block group")
    clauses.append(ClauseResult(
        "(S)", True,
        "S acts irreducibly on blocks of pairwise distinct dimension; any "
        "normalizing element preserves each block, so N(S) <= H"))
    return True


def check_certificate(cert: MethodCertificate) -> CertificateReport:
    """Verify every clause; FAIL carries the first violated clause name."""
    clauses: list[ClauseResult] = []
    H = cert.H

    widx = []  # each witness looked up once
    for w in cert.witnesses:
        try:
            widx.append(H.index_of(w.element))
        except KeyError:
            clauses.append(ClauseResult("(gen)", False, f"witness {w.label} is not in H"))
            return CertificateReport("FAIL", clauses, "(gen)", cert.description)
    generated = mg.generated_subgroup(H, widx + list(cert.sylow_in_H.gen_idx))
    ok = generated.order == H.order
    clauses.append(ClauseResult(
        "(gen)", ok,
        "witnesses and S generate H" if ok else
        f"witnesses generate order {generated.order} != |H| = {H.order}"))
    if not ok:
        return CertificateReport("FAIL", clauses, "(gen)", cert.description)

    contain_ok = _check_containment(cert, clauses)
    if contain_ok is None:
        return CertificateReport("INCOMPLETE", clauses, None, cert.description)
    if not contain_ok:
        return CertificateReport("FAIL", clauses, "(S)", cert.description)

    if cert.H_evidence.kind == "unproved":
        clauses.append(ClauseResult("(A)", False, "condition (A) left unproved"))
        return CertificateReport("INCOMPLETE", clauses, None, cert.description)
    if not _check_triviality(H, cert.p, cert.H_evidence, clauses, "(A)"):
        return CertificateReport("FAIL", clauses, "(A)", cert.description)

    comm = mg.commutator_subgroup(H.as_subgroup())
    in_b1 = mg._mask(H, mg.join(comm, cert.sylow_in_H).idx)
    for w, wi in zip(cert.witnesses, widx):
        if w.mode == "B1":
            ok = bool(in_b1[wi])
            clauses.append(ClauseResult(
                f"(B1)[{w.label}]", ok,
                "in [H,H]S" if ok else "not in [H,H]S"))
            if not ok:
                return CertificateReport("FAIL", clauses, "(B1)", cert.description)
            continue
        if w.mode != "B2":
            clauses.append(ClauseResult(f"(B?)[{w.label}]", False,
                                        f"unknown witness mode {w.mode!r}"))
            return CertificateReport("FAIL", clauses, "(B?)", cert.description)
        K = w.aux_group
        if w.aux_evidence is None or w.aux_evidence.kind == "unproved":
            clauses.append(ClauseResult(f"(2)(a)[{w.label}]", False,
                                        "auxiliary condition (A) left unproved"))
            return CertificateReport("INCOMPLETE", clauses, None, cert.description)
        if not _check_triviality(K, cert.p, w.aux_evidence, clauses,
                                 f"(2)(a)[{w.label}]"):
            return CertificateReport("FAIL", clauses, "(2)(a)", cert.description)
        inter = mg.common_order(K, H)
        ok = inter % cert.p == 0
        clauses.append(ClauseResult(
            f"(2)(b)[{w.label}]", ok,
            f"|H_i /\\ H| = {inter}" + ("" if ok else f" not divisible by {cert.p}")))
        if not ok:
            return CertificateReport("FAIL", clauses, "(2)(b)", cert.description)
        kcomm = mg.commutator_subgroup(K.as_subgroup())
        try:
            ok = bool(mg._mask(K, kcomm.idx)[K.index_of(w.element)])
        except KeyError:
            ok = False
        clauses.append(ClauseResult(
            f"(2)(c)[{w.label}]", ok,
            "witness lies in [H_i,H_i]" if ok else "witness not in [H_i,H_i]"))
        if not ok:
            return CertificateReport("FAIL", clauses, "(2)(c)", cert.description)
    return CertificateReport("PASS", clauses, None, cert.description)


# ---------------------------------------------------------------------------
# certificate builders for the proof families

def build_central_scalar_certificate(n: int, q: int, p: int,
                                     cap: int | None = None) -> MethodCertificate:
    """Whole-group certificate for SL(n,q) when p divides gcd(n, q-1):
    the scalar of order p is a central normal p-subgroup and the group is
    perfect, so every generator is a commutator-subgroup element."""
    if (q - 1) % p or n % p:
        raise DomainError("needs p | q-1 and p | n (central scalar of order p)")
    params = liea.compute_params(n, q, p)
    G = liea.enumerate_group(n, q, 1, cap=cap)
    F = field_spec(q)
    zeta = F.element_of_order(p)
    zmat = F.mul[zeta, mg.identity_matrix(n)]
    S = mg.image(G, liea.build_sylow(params, cap=cap)[1])
    witnesses = [GeneratorWitness(f"g{i}", G.elements[g], "B1")
                 for i, g in enumerate(G.gen_idx)]
    return MethodCertificate(
        description=f"block-count p^s, e=1 instance: SL({n},{q}) at p={p}",
        p=p, n=n, q=q, ambient_order=G.order,
        H=G, sylow_in_H=S,
        containment=SylowContainment(kind="whole-group"),
        H_evidence=TrivialityEvidence(kind="normal-p-subgroup",
                                      witness_gens=[zmat]),
        witnesses=witnesses)


def build_torus_quotient_certificate(n: int, q: int, p: int,
                                     cap: int | None = None) -> MethodCertificate:
    """Certificate for SL(n,q)/Z with p | q-1, p | n and Z the p-part of
    the scalar centre: H is the image of the monomial subgroup (the torus-Sylow
    normalizer), generated by its commutator subgroup together with the
    corner rotation, whose witness subgroup is the scaled-torus block group."""
    if n % p or (q - 1) % p:
        raise DomainError("needs p | n and p | q-1")
    if n < 3:
        raise DomainError("needs n >= 3")
    if n == p == 3 and (q - 1) % 9:
        raise DomainError(
            "for n = p = 3 the scaled-torus witness is scalar unless 9 | q-1")
    t = p_val(q - 1, p)
    z_order = p_part(liea.scalar_center_order(n, q, 1), p)  # > 1, as p | gcd(n, q-1)
    params = liea.compute_params(n, q, p, 1, z_order)

    Hbar = liea.block_normalizer(1, n, q, z_order=z_order, cap=cap, name=f"N(Q)/Z{z_order}")
    F = field_spec(q)
    _, Sg = liea.build_sylow(params, cap=cap)
    zeta = F.element_of_order(p ** t)
    qgens = []
    for i in range(n - 1):
        m = mg.identity_matrix(n)
        m[i, i] = zeta
        m[i + 1, i + 1] = F.inv_el(zeta)
        qgens.append(m)
    Qg = mg.MatrixGroup.generate(F, qgens, cap=cap, name="torus p-part")

    Sbar = mg.image(Hbar, Sg)

    X, Y = liea._torus_corner(n, q, p)
    blocks = [2, 1] if n == 3 else [2, 1, n - 3]
    Lbar = liea.levi(blocks, q, 1, cap=cap, name="corner block group /Z", z_order=z_order)

    comm = mg.commutator_subgroup(Hbar.as_subgroup())
    witnesses = [GeneratorWitness(f"c{i}", Hbar.elements[g], "B1")
                 for i, g in enumerate(comm.gen_idx)]
    witnesses.append(GeneratorWitness(
        "corner-rotation", X, "B2", aux_group=Lbar,
        aux_evidence=TrivialityEvidence(kind="normal-p-subgroup",
                                        witness_gens=[Y])))
    return MethodCertificate(
        description=f"torus-quotient instance: SL({n},{q})/Z{z_order} at p={p}",
        p=p, n=n, q=q,
        ambient_order=liea.order_sl(n, q) // z_order,
        H=Hbar, sylow_in_H=Sbar,
        containment=SylowContainment(kind="diagonal-characters", q_subgroup=Qg,
                                     sylow=Sg, det_order=1),
        H_evidence=TrivialityEvidence(kind="normal-p-subgroup",
                                      witness_gens=[Qg.elements[g] for g in Qg.gen_idx]),
        witnesses=witnesses)


def build_block_count_certificate(n: int, q: int, p: int,
                                  cap: int | None = None) -> MethodCertificate:
    """Certificate for SL(n,q) with n = (a p^s + b) e, 1 <= a < p,
    1 <= b < p^s, where e is the order of q mod p: H is the two-block group
    holding the Sylow subgroup, generated by its commutator subgroup and one
    connecting torus element whose witness subgroup is a balanced two-block
    group.  The split of n/e is unique (p^s <= n/e < p^(s+1))."""
    params = liea.compute_params(n, q, p, 1, 1)
    e, r = params.e, params.r
    if params.f:
        raise DomainError(f"needs e = {e} to divide n = {n}")
    ps = 1  # p^s
    while ps * p <= r:
        ps *= p
    a, b = divmod(r, ps)
    if b == 0:
        raise DomainError(f"needs n/e = a p^s + b with 1 <= b < p^s, got n/e = {r} = {a}*{ps}")
    big, small = a * ps * e, b * e
    # the Sylow builder lays blocks out in increasing width
    blocks = [small, big]
    N = liea.levi(blocks, q, 1, cap=cap, name="two-block group")
    F = field_spec(q)
    _, Sg = liea.build_sylow(params, cap=cap)
    Sn = mg.image(N, Sg)

    w = F.primitive
    sigma = mg.identity_matrix(n)
    sigma[0, 0] = w
    sigma[small, small] = F.inv_el(w)

    half = n // 2
    H1 = liea.levi([half, n - half], q, 1, cap=cap, name="balanced block group")
    split = liea.levi_split([half, n - half], q, 1, p)
    if split is None:
        raise DomainError("balanced block split unavailable")

    comm = mg.commutator_subgroup(N.as_subgroup())
    witnesses = [GeneratorWitness(f"c{i}", N.elements[g], "B1")
                 for i, g in enumerate(comm.gen_idx)]
    witnesses.append(GeneratorWitness(
        "connector-torus", sigma, "B2", aux_group=H1,
        aux_evidence=TrivialityEvidence(kind="block-split", split=split,
                                        det_order=1)))
    return MethodCertificate(
        description=f"block-count a*p^s+b instance: SL({n},{q}) at p={p}",
        p=p, n=n, q=q, ambient_order=liea.order_sl(n, q),
        H=N, sylow_in_H=Sn,
        containment=SylowContainment(kind="isotypic-blocks", sylow=Sg,
                                     blocks=tuple(blocks), det_order=1),
        H_evidence=TrivialityEvidence(
            kind="normal-p-subgroup",
            witness_gens=[_big_block_scalar(F, small, big, p)]),
        witnesses=witnesses)


def _big_block_scalar(F, small, big, p):
    """Central element of the two-block group: an order-p scalar on the big
    block, compensated by a scalar on the small block to keep determinant one."""
    zeta = F.element_of_order(p)
    comp = F.inv_el(F.pow_el(zeta, big))
    root = next((c for c in range(1, F.q) if F.pow_el(c, small) == comp), None)
    if root is None:
        raise DomainError("no determinant-one central witness")  # pragma: no cover
    return np.diag(np.array([root] * small + [zeta] * big, dtype=np.uint8))


# ---------------------------------------------------------------------------
# replay of the proof families

def _refuse(q: int, cap: int | None, order: int, message: str):
    """A family without a builder, given the order of the group its certificate
    would need: SKIPPED (CapExceeded) when the cap refuses it, else INVALID."""
    mg.admit(q, cap, (order, message))
    raise DomainError(f"the cap admits order {order}, but no builder covers this instance")


def _refuse_sl(n: int, q: int, p: int, cap: int | None = None):
    """The sl62 family, SL(6,2) at p = 3, has no builder; it names the
    order of SL(n,q)."""
    _refuse(q, cap, liea.order_sl(n, q),
            f"SL({n},{q}) has order {{needed}}, beyond the desk-scale cap {{cap}}")


def _build_sleps(n: int, q: int, p: int, cap: int | None = None) -> MethodCertificate:
    """The central-scalar certificate; SL(6,2) at p = 3 is refused as in
    the sl62 family."""
    if (n, q, p) in _FAMILIES["sl62"][1]:
        _refuse_sl(n, q, p, cap)
    return build_central_scalar_certificate(n, q, p, cap)


def _refuse_block_groups(n: int, q: int, p: int, cap: int | None = None):
    """composite-i / composite-ii have no builder; they name the order of
    the smallest required block group."""
    _refuse(q, cap, liea.levi_order([n // 2, n - n // 2], q, 1),
            "smallest required block group has order {needed}")


# family -> (builder(n, q, p, cap), default instances (n, q, p))
_FAMILIES = {
    "rp-case": (build_torus_quotient_certificate, [(3, 19, 3)]),
    "sleps": (_build_sleps, [(3, 4, 3), (6, 2, 3)]),
    "sl62": (_refuse_sl, [(6, 2, 3)]),
    "composite-i": (_refuse_block_groups, [(6, 4, 3)]),
    "composite-ii": (_refuse_block_groups, [(15, 11, 5)]),
    "composite-iii": (build_block_count_certificate, [(4, 4, 3)]),
}


def replay_proof_certificates(family: str, n: int | None = None,
                              q: int | None = None, p: int | None = None,
                              cap: int | None = None) -> list[dict]:
    """Reconstruct and check the stored proof-witness families, on the
    given instance (n, q, p) or, when none is given, on the family's
    default instances.

    Out-of-cap instances are reported SKIPPED (never silently passed);
    invalid parameter combinations are reported INVALID with the reason.
    """
    if family not in _FAMILIES:
        raise DomainError(f"unknown certificate family {family!r}; "
                          f"choose from {sorted(_FAMILIES)}")
    given = (n, q, p)
    if given.count(None) not in (0, 3):
        raise DomainError("give n, q and p together, or none of them")
    build, defaults = _FAMILIES[family]
    out = []
    for (ni, qi, pi) in defaults if n is None else [given]:
        entry = {"family": family, "n": ni, "q": qi, "p": pi}
        try:
            if not is_prime(pi):
                raise DomainError(f"{pi} is not prime")
            if ni < 1:
                raise DomainError(f"dimension n={ni} must be positive")
            prime_power_split(qi)
            # through the module attribute, where a wrapper (a tracer) sees the call
            report = check_certificate(globals()[build.__name__](ni, qi, pi, cap=cap))
            entry["verdict"] = report.verdict
            entry["description"] = report.description
            entry["failed_clause"] = report.failed_clause
            entry["clauses"] = [c.clause for c in report.clauses if not c.ok] or "all-ok"
        except CapExceeded as exc:
            entry["verdict"] = "SKIPPED"
            entry["reason"] = str(exc)
        except DomainError as exc:
            entry["verdict"] = "INVALID"
            entry["reason"] = str(exc)
        out.append(entry)
    return out
