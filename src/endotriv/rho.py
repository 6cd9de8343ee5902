"""Iterated normalizer-commutator chains and machine-checkable certificates.

For a Sylow p-subgroup S of G and a nontrivial Q <= S, the chain is

    level 1:  [N_G(Q), N_G(Q)]
    level i:  < N_G(Q) /\\ level_{i-1}(R) : 1 != R <= S >

computed simultaneously for every nontrivial R <= S.  With K the p'-part
of N_G(Q) modulo the last level, reaching N_G(Q) gives K = 0: the trivial
module is then the only indecomposable with trivial Sylow restriction.
That is sufficient for K = 0, not necessary: at p = 2, Q8 and GL(2,3)
stop below N_G(S) with K = 0.  Whether level 1 should also hold N's
p-elements is open.  The chain engine only reports the group theory.

Two implementations are kept deliberately separate: the fast engine uses
the identity < U_R (N /\\ A_R) > = < N /\\ U_R A_R >, one mask over G for
the union of the levels, and scans each generator prefix once; the naive
engine holds every set as a boolean mask over G, enumerates its own
subgroup lattice, joins of the cyclic subgroups of one power table with
each distinct union closed once, and rescans every subgroup from
definitions, scanning all of G on its int16 multiplication table by whole
rows, at most NAIVE_BLOCK products at a time, so its peak is the table plus
one block: a normalizer checks every member, a commutator subgroup closes
the commutators of every pair, once per distinct normalizer, inverses are
read off the table, and a group above NAIVE_TABLE_CAP is refused.  They
share only the request check and the closure's Schreier tables, and the
test suite diffs them.  A chain derives where it stabilized from its levels.

Certificates package the hypotheses of the one-dimensionality criterion
at a prime p: a subgroup H containing N_G(S), the Sylow group S and why H
contains its normalizer, evidence for (A), and the auxiliary witnesses,
each lying in [H_i, H_i] for its own group H_i.  They carry only what the
checker cannot compute: it reads n and q off H and works out every order,
a block split's included, S's image in H and [H,H].  (S) runs first and
checks the Sylow image for every containment kind; (gen) asks that [H,H],
S and the witnesses generate H; each witness is judged by (2)(a)-(c).
The checker runs the clauses in order and reads the verdict off the first
clause that does not hold: INCOMPLETE when it cannot be checked, FAIL
naming it when it is violated, PASS when every clause holds.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import backend, liea
from . import matgrp as mg
from .errors import CapExceeded, DomainError
from .gf import field_spec, p_part, p_val

S_ORDER_CAP = 256
NAIVE_TABLE_CAP = 1024  # largest group the naive twin builds a table for
NAIVE_BLOCK = 1 << 16  # most products the naive twin forms in one array
_naive_tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # G -> (tab, inv)


# ---------------------------------------------------------------------------
# chain engine

@dataclass
class RhoChain:
    base: mg.Subgroup
    normalizer: mg.Subgroup
    chain: list[mg.Subgroup]

    @property
    def stabilized_at(self) -> int | None:
        """The first level index i >= 1 that repeats level i-1, else None."""
        return next((i for i in range(1, len(self.chain))
                     if self.chain[i] == self.chain[i - 1]), None)

    @property
    def reached_normalizer(self) -> bool:
        return self.chain[-1] == self.normalizer

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
    mg.refuse_over(S.order, S_ORDER_CAP, "|S| = {needed} exceeds the subgroup-lattice cap {cap}")


def _require_chain(G: mg.MatrixGroup, S: mg.Subgroup, Q: mg.Subgroup, max_i: int) -> None:
    """The request both engines take: at least one level, S and Q subgroups
    of G, Q a nontrivial subgroup of S, and S within the subgroup-lattice cap."""
    if max_i < 1:
        raise DomainError(f"max_i must be a positive integer, got {max_i}")
    if S.parent is not G or Q.parent is not G:
        raise DomainError("subgroup does not live in the given group")
    if Q.order <= 1:
        raise DomainError("Q must be a nontrivial subgroup of S")
    if not mg._mask(G, S.idx)[Q.idx].all():
        raise DomainError("Q must be contained in S")
    _require_lattice_size(S)


def nontrivial_subgroups(S: mg.Subgroup) -> list[mg.Subgroup]:
    _require_lattice_size(S)
    return [T for T in mg.all_subgroups(S) if T.order > 1]


def rho_chain(G: mg.MatrixGroup, S: mg.Subgroup, Q: mg.Subgroup,
              max_i: int = 4) -> RhoChain:
    """Exact chain for Q up to level max_i (fast engine).  Every level of R
    depends on R only through N_G(R), so the levels are kept once for each
    distinct normalizer; many subgroups share one.  The subgroups are visited
    in the order of their generators, with the sandwich_all rows of the
    current generator prefix on a stack, so each prefix is scanned once."""
    _require_chain(G, S, Q, max_i)
    visits = sorted([Q] + [T for T in nontrivial_subgroups(S) if T != Q],
                    key=lambda T: T.gen_idx)
    stack, norms = [], {}  # (h, g -> g h g^-1) along the prefix; N's bytes -> (N.idx, T)
    for T in visits:
        inside, mask = mg._mask(G, T.idx), np.ones(G.order, dtype=bool)
        for i, h in enumerate(T.gen_idx):
            if i < len(stack) and stack[i][0] != h:
                del stack[i:]  # the prefix ends here
            if i == len(stack):
                stack.append((h, G.sandwich_all(h)))
            mask &= inside[stack[i][1]]
        key = (idx := mask.nonzero()[0]).tobytes()
        norms.setdefault(key, (idx, T))
        if T is Q:
            nq = key
    del stack  # the conjugation rows die before the levels
    # a normalizer other than G grows from the first subgroup met that it normalizes
    norms = {k: G.as_subgroup() if len(idx) == G.order else mg._closure_indices(G, idx, T)
             for k, (idx, T) in norms.items()}
    NQ = norms[nq]
    level = {k: mg.commutator_subgroup(N) for k, N in norms.items()}

    chain = [level[nq]]
    for _ in range(2, max_i + 1):
        pool = np.zeros(G.order, dtype=bool)
        for L in level.values():
            pool[L.idx] = True
        nxt = {}
        for k, N in norms.items():  # grown from the level below, which lies in N and the pool
            grow = N.idx[pool[N.idx] & ~mg._mask(G, level[k].idx)[N.idx]]
            nxt[k] = mg._closure_indices(G, grow, level[k]) if len(grow) else level[k]
        fixpoint = all(nxt[k] == level[k] for k in norms)
        level = nxt
        chain.append(level[nq])
        if fixpoint:
            break

    in_nq, prev = mg._mask(G, NQ.idx), mg.trivial_subgroup(G)
    for L in chain:
        if not mg._mask(G, L.idx)[prev.idx].all():
            raise DomainError("chain monotonicity violated")
        if not in_nq[L.idx].all():
            raise DomainError("chain escaped the normalizer")
        prev = L
    return RhoChain(Q, NQ, chain)


# -- the deliberately naive twin ---------------------------------------------

def _naive_table(G: mg.MatrixGroup) -> tuple[np.ndarray, np.ndarray]:
    """G's multiplication table tab[i, j] = i * j and its inverses, built
    once per group from the closure's Schreier tables alone: column j is
    column parent[j] moved by gens[via[j]], filled a block of one BFS level
    at a time, and the inverse of j is where column j holds the identity,
    index 0.  The columns are the rows of a C-ordered int16 array (every
    index lies below NAIVE_TABLE_CAP), so tab.T reads a block of products
    x * y as whole rows y, then columns x.  A group above NAIVE_TABLE_CAP
    elements is refused before any product."""
    mg.refuse_over(G.order, NAIVE_TABLE_CAP,
                   "|G| = {needed} exceeds the multiplication-table cap {cap}")
    tables = _naive_tables.get(G)
    if tables is None:
        acts, step = G.acts.ravel(), (G.via * G.order).astype(np.int32)
        cols = np.empty((G.order, G.order), dtype=np.int16)
        cols[0] = np.arange(G.order)
        for lo, hi in zip(G.levels[1:-1], G.levels[2:]):
            for rows in _blocks(np.arange(lo, hi), G.order):
                cols[rows] = acts.take(step[rows, None] + cols[G.parent[rows]])
        tables = _naive_tables[G] = cols.T, cols.argmin(axis=1)
    return tables


def _blocks(rows, width):
    """rows in pieces of at most NAIVE_BLOCK products, `width` a row (rows itself if it fits)."""
    step = NAIVE_BLOCK // width or 1
    return [rows[i:i + step] for i in range(0, len(rows), step)] if len(rows) > step else [rows]


def _products(col, xs, ys):
    """The block [y, x] = x * y of col = tab.T: whole rows ys, then columns xs."""
    return col.take(ys, axis=0).take(xs, axis=1)


def _times(col, a, b):
    """a * b for index arrays a and b broadcast together, both factors
    varying: one flat read of col = tab.T at b * |G| + a."""
    return col.ravel().take(np.multiply(b, len(col), dtype=np.intp) + a)


def _naive_closure(G, seed):
    """The mask of every product of the seed elements (a mask over G): a BFS,
    each round multiplying the new elements by every seed element, a block
    of seed rows at a time, keeping the products not yet inside."""
    col = _naive_table(G)[0].T
    inside = seed.copy()
    inside[0] = True
    gens = frontier = inside.nonzero()[0]
    blocks = _blocks(gens, G.order)  # the same rows of col every round
    while frontier.size:
        fresh = np.zeros(G.order, dtype=bool)
        for rows in blocks:
            fresh[_products(col, frontier, rows).astype(np.intp)] = True  # intp scatters faster
        fresh &= ~inside
        inside |= fresh
        frontier = fresh.nonzero()[0]
    return inside


def _naive_normalizer(G, members):
    """The mask of every g with g x g^-1 in the mask `members` for every member x, x in blocks."""
    tab, inv = _naive_table(G)
    col = tab.T
    keep = np.ones(G.order, dtype=bool)
    for rows in _blocks(members.nonzero()[0], G.order):  # [x, g] = (g x) g^-1
        keep &= members[_times(col, col.take(rows, axis=0), inv)].all(axis=0)
    return keep


def _naive_commutator(G, members):
    """The closure of a b a^-1 b^-1 over every pair of members (a mask over
    G), marked on one mask a block of b at a time and closed once."""
    tab, inv = _naive_table(G)
    col = tab.T
    xs = members.nonzero()[0]
    ys = inv[xs]
    comms = np.zeros(G.order, dtype=bool)
    for rows in _blocks(xs, G.order):  # (a b)(a^-1 b^-1), both blocks indexed [b, a]
        comms[_times(col, _products(col, xs, rows), _products(col, ys, inv[rows]))] = True
    return _naive_closure(G, comms)


def _naive_cyclics(G, xs):
    """The mask of <x> for each x of the index array xs, in order, off its
    power table: rows x, x^2, ... for a block of x at a time, each power the
    last times x, until every row of the block is back at the identity."""
    col = _naive_table(G)[0].T
    for rows in _blocks(xs, G.order):
        cyclic = np.zeros((len(rows), G.order), dtype=bool)
        cyclic[:, 0] = True
        at, power, back = np.arange(len(rows)), rows, rows == 0
        while not back.all():
            cyclic[at, power] = True
            power = _times(col, power, rows)
            back |= power == 0
        yield from cyclic


def _naive_subgroups(G: mg.MatrixGroup, S: mg.Subgroup) -> list[mg.Subgroup]:
    """Every subgroup of S, sorted by (order, key): joins of cyclic
    subgroups, each join the closure of the union of the two masks, and
    each distinct union closed once; a union that is a subgroup found
    already is its own join.  Masks are keyed by their bytes."""
    cyclics = {m.tobytes(): m.copy() for m in _naive_cyclics(G, S.idx)}
    subs, met, frontier = dict(cyclics), set(), list(cyclics.values())
    while frontier:
        nxt = []
        for members in frontier:
            for cmem in cyclics.values():
                key = (union := members | cmem).tobytes()
                if key in subs or key in met:
                    continue
                met.add(key)
                joined = _naive_closure(G, union)
                if subs.setdefault(joined.tobytes(), joined) is joined:
                    nxt.append(joined)
        frontier = nxt
    return sorted((mg.Subgroup(G, m.nonzero()[0]) for m in subs.values()),
                  key=lambda T: (T.order, T.key()))


def rho_chain_naive(G: mg.MatrixGroup, S: mg.Subgroup, Q: mg.Subgroup,
                    max_i: int = 4) -> RhoChain:
    """Definition-chasing reimplementation used as the agreement oracle,
    on its own subgroup lattice: one normalizer per subgroup, one commutator
    subgroup and one closure a level per distinct normalizer."""
    _require_chain(G, S, Q, max_i)
    subs = [T for T in _naive_subgroups(G, S) if T.order > 1]
    qi = subs.index(Q)
    norms = [_naive_normalizer(G, mg._mask(G, T.idx)) for T in subs]
    keys = [N.tobytes() for N in norms]
    distinct = dict(zip(keys, norms))
    level = {k: _naive_commutator(G, N) for k, N in distinct.items()}
    chain_masks = [level[keys[qi]]]
    for _ in range(2, max_i + 1):
        stacked = np.stack([level[k] for k in keys])
        nxt = {k: _naive_closure(G, (N & stacked).any(axis=0)) for k, N in distinct.items()}
        fixpoint = all(np.array_equal(nxt[k], level[k]) for k in distinct)
        level = nxt
        chain_masks.append(level[keys[qi]])
        if fixpoint:
            break
    return RhoChain(Q, mg.Subgroup(G, norms[qi].nonzero()[0]),
                    [mg.Subgroup(G, m.nonzero()[0]) for m in chain_masks])


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
    aux_group: mg.MatrixGroup  # H_i, whose [H_i, H_i] holds the witness
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
    H: mg.MatrixGroup                       # subgroup containing N(S), possibly a central quotient
    containment: SylowContainment
    H_evidence: TrivialityEvidence
    witnesses: list[GeneratorWitness] = field(default_factory=list)


@dataclass
class ClauseResult:
    """One checked clause: `ok` is True when it holds, False when it is
    violated and None when it cannot be checked (an unknown containment
    kind, evidence missing or left unproved)."""

    clause: str
    ok: bool | None
    detail: str


@dataclass
class CertificateReport:
    """The clauses checked, in order, up to the first that does not hold;
    the verdict is read off that clause alone: INCOMPLETE when it cannot be
    checked, FAIL naming it (without its witness label) when it is
    violated, PASS when there is none."""

    verdict: str  # PASS | FAIL | INCOMPLETE | SKIPPED
    clauses: list[ClauseResult]
    description: str = ""

    @property
    def failed_clause(self) -> str | None:
        return self.clauses[-1].clause.split("[")[0] if self.verdict == "FAIL" else None


def _check_triviality(K: mg.MatrixGroup, p: int, ev: TrivialityEvidence | None,
                      tag: str) -> ClauseResult:
    """Condition (A) for K, or (2)(a) for an auxiliary group: not checkable
    when the evidence is missing or left unproved."""
    if K is None:
        return ClauseResult(tag, False, "no auxiliary group")
    if ev is None or ev.kind == "unproved":
        return ClauseResult(tag, None, ("" if tag == "(A)" else "auxiliary ")
                            + "condition (A) left unproved")
    if ev.kind == "normal-p-subgroup":
        if ev.witness_gens is None or not len(ev.witness_gens):
            return ClauseResult(tag, False, "normal-p-subgroup needs witness generators")
        try:
            W = mg.generated_subgroup(K, K.lookup_batch(ev.witness_gens))
        except KeyError:
            return ClauseResult(tag, False, "witness not inside the group")
        ok = W.order > 1 and p_part(W.order, p) == W.order and mg.is_normal(K.as_subgroup(), W)
        return ClauseResult(tag, ok, f"normal p-subgroup of order {W.order}" if ok
                            else "witness subgroup not a nontrivial normal p-subgroup")
    if ev.kind == "block-split":
        sp = ev.split
        if sp is None or ev.det_order is None or K.z_order > 1:
            return ClauseResult(tag, False, "block-split needs a split, a determinant "
                                "order and a plain block group")
        parts = (sp.part_a, sp.part_b)
        if not (sum(sp.blocks) == K.n and all(parts)
                and sorted(sp.part_a + sp.part_b) == list(range(len(sp.blocks)))
                and liea.levi_order(sp.blocks, K.field.q, ev.det_order) == K.order
                and _blocks_respected(K, sp.blocks)):
            return ClauseResult(tag, False, "block-split hypotheses fail")
        # each factor meets the determinant-constrained group in a block group
        orders = [liea.levi_order([sp.blocks[i] for i in part], K.field.q, ev.det_order)
                  for part in parts]
        ok = all(o % p == 0 for o in orders)
        return ClauseResult(tag, ok, f"block split {sp.part_a}|{sp.part_b}, factor orders "
                            f"{orders[0]},{orders[1]} " + ("both" if ok else "not both")
                            + f" divisible by {p}")
    return ClauseResult(tag, False, f"evidence kind {ev.kind!r} is not checkable")


def _blocks_respected(K: mg.MatrixGroup, blocks) -> bool:
    n = K.n
    mask = np.zeros((n, n), dtype=bool)
    off = 0
    for b in blocks:
        mask[off:off + b, off:off + b] = True
        off += b
    return all(not np.any(K.elements[g][~mask]) for g in K.gen_idx)


def _check_containment(cert: MethodCertificate) -> ClauseResult:
    """(S): H contains N(S).  For every known kind the Sylow image is
    checked first, then H by the kind's own rule; not checkable for an
    unknown kind."""
    c = cert.containment
    if c.kind == "whole-group":
        check, held = _check_whole_group, "H is the whole group"
    elif c.kind == "diagonal-characters":
        check, held = _check_diagonal_characters, (
            "Q characteristic in S; N(Q) is monomial by the distinct-character "
            "eigenline argument; H is the full monomial subgroup")
    elif c.kind == "isotypic-blocks":
        check, held = _check_isotypic_blocks, (
            "S acts irreducibly on blocks of pairwise distinct dimension; any "
            "normalizing element preserves each block, so N(S) <= H")
    else:
        return ClauseResult("(S)", None, f"unknown containment kind {c.kind!r}")
    failed = _check_sylow_image(cert) or check(cert)
    return ClauseResult("(S)", failed is None, failed or held)


def _dets_in(F, mats, det_order: int) -> bool:
    """Every matrix has its determinant in the subgroup of order det_order."""
    allowed = np.zeros(F.q, dtype=bool)  # a mask over GF(q)
    allowed[F.subgroup_values(det_order)] = True
    return bool(allowed[backend.det_many(mats, F)].all())


def _check_sylow_image(cert) -> str | None:
    """compute_params accepts (n, q, p, det_order), and S has the Sylow order
    with determinants in the subgroup of order det_order, contained in H.
    The first hypothesis that fails, or None."""
    c, Sg = cert.containment, cert.containment.sylow
    if Sg is None or c.det_order is None:
        return f"{c.kind} needs the Sylow group and det_order"
    try:
        params = liea.compute_params(cert.H.n, cert.H.field.q, cert.p, c.det_order)
    except DomainError as exc:
        return str(exc)
    if Sg.order != params.sylow_order():
        return "S has wrong order"
    if not _dets_in(Sg.field, Sg.elements, c.det_order):
        return "S violates the determinant condition"
    if not cert.H.locate(Sg.elements)[1].all():
        return "S is not contained in H"
    return None


def _check_whole_group(cert) -> str | None:
    """N(S) <= H because H is the whole group {x : det x in Det}: a plain
    group of that group's order whose generators have their determinants
    in Det.  The first hypothesis that fails, or None."""
    H, det_order = cert.H, cert.containment.det_order
    if H.z_order > 1:
        return "whole-group applies to plain groups"
    if not _dets_in(H.field, H.elements[list(H.gen_idx)], det_order) or \
            H.order != liea.group_order(H.n, H.field.q, det_order):
        return "H is not the whole group"
    return None


def _check_diagonal_characters(cert) -> str | None:
    """N(S) <= H because Q is characteristic in S, Q is diagonal with
    pairwise distinct coordinate characters (so N(Q) is monomial), and H
    is the full monomial subgroup with the right determinant image.  S needs
    no check of its own: the Sylow image puts it inside H, so it is monomial
    up to a kernel scalar.  The first hypothesis that fails, or None."""
    c, H = cert.containment, cert.H
    Qg, Sg, n = c.q_subgroup, c.sylow, H.n
    if Qg is None:
        return "diagonal-characters needs the group Q"
    # the kernel scalars must sit inside Q (so quotient normalizers
    # correspond): Z is cyclic, so its generator z I does
    z = H.field.element_of_order(H.z_order)
    if not Qg.locate((z * mg.identity_matrix(n))[None])[1][0]:
        return "quotient kernel not inside Q"
    # Q diagonal (hence abelian) with pairwise distinct coordinate characters
    qmats = [Qg.elements[i] for i in Qg.gen_idx]
    if any(np.any(m[~np.eye(n, dtype=bool)]) for m in qmats):
        return "Q is not diagonal"
    for i in range(n):
        for j in range(i + 1, n):
            if all(m[i, i] == m[j, j] for m in qmats):
                return f"coordinate characters {i},{j} of Q coincide"
    try:
        Qs = mg.image(Sg, Qg)
    except KeyError:
        return "Q is not contained in S"
    # Q characteristic in S: unique abelian subgroup of its type and order
    qtype = Qs.abelian_type()
    same = [T for T in mg.all_subgroups(Sg.as_subgroup())
            if T.order == Qs.order and T.is_abelian() and T.abelian_type() == qtype]
    if len(same) != 1 or same[0] != Qs:
        return f"Q is not the unique abelian subgroup of type {qtype} in S ({len(same)} found)"
    # H is the monomial group with determinants in the given subgroup
    expect = liea.levi_order([1] * n, H.field.q, c.det_order) * math.factorial(n)
    if H.order != expect // H.z_order:
        return "H is not the full monomial subgroup"
    if not all(liea.is_monomial_matrix(H.elements[g]) for g in H.gen_idx):
        return "H has a non-monomial generator"
    return None


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
    maps = [backend.mm_one(vecs, g[off:off + dim, off:off + dim], F) @ place for g in gens]
    inside = backend.mm_one(vecs[1:], vecs.T, F) == 0
    while True:
        kept = np.logical_and.reduce([inside] + [inside[:, m] for m in maps])
        if np.array_equal(kept, inside):
            return not kept[:, 1:].any()
        inside = kept


def _check_isotypic_blocks(cert) -> str | None:
    """N(S) <= H because S preserves the coordinate blocks, acts irreducibly
    on each, the blocks have pairwise distinct dimensions (hence are
    pairwise non-isomorphic S-modules), and H is the full block group.  The
    first hypothesis that fails, or None."""
    c, H = cert.containment, cert.H
    Sg = c.sylow
    if c.blocks is None:
        return "isotypic-blocks needs the blocks"
    blocks = list(c.blocks)
    if sum(blocks) != H.n or len(set(blocks)) != len(blocks):
        return "blocks must partition n with distinct sizes"
    if not _blocks_respected(Sg, blocks):
        return "S does not preserve the blocks"
    smats = [Sg.elements[i] for i in Sg.gen_idx]
    off = 0
    for b in blocks:
        if not _block_irreducible(Sg.field, smats, off, b):
            return f"block at {off} of size {b} is reducible under S"
        off += b
    if H.z_order > 1:
        return "isotypic-blocks applies to plain groups"
    if H.order != liea.levi_order(blocks, H.field.q, c.det_order) or \
            not _blocks_respected(H, blocks):
        return "H is not the full block group"
    return None


def _clauses(cert: MethodCertificate):
    """The certificate's clauses in order: (S), (gen), (A), then (2)(a),
    (2)(b) and (2)(c) for each witness.  Each is checked only when the
    reader asks for it, so nothing past the first clause that does not
    hold is computed; S's image in H is taken once (S) holds."""
    H = cert.H
    yield _check_containment(cert)
    S = mg.image(H, cert.containment.sylow)
    widx = []  # each witness looked up once
    for w in cert.witnesses:
        try:
            widx.append(H.index_of(w.element))
        except KeyError:
            yield ClauseResult("(gen)", False, f"witness {w.label} is not in H")
            return
    comm = mg.commutator_subgroup(H.as_subgroup())
    generated = mg.generated_subgroup(H, widx + list(comm.gen_idx) + list(S.gen_idx))
    ok = generated.order == H.order
    yield ClauseResult("(gen)", ok, "[H,H], S and the witnesses generate H" if ok else
                       f"[H,H], S and the witnesses generate order {generated.order} "
                       f"!= |H| = {H.order}")
    yield _check_triviality(H, cert.p, cert.H_evidence, "(A)")

    for w in cert.witnesses:
        K = w.aux_group
        yield _check_triviality(K, cert.p, w.aux_evidence, f"(2)(a)[{w.label}]")
        inter = mg.common_order(K, H)
        ok = inter % cert.p == 0
        yield ClauseResult(f"(2)(b)[{w.label}]", ok, f"|H_i /\\ H| = {inter}"
                           + ("" if ok else f" not divisible by {cert.p}"))
        kcomm = mg.commutator_subgroup(K.as_subgroup())
        (ki,), (found,) = K.locate(np.asarray(w.element)[None])
        ok = bool(found and mg._mask(K, kcomm.idx)[ki])
        yield ClauseResult(f"(2)(c)[{w.label}]", ok, "witness lies in [H_i,H_i]" if ok
                           else "witness not in [H_i,H_i]")


def check_certificate(cert: MethodCertificate) -> CertificateReport:
    """Check the clauses in order and read the verdict off the first that
    does not hold: INCOMPLETE when it cannot be checked, FAIL naming it
    when it is violated, PASS when every clause holds."""
    clauses: list[ClauseResult] = []
    for c in _clauses(cert):
        clauses.append(c)
        if not c.ok:
            return CertificateReport("INCOMPLETE" if c.ok is None else "FAIL", clauses,
                                     cert.description)
    return CertificateReport("PASS", clauses, cert.description)


# ---------------------------------------------------------------------------
# certificate builders for the proof families

def build_central_scalar_certificate(n: int, q: int, p: int,
                                     cap: int | None = None) -> MethodCertificate:
    """Whole-group certificate for SL(n,q) when p divides gcd(n, q-1):
    the scalar of order p is a central normal p-subgroup and the group is
    perfect, so [H,H] = H and no witness is needed."""
    if (q - 1) % p or n % p:
        raise DomainError("needs p | q-1 and p | n (central scalar of order p)")
    params = liea.compute_params(n, q, p)
    G = liea.enumerate_group(n, q, 1, cap=cap)
    F = field_spec(q)
    zeta = F.element_of_order(p)
    zmat = F.mul[zeta, mg.identity_matrix(n)]
    _, Sg = liea.build_sylow(params, cap=cap)
    return MethodCertificate(
        description=f"block-count p^s, e=1 instance: SL({n},{q}) at p={p}",
        p=p, H=G,
        containment=SylowContainment(kind="whole-group", sylow=Sg, det_order=1),
        H_evidence=TrivialityEvidence(kind="normal-p-subgroup",
                                      witness_gens=[zmat]))


def build_torus_quotient_certificate(n: int, q: int, p: int,
                                     cap: int | None = None) -> MethodCertificate:
    """Certificate for SL(n,q)/Z with p | q-1, p | n and Z the p-part of
    the scalar centre: H is the image of the monomial subgroup (the torus-Sylow
    normalizer), generated by its commutator subgroup together with the
    corner rotation, whose witness subgroup is the scaled-torus block group.
    The argument needs a monomial Sylow subgroup, which for p = 2 and
    q = 3 mod 4 is built from semidihedral 2 x 2 blocks instead."""
    if n % p or (q - 1) % p:
        raise DomainError("needs p | n and p | q-1")
    if n < 3:
        raise DomainError("needs n >= 3")
    if p == 2 and q % 4 == 3:
        raise DomainError("needs a monomial Sylow 2-subgroup, but for q = 3 mod 4 "
                          "it has semidihedral blocks")
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

    X, Y = liea._torus_corner(n, q, p)
    blocks = [2, 1] if n == 3 else [2, 1, n - 3]
    Lbar = liea.levi(blocks, q, 1, cap=cap, name="corner block group /Z", z_order=z_order)

    return MethodCertificate(
        description=f"torus-quotient instance: SL({n},{q})/Z{z_order} at p={p}",
        p=p, H=Hbar,
        containment=SylowContainment(kind="diagonal-characters", q_subgroup=Qg,
                                     sylow=Sg, det_order=1),
        H_evidence=TrivialityEvidence(kind="normal-p-subgroup",
                                      witness_gens=[Qg.elements[g] for g in Qg.gen_idx]),
        witnesses=[GeneratorWitness(
            "corner-rotation", X, aux_group=Lbar,
            aux_evidence=TrivialityEvidence(kind="normal-p-subgroup", witness_gens=[Y]))])


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
    half = n // 2
    split = liea.levi_split([half, n - half], q, p)  # before any closure
    if split is None:
        raise DomainError("balanced block split unavailable")
    # the Sylow builder lays blocks out in increasing width
    blocks = [small, big]
    N = liea.levi(blocks, q, 1, cap=cap, name="two-block group")
    F = field_spec(q)
    _, Sg = liea.build_sylow(params, cap=cap)

    w = F.primitive
    sigma = mg.identity_matrix(n)
    sigma[0, 0] = w
    sigma[small, small] = F.inv_el(w)

    H1 = liea.levi([half, n - half], q, 1, cap=cap, name="balanced block group")

    return MethodCertificate(
        description=f"block-count a*p^s+b instance: SL({n},{q}) at p={p}",
        p=p, H=N,
        containment=SylowContainment(kind="isotypic-blocks", sylow=Sg,
                                     blocks=tuple(blocks), det_order=1),
        H_evidence=TrivialityEvidence(
            kind="normal-p-subgroup",
            witness_gens=[_big_block_scalar(F, small, big, p)]),
        witnesses=[GeneratorWitness(
            "connector-torus", sigma, aux_group=H1,
            aux_evidence=TrivialityEvidence(kind="block-split", split=split, det_order=1))])


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
            liea.check_tuple(ni, qi, p=pi)
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
