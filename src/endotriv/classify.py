"""The complete case dispatcher: T(G/Z) for SL(n,q) <= G <= GL(n,q).

Dispatch priority, most specific first:

  1. Sylow subgroup of G/Z cyclic, Z trivial   -> closed cyclic-case formulas
  2. Sylow subgroup of G/Z cyclic, Z nontrivial -> the extension's middle terms
  3. n = 2, p odd, p | q-1 (noncyclic quotient) -> rank-1 free part plus X
  4. n = p = 3, 3 | q-1, Z absorbing the central 3-part -> the three-way split
  5. p = 2, n = 3                                -> the two-way split on q mod 4
  6. p = 2, n = 2                                -> the (r, s, t) case tree
  7. otherwise                                   -> Z + X(G/Z)

Every returned classification carries a case tag naming the clause and a
notes list recording each side condition that was evaluated.  Each
abelian clause gives its tag, free rank and extra cyclic orders as a
`_Clause`, and `classify` adds X(G/Z) to build the one answer shape.  Inputs
matching no printed clause of the (r, s, t) tree raise AmbiguousCase
rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import abst, liea
from . import matgrp as mg
from .abst import AbelianStructure, ExtensionDescriptor, cyclic
from .errors import AmbiguousCase, CapExceeded, DomainError
from .gf import field_spec, p_part, p_val
from .liea import LieParams, compute_params


@dataclass
class TClassification:
    """T(G/Z) for one input.  `x_factor` is the X(G/Z) its clause used:
    x_group's determinant formula, except where the clause overrides it
    (SL(2,3) at p = 2, input (2, 3, 2, 1, 1): Z/3, from the full
    abelianization).  The formula is reported as such on the other
    non-perfect bases, SL(2,2) at p = 3 and PSL(2,3) at p = 2 (inputs
    (2, 2, 3, 1, 1) and (2, 3, 2, 1, 2)), where it is trivial while
    X(G/Z) is Z/2 and Z/3; `result` is right on all three."""

    result: AbelianStructure | ExtensionDescriptor
    x_factor: AbelianStructure
    tf_rank: int
    case_tag: str
    notes: list[str]
    params: LieParams

    def to_json(self) -> dict:
        out: dict = {
            "case_tag": self.case_tag,
            "tf_rank": self.tf_rank,
            "x_factor": self.x_factor.to_json(),
            "notes": list(self.notes),
            "input": {"n": self.params.n, "q": self.params.q, "p": self.params.p,
                      "det": self.params.det_order, "z": self.params.z_order},
        }
        out.update(self.result.to_json())
        if isinstance(self.result, AbelianStructure):
            out["kind"] = "abelian"
        return out

    def __str__(self):
        return f"[{self.case_tag}] T = {self.result}"


def x_group(params: LieParams) -> AbelianStructure:
    """The determinant formula for X(G/Z), the one-dimensional modules:
    the p'-part of Det(G)/Det(Z).

    It is X(G/Z) whenever the derived subgroup of G is all of SL(n,q); on
    the non-perfect bases SL(2,2) and SL(2,3) it can be smaller.
    """
    ratio = liea.det_quotient_order(params.n, params.q, params.det_order,
                                    params.z_order)
    return abst.prime_to_p_part(cyclic(ratio), params.p)


class _Clause(NamedTuple):
    """One printed clause: T = Z^rank + Z/orders[0] + ... + X, where X is
    x_group's formula unless `x` overrides it.  The cyclic.d clauses print
    their whole torsion and set add_x False."""

    tag: str
    rank: int = 0
    orders: tuple[int, ...] = ()
    x: AbelianStructure | None = None
    add_x: bool = True


# ---------------------------------------------------------------------------
# cyclic-Sylow closed forms (trivial Z, so X is the p'-part of Det(G))

def _cyclic_clause(params: LieParams, notes: list[str]) -> _Clause:
    n, q, p, e, f, d = (params.n, params.q, params.p, params.e, params.f,
                        params.det_order)
    if p == 2:
        # only n = 1 gives a cyclic Sylow 2-subgroup here
        if p_part(d, 2) < 4:
            return _Clause("cyclic.a")
        # a cyclic 2-group of order >= 4 contributes an order-2 syzygy
        # class; recorded separately because the bare quotient formula
        # drops it (see ledger)
        notes.append("order-2 syzygy summand added for |S| >= 4")
        return _Clause("cyclic.a", 0, (2,))
    if e == 1 and d % p == 0:
        if n != 1:
            raise DomainError("cyclic Sylow with p | q-1 and p | det forces n = 1")
        return _Clause("cyclic.b", 0, (2,))
    if e == 1:
        # n = 2, p odd, p not dividing d
        m = (q - 1) // d
        if m % 2 == 1:
            notes.append(f"(q-1)/det = {m} odd")
            return _Clause("cyclic.c.i", 0, (4,))
        notes.append(f"(q-1)/det = {m} even")
        return _Clause("cyclic.c.ii", 0, (4, 2))
    # e > 1, r = 1, n = e + f
    m = (q - 1) // d
    if f == 0:
        ell = math.gcd(m * (q - 1), q ** e - 1) // m
        notes.append(f"f = 0; m = {m}; ell = {ell}")
        return _Clause("cyclic.d.i", 0, (ell, 2 * e), add_x=False)
    if f == 2 and q == 2:
        notes.append("f = 2 and q = 2: reduced torsion")
        return _Clause("cyclic.d.ii", 0, (2 * e, 2), add_x=False)
    return _Clause("cyclic.d.ii", 0, (2 * e, q - 1, d), add_x=False)


# ---------------------------------------------------------------------------
# cyclic-Sylow quotients of central quotients: extension data only

def cyclic_quotient_normalizer(n: int, q: int, e: int, f: int, det_order: int,
                               z_order: int, cap: int | None) -> mg.MatrixGroup:
    """N(S)/Z for the cyclic-Sylow quotient, as an enumerated group, closed
    once in the quotient by Z from generators of N(S); e is the order of
    q mod p and f = n - e.

    For e = 1 (n = 1, or n = 2 with Z absorbing the central p-part) N(S)
    is the monomial subgroup, `liea.block_normalizer` of 1 x 1 blocks.  For
    r = 1, N_GL(S) is the block normalizer C_{q^e-1} : C_e times GL(f,q),
    generated by the Singer block t = w, the Frobenius block and GL(f,q),
    and N(S) = N_G(S) is the preimage of D_d under det, generated by
    `liea.det_preimage_generators` with t^-1 the embedded Singer block
    w^-1.  Before any work the cap must admit both |N_G(S)| and |N_GL(S)|.
    """
    name = f"N_G(S)/Z{z_order}"
    if e == 1:
        return liea.block_normalizer(1, n, q, det_order, z_order, cap=cap, name=name)
    ngl_order = e * (q ** e - 1) * liea.order_gl(f, q)
    expected = ngl_order * det_order // (q - 1)
    # N_GL(S) is not built; its limit keeps the set of refused tuples
    mg.admit(q, cap, (expected, f"closure of {name} exceeds cap {{cap}}"),
             (ngl_order, "closure of N_GL(S) exceeds cap {cap}"))
    F = field_spec(q)
    w, w_inv, g = F.singer_block(e)
    others = [mg.block_embed(n, [(0, g)])] + [
        mg.block_embed(n, [(e, m)]) for m in (liea.levi_generators([f], q, q - 1) if f else [])]
    gens = liea.det_preimage_generators(F, mg.block_embed(n, [(0, w)]),
                                        mg.block_embed(n, [(0, w_inv)]), others, det_order)
    return liea.quotient_closure(F, gens, z_order, expected, cap, name)


@lru_cache(maxsize=4096)
def _cyclic_ext_ab(n: int, q: int, e: int, f: int, det: int, z: int,
                   cap: int) -> AbelianStructure:
    """Abelianization of N(S)/Z for the cyclic-Sylow branch (cached: it is
    independent of p, and the fuzz suite revisits the same tuples)."""
    full = cyclic_quotient_normalizer(n, q, e, f, det, z, cap).as_subgroup()
    return mg.quotient_structure(full, mg.commutator_subgroup(full))


def _classify_cyclic_extension(params: LieParams, notes: list[str],
                               cap: int | None) -> TClassification:
    ab = _cyclic_ext_ab(params.n, params.q, params.e, params.f,
                        params.det_order, params.z_order, mg.enumeration_cap(cap))
    sub = abst.prime_to_p_part(ab, params.p)
    if sub != ab:
        notes.append(f"normalizer abelianization {ab} had a p-part; "
                     "only its p'-part consists of one-dimensional classes")
    s_ord = params.quotient_sylow_order()
    quot = cyclic(2) if s_ord >= 3 else abst.TRIVIAL
    notes.append(f"|S| = {s_ord}; syzygy image {quot}")
    return TClassification(ExtensionDescriptor(sub, quot), x_group(params), 0,
                           "cyclic.ext", notes, params)


# ---------------------------------------------------------------------------

def classify(n: int, q: int, p: int, det_order: int = 1, z_order: int = 1,
             cap: int | None = None) -> TClassification:
    params = compute_params(n, q, p, det_order, z_order)
    liea.require_p_divides(n, q, p, det_order, z_order)
    notes: list[str] = []

    if params.r == 1:
        notes.append("Sylow subgroup cyclic: e <= n < 2e")
        quotient_cyclic = True
    elif params.e == 1 and n == 2 and p > 2:
        quotient_cyclic = params.z_contains_center_p_part()
        notes.append("Sylow subgroup of G/Z cyclic: Z absorbs the central p-part"
                     if quotient_cyclic else
                     "Z leaves a central p-part: noncyclic quotient Sylow")
    else:
        quotient_cyclic = False

    if quotient_cyclic and z_order > 1:
        return _classify_cyclic_extension(params, notes, cap)
    tag, rank, orders, x, add_x = (_cyclic_clause if quotient_cyclic
                                   else _noncyclic_clause)(params, notes)
    if x is None:
        x = x_group(params)
    if add_x:
        orders += x.invariant_factors
    return TClassification(abst.from_cyclic_orders(orders, rank), x, rank, tag,
                           notes, params)


def _noncyclic_clause(params: LieParams, notes: list[str]) -> _Clause:
    n, q, p, e, d, z = (params.n, params.q, params.p, params.e,
                        params.det_order, params.z_order)
    if e == 1 and n == 2 and p > 2:
        # noncyclic: the quotient keeps a normal p-subgroup
        return _Clause("n2-odd.a", 1)

    if n == 3 and p == 3 and e == 1 and params.z_contains_center_p_part():
        ratio = (q - 1) // d
        if ratio % 3 != 0:
            notes.append(f"3 does not divide (q-1)/det = {ratio}")
            return _Clause("n3-char3.a", 3)
        if q % 9 == 1:
            notes.append(f"3 | (q-1)/det = {ratio}; q = 1 mod 9")
            return _Clause("n3-char3.b", 4)
        notes.append(f"3 | (q-1)/det = {ratio}; q = {q % 9} mod 9")
        return _Clause("n3-char3.c", 1, (2, 2))

    if p == 2 and n == 3:
        ratio = liea.det_quotient_order(n, q, d, z)
        if ratio % 2 == 0:
            notes.append(f"|Det(G)/Det(Z)| = {ratio} even: normal 2-subgroup")
            return _Clause("n3-char2.a", 1)
        if q % 4 == 1:
            notes.append(f"|Det(G)/Det(Z)| = {ratio} odd; 4 | q-1")
            return _Clause("n3-char2.b.i", 1)
        notes.append(f"|Det(G)/Det(Z)| = {ratio} odd; 4 | q+1")
        return _Clause("n3-char2.b.ii", 1, (2,))

    if p == 2 and n == 2:
        return _char2_rank2_clause(params, notes)

    # the generic clause
    if n < 2 * e or (p == 2 and n <= 3):
        raise DomainError("uncovered case tuple")  # pragma: no cover
    notes.append("generic clause: n >= 2e" + ("" if p > 2 else " and n > 3"))
    return _Clause("generic", 1)


def _char2_rank2_clause(params: LieParams, notes: list[str]) -> _Clause:
    q, d, z = params.q, params.det_order, params.z_order
    s = p_val(d, 2)
    r2 = p_val(z, 2)
    sl23 = q == 3 and d == 1 and r2 == 0
    if sl23:
        # the base group is not perfect: its abelianization contributes an
        # order-3 character group missed by the determinant formula
        notes.append("non-perfect base SL(2,3): X taken from the full "
                     "abelianization (order 3)")
    if q % 4 == 3:
        t = p_val(q + 1, 2)
        notes.append(f"q = 3 mod 4; (r,s,t) = ({r2},{s},{t})")
        if s == 0 and r2 == 0:
            # the one clause that SL(2,3) reaches
            return _Clause("n2-char2.A.1.a", 0, (4, 2), cyclic(3) if sl23 else None)
        if s == 0 and r2 == 1:
            if q % 8 == 3:
                return _Clause("n2-char2.A.1.b.i", 1, (3,))
            return _Clause("n2-char2.A.1.b.ii", 2)
        if s == 1 and r2 == 0:
            return _Clause("n2-char2.A.2.a", 1, (2,))
        if s == 1 and r2 == 1:
            return _Clause("n2-char2.A.2.b", 2)
        raise AmbiguousCase(
            f"(r,s,t) = ({r2},{s},{t}) matches no clause for q = 3 mod 4",
            detail={"r": r2, "s": s, "t": t, "q": q})
    t = p_val(q - 1, 2)
    notes.append(f"q = 1 mod 4; (r,s,t) = ({r2},{s},{t})")
    if r2 == 0:
        if s == 0:
            return _Clause("n2-char2.B.1.a", 0, (4, 2))
        return _Clause("n2-char2.B.1.b", 1)
    if 0 < r2 < s + 1 <= t:
        return _Clause("n2-char2.B.2.a", 1)
    if r2 == s + 1 <= t:
        if q % 8 == 1:
            return _Clause("n2-char2.B.2.b.i", 2)
        return _Clause("n2-char2.B.2.b.ii", 1, (3,))
    if r2 == s == t:
        return _Clause("n2-char2.B.2.c", 2)
    raise AmbiguousCase(
        f"(r,s,t) = ({r2},{s},{t}) matches no printed clause of the "
        "rank-two case tree", detail={"r": r2, "s": s, "t": t, "q": q})


# ---------------------------------------------------------------------------
# brute-force rank oracle

@dataclass
class RankOracle:
    p_rank: int
    n_g: int
    tf_rank: int

    def to_json(self) -> dict:
        return {"p_rank": self.p_rank, "n_G": self.n_g, "tf_rank": self.tf_rank}


def tf_rank_oracle(n: int, q: int, p: int, det_order: int = 1, z_order: int = 1,
                   cap: int | None = None) -> RankOracle:
    """Count conjugacy classes of maximal order-p^2 elementary abelian
    subgroups by enumeration, then apply the rank dichotomy.

    Each rank-2 E maximal in S gets one scan, the rows g h g^-1 over every g
    for E's generators h.  Where every row is fixed, g centralizes E, and E
    is maximal in G when no order-p such g lies outside it.  E joins the
    class of a representative R when some g sends every generator into R:
    then g E g^-1 <= R, and both have order p^2, so they are equal.  n_G is
    the number of representatives.

    Pure group theory: works for any prime dividing the quotient order,
    including the defining characteristic.
    """
    G, S = liea.quotient_sylow(n, q, p, det_order, z_order, cap=cap)
    eas = mg.elementary_abelian_subgroups(S, p)
    p_rank = max(e.rank for e in eas)
    reps = []  # a mask over G of one representative per class
    if p_rank >= 2:
        pmask = G.elements_satisfying_power(p)
        for e in eas:
            if e.rank != 2 or not e.maximal:  # extendable inside S already
                continue
            inside, hs = mg._mask(G, e.subgroup.idx), e.subgroup.gen_idx
            conj = [G.sandwich_all(h) for h in hs]
            central = np.logical_and.reduce([c == h for c, h in zip(conj, hs)])
            if (central & pmask & ~inside).any():  # extendable in G
                continue
            if not any(np.logical_and.reduce([R[c] for c in conj]).any() for R in reps):
                reps.append(inside)
    n_g = len(reps)
    tf = n_g if p_rank <= 2 else n_g + 1
    return RankOracle(p_rank, n_g, tf)


def oracle_check(tc: TClassification, cap: int | None) -> dict:
    """The `oracle` and `oracle_status` fields for classification tc: the
    oracle's answer and PASS or FAIL as its rank agrees with tc's, or
    `"oracle": None` and `SKIP (<refusal>)` when the cap refuses it."""
    pr = tc.params
    try:
        orc = tf_rank_oracle(pr.n, pr.q, pr.p, pr.det_order, pr.z_order, cap=cap)
    except CapExceeded as exc:
        return {"oracle": None, "oracle_status": f"SKIP ({exc})"}
    return {"oracle": orc.to_json(),
            "oracle_status": "PASS" if orc.tf_rank == tc.tf_rank else "FAIL"}
