"""The complete case dispatcher: T(G/Z) for SL(n,q) <= G <= GL(n,q).

Dispatch priority, most specific first:

  1. Sylow subgroup of G/Z cyclic, Z trivial   -> closed cyclic-case formulas
  2. Sylow subgroup of G/Z cyclic, Z nontrivial -> unresolved extension data
  3. n = 2, p odd, p | q-1 (noncyclic quotient) -> rank-1 free part plus X
  4. n = p = 3, 3 | q-1, Z absorbing the central 3-part -> the three-way split
  5. p = 2, n = 3                                -> the two-way split on q mod 4
  6. p = 2, n = 2                                -> the (r, s, t) case tree
  7. otherwise                                   -> Z + X(G/Z)

Every returned classification carries a case tag naming the clause and a
notes list recording each side condition that was evaluated.  Inputs
matching no printed clause of the (r, s, t) tree raise AmbiguousCase
rather than guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import abst, backend, liea
from . import matgrp as mg
from .abst import AbelianStructure, ExtensionDescriptor, cyclic, direct_sum, free
from .errors import AmbiguousCase, DomainError
from .gf import p_part, p_val
from .liea import LieParams, compute_params


@dataclass
class TClassification:
    """T(G/Z) for one input.  `x_factor` is x_group's determinant formula,
    reported as such even outside its domain (the non-perfect bases
    SL(2,2), SL(2,3)), where it can differ from X(G/Z) while `result`
    stays right."""

    result: AbelianStructure | ExtensionDescriptor
    x_factor: AbelianStructure
    tf_rank: int
    case_tag: str
    notes: list[str] = field(default_factory=list)
    params: LieParams | None = None

    def to_json(self) -> dict:
        out: dict = {
            "case_tag": self.case_tag,
            "tf_rank": self.tf_rank,
            "x_factor": self.x_factor.to_json(),
            "notes": list(self.notes),
        }
        if self.params is not None:
            out["input"] = {"n": self.params.n, "q": self.params.q,
                            "p": self.params.p, "det": self.params.det_order,
                            "z": self.params.z_order}
        if isinstance(self.result, AbelianStructure):
            out.update(self.result.to_json())
            out["kind"] = "abelian"
        else:
            out.update(self.result.to_json())
        return out

    def __str__(self):
        return f"[{self.case_tag}] T = {self.result}"


def x_group(params: LieParams, strict: bool = True) -> AbelianStructure:
    """X(G/Z): one-dimensional modules, the p'-part of Det(G)/Det(Z).

    Valid whenever the derived subgroup of G is all of SL(n,q); the
    non-perfect bases SL(2,2) and SL(2,3) are rejected under strict=True.
    With strict=False it returns the formula there too, and the
    `x_factor` of every TClassification is this formula.
    """
    if strict and params.n == 2 and params.q <= 3 and params.det_order % 2 != 0:
        raise DomainError(
            f"SL(2,{params.q}) is not perfect; the determinant formula for "
            "X does not apply")
    ratio = liea.det_quotient_order(params.n, params.q, params.det_order,
                                    params.z_order)
    return abst.prime_to_p_part(cyclic(ratio), params.p)


def _with_x(torsion_orders, x: AbelianStructure, rank: int = 0) -> AbelianStructure:
    base = abst.from_cyclic_orders([d for d in torsion_orders if d > 1], rank)
    return direct_sum(base, x)


# ---------------------------------------------------------------------------
# cyclic-Sylow closed forms (trivial Z)

def _classify_cyclic_trivial_z(params: LieParams, notes: list[str]) -> TClassification:
    n, q, p, e, f, d = (params.n, params.q, params.p, params.e, params.f,
                        params.det_order)
    if p == 2:
        # only n = 1 gives a cyclic Sylow 2-subgroup here
        two = p_part(d, 2)
        torsion = [d // two]
        if two >= 4:
            # a cyclic 2-group of order >= 4 contributes an order-2 syzygy
            # class; recorded separately because the bare quotient formula
            # drops it (see ledger)
            torsion.append(2)
            notes.append("order-2 syzygy summand added for |S| >= 4")
        res = abst.from_cyclic_orders([x for x in torsion if x > 1])
        return TClassification(res, abst.prime_to_p_part(cyclic(d), 2), 0,
                               "cyclic.a", notes, params)
    if e == 1 and d % p == 0:
        if n != 1:
            raise DomainError("cyclic Sylow with p | q-1 and p | det forces n = 1")
        res = abst.from_cyclic_orders([x for x in (d // p_part(d, p), 2) if x > 1])
        return TClassification(res, abst.prime_to_p_part(cyclic(d), p), 0,
                               "cyclic.b", notes, params)
    if e == 1:
        # n = 2, p odd, p not dividing d
        m = (q - 1) // d
        if m % 2 == 1:
            notes.append(f"(q-1)/det = {m} odd")
            res = abst.from_cyclic_orders([x for x in (d, 4) if x > 1])
            tag = "cyclic.c.i"
        else:
            notes.append(f"(q-1)/det = {m} even")
            res = abst.from_cyclic_orders([x for x in (d, 4, 2) if x > 1])
            tag = "cyclic.c.ii"
        return TClassification(res, abst.prime_to_p_part(cyclic(d), p), 0,
                               tag, notes, params)
    # e > 1, r = 1, n = e + f
    m = (q - 1) // d
    if f == 0:
        ell = math.gcd(m * (q - 1), q ** e - 1) // m
        notes.append(f"f = 0; m = {m}; ell = {ell}")
        res = abst.from_cyclic_orders([x for x in (ell, 2 * e) if x > 1])
        tag = "cyclic.d.i"
    else:
        if f == 2 and q == 2:
            notes.append("f = 2 and q = 2: reduced torsion")
            res = abst.from_cyclic_orders([2 * e, 2])
        else:
            res = abst.from_cyclic_orders([x for x in (2 * e, q - 1, d) if x > 1])
        tag = "cyclic.d.ii"
    return TClassification(res, abst.prime_to_p_part(cyclic(d), p), 0,
                           tag, notes, params)


# ---------------------------------------------------------------------------
# cyclic-Sylow quotients of central quotients: extension data only

def cyclic_quotient_normalizer(params: LieParams, cap: int | None = None) -> mg.MatrixGroup:
    """N(S)/Z for the cyclic-Sylow quotient, as an enumerated group, closed
    once in the quotient by Z from generators of N(S).

    For e = 1 (so n = 2, p odd, Z absorbing the central p-part) N(S) is the
    monomial subgroup.  For r = 1, N_GL(S) is the block normalizer
    C_{q^e-1} : C_e times GL(f,q), generated by the Singer block t = w, the
    Frobenius block and GL(f,q), and N(S) = N_G(S) is the preimage of D_d
    under det: N_GL(S) -> F_q^x.  det t is primitive, so the powers t^i,
    i < k = (q-1)/d, are a transversal of that preimage, and Schreier's
    lemma (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
    Section 4.1) generates it by t^k and t^i s t^-((i + c_s) mod k) for every
    other generator s and every i < k, where c_s = log det s / log det t
    mod k.  Before any work the cap must admit both |N_G(S)| and |N_GL(S)|.
    """
    n, q, e, f, d, z = (params.n, params.q, params.e, params.f,
                        params.det_order, params.z_order)
    too_large = "Sylow normalizer too large to enumerate"
    if e == 1:
        expected = liea.monomial_order(n, q, d)
        mg.admit(q, cap, (expected, too_large))
        gens = liea.monomial_generators(n, q, d)
    else:
        ngl_order = e * (q ** e - 1) * liea.order_gl(f, q)
        expected = ngl_order * d // (q - 1)
        # N_GL(S) is not built; its limit keeps the set of refused tuples
        mg.admit(q, cap, (expected, too_large),
                 (ngl_order, "closure of N_GL(S) exceeds cap {cap}"))
        gens = _det_preimage_generators(params)
    return liea.quotient_closure(params.field, gens, z, expected, cap, f"N_G(S)/Z{z}")


def _det_preimage_generators(params: LieParams) -> list[np.ndarray]:
    """Schreier generators of N_G(S) = det^-1(D_d) in N_GL(S), r = 1, e > 1:
    see `cyclic_quotient_normalizer`.  Duplicates and the identity dropped."""
    n, q, e, f, d = params.n, params.q, params.e, params.f, params.det_order
    F = params.field
    w, g = liea.singer_block(q, e)
    t = mg.block_embed(n, [(0, w)])
    others = [mg.block_embed(n, [(0, g)])] + [
        mg.block_embed(n, [(e, m)]) for m in (liea.group_generators(f, q, q - 1) if f else [])]
    k = (q - 1) // d
    logs = [int(F.log[x]) for x in backend.det_many(np.stack([t] + others), F)]
    ratio = pow(logs[0], -1, k)  # log det t is a unit mod q - 1 (0 when k = 1)

    def mul(a, b):
        return backend.mm_one(a[None], b, F)[0]

    powers, inv_powers = [mg.identity_matrix(n)], [mg.identity_matrix(n)]
    t_inv = liea._matrix_power(F, t, q ** e - 2)  # t has order q^e - 1
    for _ in range(k):
        powers.append(mul(powers[-1], t))
    for _ in range(k - 1):
        inv_powers.append(mul(inv_powers[-1], t_inv))
    gens = {powers[k].tobytes(): powers[k]}
    for s, log_s in zip(others, logs[1:]):
        c = log_s * ratio % k
        for i in range(k):
            x = mul(mul(powers[i], s), inv_powers[(i + c) % k])
            gens.setdefault(x.tobytes(), x)
    gens.pop(mg.identity_matrix(n).tobytes(), None)
    return list(gens.values())


@lru_cache(maxsize=4096)
def _cyclic_ext_ab(n: int, q: int, e: int, f: int, det: int, z: int,
                   cap: int | None) -> AbelianStructure:
    """Abelianization of N(S)/Z for the cyclic-Sylow branch (cached: it is
    independent of p, and the fuzz suite revisits the same tuples)."""
    probe = LieParams(n, q, 0, e, 0, 0, max(n // e, 1), f, det, z)
    N = cyclic_quotient_normalizer(probe, cap=cap)
    full = N.as_subgroup()
    return mg.quotient_structure(full, mg.commutator_subgroup(full))


def _classify_cyclic_extension(params: LieParams, notes: list[str],
                               cap: int | None) -> TClassification:
    ab = _cyclic_ext_ab(params.n, params.q, params.e, params.f,
                        params.det_order, params.z_order, cap)
    sub = abst.prime_to_p_part(ab, params.p)
    if sub != ab:
        notes.append(f"normalizer abelianization {ab} had a p-part; "
                     "only its p'-part consists of one-dimensional classes")
    s_ord = params.quotient_sylow_order()
    quot = cyclic(2) if s_ord >= 3 else abst.TRIVIAL
    notes.append(f"|S| = {s_ord}; syzygy image {quot}")
    # a trivial syzygy image pins the middle term
    res = ExtensionDescriptor(sub=sub, quot=quot,
                              resolved=sub if quot.is_trivial else None)
    return TClassification(res, x_group(params, strict=False), 0,
                           "cyclic.ext", notes, params)


# ---------------------------------------------------------------------------

def classify(n: int, q: int, p: int, det_order: int = 1, z_order: int = 1,
             cap: int | None = None) -> TClassification:
    params = compute_params(n, q, p, det_order, z_order)
    notes: list[str] = []
    if params.sylow_trivial:
        raise DomainError(
            f"p = {p} does not divide the group order (n = {n} < e = {params.e})")
    if params.quotient_order() % p != 0:
        raise DomainError("p does not divide |G/Z|")

    e, r, d, z = params.e, params.r, params.det_order, params.z_order
    quotient_cyclic = False
    if r == 1:
        quotient_cyclic = True
        notes.append("Sylow subgroup cyclic: e <= n < 2e")
    elif e == 1 and n == 2 and p > 2:
        if params.z_contains_center_p_part():
            quotient_cyclic = True
            notes.append("Sylow subgroup of G/Z cyclic: Z absorbs the "
                         "central p-part")
        else:
            notes.append("Z leaves a central p-part: noncyclic quotient Sylow")

    if quotient_cyclic:
        if z == 1:
            return _classify_cyclic_trivial_z(params, notes)
        return _classify_cyclic_extension(params, notes, cap)

    if e == 1 and n == 2 and p > 2:
        # noncyclic: the quotient keeps a normal p-subgroup
        x = x_group(params)
        return TClassification(direct_sum(free(1), x), x, 1,
                               "n2-odd.a", notes, params)

    if n == 3 and p == 3 and e == 1 and params.z_contains_center_p_part():
        x = x_group(params)
        ratio = (q - 1) // d
        if ratio % 3 != 0:
            notes.append(f"3 does not divide (q-1)/det = {ratio}")
            return TClassification(direct_sum(free(3), x), x, 3,
                                   "n3-char3.a", notes, params)
        if q % 9 == 1:
            notes.append(f"3 | (q-1)/det = {ratio}; q = 1 mod 9")
            return TClassification(direct_sum(free(4), x), x, 4,
                                   "n3-char3.b", notes, params)
        notes.append(f"3 | (q-1)/det = {ratio}; q = {q % 9} mod 9")
        return TClassification(_with_x([2, 2], x, 1), x, 1,
                               "n3-char3.c", notes, params)

    if p == 2 and n == 3:
        ratio = liea.det_quotient_order(n, q, d, z)
        x = x_group(params, strict=False)
        if ratio % 2 == 0:
            notes.append(f"|Det(G)/Det(Z)| = {ratio} even: normal 2-subgroup")
            return TClassification(direct_sum(free(1), x), x, 1,
                                   "n3-char2.a", notes, params)
        if q % 4 == 1:
            notes.append(f"|Det(G)/Det(Z)| = {ratio} odd; 4 | q-1")
            return TClassification(direct_sum(free(1), x), x, 1,
                                   "n3-char2.b.i", notes, params)
        notes.append(f"|Det(G)/Det(Z)| = {ratio} odd; 4 | q+1")
        return TClassification(_with_x([2], x, 1), x, 1,
                               "n3-char2.b.ii", notes, params)

    if p == 2 and n == 2:
        return _classify_char2_rank2(params, notes)

    # the generic clause
    if not (n >= 2 * e):
        raise DomainError("uncovered case tuple")  # pragma: no cover
    if p == 2 and n <= 3:
        raise DomainError("uncovered case tuple")  # pragma: no cover
    x = x_group(params)
    notes.append("generic clause: n >= 2e" +
                 ("" if p > 2 else " and n > 3"))
    return TClassification(direct_sum(free(1), x), x, 1, "generic",
                           notes, params)


def _classify_char2_rank2(params: LieParams, notes: list[str]) -> TClassification:
    n, q, d, z, p = params.n, params.q, params.det_order, params.z_order, 2
    s = p_val(d, 2)
    r2 = p_val(z, 2)
    x = x_group(params, strict=False)
    if q == 3 and d == 1 and r2 == 0:
        # the base group is not perfect: its abelianization contributes an
        # order-3 character group missed by the determinant formula
        x = cyclic(3)
        notes.append("non-perfect base SL(2,3): X taken from the full "
                     "abelianization (order 3)")
    if q % 4 == 3:
        t = p_val(q + 1, 2)
        notes.append(f"q = 3 mod 4; (r,s,t) = ({r2},{s},{t})")
        if s == 0 and r2 == 0:
            return TClassification(_with_x([4, 2], x), x, 0,
                                   "n2-char2.A.1.a", notes, params)
        if s == 0 and r2 == 1:
            if q % 8 == 3:
                return TClassification(_with_x([3], x, 1), x, 1,
                                       "n2-char2.A.1.b.i", notes, params)
            return TClassification(direct_sum(free(2), x), x, 2,
                                   "n2-char2.A.1.b.ii", notes, params)
        if s == 1 and r2 == 0:
            return TClassification(_with_x([2], x, 1), x, 1,
                                   "n2-char2.A.2.a", notes, params)
        if s == 1 and r2 == 1:
            return TClassification(direct_sum(free(2), x), x, 2,
                                   "n2-char2.A.2.b", notes, params)
        raise AmbiguousCase(
            f"(r,s,t) = ({r2},{s},{t}) matches no clause for q = 3 mod 4",
            detail={"r": r2, "s": s, "t": t, "q": q})
    t = p_val(q - 1, 2)
    notes.append(f"q = 1 mod 4; (r,s,t) = ({r2},{s},{t})")
    if r2 == 0:
        if s == 0:
            return TClassification(_with_x([4, 2], x), x, 0,
                                   "n2-char2.B.1.a", notes, params)
        return TClassification(direct_sum(free(1), x), x, 1,
                               "n2-char2.B.1.b", notes, params)
    if 0 < r2 < s + 1 <= t:
        return TClassification(direct_sum(free(1), x), x, 1,
                               "n2-char2.B.2.a", notes, params)
    if r2 == s + 1 <= t:
        if q % 8 == 1:
            return TClassification(direct_sum(free(2), x), x, 2,
                                   "n2-char2.B.2.b.i", notes, params)
        return TClassification(_with_x([3], x, 1), x, 1,
                               "n2-char2.B.2.b.ii", notes, params)
    if r2 == s == t:
        return TClassification(direct_sum(free(2), x), x, 2,
                               "n2-char2.B.2.c", notes, params)
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

    Pure group theory: works for any prime dividing the quotient order,
    including the defining characteristic.
    """
    from .gf import is_prime
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    G = liea.enumerate_quotient(n, q, det_order, z_order, cap=cap)
    if G.order % p != 0:
        raise DomainError(f"p = {p} does not divide |G/Z| = {G.order}")
    S = mg.sylow_subgroup_of(G, p)
    eas = mg.elementary_abelian_subgroups(S, p)
    p_rank = max(e.rank for e in eas)
    maximal2 = []
    if p_rank >= 2:
        pmask = G.elements_satisfying_power(p)
        for e in eas:
            if e.rank != 2:
                continue
            C = mg.centralizer(G, e.subgroup)
            if np.isin(C.idx[pmask[C.idx]], e.subgroup.idx).all():  # not extendable
                maximal2.append(e.subgroup)
    classes = mg.subgroup_conjugacy_classes(G, maximal2) if maximal2 else []
    n_g = len(classes)
    tf = n_g if p_rank <= 2 else n_g + 1
    return RankOracle(p_rank, n_g, tf)

