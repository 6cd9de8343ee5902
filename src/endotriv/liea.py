"""Parameter arithmetic and explicit constructions for linear groups
SL(n,q) <= G <= GL(n,q) in coprime characteristic p.

Everything dispatches off the tuple (n, q, p, e, t, d, r, f, |Det G|, |Z|):
e is the multiplicative order of q mod p, q^e - 1 = p^t * d with p not
dividing d, and n = r*e + f with 0 <= f < e.

The constructions (Sylow p-subgroups as products of wreath towers over
Singer blocks, block-diagonal subgroups, torus normalizers) return
generator matrices at the GL level; determinant conditions are imposed by
Schreier generators of the preimage, which is exact for a Sylow subgroup
because a Sylow subgroup of a normal subgroup is the intersection with a
Sylow subgroup of the parent.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import backend
from . import matgrp as mg
from .errors import DomainError, GroupSpecError
from .gf import (FieldSpec, _least_irreducible, _least_primitive, _poly_mul, _poly_powmod,
                 _poly_rem, field_spec, is_prime, p_part, p_val,
                 prime_power_split)


# ---------------------------------------------------------------------------
# order formulas

def order_gl(n: int, q: int) -> int:
    o = q ** (n * (n - 1) // 2)
    for i in range(1, n + 1):
        o *= q ** i - 1
    return o


def order_sl(n: int, q: int) -> int:
    return order_gl(n, q) // (q - 1)


def group_order(n: int, q: int, det_order: int) -> int:
    return order_sl(n, q) * det_order


def multiplicative_order_mod(q: int, p: int) -> int:
    e, acc = 1, q % p
    while acc != 1:
        acc = (acc * q) % p
        e += 1
        if e > p:
            raise DomainError(f"{q} is not invertible mod {p}")  # pragma: no cover
    return e


def scalar_center_order(n: int, q: int, det_order: int) -> int:
    """Order of the scalar subgroup {a : a^n in Det(G)} of F_q^x."""
    if (q - 1) % det_order != 0:
        raise DomainError(f"det order {det_order} does not divide q-1={q - 1}")
    m = (q - 1) // det_order
    return det_order * math.gcd(n, m)


def det_quotient_order(n: int, q: int, det_order: int, z_order: int) -> int:
    """|Det(G)/Det(Z)| for Z the cyclic scalar subgroup of order z."""
    dz = z_order // math.gcd(n, z_order)
    if det_order % dz != 0:
        raise DomainError("Det(Z) is not contained in Det(G)")  # pragma: no cover
    return det_order // dz


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LieParams:
    n: int
    q: int
    p: int
    e: int
    t: int
    d: int
    r: int
    f: int
    det_order: int
    z_order: int

    @property
    def sylow_trivial(self) -> bool:
        return self.n < self.e

    @property
    def p_rank(self) -> int:
        """p-rank of G; for e = 1 the rank depends on p | |Det(G)|."""
        if self.e > 1:
            return self.r
        return self.n if self.det_order % self.p == 0 else self.n - 1

    @property
    def sylow_cyclic(self) -> bool:
        """Sylow p-subgroup of G itself (not of G/Z) cyclic."""
        if self.sylow_trivial:
            return False
        if self.p == 2:
            return self.n == 1
        return self.p_rank <= 1

    @property
    def sylow_abelian(self) -> bool:
        return self.n < self.p * self.e

    @property
    def field(self) -> FieldSpec:
        return field_spec(self.q)

    def sylow_order(self) -> int:
        return p_part(group_order(self.n, self.q, self.det_order), self.p)

    def quotient_order(self) -> int:
        return group_order(self.n, self.q, self.det_order) // self.z_order

    def quotient_sylow_order(self) -> int:
        return self.sylow_order() // p_part(self.z_order, self.p)

    def z_contains_center_p_part(self) -> bool:
        zc = scalar_center_order(self.n, self.q, self.det_order)
        return p_val(self.z_order, self.p) == p_val(zc, self.p)

    def to_json(self) -> dict:
        return {
            "n": self.n, "q": self.q, "p": self.p, "e": self.e, "t": self.t,
            "d": self.d, "r": self.r, "f": self.f,
            "det_order": self.det_order, "z_order": self.z_order,
            "sylow_trivial": self.sylow_trivial,
            "sylow_cyclic": self.sylow_cyclic,
            "sylow_abelian": self.sylow_abelian,
            "p_rank": self.p_rank,
            "scalar_center_order": scalar_center_order(self.n, self.q, self.det_order),
        }


def compute_params(n: int, q: int, p: int, det_order: int = 1,
                   z_order: int = 1) -> LieParams:
    if n < 1:
        raise DomainError(f"dimension n={n} must be positive")
    prime_power_split(q)  # validates q
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if q % p == 0:
        raise DomainError(f"characteristic p={p} divides q={q}")
    if det_order < 1 or (q - 1) % det_order != 0:
        raise DomainError(f"det order {det_order} must divide q-1={q - 1}")
    zc = scalar_center_order(n, q, det_order)
    if z_order < 1 or zc % z_order != 0:
        raise DomainError(
            f"|Z|={z_order} must divide the scalar center order {zc}")
    e = multiplicative_order_mod(q, p)
    t = p_val(q ** e - 1, p)
    d = (q ** e - 1) // p ** t
    r, f = divmod(n, e)
    return LieParams(n, q, p, e, t, d, r, f, det_order, z_order)


# ---------------------------------------------------------------------------
# generators of the standard groups

def sl_generators(n: int, q: int) -> list[np.ndarray]:
    """Generators of SL(n,q) for n >= 2."""
    F = field_spec(q)
    w = F.primitive
    gens = []
    for i in range(n - 1):
        up = mg.identity_matrix(n)
        up[i, i + 1] = 1
        lo = mg.identity_matrix(n)
        lo[i + 1, i] = 1
        gens += [up, lo]
    tv = mg.identity_matrix(n)
    tv[0, 1] = w
    gens.append(tv)
    tor = mg.identity_matrix(n)
    tor[0, 0] = w
    tor[1, 1] = F.inv_el(w)
    gens.append(tor)
    return gens


def enumerate_group(n: int, q: int, det_order: int = 1,
                    cap: int | None = None) -> mg.MatrixGroup:
    return enumerate_quotient(n, q, det_order, 1, cap=cap)


def enumerate_quotient(n: int, q: int, det_order: int = 1, z_order: int = 1,
                       cap: int | None = None, name: str | None = None) -> mg.MatrixGroup:
    """G/Z for SL(n,q) <= G <= GL(n,q) with |Det(G)| = det_order and Z the
    scalars of order z_order: the one-block group, closed over cosets."""
    zc = scalar_center_order(n, q, det_order)
    if zc % z_order != 0:
        raise DomainError(f"|Z|={z_order} invalid for this group")
    base = _default_name(n, q, det_order)
    return levi([n], q, det_order, cap=cap, z_order=z_order,
                name=name or (f"{base}/Z{z_order}" if z_order > 1 else base))


def quotient_closure(F: FieldSpec, gens, z_order: int, expected: int, cap: int | None,
                     name: str) -> mg.MatrixGroup:
    """<gens>/Z for Z the scalars of order z_order, in one closure over the
    cosets of Z; DomainError unless |<gens>/Z| * |Z| is the expected |<gens>|,
    which also fails when Z is not inside <gens>."""
    G = mg.MatrixGroup.generate(F, gens, cap=cap, name=name,
                                scalars=F.subgroup_values(z_order) if z_order > 1 else None)
    if G.order * z_order != expected:
        raise DomainError(f"closure of {name}: order {G.order} * |Z| = {z_order} "
                          f"!= expected {expected}")
    return G


def _default_name(n, q, det_order):
    if det_order == q - 1:
        return f"GL({n},{q})"
    if det_order == 1:
        return f"SL({n},{q})"
    return f"SL({n},{q}):{det_order}"


# ---------------------------------------------------------------------------
# extension-field blocks: the regular embedding of GF(q^e) into e x e
# matrices over GF(q), its Singer generator, and the Frobenius element

def singer_block(q: int, e: int) -> tuple[np.ndarray, np.ndarray]:
    """(w, g): the regular-embedding image of a generator of GF(q^e)^x and
    the Frobenius element with g w g^-1 = w^q, both as read-only e x e
    matrices, kept on GF(q)'s FieldSpec."""
    F = field_spec(q)
    if e not in F.singer_blocks:
        blocks = _singer_block(F, e)
        for m in blocks:
            m.flags.writeable = False
        F.singer_blocks[e] = blocks
    return F.singer_blocks[e]


def _singer_block(F: FieldSpec, e: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns j of w and of the Frobenius are gen * x^j and (x^j)^q in
    GF(q)[x]/(mod), for the least irreducible mod and its least generator."""
    mod = _least_irreducible(F, e)
    gen = _least_primitive(F, mod)
    powers = [[0] * j + [1] for j in range(e)]
    w = [_poly_rem(F, _poly_mul(F, gen, xj), mod) for xj in powers]
    frob = [_poly_powmod(F, xj, F.q, mod) for xj in powers]
    return tuple(np.array([c + [0] * (e - len(c)) for c in cols], dtype=np.uint8).T.copy()
                 for cols in (w, frob))


# ---------------------------------------------------------------------------
# Sylow p-subgroup construction

@dataclass
class SylowPresentation:
    generators: list[np.ndarray]
    claimed_order: int
    shape: str


def _chunk_cycle_perm(n: int, off: int, chunk: int, count: int) -> np.ndarray:
    """Permutation matrix cycling `count` consecutive chunks of width `chunk`."""
    perm = list(range(n))
    for c in range(count):
        for j in range(chunk):
            src = off + c * chunk + j
            dst = off + ((c + 1) % count) * chunk + j
            perm[src] = dst
    return mg.permutation_matrix(perm, n)


def _gl_sylow_generators(n: int, q: int, p: int, e: int, t: int) -> tuple[list[np.ndarray], str]:
    """Generators of a Sylow p-subgroup of GL(n,q) and its shape: for each
    base-p digit a_i of the block count, a_i wreath towers C wr C_p^(wr i)
    over `width`-wide base blocks, laid out in increasing width."""
    F = field_spec(q)
    semidihedral = p == 2 and q % 4 == 3
    if semidihedral:
        # semidihedral blocks over coordinate pairs, sized by the 2-part of
        # q+1 (the 2-part of q^2-1 is 2^(t2+1)); an odd n leaves a -1 corner
        t2 = p_val(q + 1, 2)
        w2, g2 = singer_block(q, 2)
        base = [_matrix_power(F, w2, (q * q - 1) // 2 ** (t2 + 1)), g2]
        width, label = 2, f"SD_{2 ** (t2 + 2)}"
    else:
        # the p-part of a Singer cycle of GF(q^e)
        w, _ = singer_block(q, e)
        base, width, label = [_matrix_power(F, w, (q ** e - 1) // p ** t)], e, f"C_{p ** t}"
    gens: list[np.ndarray] = []
    shape_terms: list[str] = []
    off = 0
    for i, a_i in enumerate(_base_digits(n // width, p)):
        for _ in range(a_i):
            gens += [mg.block_embed(n, [(off, b)]) for b in base]
            gens += [_chunk_cycle_perm(n, off, width * p ** (level - 1), p)
                     for level in range(1, i + 1)]
            off += width * p ** i
        if a_i:
            tower = label if i == 0 else f"{label} wr C_{p}^(wr {i})"
            shape_terms.append(f"({tower})^{a_i}" if a_i > 1 else tower)
    if semidihedral and n % 2:
        gens.append(mg.block_embed(n, [(n - 1, np.array([[F.neg_el(1)]], dtype=np.uint8))]))
        shape_terms.append("C_2")
    return gens, " x ".join(shape_terms) if shape_terms else "1"


def _matrix_power(F: FieldSpec, m: np.ndarray, e: int) -> np.ndarray:
    acc = mg.identity_matrix(m.shape[0])
    base = m.copy()
    while e:
        if e & 1:
            acc = backend.mm_one(acc[None], base, F)[0]
        base = backend.mm_one(base[None], base, F)[0]
        e >>= 1
    return acc


def _base_digits(r: int, p: int) -> list[int]:
    out = []
    while r:
        out.append(r % p)
        r //= p
    return out


def det_preimage_generators(F: FieldSpec, t: np.ndarray, t_order: int,
                            others: list[np.ndarray], d: int) -> list[np.ndarray]:
    """Generators of {x in <t, others> : det x in D_d}, D_d of order d in
    GF(q)^x, by Schreier's lemma (Holt, Eick and O'Brien, Handbook of
    Computational Group Theory, Section 4.1) over the transversal t^i, i < k,
    k the order of det t modulo D_d: t^k and t^i s t^-((i + c_s) mod k) for
    each s in `others` and i < k, c_s the c < k with det s det t^-c in D_d.
    t_order is a multiple of the order of t.  Duplicates and the identity
    are dropped; a det s outside <det t> D_d raises DomainError."""
    n, m = t.shape[0], (F.q - 1) // d  # D_d: the elements whose log m divides
    log_t, *logs = (int(F.log[x]) for x in backend.det_many(np.stack([t, *others]), F))
    k = m // math.gcd(log_t, m)

    def mul(a, b):
        return backend.mm_one(a[None], b, F)[0]

    powers, inv_powers = [mg.identity_matrix(n)], [mg.identity_matrix(n)]
    t_inv = _matrix_power(F, t, t_order - 1)
    for _ in range(k):
        powers.append(mul(powers[-1], t))
    for _ in range(k - 1):
        inv_powers.append(mul(inv_powers[-1], t_inv))
    gens = {powers[k].tobytes(): powers[k]}
    for s, log_s in zip(others, logs):
        c = next((c for c in range(k) if (log_s - c * log_t) % m == 0), None)
        if c is None:
            raise DomainError(f"a generator's determinant lies outside <det t> D_{d}")
        for i in range(k):
            x = mul(mul(powers[i], s), inv_powers[(i + c) % k])
            gens.setdefault(x.tobytes(), x)
    gens.pop(mg.identity_matrix(n).tobytes(), None)
    return list(gens.values())


def build_sylow(params: LieParams, cap: int | None = None) -> tuple[SylowPresentation, mg.MatrixGroup]:
    """A Sylow p-subgroup of G, as (presentation, enumerated group).

    S = {x in S_GL : det x in Det(G)}, generated from the Singer-block and
    chunk-cycling generators of S_GL, the first of which generates det(S_GL)
    (the p-part of GF(q)^x for e = 1, -1 if semidihedral, 1 for e > 1), and
    closed once, its order checked against |S|; the cap admits |S|.
    """
    n, q, p, d = params.n, params.q, params.p, params.det_order
    if params.sylow_trivial:
        raise DomainError(f"p={p} does not divide the group order (n < e)")
    claimed, name = params.sylow_order(), f"Syl_{p}({_default_name(n, q, d)})"
    mg.admit(q, cap, (claimed, f"closure of {name} exceeds cap {{cap}}"))
    F = params.field
    gl_gens, shape = _gl_sylow_generators(n, q, p, params.e, params.t)
    gens = det_preimage_generators(F, gl_gens[0], p_part(order_gl(n, q), p), gl_gens[1:], d) \
        or [mg.identity_matrix(n)]
    S = quotient_closure(F, gens, 1, claimed, cap, name)
    return SylowPresentation(gens, claimed, shape if d == q - 1 else shape + " ^ det"), S


# ---------------------------------------------------------------------------
# block-diagonal (Levi) subgroups

def levi_order(blocks, q: int, det_order: int) -> int:
    o = 1
    for b in blocks:
        o *= order_gl(b, q)
    return o * det_order // (q - 1)


def levi_generators(blocks, q: int, det_order: int = 1) -> list[np.ndarray]:
    n = sum(blocks)
    F = field_spec(q)
    w = F.primitive
    gens: list[np.ndarray] = []
    offs = []
    off = 0
    for b in blocks:
        offs.append(off)
        for gmat in (sl_generators(b, q) if b > 1 else []):
            gens.append(mg.block_embed(n, [(off, gmat)]))
        off += b
    for i in range(len(blocks) - 1):
        tor = mg.identity_matrix(n)
        tor[offs[i], offs[i]] = w
        tor[offs[i + 1], offs[i + 1]] = F.inv_el(w)
        gens.append(tor)
    if det_order > 1:
        dg = mg.identity_matrix(n)
        dg[0, 0] = F.pow_el(w, (q - 1) // det_order)
        gens.append(dg)
    if not gens:
        gens.append(mg.identity_matrix(n))
    return gens


def levi(blocks, q: int, det_order: int = 1, cap: int | None = None,
         name: str | None = None, z_order: int = 1) -> mg.MatrixGroup:
    """Block-diagonal subgroup of GL(n,q) with the given determinant image,
    modulo its scalars of order z_order; the cap admits the whole group."""
    blocks = list(blocks)
    if any(b < 1 for b in blocks):
        raise DomainError("block sizes must be positive")
    name = name or f"L{tuple(blocks)}:{det_order} over GF({q})"
    expected = levi_order(blocks, q, det_order)
    mg.admit(q, cap, (expected, f"closure of {name} exceeds cap {{cap}}"))
    return quotient_closure(field_spec(q), levi_generators(blocks, q, det_order), z_order,
                            expected, cap, name)


@dataclass
class BlockSplit:
    """Witness that a block group splits for the direct-factor argument:
    two index sets A, B covering the blocks, with p dividing the order of
    the intersection of each factor with the determinant-constrained group."""

    blocks: tuple[int, ...]
    part_a: tuple[int, ...]
    part_b: tuple[int, ...]
    order_a: int
    order_b: int
    p: int

    def valid(self) -> bool:
        return self.order_a % self.p == 0 and self.order_b % self.p == 0


def levi_split(blocks, q: int, det_order: int, p: int) -> BlockSplit | None:
    """A two-factor split certifying the one-dimensionality criterion.

    Hypotheses: if p | q-1 at least two blocks exceed 1; otherwise at least
    two blocks are >= e.  Returns None when they fail.
    """
    e = multiplicative_order_mod(q, p)
    need = (lambda b: b > 1) if e == 1 else (lambda b: b >= e)
    hits = [i for i, b in enumerate(blocks) if need(b)]
    if len(hits) < 2:
        return None
    a = (hits[0],)
    b = tuple(i for i in range(len(blocks)) if i != hits[0])

    def factor_order(part):
        return levi_order([blocks[i] for i in part], q, det_order)

    return BlockSplit(tuple(blocks), a, b, factor_order(a), factor_order(b), p)


def block_normalizer(s: int, r: int, q: int, det_order: int = 1, z_order: int = 1,
                     cap: int | None = None, name: str | None = None) -> mg.MatrixGroup:
    """N(L) for L the block-diagonal group of r equal s x s blocks with the
    given determinant image, modulo its scalars of order z_order: L extended
    by the adjacent block swaps, so the ambient group is never enumerated.
    For s = 1 it is the monomial group (the torus normalizer).  Order
    |L| * r!; the cap admits the whole group."""
    if s < 1 or r < 1:
        raise DomainError("block size and block count must be positive")
    name = name or f"N(L({s}^{r})):{det_order} over GF({q})"
    expected = levi_order([s] * r, q, det_order) * math.factorial(r)
    mg.admit(q, cap, (expected, f"closure of {name} exceeds cap {{cap}}"))
    return quotient_closure(field_spec(q), levi_generators([s] * r, q, det_order)
                            + _block_swaps(s, r, q), z_order, expected, cap, name)


def _block_swaps(s: int, r: int, q: int) -> list[np.ndarray]:
    """The swaps of adjacent s x s blocks, each with the first column of the
    pair negated when s is odd, so that its determinant is 1."""
    F, n = field_spec(q), s * r
    swaps = []
    for i in range(r - 1):
        perm = list(range(n))
        for j in range(s):
            perm[i * s + j] = (i + 1) * s + j
            perm[(i + 1) * s + j] = i * s + j
        mat = mg.permutation_matrix(perm, n)
        if s % 2 == 1:
            mat[:, i * s] = F.mul[F.neg_el(1), mat[:, i * s]]
        swaps.append(mat)
    return swaps


def is_monomial_matrix(m: np.ndarray) -> bool:
    return all(int(np.count_nonzero(m[i])) == 1 for i in range(m.shape[0])) and \
        all(int(np.count_nonzero(m[:, j])) == 1 for j in range(m.shape[1]))


# ---------------------------------------------------------------------------
# the torus-corner witness of the torus-quotient certificate

def _torus_corner(n: int, q: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) for n >= 3: X the corner rotation [[0, 1], [-1, 0]] on the
    first two coordinates, Y = diag(zeta, zeta, zeta^-2, 1, ...) the scaled
    torus, with zeta of order the p-part of q-1."""
    if (q - 1) % p != 0:
        raise DomainError("torus-corner requires p | q-1")
    F = field_spec(q)
    X = mg.block_embed(n, [(0, np.array([[0, 1], [F.neg_el(1), 0]], dtype=np.uint8))])
    zeta = F.element_of_order(p_part(q - 1, p))
    Y = mg.identity_matrix(n)
    Y[0, 0] = Y[1, 1] = zeta
    Y[2, 2] = F.pow_el(zeta, -2)
    return X, Y


# ---------------------------------------------------------------------------
# group spec strings

_GROUP_RE = re.compile(
    r"^(GL|SL|PGL|PSL)\(\s*(\d+)\s*,\s*(\d+)\s*\)(?::(\d+))?$")


@dataclass(frozen=True)
class GroupSpec:
    family: str
    n: int
    q: int
    det_order: int
    z_order: int

    @property
    def name(self) -> str:
        base = _default_name(self.n, self.q, self.det_order)
        if self.z_order > 1:
            return {"PGL": f"PGL({self.n},{self.q})",
                    "PSL": f"PSL({self.n},{self.q})"}.get(self.family,
                                                          f"{base}/Z{self.z_order}")
        return base


def parse_group_spec(text: str) -> GroupSpec:
    m = _GROUP_RE.match(text.strip())
    if not m:
        raise GroupSpecError(f"malformed group spec: {text!r}")
    fam, n, q, d = m.group(1), int(m.group(2)), int(m.group(3)), m.group(4)
    try:
        prime_power_split(q)
    except DomainError as exc:
        raise GroupSpecError(str(exc)) from exc
    if n < 1:
        raise GroupSpecError("dimension must be >= 1")
    if d is not None:
        if fam != "SL":
            raise GroupSpecError("determinant suffix only applies to SL(n,q):d")
        d = int(d)
        if d < 1 or (q - 1) % d != 0:
            raise GroupSpecError(f"det order {d} must divide q-1={q - 1}")
        return GroupSpec("SLd", n, q, d, 1)
    if fam == "GL":
        return GroupSpec(fam, n, q, q - 1, 1)
    if fam == "SL":
        return GroupSpec(fam, n, q, 1, 1)
    if fam == "PGL":
        return GroupSpec(fam, n, q, q - 1, q - 1)
    return GroupSpec("PSL", n, q, 1, math.gcd(n, q - 1))


def enumerate_spec(spec: GroupSpec, cap: int | None = None) -> mg.MatrixGroup:
    return enumerate_quotient(spec.n, spec.q, spec.det_order, spec.z_order,
                              cap=cap, name=spec.name)
