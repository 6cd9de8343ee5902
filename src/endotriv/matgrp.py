"""Enumerated matrix groups over GF(q) and the classical subgroup toolbox.

A MatrixGroup holds the full element table of a finite group of invertible
n x n matrices over GF(q) (q <= 256).  Central quotients (PGL, PSL, G/Z)
are stored the same way: every element is its lexicographically least
multiple over the quotient kernel.  A quotient is closed over the cosets
of its kernel, each product taken to its least multiple as it is found,
so G itself is never enumerated.  The closure acts on rows (R. A.
Parker's row vectors from the Meat-axe): each row is a vector index in
[0, q^n), and x * g is the rows of x each multiplied by g.  So the closure
takes the orbit of the basis rows under the generators and the kernel
once, and reads every product from its action by gathers (the base-image
view, Holt, Eick and O'Brien, 4.4); the least multiple is read off row
0's first nonzero entry.  An element's one key reads the orbit positions
of its rows in base R, for R orbit rows.  Each breadth-first level numbers
its products by it, through a direct-address table while there are at
most DIRECT_LIMIT keys, by sorted keys beyond; a given matrix is found by
its rows' positions and binary search in the kept sorted keys.

Alongside the elements a group keeps the Schreier data of its closure as
int32 index tables (Holt, Eick and O'Brien, Handbook of Computational Group
Theory, ch. 4): the product of every element with every generator, and the
breadth-first tree through which each element was first reached.  Every
index-level operation (products, inverses, powers, conjugates, normalizer
scans) is an integer gather over these tables: a walk up the tree moves
whole arrays one level a step.  Determinants are multiplied down the tree
from the generators'.  The matrix kernels in
`backend` are used only to build a group, and the element keys only to
look up a given matrix.  Everything here is read-only after construction.
"""

from __future__ import annotations

import os
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import backend
from .abst import AbelianStructure, from_cyclic_orders
from .errors import CapExceeded, DomainError
from .gf import Q_ENUM_LIMIT, FieldSpec, factorize, p_part, p_val

DEFAULT_CAP = 2_000_000


def admit(q: int, cap: int | None, *limits: tuple[int, str]) -> None:
    """Refuse an enumeration over GF(q) before any work: first each
    (order, message) limit whose order exceeds the cap, the message
    formatted with `needed` and `cap`, then a field too large to tabulate.
    Every constructor calls this before it asks for the field."""
    cap_val = enumeration_cap(cap)
    for order, message in limits:
        if order > cap_val:
            raise CapExceeded(message.format(needed=order, cap=cap_val),
                              needed=order, cap=cap_val)
    if q > Q_ENUM_LIMIT:
        raise DomainError(f"enumeration supports q <= {Q_ENUM_LIMIT}, got q={q}")


def enumeration_cap(override: int | None = None) -> int:
    if override is not None:
        if override < 0:
            raise DomainError(f"the enumeration cap must be a non-negative integer, got {override}")
        return int(override)
    env = os.environ.get("ENDOTRIV_CAP")
    if not env:
        return DEFAULT_CAP
    if not (env.isascii() and env.isdigit()):
        raise DomainError(f"ENDOTRIV_CAP must be a non-negative integer, got {env!r}")
    return int(env)


def identity_matrix(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.uint8)


def _field_entries(entries, q: int) -> tuple[np.ndarray, np.ndarray]:
    """(entries as uint8, mask of those that are integers in [0, q)), the
    others read as 0, where a bare uint8 cast reads 258 as 2 and 1.9 as 1."""
    a = np.asarray(entries)
    ok = a < q if a.dtype == np.uint8 else (a >= 0) & (a < q)
    if a.dtype.kind not in "biu":  # a float or object entry must be whole
        ok &= a % 1 == 0
    return np.where(ok, a, 0).astype(np.uint8, copy=False), ok


def matrix(entries, q: int = Q_ENUM_LIMIT) -> np.ndarray:
    """A square uint8 matrix over GF(q): DomainError unless each entry is an integer in [0, q)."""
    m, ok = _field_entries(entries, q)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DomainError("matrix entries must form a square array")
    if not ok.all():
        raise DomainError(f"matrix entries must be integers in [0, {q})")
    return m


def permutation_matrix(perm, n: int | None = None) -> np.ndarray:
    """Matrix sending basis vector e_j to e_perm[j]."""
    n = n or len(perm)
    m = np.zeros((n, n), dtype=np.uint8)
    for j, i in enumerate(perm):
        m[i, j] = 1
    return m


def block_embed(n: int, blocks: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """Identity with the given (offset, matrix) blocks written on the diagonal."""
    m = identity_matrix(n)
    for off, b in blocks:
        k = b.shape[0]
        m[off:off + k, off:off + k] = b
    return m


# Row indices and element keys below this bound are int64; wider ones are
# Python ints, which numpy handles alike.
INT_KEY_LIMIT = 1 << 63


def _int_dtype(bound: int):
    return np.int64 if bound <= INT_KEY_LIMIT else object


def _sorted_unique(vals: np.ndarray) -> np.ndarray:
    """np.unique(vals), flattened: one sort and a neighbour mask.  A bare
    np.unique call takes numpy's hash path and sorts its result after; on
    int64 arrays of 300 to 133 000 values that is 3-15x slower."""
    vals = np.sort(vals, axis=None)
    keep = np.empty(len(vals), dtype=bool)
    keep[:1] = True
    keep[1:] = vals[1:] != vals[:-1]
    return vals[keep]


def _unique_first(vals: np.ndarray):
    """np.unique(vals, return_index=True, return_inverse=True) without its slow stable sort."""
    uniq, at = np.unique(vals, return_inverse=True)
    first = np.full(len(uniq), len(vals))
    np.minimum.at(first, at, np.arange(len(vals)))
    return uniq, first, at


def _merge_sorted(old: tuple[np.ndarray, ...], new: tuple[np.ndarray, ...]) -> list[np.ndarray]:
    """Each new[i] written into old[i] at the places that keep old[0] sorted,
    as np.insert(old[i], np.searchsorted(old[0], new[0]), new[i]) does:
    old[0] and new[0] are sorted and share no value.  One mask marks where
    the new values land and every array is written through it."""
    at = np.searchsorted(old[0], new[0]) + np.arange(len(new[0]))
    fresh = np.zeros(len(old[0]) + len(new[0]), dtype=bool)
    fresh[at] = True
    out = []
    for a, b in zip(old, new):
        merged = np.empty(len(fresh), dtype=a.dtype)
        merged[at] = b
        merged[~fresh] = a
        out.append(merged)
    return out


def _orbit_step(seen: np.ndarray, imgs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(seen with new merged in, new) for a sorted orbit so far `seen`: new
    holds the distinct values of imgs outside seen, sorted."""
    cand = _sorted_unique(imgs)
    new = cand[seen[np.minimum(np.searchsorted(seen, cand), len(seen) - 1)] != cand]
    return _merge_sorted((seen,), (new,))[0], new


def _kernel(scalars) -> np.ndarray:
    scal = np.array(sorted(int(s) for s in scalars), dtype=np.uint8)
    if scal[0] != 1:
        raise DomainError("quotient kernel must contain 1")
    return scal


def _least_scalar(field: FieldSpec, zs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """s per row of digits for which zs[s] row is least: the least zs[s] a, a its first nonzero."""
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    return field.mul[zs[:, None], lead].argmin(axis=0)


def _row_orbit(field: FieldSpec, gens: list[np.ndarray], zs: np.ndarray, wq: np.ndarray,
               bound: int, refusal: CapExceeded):
    """The orbit of the identity's rows wq (the place values of a row's
    digits) under the generators and the kernel scalars, as (vec, act, zpos):
    vec its sorted row indices, act[k, v] the position of vec[v] gens[k] and
    zpos[s, v] that of zs[s] vec[v].  Each new row is multiplied once, in one
    kernel call per level; `refusal` is raised past `bound` rows."""
    n, ng, wide = len(wq), len(gens), np.hstack(gens)  # every generator side by side
    new = seen = wq[::-1]  # the identity's rows e_i, sorted
    found, imgs = [], []
    while len(new):
        dig = (new[:, None] // wq % field.q).astype(np.uint8)
        gimg = backend.mm_one(dig[None], wide, field)[0].reshape(len(new), ng, n) @ wq
        found.append(new)
        imgs.append(np.vstack([gimg.T, field.mul[zs[:, None, None], dig] @ wq]))
        seen, new = _orbit_step(seen, imgs[-1])
        if len(seen) > bound:
            raise refusal
    at = np.searchsorted(seen, np.hstack(imgs)[:, np.argsort(np.hstack(found))])
    return seen, at[:ng], at[ng:]


# A closure whose row orbit has R rows numbers its products through a
# direct-address table of R^n int32 entries when R^n is at most this (1 MB),
# and by sorted keys above it.  It takes every oracle closure of the
# benchmark, 185 of 186 certify ones and 8 of 19 fuzz ones.  2^20 or 2^22
# takes one fuzz closure more (78 elements, R^n = 6.2e5), which then closes
# in 1.16 ms against 1.0 ms (best of 15), and raises fuzz's peak RSS by
# 1.9 MB (numpy 2.4 on a 2-core host).
DIRECT_LIMIT = 1 << 18


class _DirectNumbering:
    """Element indices of keys in [0, bound), read from an int32 table that
    holds -1 at the keys of no element found so far."""

    dtype = np.int64

    def __init__(self, key0: int, bound: int):
        self.table = np.full(bound, -1, dtype=np.int32)
        self.table[key0] = 0

    def number(self, keys: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
        """(ids, src) for one level's product keys: ids[j] the element index
        of keys[j], the new elements numbered from count on in the order of
        their first products, whose positions src lists.  One gather finds
        the known products; each unseen key's slot is lowered to its first
        product's position j, stored as j - len(keys) - 1 < -1."""
        ids = self.table.take(keys)
        unseen = (ids < 0).nonzero()[0]
        fresh = keys.take(unseen)
        mark = (unseen - (len(keys) + 1)).astype(np.int32)
        np.minimum.at(self.table, fresh, mark)
        src = unseen[self.table.take(fresh) == mark]
        self.table[keys.take(src)] = np.arange(count, count + len(src), dtype=np.int32)
        ids[unseen] = self.table.take(fresh)
        return ids, src

    def sorted_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, element indices) in key order: the table's filled slots."""
        keys = (self.table >= 0).nonzero()[0]
        return keys, self.table[keys]


class _SortedNumbering:
    """The same numbering by binary search in the sorted keys found so far,
    the new keys merged in after each level: the sort-based set step of
    Holt, Eick and O'Brien, 4.1, for keys too wide for a table."""

    def __init__(self, key0: int, bound: int):
        self.dtype = _int_dtype(bound)
        self.keys = np.array([key0], dtype=self.dtype)
        self.key_idx = np.zeros(1, dtype=np.int32)

    def number(self, keys: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
        ukeys, first, at = _unique_first(keys)
        pos = np.minimum(np.searchsorted(self.keys, ukeys), count - 1)
        ids, new = self.key_idx[pos], (self.keys[pos] != ukeys).nonzero()[0]
        ids[new[np.argsort(first[new])]] = np.arange(count, count + len(new))
        if len(new):
            self.keys, self.key_idx = _merge_sorted((self.keys, self.key_idx),
                                                    (ukeys[new], ids[new]))
        return ids.take(at), np.sort(first[new])

    def sorted_keys(self) -> tuple[np.ndarray, np.ndarray]:
        return self.keys, self.key_idx


# What `locate` reads of a closure: the sorted row indices vec of its row
# orbit, its elements' sorted keys and their indices key_idx.
_Lookup = namedtuple("_Lookup", "vec keys key_idx")


def _walk_up(G: "MatrixGroup", x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x[i] * y[i]^-1 (int64): for y = gens[k1] ... gens[kd] along the BFS
    tree, x moved by gens[kd]^-1, ..., gens[k1]^-1, read from y up to the
    identity.  One whole-array gather per tree level: G._table holds the int32
    rows x -> x * gens[k]^-1 side by side, then the identity row, at which
    the int64 offset G._step[0] points, and G._step[y] = via[y] |G| for y > 0."""
    for _ in range(len(G.levels) - 2):
        x = G._table.take(G._step.take(y) + x)
        y = G.parent.take(y)
    return np.array(x, dtype=np.int64)


class MatrixGroup:
    """A fully enumerated matrix group, optionally modulo central scalars.

    The closure's Schreier data, as int32 tables over element indices:
    `acts[k, x]` is the index of x * gens[k]; element x > 0 was first
    reached as parent[x] * gens[via[x]]; BFS level i holds the indices
    levels[i] <= x < levels[i + 1], and level 0 is the identity alone.
    """

    def __init__(self, field: FieldSpec, n: int, elements: np.ndarray, lookup: _Lookup,
                 acts: np.ndarray, parent: np.ndarray, via: np.ndarray, levels: np.ndarray,
                 scalars: np.ndarray | None = None, name: str = "G"):
        self.field = field
        self.n = n
        self.elements = elements
        self._lookup = lookup
        self.acts = acts
        self.parent = parent
        self.via = via
        self.levels = levels
        self.gen_idx = [int(g) for g in acts[:, 0]]
        self.scalars = scalars  # quotient kernel as sorted field values, or None
        self.name = name
        ng, order = acts.shape  # _walk_up's tables; _step also reads _gen_conj
        self._table = np.tile(np.arange(order, dtype=np.int32), ng + 1)
        self._table[acts + np.arange(0, ng * order, order)[:, None]] = np.arange(order)
        self._step = np.where(np.arange(order) > 0, via.astype(np.int64) * order, ng * order)
        self.inv = _walk_up(self, np.zeros(order, dtype=np.int64), np.arange(order))
        self._power_masks: dict[int, np.ndarray] = {}
        self._power_maps: dict[int, np.ndarray] = {}  # prime r -> x^r
        self._dets = None

    # -- construction --------------------------------------------------------

    @classmethod
    def generate(cls, field: FieldSpec, gens, cap: int | None = None,
                 scalars=None, name: str = "G") -> "MatrixGroup":
        """Breadth-first closure of the generators (deterministic order): each
        level multiplies its elements by every generator, takes each product
        to its least multiple over the kernel scalars, and numbers new
        products by first occurrence.  An element is held as the positions
        p_0 ... p_(n-1) of its rows in the row orbit (`_row_orbit`), so a
        product is n gathers.  Keys read row 0 first, and every z x has the
        zero pattern of x, so the least multiple is the z with the least z a,
        for a the first nonzero entry of row 0.

        The orbit's R rows are sorted, so sum p_i R^(n-1-i) is a key with the
        lexicographic order of the matrices, and distinct elements have
        distinct ones.  Each level numbers its products by these keys:
        through a direct-address int32 table (`_DirectNumbering`) when R^n
        is at most DIRECT_LIMIT, where |G| <= R^n keeps every index exact in
        int32, and by sorted keys (`_SortedNumbering`) above it; the bound
        keeps the table at 1 MB, past which a larger one bought no time on
        the benchmark's closures.  The group keeps the sorted keys that the
        numbering holds at the end, for `locate`."""
        cap = enumeration_cap(cap)
        gens = [matrix(g, field.q) for g in gens]
        if not gens:
            raise DomainError("need at least one generator")
        n = gens[0].shape[0]
        if any(g.shape[0] != n for g in gens):
            raise DomainError("generators of mixed dimension")
        if np.any(backend.det_many(np.stack(gens), field) == 0):
            raise DomainError("singular generator")

        scal = None if scalars is None else _kernel(scalars)
        zs = np.ones(1, dtype=np.uint8) if scal is None else scal
        q, ng = field.q, len(gens)
        refusal = CapExceeded(f"closure of {name} exceeds cap {cap}", needed=cap + 1, cap=cap)
        # the orbit has at most n |G/Z| |Z| rows, so more refuse the closure
        wq = np.array([q ** j for j in range(n - 1, -1, -1)], dtype=_int_dtype(q ** n))
        vec, act, zpos = _row_orbit(field, gens, zs, wq, n * cap * len(zs), refusal)
        vdig = (vec[:, None] // wq % q).astype(np.uint8)  # the orbit's rows as digits
        best = _least_scalar(field, zs, vdig)  # s of the least zs[s] vec[v]
        # zact[(s ng + k) |vec| + v]: the position of zs[s] vec[v] gens[k]; the least
        # multiple of x * gens[k], row 0 of x at v, has its rows at off[k, v] + x's
        zact, off = zpos[:, act].ravel(), (best[act] * ng + np.arange(ng)[:, None]) * len(vec)

        front = np.searchsorted(vec, wq)[:, None]  # [row, element] positions
        R = len(vec)
        # a level's ng m < ng R^n products must have int32 positions on the table
        direct = R ** n <= DIRECT_LIMIT and ng * R ** n < 2 ** 31
        numbering = (_DirectNumbering if direct else _SortedNumbering)(
            sum(int(p) * R ** (n - 1 - i) for i, p in enumerate(front[:, 0])), R ** n)
        blocks, zero = [front], np.zeros(1, np.int32)
        acts, parent, via, levels = [], [zero], [zero], [0, 1]
        while True:
            m, count = front.shape[1], levels[-1]
            at0 = off.take(front[0], axis=1)
            pkeys = np.zeros((ng, m), dtype=numbering.dtype)
            for i in range(n):  # the least multiples' position keys, row 0 first
                pkeys *= R
                pkeys += zact.take(at0 + front[i])
            ids, src = numbering.number(pkeys.ravel(), count)
            acts.append(ids.reshape(ng, m))
            if not len(src):
                break
            if count + len(src) > cap:
                raise refusal
            k, x = src // m, src % m
            parent.append((levels[-2] + x).astype(np.int32))
            via.append(k.astype(np.int32))
            front = zact[at0[k, x] + front[:, x]]
            blocks.append(front)
            levels.append(count + len(src))
        lookup = _Lookup(vec, *numbering.sorted_keys())
        return cls(field, n, vdig[np.hstack(blocks).T], lookup,
                   *map(np.hstack, (acts, parent, via)), np.array(levels),
                   scalars=scal, name=name)

    # -- lookup ----------------------------------------------------------------

    @property
    def order(self) -> int:
        return self.elements.shape[0]

    @property
    def identity_idx(self) -> int:
        return 0

    def locate(self, batch) -> tuple[np.ndarray, np.ndarray]:
        """(index, found) per matrix of `batch`, by the key of its least
        multiple over the quotient's scalars, taken as `generate` takes a
        product's, from its rows' positions in the row orbit.  A matrix with
        an entry that is not an integer in [0, q), or with a row outside the
        orbit, is not found."""
        batch, found = _field_entries(batch, self.field.q)
        if batch.ndim != 3:
            raise DomainError("locate takes a batch of matrices, shape (m, n, n)")
        if batch.shape[1:] != (self.n, self.n):  # a matrix of another size
            return np.zeros(len(batch), dtype=np.int64), np.zeros(len(batch), dtype=bool)
        found = found.all(axis=(1, 2))
        zs, (vec, keys, key_idx) = self.scalars, self._lookup
        if zs is not None:
            z = zs[_least_scalar(self.field, zs, batch[:, 0])]
            batch = self.field.mul[z[:, None, None], batch]
        key = np.zeros(len(batch), dtype=keys.dtype)
        for row in batch.transpose(1, 2, 0):  # one row at a time, row 0 first: O(m) temporaries
            rows = row[0].astype(vec.dtype)  # the rows' indices, read in base q
            for digit in row[1:]:
                rows = rows * self.field.q + digit
            at = np.minimum(np.searchsorted(vec, rows), len(vec) - 1)
            found &= vec[at] == rows
            key = key * len(vec) + at
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        return key_idx[at].astype(np.int64), found & (keys[at] == key)

    def lookup_batch(self, batch) -> np.ndarray:
        """Indices of the matrices in `batch` (KeyError if any is missing)."""
        idx, found = self.locate(batch)
        if not found.all():
            raise KeyError("matrix is not an element of this group")
        return idx

    def index_of(self, mat: np.ndarray) -> int:
        return int(self.lookup_batch(np.asarray(mat)[None])[0])

    # -- index-level arithmetic ------------------------------------------------

    # Not a product path: perfbench's layer map and tracer test still name the
    # deleted multiplication-table accessor, and the test deletes it to check
    # that a missing target is skipped.  Nothing in the package reads it.
    cayley = None

    def _right(self, idxs, j: int):
        """Indices of x * j for every index x in the array idxs: a walk
        along j's BFS word, one gather per letter."""
        word = []  # j = gens[word[-1]] ... gens[word[0]], up the BFS tree
        while j:
            word.append(self.via[j])
            j = self.parent[j]
        for k in reversed(word):
            idxs = self.acts[k].take(idxs)
        return idxs

    def _mul(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Indices of x[i] * y[i] for two index arrays of one shape: one
        walk up the tree from each y[i]^-1."""
        return _walk_up(self, x, self.inv[y])

    def sandwich_all(self, h: int) -> np.ndarray:
        """Indices of g h g^-1 for every g in enumeration order.

        d[y] = y^-1 h y is filled down the BFS tree, d[p * s] = s^-1 d[p] s
        for each generator s, and g h g^-1 = d[g^-1]."""
        conj, step = self._gen_conj.ravel(), self._step
        d = np.empty(self.order, dtype=np.int32)
        d[0] = h
        for lo, hi in zip(self.levels[1:-1], self.levels[2:]):
            d[lo:hi] = conj.take(step[lo:hi] + d.take(self.parent[lo:hi]))
        return d.take(self.inv)

    @cached_property
    def _gen_conj(self) -> np.ndarray:
        """Row k: x -> gens[k]^-1 x gens[k], read by sandwich_all (flat, at
        the offsets _step) and conjugate_orbit."""
        a, order = self.acts, len(self.inv)
        return a.ravel().take(self.inv[a[:, self.inv]] + np.arange(0, a.size, order)[:, None])

    def _power_map(self, r: int) -> np.ndarray:
        """The kept map x -> x^r (r prime in practice), built by binary powering of walks."""
        if r not in self._power_maps:
            up, acc = partial(_walk_up, self), np.arange(self.order)
            for bit in bin(r)[3:]:  # most significant first
                acc = up(acc, self.inv[acc])
                if bit == "1":
                    acc = up(acc, self.inv)
            self._power_maps[r] = acc
        return self._power_maps[r]

    def elements_satisfying_power(self, e: int) -> np.ndarray:
        """Boolean mask of x with x^e == identity (e >= 1), kept per e: gathers
        through the kept map x -> x^r of each prime r | e."""
        if e < 1:
            raise DomainError(f"power masks need an exponent e >= 1, got {e}")
        if e not in self._power_masks:
            x = np.arange(self.order)
            for r, a in factorize(e).items():
                for _ in range(a):
                    x = self._power_map(r)[x]
            self._power_masks[e] = x == self.identity_idx
        return self._power_masks[e]

    def dets(self) -> np.ndarray:
        """int64 determinants, d[x] = d[parent[x]] det(gens[via[x]]) by BFS level."""
        if self._dets is None:
            if self.scalars is not None:
                raise DomainError("determinants are not defined on a central quotient")
            gen_dets = backend.det_many(self.elements[self.gen_idx], self.field)
            d = np.ones(self.order, dtype=np.int64)
            for lo, hi in zip(self.levels[1:-1], self.levels[2:]):
                d[lo:hi] = self.field.mul[d[self.parent[lo:hi]], gen_dets[self.via[lo:hi]]]
            self._dets = d
        return self._dets

    def as_subgroup(self) -> "Subgroup":
        return Subgroup(self, np.arange(self.order, dtype=np.int64),
                        gen_idx=tuple(self.gen_idx))

    def __repr__(self):
        return f"<{self.name}: order {self.order} over GF({self.field.q})>"


# ---------------------------------------------------------------------------

class Subgroup:
    """A subgroup of an enumerated group, held as its sorted int64 index
    array `idx`, the one form in which subgroup routines pass elements;
    membership is read from a mask over the parent (`_mask`).  The frozenset
    `members` is built on first use for readers outside the package.  The
    checks run in this order: distinct, identity, range, Lagrange."""

    def __init__(self, parent: MatrixGroup, idx: np.ndarray,
                 gen_idx: tuple[int, ...] | None = None):
        self.parent = parent
        self.idx = idx = np.array(idx, dtype=np.int64)
        idx.sort()
        if np.count_nonzero(idx[1:] <= idx[:-1]):
            raise DomainError("subgroup indices must be distinct")
        one = parent.identity_idx  # idx[0] unless idx is empty or holds negatives
        if not len(idx) or (idx[0] != one and one not in idx):
            raise DomainError("subgroup must contain the identity")
        if idx[0] < 0 or idx[-1] >= parent.order:
            raise DomainError(f"subgroup indices must lie in [0, {parent.order})")
        if parent.order % len(idx) != 0:
            raise DomainError(
                f"Lagrange violation: {len(idx)} does not divide {parent.order}")
        self._gen_idx = tuple(gen_idx) if gen_idx is not None else None

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(self.idx.tolist())

    @property
    def order(self) -> int:
        return len(self.idx)

    def __eq__(self, other):
        return (isinstance(other, Subgroup) and other.parent is self.parent
                and np.array_equal(other.idx, self.idx))

    @property
    def gen_idx(self) -> tuple[int, ...]:
        if self._gen_idx is None:
            self._gen_idx = find_generators(self.parent, self.idx)
        return self._gen_idx

    def key(self) -> tuple[int, ...]:
        """Deterministic identity: the sorted element indices."""
        return tuple(self.idx.tolist())

    def is_abelian(self) -> bool:
        a, b = _pairs(self.gen_idx, self.gen_idx)
        return bool(np.array_equal(self.parent._mul(a, b), self.parent._mul(b, a)))

    def abelian_type(self) -> AbelianStructure:
        if not self.is_abelian():
            raise DomainError("abelian_type on a nonabelian subgroup")
        return _abelian_type(self, trivial_subgroup(self.parent))

    def __repr__(self):
        return f"<subgroup of {self.parent.name}: order {self.order}>"


# ---------------------------------------------------------------------------
# subgroup algebra

def _mask(G: MatrixGroup, idx) -> np.ndarray:
    """Boolean mask over G's indices [0, |G|), set on idx."""
    inside = np.zeros(G.order, dtype=bool)
    inside[idx] = True
    return inside


def _pairs(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (x, y) with x in xs and y in ys, x-major, as two flat index arrays."""
    xs, ys = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
    return np.repeat(xs, len(ys)), np.tile(ys, len(xs))


def _conjugates(G: MatrixGroup, hs, xs) -> np.ndarray:
    """h x h^-1 = (h x) h^-1 for every h in hs and x in xs."""
    h, x = _pairs(hs, xs)
    return G._mul(G._mul(h, x), G.inv[h])


def generated_subgroup(G: MatrixGroup, seeds) -> Subgroup:
    """<seeds>, generated greedily: the least seed outside the closure so
    far becomes a generator and extends that closure."""
    gens: list[int] = []
    have = np.array([G.identity_idx], dtype=np.int64)
    rest = _sorted_unique(np.asarray(seeds, dtype=np.int64))
    while len(rest := rest[~_mask(G, have)[rest]]):
        gens.append(int(rest[0]))
        have = _closure_indices(G, gens, have)
    return Subgroup(G, have, gen_idx=tuple(gens))


def find_generators(G: MatrixGroup, idx: np.ndarray) -> tuple[int, ...]:
    """Greedy small generating set for the subgroup with the given indices."""
    H = generated_subgroup(G, idx)  # contains idx: equal when no larger
    if H.order != np.count_nonzero(_mask(G, idx)):
        raise DomainError("index set is not closed (not a subgroup)")
    return H.gen_idx


COSET_MIN = 64  # |H| from which _closure_indices grows <H, g> by whole cosets of H


def _powers_outside(G: MatrixGroup, g: int, members: set[int]) -> list[int]:
    """g, g^2, ..., g^(d-1) for the least d with g^d among the members of
    a subgroup (g not among them), by doubling: the m powers g ... g^m
    times g^m are g^(m+1) ... g^(2m), one walk along g^m's word, so about
    log2 d walks."""
    powers = [g]
    while True:
        for x in G._right(powers, powers[-1]).tolist():
            if x in members:
                return powers
            powers.append(x)


def _closure_indices(G: MatrixGroup, gen_idx, base=None) -> np.ndarray:
    """<base, gen_idx> as a sorted int64 index array, grown from the index
    array `base` (default [1]); a Python set holds the closure while it grows.

    Precondition: `base` is a subgroup generated by the generators of
    gen_idx that lie in it.  The generators are taken one at a time, in
    order, and one already inside the closure so far is skipped (Dimino's
    algorithm; G. Butler, Fundamental Algorithms for Permutation Groups,
    LNCS 559, 1991).  A generator g outside the closure H so far extends
    it by the cosets H g^i of its powers up to the first g^d in H, the
    powers taken by doubling (`_powers_outside`), and each coset is closed
    under g.  Rounds then multiply what is new by the generators (the older
    ones alone in the first round) until nothing is new.  From COSET_MIN
    elements of H on, Dimino's cosets: since (H r) s = H (r s), a round
    multiplies only coset representatives, starting from the powers, and
    a product outside adds its whole coset, one walk of H.  Below the bound
    a round multiplies every new element: a coset's walk costs about as
    much as one walk of a whole round, so cosets of a few elements lose.
    Measured by replaying the closures of a certify pass, criterion 4's
    commutator subgroups and the composite-iii replay: without cosets the
    last two take 5x and 4x as long; a bound of 16 doubles one certify
    closure, one of 256 nearly doubles composite-iii; 32 to 128 are within
    10% of each other."""
    gens = [int(g) for g in gen_idx]
    seen = {G.identity_idx} if base is None else set(base.tolist())
    taken = [g for g in gens if g in seen]  # the generators of base
    for g in gens:
        if g in seen:
            continue
        powers = _powers_outside(G, g, seen)
        H = np.fromiter(seen, dtype=np.int64, count=len(seen))
        cosets = powers if len(H) == 1 else [x for p in powers for x in G._right(H, p).tolist()]
        seen.update(cosets)
        by_coset = len(H) >= COSET_MIN
        frontier, round_gens = (powers if by_coset else cosets), list(taken)
        taken.append(g)
        while frontier and round_gens:
            found, arr = [], np.array(frontier, dtype=np.int64)
            for s in round_gens:
                for e in G._right(arr, s).tolist():
                    if e in seen:
                        continue
                    found.append(e)
                    if by_coset:
                        seen.update(G._right(H, e).tolist())
                    else:
                        seen.add(e)
            frontier, round_gens = found, taken
    return np.sort(np.fromiter(seen, dtype=np.int64, count=len(seen)))


def _extend(H: Subgroup, extra) -> Subgroup:
    """<H, extra>, grown from H and generated by H.gen_idx + extra."""
    G = H.parent
    gens = tuple(int(g) for g in tuple(H.gen_idx) + tuple(extra) if g != G.identity_idx)
    return Subgroup(G, _closure_indices(G, gens, H.idx), gen_idx=gens)


def trivial_subgroup(G: MatrixGroup) -> Subgroup:
    return Subgroup(G, np.array([G.identity_idx], dtype=np.int64), gen_idx=())


def normalizer(G: MatrixGroup, H: Subgroup) -> Subgroup:
    """Full-scan normalizer {g : g H g^-1 = H}; exact, O(|G| * #gens(H))."""
    if H.parent is not G:
        raise DomainError("subgroup does not live in the given group")
    inside, mask = _mask(G, H.idx), np.ones(G.order, dtype=bool)
    for h in (H.gen_idx or (G.identity_idx,)):
        mask &= inside[G.sandwich_all(int(h))]
    if mask.all():
        return G.as_subgroup()  # with G's generators, not a greedy set found anew
    return Subgroup(G, mask.nonzero()[0])


def centralizer(G: MatrixGroup, H: Subgroup) -> Subgroup:
    if H.parent is not G:
        raise DomainError("subgroup does not live in the given group")
    mask = np.ones(G.order, dtype=bool)
    for h in (H.gen_idx or (G.identity_idx,)):
        conj = G.sandwich_all(int(h))
        mask &= conj == int(h)
    return Subgroup(G, np.nonzero(mask)[0])


def intersection(H1: Subgroup, H2: Subgroup) -> Subgroup:
    if H1.parent is not H2.parent:
        raise DomainError("intersection across different parents")
    return Subgroup(H1.parent, H1.idx[_mask(H1.parent, H2.idx)[H1.idx]])


def common_order(A: MatrixGroup, B: MatrixGroup) -> int:
    """Order of the intersection of two groups over one field, via element keys."""
    if A.field != B.field:
        raise DomainError("intersection across different fields")
    za = None if A.scalars is None else tuple(int(s) for s in A.scalars)
    zb = None if B.scalars is None else tuple(int(s) for s in B.scalars)
    if za != zb:
        raise DomainError("intersection across different central quotients")
    return int(B.locate(A.elements)[1].sum())


def image(G: MatrixGroup, K: MatrixGroup) -> Subgroup:
    """The subgroup of G that K's elements locate to (KeyError if G lacks one of them)."""
    return Subgroup(G, _sorted_unique(G.lookup_batch(K.elements)))


def join(H1: Subgroup, H2: Subgroup) -> Subgroup:
    return _extend(H1, H2.gen_idx)


def normal_closure(H: Subgroup, seed_idx) -> Subgroup:
    """Smallest subgroup of H containing the seeds and normal in H."""
    G = H.parent
    seeds = _sorted_unique(np.asarray(seed_idx, dtype=np.int64))
    gens = seeds[seeds != G.identity_idx].tolist()
    if not gens:
        return trivial_subgroup(G)
    closed, fresh = None, gens
    while True:
        closed = _closure_indices(G, gens, closed)
        # conjugates of older generators lie in the older closure already
        conj = _conjugates(G, H.gen_idx, fresh)
        fresh = _sorted_unique(conj[~_mask(G, closed)[conj]]).tolist()
        if not fresh:
            return Subgroup(G, closed, gen_idx=tuple(gens))
        gens.extend(fresh)


def _generator_commutators(H: Subgroup) -> np.ndarray:
    """[a, b] = (ab)(ba)^-1 for every ordered pair of H's generators."""
    G = H.parent
    a, b = _pairs(H.gen_idx, H.gen_idx)
    return G._mul(G._mul(a, b), G.inv[G._mul(b, a)])


def commutator_subgroup(H: Subgroup) -> Subgroup:
    """[H, H]: normal closure in H of the generator commutators."""
    return normal_closure(H, _generator_commutators(H))


def is_normal(H: Subgroup, K: Subgroup) -> bool:
    """K normal in H (both subgroups of the same parent, K <= H)."""
    G = H.parent
    if not _mask(G, H.idx)[K.idx].all():
        return False
    return bool(_mask(G, K.idx)[_conjugates(G, H.gen_idx, K.gen_idx)].all())


def quotient_structure(H: Subgroup, K: Subgroup) -> AbelianStructure:
    """Invariant-factor type of the abelian quotient H/K."""
    if not _mask(H.parent, H.idx)[K.idx].all():
        raise DomainError("K is not contained in H")
    if not is_normal(H, K):
        raise DomainError("K is not normal in H")
    if not _mask(H.parent, K.idx)[_generator_commutators(H)].all():
        raise DomainError("H/K is not abelian")
    return _abelian_type(H, K)


def _abelian_type(H: Subgroup, K: Subgroup) -> AbelianStructure:
    """Type of the abelian quotient H/K (K normal in H) from power-map counts.

    For each prime p, #{x in H : x^(p^i) in K} = |K| p^(s_i), read by i
    gathers through the kept map x -> x^p, and H/K has s_i - s_(i-1) cyclic
    factors of order >= p^i; s_i grows until it reaches log_p of the p-part."""
    G = H.parent
    in_k = _mask(G, K.idx)
    orders: list[int] = []
    for p, a in factorize(H.order // K.order).items():
        s, x = [0], H.idx
        while s[-1] < a:
            x = G._power_map(p)[x]
            s.append(p_val(int(in_k[x].sum()) // K.order, p))
        at_least = np.diff(s).tolist() + [0]  # cyclic factors of order >= p^i
        for i in range(1, len(s)):
            orders += [p ** i] * (at_least[i - 1] - at_least[i])
    return from_cyclic_orders(orders)


def conjugate_orbit(G: MatrixGroup, key: tuple[int, ...]) -> set[tuple[int, ...]]:
    """The keys of the conjugates of the subgroup with sorted index tuple
    `key`: a BFS under x -> s^-1 x s for each generator s, one sweep per
    level through the rows of the table `_gen_conj` (Holt, Eick and
    O'Brien, 4.1)."""
    if not key or np.any(np.diff(key) <= 0):
        raise DomainError("a subgroup key must be a strictly increasing index tuple")
    void = np.dtype((np.void, 8 * len(key)))
    front = np.array([key], dtype=np.int64)
    seen = front.view(void).ravel()  # the orbit's rows so far, sorted
    while len(front):
        imgs = np.ascontiguousarray(G._gen_conj[:, front], dtype=np.int64).reshape(-1, len(key))
        imgs.sort(axis=1)
        seen, new = _orbit_step(seen, imgs.view(void))
        front = new.view(np.int64).reshape(-1, len(key))
    return set(map(tuple, seen.view(np.int64).reshape(-1, len(key)).tolist()))


def subgroup_conjugacy_classes(G: MatrixGroup, subs: list[Subgroup]) -> list[list[Subgroup]]:
    """Partition subgroups under conjugation; deterministic representatives.

    Classes are returned sorted by their representative (the least element
    index set in enumeration order), each class listing the input subgroups
    it contains, representative first.
    """
    pending = {s.key(): s for s in subs}
    classes = []
    while pending:
        orbit = conjugate_orbit(G, min(pending))
        in_class = [pending.pop(k) for k in orbit if k in pending]
        classes.append(sorted(in_class, key=lambda s: s.key()))
    classes.sort(key=lambda c: c[0].key())
    return classes


# ---------------------------------------------------------------------------
# cyclic extension: elementary abelian subgroups and the p-group lattice

def _cyclic_extensions(M: np.ndarray, cands, p: int, right, covered: np.ndarray):
    """(sorted key of U, x) for U = M u Mx u ... u Mx^(p-1) and each candidate
    x, in order, outside the U found so far: the step of cyclic extension.
    A candidate normalizes M and has x^p in M, so U is a subgroup with M
    of index p, and any x' in U \\ M gives it too.
    `right(a, x)` gives the indices a * x; `covered`, a mask over the same
    indices set on M, marks each U."""
    for x in cands:
        if covered[x]:
            continue
        cosets = [M]
        for _ in range(p - 1):
            cosets.append(right(cosets[-1], x))
        U = np.concatenate(cosets)
        covered[U] = True
        yield tuple(np.sort(U).tolist()), int(x)


@dataclass
class ElementaryAbelian:
    subgroup: Subgroup
    rank: int
    maximal: bool


EA_ELEMENT_CAP = 30_000  # order-p elements elementary_abelian_subgroups takes on
LATTICE_CAP = 200_000  # subgroups all_subgroups lists


def elementary_abelian_subgroups(T: Subgroup, p: int) -> list[ElementaryAbelian]:
    """All elementary abelian p-subgroups of T, flagged maximal-in-T, rank
    by rank from the trivial subgroup by cyclic extension (Neubüser, Numer.
    Math. 2, 1960; see Holt, Eick and O'Brien).

    An order-p element x of T outside E that commutes with E's generators
    is central in <E, x> and x^p = 1, so <E, x> = E u Ex u ... u Ex^(p-1),
    gathers in G's indices; E is maximal when there is no such x.  Each
    subgroup is generated by E.gen_idx + (x,) for the first E and x that
    reach it."""
    G = T.parent
    pts = T.idx[G.elements_satisfying_power(p)[T.idx] & (T.idx != G.identity_idx)]
    if len(pts) > EA_ELEMENT_CAP:
        raise CapExceeded(
            f"{len(pts)} order-{p} elements exceed the enumeration budget",
            needed=len(pts), cap=EA_ELEMENT_CAP)
    out: list[ElementaryAbelian] = []
    layer: dict[tuple[int, ...], tuple[int, ...]] = {(G.identity_idx,): ()}  # key -> gens
    while layer:
        nxt: dict[tuple[int, ...], tuple[int, ...]] = {}
        for key, gens in layer.items():
            M = np.array(key)
            commuting = np.ones(len(pts), dtype=bool)
            for g in gens:  # x g == g x, with g x = (x^-1 g^-1)^-1
                commuting &= G._right(pts, g) == G.inv[G._right(G.inv[pts], G.inv[g])]
            covered = _mask(G, M)
            found = list(_cyclic_extensions(M, pts[commuting], p, G._right, covered))
            for ukey, x in found:
                nxt.setdefault(ukey, gens + (x,))
            out.append(ElementaryAbelian(Subgroup(G, M, gen_idx=gens), len(gens), not found))
        layer = nxt
    return out


def all_subgroups(S: Subgroup) -> list[Subgroup]:
    """Every subgroup of the p-group S, sorted by (order, key), by cyclic
    extension (Neubüser, Numer. Math. 2, 1960; see Holt, Eick and O'Brien).

    A subgroup U > 1 of a p-group has a normal subgroup M of index p, and
    U = M u Mx u ... u Mx^(p-1) for any x in U \\ M, which lies in N_S(M)
    with x^p in M.  So the subgroups of order p^(k+1) are these coset
    unions over the subgroups M of order p^k, integer gathers in a
    multiplication table on S's own elements.  U is generated by
    M.gen_idx + (x,)."""
    G = S.parent
    p = min(factorize(S.order), default=1)
    if p > 1 and p_part(S.order, p) != S.order:
        raise DomainError(f"subgroup lattice needs a p-group, got order {S.order}")
    pos = partial(np.searchsorted, S.idx)  # G index -> position in S.idx
    table = pos(np.stack([G._right(S.idx, int(j)) for j in S.idx], axis=1))
    inv = pos(G.inv[S.idx])
    power = np.zeros(S.order, dtype=np.int64)  # power[a]: a^p
    for _ in range(p):
        power = table[power, np.arange(S.order)]

    layer: dict[tuple[int, ...], tuple[int, ...]] = {(0,): ()}  # positions -> gens
    subs = list(layer.items())
    while layer:
        nxt: dict[tuple[int, ...], tuple[int, ...]] = {}
        for key in sorted(layer):
            gens, M = layer[key], np.array(key)
            seen = np.zeros(S.order, dtype=bool)  # M, then each U found from M
            seen[M] = True
            cands = seen[power] & ~seen
            for h in gens:  # x h x^-1 in M
                cands &= seen[table[table[:, pos(h)], inv]]
            for ukey, x in _cyclic_extensions(M, cands.nonzero()[0], p,
                                              lambda a, j: table[a, j], seen):
                if ukey not in nxt:
                    nxt[ukey] = gens + (int(S.idx[x]),)
                    if len(subs) + len(nxt) > LATTICE_CAP:
                        raise CapExceeded("subgroup lattice too large",
                                          needed=len(subs) + len(nxt), cap=LATTICE_CAP)
        layer = nxt
        subs.extend(sorted(nxt.items()))
    return [Subgroup(G, S.idx[list(key)], gen_idx=gens) for key, gens in subs]


def sylow_subgroup_of(G: MatrixGroup, p: int) -> Subgroup:
    """A Sylow p-subgroup found by normalizer ascent.

    Any p-subgroup P below full order has a p-element x in N_G(P) \\ P,
    and <P, x> is again a p-group because x normalizes P, so each step
    grows the order by at least p; at most log_p |G| normalizer scans."""
    target = p_part(G.order, p)
    pmask = G.elements_satisfying_power(target)
    P = trivial_subgroup(G)
    while P.order < target:
        N = normalizer(G, P) if P.order > 1 else G.as_subgroup()
        xs = N.idx[pmask[N.idx] & ~_mask(G, P.idx)[N.idx]]
        if not len(xs):
            raise DomainError("Sylow ascent stalled")  # pragma: no cover
        P = _extend(P, (int(xs[0]),))
    return P
