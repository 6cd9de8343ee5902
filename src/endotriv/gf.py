"""Exact arithmetic in GF(q) for prime-power q.

Field elements are canonically encoded as integers in [0, q): the element
with coefficient vector (c_0, ..., c_{k-1}) over GF(p) is the integer
sum(c_i * p**i).  Fields go up to q = Q_ENUM_LIMIT = 256, so every
element fits in a byte: each field has dense q x q uint8 lookup tables,
built once, and all arithmetic runs off them.  The tables themselves are
produced from a discrete-log pair (exp/log) so construction is O(q^2)
in numpy rather than O(q^2) polynomial multiplications.

The modulus is the lexicographically least monic irreducible of degree k,
"least" meaning smallest integer encoding of the non-leading coefficients.
The primitive element is likewise the least encoding of multiplicative
order q-1.  There is one polynomial arithmetic (`_poly_*`, over any
FieldSpec): `_least_primitive` runs on it to bootstrap GF(p^k)'s exp table
over GF(p), and `liea.singer_block` takes the Singer generator of GF(q^e)
over GF(q) from the same search.  A prime field counts in integers.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError

Q_ENUM_LIMIT = 256  # uint8 element encodings


# ---------------------------------------------------------------------------
# small number theory helpers

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: exponent}; trial division."""
    if n <= 0:
        raise DomainError(f"cannot factor {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power_split(q: int) -> tuple[int, int]:
    """Write q = p**k for prime p, or raise DomainError."""
    f = factorize(q) if q >= 2 else {}
    if len(f) != 1:
        raise DomainError(f"{q} is not a prime power")
    (p, k), = f.items()
    return p, k


def p_part(n: int, p: int) -> int:
    """Largest power of p dividing n."""
    return p ** p_val(n, p)


def p_val(n: int, p: int) -> int:
    """Exponent of the largest power of p dividing n (none for n = 0 or p < 2)."""
    if p < 2 or n == 0:
        raise DomainError(f"the p-adic valuation needs p >= 2 and n != 0, got p={p}, n={n}")
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


# ---------------------------------------------------------------------------
# polynomial arithmetic over a field F, little-endian coefficient lists of
# element encodings; every coefficient operation indexes F's table lists

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mul(F: FieldSpec, a, b):
    add, mul = F.add_list, F.mul_list
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            row = mul[ai]
            for j, bj in enumerate(b):
                out[i + j] = add[out[i + j]][row[bj]]
    return _poly_trim(out)


def _poly_rem(F: FieldSpec, a, b):
    """Remainder of a by a nonzero trimmed b."""
    add, mul, neg = F.add_list, F.mul_list, F.neg_list
    a = _poly_trim(list(a))
    lead_inv = F.inv_el(b[-1])
    while len(a) >= len(b):
        row = mul[neg[mul[a[-1]][lead_inv]]]  # times -(lead of a / lead of b)
        shift = len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = add[a[shift + i]][row[bi]]
        _poly_trim(a)
    return a


def _poly_powmod(F: FieldSpec, a, e, mod):
    result = [1]
    base = _poly_rem(F, a, mod)
    while e:
        if e & 1:
            result = _poly_rem(F, _poly_mul(F, result, base), mod)
        base = _poly_rem(F, _poly_mul(F, base, base), mod)
        e >>= 1
    return result


def _poly_sub(F: FieldSpec, a, b):
    add, neg = F.add_list, F.neg_list
    n = max(len(a), len(b))
    return _poly_trim([add[a[i] if i < len(a) else 0][neg[b[i] if i < len(b) else 0]]
                       for i in range(n)])


def _poly_gcd(F: FieldSpec, a, b):
    a, b = list(a), list(b)
    while b:
        a, b = b, _poly_rem(F, a, b)
    return a


def _is_irreducible(F: FieldSpec, mod) -> bool:
    """mod monic of degree k >= 1 over F."""
    k = len(mod) - 1
    if k == 1:
        return True
    if mod[0] == 0:
        return False
    x = [0, 1]
    # x^(q^k) == x mod f, and gcd(x^(q^(k/r)) - x, f) == 1 for prime r | k
    if _poly_sub(F, _poly_powmod(F, x, F.q ** k, mod), x):
        return False
    for r in factorize(k):
        g = _poly_gcd(F, _poly_sub(F, _poly_powmod(F, x, F.q ** (k // r), mod), x), mod)
        if len(g) - 1 >= 1:
            return False
    return True


def _digits(v: int, q: int, k: int) -> list[int]:
    """The k little-endian base-q digits of v: the coefficients it encodes."""
    return [v // q ** i % q for i in range(k)]


def _least_irreducible(F: FieldSpec, k: int) -> tuple[int, ...]:
    """Monic degree-k irreducible over F with least non-leading encoding."""
    for low in range(F.q ** k):
        mod = _digits(low, F.q, k) + [1]
        if _is_irreducible(F, mod):
            return tuple(mod)
    raise DomainError(f"no irreducible of degree {k} over {F}")  # pragma: no cover


def _least_primitive(F: FieldSpec, mod) -> list[int]:
    """The polynomial of least encoding that generates (F[x]/(mod))^x, for
    an irreducible `mod`: the primitive element of GF(q^k) and the Singer
    generator over GF(q) both come from here."""
    k = len(mod) - 1
    order = F.q ** k - 1
    fac = factorize(order)
    for v in range(1, F.q ** k):
        g = _poly_trim(_digits(v, F.q, k))
        if all(_poly_powmod(F, g, order // r, mod) != [1] for r in fac):
            return g
    raise DomainError(f"no generator of (GF({F.q})[x]/{mod})^x")  # pragma: no cover


# ---------------------------------------------------------------------------

class FieldSpec:
    """GF(q), q = char**degree, with deterministic modulus and lookup tables.

    `exp[i]` is `primitive**i` and `log` inverts it; the uint8 `mul`,
    `add`, `neg` and `inv_table` tables follow from that pair and from the
    base-p digits of the encodings.  The tables are immutable after
    construction; all element operations are pure functions of integer
    encodings.  `singer_blocks` keeps `liea.singer_block(q, e)` by e, so it
    is dropped with the field by `field_spec.cache_clear()`.
    """

    def __init__(self, q: int):
        if q < 2 or q > Q_ENUM_LIMIT:
            raise DomainError(f"field size {q} outside supported range [2, {Q_ENUM_LIMIT}]")
        self.q = q
        self.char, self.degree = prime_power_split(q)
        # GF(p^k) = GF(p)[x]/(modulus); a prime field is its own base
        self.modulus = (0, 1) if self.degree == 1 else \
            _least_irreducible(field_spec(self.char), self.degree)
        self._build_tables()
        self.singer_blocks: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    # -- table construction -------------------------------------------------

    def _build_tables(self):
        q, p = self.q, self.char
        # exp lists the powers of the primitive element: the least encoding
        # of multiplicative order q-1
        if self.degree == 1:  # a prime field counts in integers
            fac = factorize(q - 1)
            g = next(g for g in range(1, q) if all(pow(g, (q - 1) // r, q) != 1 for r in fac))
            powers = [pow(g, i, q) for i in range(q - 1)]
        else:
            P, mod = field_spec(p), self.modulus
            g, acc, powers = _least_primitive(P, mod), [1], []
            for _ in range(q - 1):
                powers.append(sum(c * p ** i for i, c in enumerate(acc)))
                acc = _poly_rem(P, _poly_mul(P, acc, g), mod)
        self.primitive = powers[1] if q > 2 else 1
        exp = np.array(powers, dtype=np.int32)
        log = np.zeros(q, dtype=np.int32)
        log[exp] = np.arange(q - 1)
        self.exp, self.log = exp, log

        mul = np.zeros((q, q), dtype=np.uint8)
        nz = exp  # all nonzero values
        mul[np.ix_(nz, nz)] = exp[(log[nz][:, None] + log[nz][None, :]) % (q - 1)]
        self.mul = mul

        # digit-wise mod-p sums, one base-p digit at a time into (q, q) int32
        add = np.zeros((q, q), dtype=np.int32)
        neg = np.zeros(q, dtype=np.int32)
        vals = np.arange(q, dtype=np.int32)
        place = 1
        for _ in range(self.degree):
            digit = vals // place % p
            term = digit[:, None] + digit[None, :]
            term %= p
            term *= place
            add += term
            neg += (-digit) % p * place
            place *= p
        self.add = add.astype(np.uint8)
        self.neg = neg.astype(np.uint8)

        inv = np.zeros(q, dtype=np.uint8)
        inv[exp] = exp[(-(np.arange(q - 1))) % (q - 1)]
        self.inv_table = inv
        # the same tables as Python int lists, for the element ops and the
        # polynomial routines' coefficient loops (a numpy scalar lookup costs
        # several list indexings)
        self.add_list, self.mul_list = self.add.tolist(), mul.tolist()
        self.neg_list = self.neg.tolist()

    # -- public element ops --------------------------------------------------

    def mul_el(self, a: int, b: int) -> int:
        return self.mul_list[a][b]

    def neg_el(self, a: int) -> int:
        return self.neg_list[a]

    def inv_el(self, a: int) -> int:
        if a == 0:
            raise DomainError("zero is not invertible")
        return int(self.inv_table[a])

    def pow_el(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DomainError("zero is not invertible")
            return 0
        e %= (self.q - 1)
        return int(self.exp[(int(self.log[a]) * e) % (self.q - 1)])

    def element_of_order(self, m: int) -> int:
        """Element of F_q^x of multiplicative order m (m must divide q-1)."""
        if (self.q - 1) % m != 0:
            raise DomainError(f"no element of order {m} in GF({self.q})^x")
        return self.pow_el(self.primitive, (self.q - 1) // m)

    def subgroup_values(self, m: int) -> frozenset[int]:
        """The unique order-m subgroup of F_q^x as a set of encodings."""
        g = self.element_of_order(m)
        vals, acc = set(), 1
        for _ in range(m):
            vals.add(acc)
            acc = self.mul_el(acc, g)
        return frozenset(vals)

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return isinstance(other, FieldSpec) and other.q == self.q

    def __hash__(self):
        return hash(("FieldSpec", self.q))


@lru_cache(maxsize=None)
def field_spec(q: int) -> FieldSpec:
    return FieldSpec(q)
