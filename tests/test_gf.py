import hashlib
import random

import numpy as np
import pytest

from endotriv.errors import DomainError
from endotriv.gf import (_digits, _is_irreducible, _least_irreducible, _least_primitive,
                         _poly_powmod, _poly_trim, factorize, field_spec, p_part, p_val)

PRIME_POWERS_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29,
                   31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]


def test_mul_examples():
    assert field_spec(2).mul[1, 1] == 1
    # GF(4) with modulus x^2+x+1: x*x = x+1
    F4 = field_spec(4)
    assert F4.modulus == (1, 1, 1)
    assert F4.mul[2, 2] == 3
    assert field_spec(5).mul[2, 3] == 1


def mult_order(F, a):
    """The least k >= 1 with a^k = 1, by repeated multiplication."""
    k, x = 1, a
    while x != 1:
        k, x = k + 1, int(F.mul[x, a])
    return k


def test_mult_order_examples():
    F5, F4 = field_spec(5), field_spec(4)
    assert mult_order(F5, 1) == 1
    assert mult_order(F5, 2) == 4
    assert mult_order(F5, 4) == 2
    assert mult_order(F4, F4.primitive) == 3


def test_primitive_element_examples():
    assert field_spec(2).primitive == 1
    assert field_spec(5).primitive == 2
    assert field_spec(4).primitive == 2  # the class of the variable


def test_primitive_element_order_property():
    for q in (4, 5, 7, 8, 9, 13, 16, 25, 27, 49):
        F = field_spec(q)
        g = F.primitive
        assert F.pow_el(g, q - 1) == 1
        for m in range(1, q - 1):
            if (q - 1) % m == 0:
                assert F.pow_el(g, m) != 1 or m == q - 1


def test_field_laws_random_pairs():
    rng = random.Random(12345)
    checked = 0
    while checked < 1000:
        q = rng.choice([4, 5, 8, 9, 16, 25, 27, 49, 64])
        F = field_spec(q)
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert F.mul[a, b] == F.mul[b, a]
        assert F.mul[a, F.mul[b, c]] == F.mul[F.mul[a, b], c]
        assert F.mul[a, F.add[b, c]] == F.add[F.mul[a, b], F.mul[a, c]]
        if a:
            assert F.mul[a, F.inv_el(a)] == 1
        checked += 1


def test_order_divides_exhaustive_small_fields():
    for q in PRIME_POWERS_64 + [128, 256]:
        F = field_spec(q)
        for a in range(1, q):
            assert (q - 1) % mult_order(F, a) == 0
            assert F.mul[a, F.inv_el(a)] == 1


def test_irreducibility_matches_root_test():
    # over any field, a polynomial of degree 2 or 3 is irreducible iff it has no root
    for q in (2, 3, 4, 9):
        F = field_spec(q)
        for k in (2, 3):
            for low in range(q ** k):
                mod = [(low // q ** i) % q for i in range(k)] + [1]

                def value(x):
                    acc = 0
                    for c in reversed(mod):
                        acc = int(F.add[F.mul[acc, x], c])
                    return acc

                assert _is_irreducible(F, mod) == all(value(x) for x in range(q))


def _monic(F, k):
    """Every monic polynomial of degree k over F, little-endian, as tuples."""
    return [tuple((low // F.q ** i) % F.q for i in range(k)) + (1,) for low in range(F.q ** k)]


def _times(F, a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = F.add_list[out[i + j]][F.mul_list[x][y]]
    return tuple(out)


@pytest.mark.parametrize("q, k", [(2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6),
                                  (4, 4), (5, 4), (7, 4), (8, 4), (9, 4)])
def test_irreducibility_matches_trial_division(q, k):
    """Past degree 3 a polynomial without a root can still factor, so the
    root filter must hand it to Rabin's test: the reducible monic ones are
    exactly the products of a monic divisor of degree 1 ... k/2 with its
    cofactor (trial division run as multiplication).  About 1 s in all."""
    F = field_spec(q)
    reducible = {_times(F, a, b) for d in range(1, k // 2 + 1)
                 for a in _monic(F, d) for b in _monic(F, k - d)}
    for mod in _monic(F, k):
        assert _is_irreducible(F, list(mod)) == (mod not in reducible), mod


# sha256 of every prime-power field's encoding: modulus, primitive and the
# tables, q = 2 .. 256 in order; a new bootstrap must rebuild the same tables
FIELD_TABLES_SHA256 = "feca32f423fded5b2244ae963c3c79ec2437f51aa65ec9c380b9ac785a76f468"


def test_field_encoding_is_pinned():
    h = hashlib.sha256()
    for q in range(2, 257):
        if len(factorize(q)) != 1:
            continue
        F = field_spec(q)
        h.update(repr((q, F.modulus, F.primitive)).encode())
        for name in ("exp", "log", "mul", "add", "neg", "inv_table"):
            table = getattr(F, name)
            h.update(f"{name} {table.dtype} {table.shape}".encode())
            h.update(table.tobytes())
    assert h.hexdigest() == FIELD_TABLES_SHA256


def test_q_cap():
    with pytest.raises(DomainError, match=r"field size 257 outside supported range \[2, 256\]"):
        field_spec(257)
    F = field_spec(256)
    for table in (F.add, F.mul, F.neg, F.inv_table):
        assert table.dtype == np.uint8
    assert F.add.shape == F.mul.shape == (256, 256)


def test_element_of_order_and_subgroup_values():
    F = field_spec(13)
    for m in (1, 2, 3, 4, 6, 12):
        g = F.element_of_order(m)
        assert mult_order(F, g) == m
        vals = F.subgroup_values(m)
        assert vals.dtype == np.uint8
        assert vals.tolist() == [F.pow_el(g, j) for j in range(m)]
    for m in (0, -2, 5):  # no order below 1, none that does not divide q - 1
        for ask in (F.element_of_order, F.subgroup_values):
            with pytest.raises(DomainError, match=f"no element of order {m} in GF"):
                ask(m)


def test_valuations_refuse_what_has_none():
    # every power of p divides 0, and every power of 1 divides n: no largest one
    assert [p_val(n, 3) for n in (1, 3, -18, 162)] == [0, 1, 2, 4]
    assert [p_part(n, 2) for n in (1, 12, -8, 7)] == [1, 4, 8, 1]
    for n, p in [(0, 3), (0, 2), (18, 1), (18, 0), (5, -2)]:
        for fn in (p_val, p_part):
            with pytest.raises(DomainError, match="valuation"):
                fn(n, p)


def _least_primitive_by_full_scan(F, mod):
    """The generator of least encoding of (F[x]/(mod))^x, every encoding from 1 on."""
    k = len(mod) - 1
    order = F.q ** k - 1
    for v in range(1, F.q ** k):
        g = _poly_trim(_digits(v, F.q, k))
        if all(_poly_powmod(F, g, order // r, mod) != [1] for r in factorize(order)):
            return g


# the (q, e) of every Singer block that tier-1 builds
SINGER_PAIRS = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (3, 2), (3, 3), (3, 4),
                (3, 5), (3, 6), (4, 1), (4, 2), (4, 3), (4, 5), (5, 1), (5, 2), (5, 3), (5, 4),
                (5, 5), (7, 1), (7, 2), (7, 4), (8, 1), (8, 2), (8, 4), (9, 1), (9, 2), (9, 3),
                (11, 2), (11, 3), (13, 1), (13, 2), (17, 1), (19, 1)]


def test_least_primitive_skips_only_constants():
    # no constant generates GF(q^k)^x for k > 1, so starting the scan at x
    # keeps the full scan's answer: for every field bootstrap over its prime
    # field up to q = 256, and for every Singer generator that the tests reach
    bootstraps = [q for q in range(4, 257) if len(f := factorize(q)) == 1 and max(f.values()) > 1]
    assert len(bootstraps) == 16
    for q in bootstraps:
        F = field_spec(q)
        P = field_spec(F.char)
        assert _least_primitive(P, F.modulus) == _least_primitive_by_full_scan(P, F.modulus), q
    for q, e in SINGER_PAIRS:
        F = field_spec(q)
        mod = list(_least_irreducible(F, e))
        assert _least_primitive(F, mod) == _least_primitive_by_full_scan(F, mod), (q, e)
