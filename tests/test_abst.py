import itertools
import json
import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from endotriv import abst
from endotriv.abst import (AbelianStructure, ExtensionDescriptor, cyclic,
                           from_cyclic_orders, prime_to_p_part)
from endotriv.errors import DomainError


def test_direct_sum_examples():
    # from_cyclic_orders canonicalizes a direct sum of cyclic groups
    assert from_cyclic_orders([], 1) == AbelianStructure(1)
    assert from_cyclic_orders([1], 1) == AbelianStructure(1)
    assert from_cyclic_orders([2, 3]) == cyclic(6)
    assert from_cyclic_orders([2, 2], 1) == AbelianStructure(1, (2, 2))


@given(st.lists(st.integers(min_value=1, max_value=60), max_size=6),
       st.lists(st.integers(min_value=1, max_value=60), max_size=6))
@settings(max_examples=200, deadline=None)
def test_direct_sum_preserves_order(xs, ys):
    a, b = from_cyclic_orders(xs), from_cyclic_orders(ys)
    got = from_cyclic_orders(list(a.invariant_factors) + list(b.invariant_factors))
    assert math.prod(got.invariant_factors) == \
        math.prod(a.invariant_factors) * math.prod(b.invariant_factors)


@given(st.lists(st.integers(min_value=1, max_value=60), max_size=6))
@settings(max_examples=200, deadline=None)
def test_direct_sum_has_the_solution_counts_of_its_summands(xs):
    # Z/n_1 + ... + Z/n_k has prod gcd(m, n_i) solutions of m y = 0, and
    # these counts over the divisors m of the order determine the group
    ds = from_cyclic_orders(xs).invariant_factors
    assert math.prod(ds) == math.prod(xs)
    divisors = {1}
    for n in xs:
        divisors = {d * e for d in divisors for e in range(1, n + 1) if n % e == 0}
    for m in divisors:
        assert math.prod(math.gcd(m, n) for n in xs) == \
            math.prod(math.gcd(m, d) for d in ds), (xs, m)


def test_prime_to_p_part_examples():
    assert prime_to_p_part(cyclic(6), 2) == cyclic(3)
    assert prime_to_p_part(cyclic(4), 2) == abst.TRIVIAL
    assert prime_to_p_part(from_cyclic_orders([12, 2]), 3) == \
        from_cyclic_orders([4, 2])
    with pytest.raises(DomainError):
        prime_to_p_part(AbelianStructure(1), 2)


@given(st.lists(st.integers(min_value=1, max_value=90), max_size=6),
       st.sampled_from([2, 3, 5, 7]))
@settings(max_examples=200, deadline=None)
def test_prime_to_p_part_idempotent(xs, p):
    a = from_cyclic_orders(xs)
    once = prime_to_p_part(a, p)
    assert prime_to_p_part(once, p) == once


def test_invariant_factor_canonical_form():
    a = from_cyclic_orders([2, 3, 4])
    assert a.invariant_factors == (2, 12)
    assert a.primary_decomposition() == (2, 3, 4)
    with pytest.raises(DomainError):
        AbelianStructure(0, (2, 3))  # broken chain
    with pytest.raises(DomainError):
        AbelianStructure(0, (1, 2))  # factor 1


def test_json_roundtrip():
    a = from_cyclic_orders([4, 6], free_rank=2)
    obj = json.loads(json.dumps(a.to_json()))
    assert obj == {"rank": 2, "torsion": [2, 12], "primary": [2, 3, 4]}
    assert AbelianStructure(obj["rank"], tuple(obj["torsion"])) == a


def test_extension_descriptor():
    e = ExtensionDescriptor(sub=cyclic(4), quot=cyclic(2))
    cands = e.candidates()
    assert from_cyclic_orders([8]) in cands and from_cyclic_orders([4, 2]) in cands
    e2 = ExtensionDescriptor(sub=from_cyclic_orders([2, 2]), quot=cyclic(2))
    cands2 = e2.candidates()
    assert from_cyclic_orders([2, 2, 2]) in cands2
    assert from_cyclic_orders([4, 2]) in cands2
    assert from_cyclic_orders([8]) not in cands2
    # resolved is the sole candidate: an odd sub, or a trivial quotient
    assert e.resolved is None and e2.resolved is None
    assert ExtensionDescriptor(cyclic(3), cyclic(2)).resolved == cyclic(6)
    for sub in (abst.TRIVIAL, cyclic(4), from_cyclic_orders([2, 2], 1)):
        assert ExtensionDescriptor(sub, abst.TRIVIAL).resolved == sub
    assert ExtensionDescriptor(AbelianStructure(1), cyclic(2)).resolved is None


def _chains(order, base=1):
    """Every chain d_1 | d_2 | ... of factors >= 2 with product `order`,
    each factor a multiple of `base`: the abelian groups of that order."""
    if order == 1:
        yield ()
    for d in range(2, order + 1):
        if order % d == 0 and d % base == 0:
            yield from ((d,) + rest for rest in _chains(order // d, d))


def _element_orders(orders, keep=lambda ys: True):
    """How many elements of Z/m_1 + ... + Z/m_k have each order, counting
    only the elements that `keep` accepts."""
    return Counter(math.lcm(*(m // math.gcd(y, m) for y, m in zip(ys, orders)))
                   for ys in itertools.product(*map(range, orders)) if keep(ys))


def test_candidates_are_the_abelian_groups_holding_sub_at_index_two():
    # M is a candidate when one of its index-2 subgroups, the kernel of a
    # nonzero map sum c_i y_i mod 2 to Z/2, has the element orders of sub
    for size in range(1, 33):
        for sub in _chains(size):
            want = _element_orders(sub)
            expect = [M for M in _chains(2 * size) if any(
                _element_orders(M, lambda ys: sum(c * y for c, y in zip(cs, ys)) % 2 == 0) == want
                for cs in itertools.product(*[(0, 1) if m % 2 == 0 else (0,) for m in M])
                if any(cs))]
            got = ExtensionDescriptor(sub=AbelianStructure(0, sub), quot=cyclic(2)).candidates()
            assert [c.invariant_factors for c in got] == \
                sorted(expect, key=lambda d: (len(d), d)), sub
