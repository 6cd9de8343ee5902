import json

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
    assert got.torsion_order == a.torsion_order * b.torsion_order


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
    with pytest.raises(DomainError):
        ExtensionDescriptor(sub=cyclic(4), quot=cyclic(2), resolved=cyclic(4))
    ok = ExtensionDescriptor(sub=cyclic(4), quot=cyclic(2),
                             resolved=from_cyclic_orders([8]))
    assert ok.candidates() == (from_cyclic_orders([8]),)

