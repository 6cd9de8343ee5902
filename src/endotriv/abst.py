"""Finitely generated abelian groups in invariant-factor form.

AbelianStructure is the value type of every classification answer:
free rank plus a divisibility chain d_1 | d_2 | ... | d_k (no factor 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import zip_longest

from .errors import DomainError
from .gf import factorize, p_part


@dataclass(frozen=True)
class AbelianStructure:
    """Z^free_rank + sum of Z/d_i with d_1 | d_2 | ... and every d_i >= 2."""

    free_rank: int = 0
    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise DomainError("negative free rank")
        prev = 1
        for d in self.invariant_factors:
            if d < 2:
                raise DomainError(f"invariant factor {d} < 2")
            if d % prev != 0:
                raise DomainError(
                    f"divisibility chain broken: {prev} does not divide {d}")
            prev = d

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.invariant_factors

    def primary_decomposition(self) -> tuple[int, ...]:
        """Torsion as a sorted tuple of prime powers."""
        parts = []
        for d in self.invariant_factors:
            for p, e in factorize(d).items():
                parts.append(p ** e)
        return tuple(sorted(parts))

    def to_json(self) -> dict:
        return {"rank": self.free_rank, "torsion": list(self.invariant_factors),
                "primary": list(self.primary_decomposition())}

    def __str__(self):
        terms = []
        if self.free_rank == 1:
            terms.append("Z")
        elif self.free_rank > 1:
            terms.append(f"Z^{self.free_rank}")
        terms.extend(f"Z/{d}" for d in self.invariant_factors)
        return " + ".join(terms) if terms else "0"


TRIVIAL = AbelianStructure()


def cyclic(n: int) -> AbelianStructure:
    if n < 1:
        raise DomainError(f"cyclic group of order {n}")
    return AbelianStructure(0, (n,)) if n > 1 else TRIVIAL


def from_cyclic_orders(orders, free_rank: int = 0) -> AbelianStructure:
    """Canonicalize a direct sum of cyclic groups of the given orders: the
    invariant factors are the column products of each prime's powers,
    each prime's sorted largest first."""
    powers: dict[int, list[int]] = {}
    for n in orders:
        if n < 1:
            raise DomainError(f"cyclic order {n}")
        for p, e in factorize(n).items():
            powers.setdefault(p, []).append(p ** e)
    columns = zip_longest(*(sorted(v, reverse=True) for v in powers.values()), fillvalue=1)
    return AbelianStructure(free_rank, tuple(map(math.prod, columns))[::-1])


def prime_to_p_part(a: AbelianStructure, p: int) -> AbelianStructure:
    """Largest subgroup of coprime-to-p order; requires free rank zero."""
    if a.free_rank != 0:
        raise DomainError("prime-to-p part requires a finite group")
    return from_cyclic_orders([d // p_part(d, p) for d in a.invariant_factors])


@dataclass(frozen=True)
class ExtensionDescriptor:
    """A group T known only as an extension 0 -> sub -> T -> quot -> 0.

    `candidates` lists every abelian middle term the data allow when the
    quotient is trivial or Z/2 (the only quotients arising here).  T is
    abelian, so `resolved` is the sole candidate when there is one: when
    the quotient is trivial or |sub| is odd.
    """

    sub: AbelianStructure
    quot: AbelianStructure

    def candidates(self) -> tuple[AbelianStructure, ...]:
        if self.quot.is_trivial:
            return (self.sub,)
        if self.quot == cyclic(2) and self.sub.free_rank == 0:
            return tuple(_index_two_overgroups(self.sub))
        return ()

    @property
    def resolved(self) -> AbelianStructure | None:
        cands = self.candidates()
        return cands[0] if len(cands) == 1 else None

    def to_json(self) -> dict:
        resolved = self.resolved
        return {
            "kind": "extension",
            "sub": self.sub.to_json(),
            "quot": self.quot.to_json(),
            "resolved": resolved.to_json() if resolved else None,
            "candidates": [c.to_json() for c in self.candidates()],
        }

    def __str__(self):
        status = self.resolved or "unresolved"
        return f"extension 1 -> {self.sub} -> T -> {self.quot} -> 0 ({status})"


def _index_two_overgroups(x: AbelianStructure) -> list[AbelianStructure]:
    """All abelian M of order 2|x| containing a copy of x of index 2: x with
    one invariant factor doubled, or x + Z/2 (the doubled 1 below)."""
    ds = (1,) + x.invariant_factors
    out = {from_cyclic_orders(ds[:i] + (2 * d,) + ds[i + 1:]) for i, d in enumerate(ds)}
    return sorted(out, key=lambda s: (len(s.invariant_factors), s.invariant_factors))
