"""Finitely generated abelian groups in invariant-factor form.

AbelianStructure is the value type of every classification answer:
free rank plus a divisibility chain d_1 | d_2 | ... | d_k (no factor 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

from .errors import DomainError
from .gf import factorize, p_part, p_val


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
    def torsion_order(self) -> int:
        return reduce(lambda a, b: a * b, self.invariant_factors, 1)

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
Z = AbelianStructure(free_rank=1)


def cyclic(n: int) -> AbelianStructure:
    if n < 1:
        raise DomainError(f"cyclic group of order {n}")
    return AbelianStructure(0, (n,)) if n > 1 else TRIVIAL


def free(rank: int) -> AbelianStructure:
    return AbelianStructure(free_rank=rank)


def from_cyclic_orders(orders, free_rank: int = 0) -> AbelianStructure:
    """Canonicalize a direct sum of cyclic groups of the given orders."""
    primary: dict[int, list[int]] = {}
    for n in orders:
        if n < 1:
            raise DomainError(f"cyclic order {n}")
        for p, e in factorize(n).items():
            primary.setdefault(p, []).append(e)
    width = max((len(v) for v in primary.values()), default=0)
    factors = []
    for i in range(width):
        d = 1
        for p, exps in primary.items():
            exps_sorted = sorted(exps, reverse=True)
            if i < len(exps_sorted):
                d *= p ** exps_sorted[i]
        factors.append(d)
    return AbelianStructure(free_rank, tuple(sorted(factors)))


def direct_sum(a: AbelianStructure, b: AbelianStructure) -> AbelianStructure:
    return from_cyclic_orders(
        list(a.invariant_factors) + list(b.invariant_factors),
        a.free_rank + b.free_rank)


def prime_to_p_part(a: AbelianStructure, p: int) -> AbelianStructure:
    """Largest subgroup of coprime-to-p order; requires free rank zero."""
    if a.free_rank != 0:
        raise DomainError("prime-to-p part requires a finite group")
    return from_cyclic_orders([d // p_part(d, p) for d in a.invariant_factors])


@dataclass(frozen=True)
class ExtensionDescriptor:
    """A group known only as an extension of `quot` by `sub`.

    `resolved` is filled when some governing result pins the middle term;
    `candidates` lists all abelian middle terms compatible with the data
    when the quotient is trivial or Z/2 (the only quotients arising here).
    """

    sub: AbelianStructure
    quot: AbelianStructure
    resolved: AbelianStructure | None = None

    def __post_init__(self):
        if self.resolved is not None:
            ok = (self.resolved.torsion_order
                  == self.sub.torsion_order * self.quot.torsion_order
                  and self.resolved.free_rank
                  == self.sub.free_rank + self.quot.free_rank)
            if not ok:
                raise DomainError("resolved extension has inconsistent size")

    def candidates(self) -> tuple[AbelianStructure, ...]:
        if self.resolved is not None:
            return (self.resolved,)
        if self.quot.is_trivial:
            return (self.sub,)
        if self.quot == cyclic(2) and self.sub.free_rank == 0:
            return tuple(_index_two_overgroups(self.sub))
        return ()

    def to_json(self) -> dict:
        return {
            "kind": "extension",
            "sub": self.sub.to_json(),
            "quot": self.quot.to_json(),
            "resolved": self.resolved.to_json() if self.resolved else None,
            "candidates": [c.to_json() for c in self.candidates()],
        }

    def __str__(self):
        status = str(self.resolved) if self.resolved else "unresolved"
        return f"extension 1 -> {self.sub} -> T -> {self.quot} -> 0 ({status})"


def _index_two_overgroups(x: AbelianStructure) -> list[AbelianStructure]:
    """All abelian M of order 2|x| containing a copy of x of index 2.

    At odd primes M and x agree; at 2, the partition of M is the partition
    of x with one part raised by 1 (possibly a new part 2).
    """
    two_exps = [p_val(d, 2) for d in x.invariant_factors if d % 2 == 0]
    rest = [d // p_part(d, 2) for d in x.invariant_factors]  # odd parts; 1s add nothing
    seen = set()
    out = []
    bumps = [sorted(two_exps + [1], reverse=True)]
    for i in range(len(two_exps)):
        cand = sorted(two_exps[:i] + [two_exps[i] + 1] + two_exps[i + 1:], reverse=True)
        bumps.append(cand)
    for exps in bumps:
        key = tuple(exps)
        if key in seen:
            continue
        seen.add(key)
        orders = [2 ** e for e in exps] + rest
        out.append(from_cyclic_orders(orders))
    out.sort(key=lambda s: (len(s.invariant_factors), s.invariant_factors))
    return out
