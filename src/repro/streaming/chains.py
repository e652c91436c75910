"""Vertex chains (Definition 10).

A ``(β, V')``-vertex chain delegates responsibility for a contiguously
numbered vertex set ``V'`` to a small ordered set of chain vertices: chain
vertex ``i`` is responsible for the ``i``-th block of at most ``β``
contiguously numbered vertices of ``V'``, every ``u ∈ V'`` knows which chain
vertex is responsible for it, and each chain vertex knows its block.

Chains are assigned deterministically from vertex identifiers alone
("Phase 0" of Theorem 11 takes zero rounds precisely because every vertex can
compute the assignment locally), which is what :func:`build_vertex_chain` and
:func:`disjoint_chains` implement.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class VertexChain:
    """A ``(β, V')``-vertex chain.

    Attributes:
        members: the ordered chain vertices ``V[1..y]``.
        beta: block size β.
        universe: the contiguously-numbered vertex set ``V'`` being covered,
            in increasing identifier order.
    """

    members: tuple[int, ...]
    beta: int
    universe: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, position: int) -> int:
        """1-based access mirroring the paper's ``V[i]`` notation."""
        if not 1 <= position <= len(self.members):
            raise IndexError(f"chain position {position} out of range 1..{len(self.members)}")
        return self.members[position - 1]

    def block(self, position: int) -> tuple[int, ...]:
        """The contiguous block of ``V'`` assigned to chain position ``position``."""
        if not 1 <= position <= len(self.members):
            raise IndexError(f"chain position {position} out of range 1..{len(self.members)}")
        start = (position - 1) * self.beta
        return self.universe[start : start + self.beta]

    def covers(self, vertex: int) -> bool:
        """Whether ``vertex`` is in the (sorted) universe."""
        index = bisect.bisect_left(self.universe, vertex)
        return self.universe[index : index + 1] == (vertex,)

    def responsible_for(self, vertex: int) -> int:
        """``f_V(u)``: the chain member responsible for universe vertex ``u``."""
        if not self.covers(vertex):
            raise KeyError(f"vertex {vertex} is not in the chain universe")
        return self.members[bisect.bisect_left(self.universe, vertex) // self.beta]

    def assignment(self) -> dict[int, int]:
        """The full map ``u -> f_V(u)`` over the universe."""
        return {u: self.responsible_for(u) for u in self.universe}

    def validate(self) -> None:
        """Check the Definition 10 invariants."""
        expected_length = math.ceil(len(self.universe) / self.beta) if self.universe else 0
        assert len(self.members) >= expected_length, (
            f"chain has {len(self.members)} members but needs {expected_length}"
        )
        for position in range(1, len(self.members) + 1):
            block = self.block(position)
            assert len(block) <= self.beta
            assert list(block) == sorted(block), "chain blocks must be contiguously numbered"


def build_vertex_chain(universe: Sequence[int], beta: int, members: Sequence[int] | None = None) -> VertexChain:
    """Build a ``(β, V')``-vertex chain over ``universe``.

    Args:
        universe: the contiguously-numbered vertex set ``V'`` (any sorted
            sequence of distinct integers).
        beta: block size β (positive).
        members: the chain vertices.  Defaults to the first
            ``ceil(|V'| / β)`` vertices of the universe itself, which is the
            deterministic local rule used throughout the paper's proofs.

    Returns:
        A validated :class:`VertexChain`.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    ordered = tuple(sorted(universe))
    needed = math.ceil(len(ordered) / beta) if ordered else 0
    if members is None:
        if needed > len(ordered):
            raise ValueError("universe too small to host its own chain")
        members = ordered[:needed]
    members = tuple(members)
    if len(members) < needed:
        raise ValueError(
            f"chain needs at least {needed} members to cover {len(ordered)} vertices "
            f"with beta={beta}, got {len(members)}"
        )
    chain = VertexChain(members=members, beta=beta, universe=ordered)
    chain.validate()
    return chain


def disjoint_chains(
    universe: Sequence[int],
    beta: int,
    num_chains: int,
) -> list[VertexChain]:
    """Assign ``num_chains`` pairwise-disjoint chains over the same universe.

    Used for the simulator chains of Theorem 11 (one chain per parallel
    algorithm, chains disjoint, each of λ = ceil(|V'| / β) members) and for
    the amplifier chains of Lemma 19.  Feasibility requires
    ``num_chains * ceil(|V'|/β) <= |V'|``; the members of chain ``j`` are the
    ``j``-th block of the universe, a rule every vertex can compute locally.
    """
    ordered = tuple(sorted(universe))
    per_chain = math.ceil(len(ordered) / beta) if ordered else 0
    if per_chain == 0:
        return [build_vertex_chain(ordered, beta, members=()) for _ in range(num_chains)]
    if num_chains * per_chain > len(ordered):
        raise ValueError(
            f"cannot fit {num_chains} disjoint chains of {per_chain} members each "
            f"into a universe of {len(ordered)} vertices"
        )
    chains = []
    for j in range(num_chains):
        members = ordered[j * per_chain : (j + 1) * per_chain]
        chains.append(build_vertex_chain(ordered, beta, members=members))
    return chains
