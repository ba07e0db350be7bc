"""A generic set-associative cache model.

Tag-only (no data payloads — the simulator tracks *where* bytes are, not
their values), with LRU, FIFO, or seeded-random replacement.  Random
replacement with an explicit seed matters because the NetDIMM nCache
specifies random replacement (Sec. 4.1) and runs must stay
deterministic.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Mapping, Optional

from repro.units import CACHELINE


class ReplacementPolicy(enum.Enum):
    """Victim-selection policy for a full set."""

    LRU = "lru"
    FIFO = "fifo"
    RANDOM = "random"


@dataclass
class CacheStats:
    """Hit/miss/eviction counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    invalidations: int = 0
    fills: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits / accesses (0.0 before any access)."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


@dataclass
class _Line:
    tag: int
    inserted_seq: int
    touched_seq: int
    flags: Dict[str, bool] = field(default_factory=dict)


_NO_LINES: Mapping[int, _Line] = MappingProxyType({})
"""The read-only view every untouched set is read through."""


class SetAssociativeCache:
    """A tag array of ``num_lines`` 64 B lines with ``ways`` associativity.

    Sets materialize on first fill: ``_sets`` maps a set index to its
    ``{tag: line}`` dict and has no entry for a set nothing was ever
    filled into, so building a 32 MiB DDIO slice costs O(1), not
    O(num_sets).  Reads of an untouched set go through one shared,
    read-only empty mapping.
    """

    def __init__(
        self,
        num_lines: int,
        ways: int,
        policy: ReplacementPolicy = ReplacementPolicy.LRU,
        seed: int = 0,
        line_bytes: int = CACHELINE,
    ):
        if num_lines <= 0 or ways <= 0:
            raise ValueError("cache must have positive size and associativity")
        if num_lines % ways:
            raise ValueError(f"{num_lines} lines not divisible by {ways} ways")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = num_lines // ways
        self.policy = policy
        self._rng = random.Random(seed)
        self._sets: Dict[int, Dict[int, _Line]] = {}
        self._seq = 0
        self.stats = CacheStats()

    @property
    def capacity_bytes(self) -> int:
        """Total capacity."""
        return self.num_sets * self.ways * self.line_bytes

    def _index(self, address: int) -> tuple[int, int]:
        line = address // self.line_bytes
        return line % self.num_sets, line // self.num_sets

    def lookup(self, address: int, touch: bool = True) -> bool:
        """Whether ``address`` is present; counts a hit or miss."""
        set_index, tag = self._index(address)
        line = self._sets.get(set_index, _NO_LINES).get(tag)
        if line is None:
            self.stats.misses += 1
            return False
        self.stats.hits += 1
        if touch:
            self._seq += 1
            line.touched_seq = self._seq
        return True

    def contains(self, address: int) -> bool:
        """Presence test without touching stats or recency."""
        set_index, tag = self._index(address)
        return tag in self._sets.get(set_index, _NO_LINES)

    def fill(self, address: int, **flags: bool) -> Optional[int]:
        """Insert ``address``; returns the evicted line's address (or None).

        ``flags`` become per-line boolean markers (the nCache uses a
        ``first_line`` flag to gate its prefetcher, Sec. 4.1).
        """
        set_index, tag = self._index(address)
        lines = self._sets.get(set_index)
        if lines is None:
            lines = self._sets[set_index] = {}
        self._seq += 1
        if tag in lines:
            line = lines[tag]
            line.touched_seq = self._seq
            line.flags.update(flags)
            return None
        victim_address = None
        if len(lines) >= self.ways:
            victim_tag = self._pick_victim(lines)
            del lines[victim_tag]
            self.stats.evictions += 1
            victim_address = (victim_tag * self.num_sets + set_index) * self.line_bytes
        lines[tag] = _Line(
            tag=tag, inserted_seq=self._seq, touched_seq=self._seq, flags=dict(flags)
        )
        self.stats.fills += 1
        return victim_address

    def _pick_victim(self, lines: Dict[int, _Line]) -> int:
        if self.policy is ReplacementPolicy.RANDOM:
            return self._rng.choice(sorted(lines))
        if self.policy is ReplacementPolicy.FIFO:
            return min(lines.values(), key=lambda line: line.inserted_seq).tag
        return min(lines.values(), key=lambda line: line.touched_seq).tag

    def invalidate(self, address: int) -> bool:
        """Drop ``address`` if present; True if it was present."""
        set_index, tag = self._index(address)
        lines = self._sets.get(set_index, _NO_LINES)
        if tag in lines:
            del lines[tag]
            self.stats.invalidations += 1
            return True
        return False

    def invalidate_many(self, addresses) -> int:
        """Drop every present address; returns how many were present.

        The batched form of :meth:`invalidate` for contiguous sweeps
        (the nCache snoops a whole write's worth of lines at once):
        one call, one stats update, identical counter totals.
        """
        sets_get = self._sets.get
        num_sets = self.num_sets
        line_bytes = self.line_bytes
        dropped = 0
        for address in addresses:
            line = address // line_bytes
            lines = sets_get(line % num_sets, _NO_LINES)
            tag = line // num_sets
            if tag in lines:
                del lines[tag]
                dropped += 1
        if dropped:
            self.stats.invalidations += dropped
        return dropped

    def get_flag(self, address: int, flag: str) -> bool:
        """Read a per-line boolean flag (False if line absent)."""
        set_index, tag = self._index(address)
        line = self._sets.get(set_index, _NO_LINES).get(tag)
        if line is None:
            return False
        return line.flags.get(flag, False)

    def set_flag(self, address: int, flag: str, value: bool) -> None:
        """Write a per-line boolean flag (no-op if line absent)."""
        set_index, tag = self._index(address)
        line = self._sets.get(set_index, _NO_LINES).get(tag)
        if line is not None:
            line.flags[flag] = value

    def occupancy(self) -> int:
        """Number of valid lines."""
        return sum(len(lines) for lines in self._sets.values())

    def occupancy_fraction(self) -> float:
        """Valid lines / capacity."""
        return self.occupancy() / (self.num_sets * self.ways)
