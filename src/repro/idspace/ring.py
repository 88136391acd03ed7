"""Modular arithmetic on the circular identifier space.

All functions treat identifiers as points on a clockwise ring of size
``modulus``.  A *segment* ``(x, y]`` starts at ``x + 1``, moves
clockwise and ends at ``y``; its size is ``(y - x) mod modulus``.  An
empty segment has ``x == y`` and size zero.  These definitions follow
Section 2 of the paper verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass


def segment_size(x: int, y: int, modulus: int) -> int:
    """Return the number of identifiers in the segment ``(x, y]``.

    ``segment_size(x, x, m) == 0``: the segment from a point to itself
    is empty (this is the termination condition of the CAM-Chord
    multicast recursion).
    """
    return (y - x) % modulus


def segment_contains(z: int, x: int, y: int, modulus: int) -> bool:
    """Return True when identifier ``z`` lies in the segment ``(x, y]``."""
    offset = (z - x) % modulus
    return 0 < offset <= (y - x) % modulus


@dataclass(frozen=True)
class IdentifierSpace:
    """A circular identifier space ``[0, 2**bits - 1]``.

    Provides the ring arithmetic of Section 2 plus the low-bit mask
    CAM-Koorde's lookup reads.
    """

    bits: int

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError(f"identifier space needs >= 1 bit, got {self.bits}")

    @property
    def size(self) -> int:
        """``N = 2**bits``, the number of identifiers."""
        return 1 << self.bits

    def normalize(self, x: int) -> int:
        """Map an arbitrary integer onto the ring."""
        return x % self.size

    def contains(self, x: int) -> bool:
        """Return True when ``x`` is a canonical identifier."""
        return 0 <= x < self.size

    def segment_size(self, x: int, y: int) -> int:
        """Size of the clockwise segment ``(x, y]``."""
        return segment_size(x, y, self.size)

    def in_segment(self, z: int, x: int, y: int) -> bool:
        """True when ``z`` lies in the clockwise segment ``(x, y]``."""
        return segment_contains(z, x, y, self.size)

    def add(self, x: int, delta: int) -> int:
        """Clockwise displacement: ``(x + delta) mod N``."""
        return (x + delta) % self.size

    def sub(self, x: int, delta: int) -> int:
        """Counter-clockwise displacement: ``(x - delta) mod N``."""
        return (x - delta) % self.size

    def low_bits(self, x: int, count: int) -> int:
        """Return the ``count`` low-order bits of ``x``."""
        if not 0 <= count <= self.bits:
            raise ValueError(f"count must be in [0, {self.bits}], got {count}")
        return x & ((1 << count) - 1) if count else 0
