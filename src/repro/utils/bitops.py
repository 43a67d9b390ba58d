"""Bit-manipulation helpers used by cache geometry and partial tagging.

These mirror the arithmetic a hardware designer does when carving an
address into offset / index / tag fields, and when folding a full tag
down to a partial tag (Section 3.1 of the paper).
"""

from __future__ import annotations

from typing import Callable


def is_power_of_two(value: int) -> bool:
    """Return True if ``value`` is a positive power of two."""
    return value > 0 and (value & (value - 1)) == 0


def ilog2(value: int) -> int:
    """Integer log2 of a positive power of two.

    Raises:
        ValueError: if ``value`` is not a positive power of two. Cache
            geometry (line size, number of sets) must be a power of two,
            so a non-power-of-two here always indicates a config bug.
    """
    if not is_power_of_two(value):
        raise ValueError(f"expected a positive power of two, got {value!r}")
    return value.bit_length() - 1


def mask(bits: int) -> int:
    """Return an integer with the low ``bits`` bits set."""
    if bits < 0:
        raise ValueError(f"bit count must be non-negative, got {bits}")
    return (1 << bits) - 1


def low_bits(value: int, bits: int) -> int:
    """Keep only the low-order ``bits`` bits of ``value``.

    This is the paper's default partial-tag function: "typically the
    low-order bits of the tag".
    """
    return value & mask(bits)


def xor_fold(value: int, bits: int, width: int = 64) -> int:
    """Fold ``value`` down to ``bits`` bits by XOR-ing ``bits``-wide groups.

    The paper mentions "a combination (e.g., XOR of bit groups)" as an
    alternative partial-tag function; folding mixes high-order tag bits
    into the partial tag, which reduces aliasing for strided patterns
    whose low tag bits repeat.

    Args:
        value: the full tag.
        bits: width of the partial tag; must be positive.
        width: number of significant bits in ``value`` to fold over.
    """
    if bits <= 0:
        raise ValueError(f"partial tag width must be positive, got {bits}")
    folded = 0
    remaining = value & mask(width)
    while remaining:
        folded ^= remaining & mask(bits)
        remaining >>= bits
    return folded


def xor_folder(bits: int, width: int = 64) -> Callable[[int], int]:
    """A precomputed :func:`xor_fold` for one ``(bits, width)`` pair.

    Returns a callable equal to ``lambda v: xor_fold(v, bits, width)``
    for every non-negative ``v``, but folding by halving instead of one
    group at a time: with ``g`` groups left, XOR the upper half of them
    onto the lower half in one shift. Sixteen of 64 bits is then
    ``v ^= v >> 32; v ^= v >> 16; v & 0xFFFF``. A step that leaves an
    odd number of groups masks off the upper ones, which would
    otherwise fold back in on the next step.
    """
    if bits <= 0:
        raise ValueError(f"partial tag width must be positive, got {bits}")
    steps = []
    groups = -(-width // bits)
    while groups > 1:
        groups = (groups + 1) // 2
        keep = mask(groups * bits) if groups > 1 and groups % 2 else 0
        steps.append((groups * bits, keep))
    steps = tuple(steps)
    width_mask = mask(width)
    final = mask(bits)

    def fold(value: int) -> int:
        value &= width_mask
        for shift, keep in steps:
            value ^= value >> shift
            if keep:
                value &= keep
        return value & final

    return fold
