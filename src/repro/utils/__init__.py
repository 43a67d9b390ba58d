"""Shared low-level utilities: bit manipulation, deterministic RNG and
atomic file writes."""

from repro.utils.atomicio import (
    atomic_output,
    atomic_write_bytes,
    atomic_write_text,
)
from repro.utils.bitops import (
    is_power_of_two,
    ilog2,
    mask,
    low_bits,
    xor_fold,
    xor_folder,
)
from repro.utils.rng import DeterministicRNG

__all__ = [
    "atomic_output",
    "atomic_write_bytes",
    "atomic_write_text",
    "is_power_of_two",
    "ilog2",
    "mask",
    "low_bits",
    "xor_fold",
    "xor_folder",
    "DeterministicRNG",
]
