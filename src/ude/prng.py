"""Deterministic seeded PRNG primitives.

Encoder weights are drawn from an xorshift64* stream (uniform_f32) so the
draw is a short, documented integer recurrence that can be replicated
bit-exactly outside this codebase:

    state_0 = splitmix64 output of (seed mod 2^64)   (0x9E3779B97F4A7C15 if 0)
    state' = xorshift(state):  x ^= x >> 12;  x ^= x << 25 (mod 2^64);  x ^= x >> 27
    output = (state' * 0x2545F4914F6CDD1D) mod 2^64
    uniform in [0,1) = (output >> 11) / 2^53   (computed in f64)
    draw = float32(low + (high - low) * uniform)   (the sum in f64)

Seed derivation for independent streams chains splitmix64 over mix-in words.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (next_state, output)."""
    state = (state + _SPLITMIX_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def derive_seed(seed: int, *words: int) -> int:
    """Mix integer words into a base seed to get an independent stream seed."""
    s = seed & _MASK64
    for w in words:
        _, s = splitmix64(s ^ (w & _MASK64))
    _, out = splitmix64(s)
    return out


def uniform_f32(seed: int, n: int, low: float, high: float) -> np.ndarray:
    """The first n draws of the xorshift64* stream `seed` names, uniform in
    [low, high) in f64 and returned as f32 (the cast may round onto high).
    The states run on Python ints, each stored straight into one uint64
    array, on which the output rule runs: its multiply wraps mod 2^64 as a
    masked product of Python ints would."""
    def states():
        x = splitmix64(seed & _MASK64)[1] or _SPLITMIX_GAMMA
        for _ in range(n):
            x ^= x >> 12
            x ^= (x << 25) & _MASK64
            x ^= x >> 27
            yield x

    out = np.fromiter(states(), np.uint64, n) * np.uint64(0x2545F4914F6CDD1D)
    u = (out >> np.uint64(11)) * (1.0 / (1 << 53))
    return (low + (high - low) * u).astype(np.float32)
