"""Seeded randomness.

Everything stochastic in the package draws from numpy Generators created
here, so a run is fully determined by its integer seeds. Independent
concerns (member initialization, member selection, batch sampling, ...)
get independent child streams via SeedSequence spawning, which keeps
degenerate configurations (e.g. a one-member ensemble) bit-comparable to
simpler loops that only consume a subset of the streams.
"""

from __future__ import annotations

import numpy as np

SeedLike = int | tuple | np.random.SeedSequence


def _as_seed_seq(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, tuple):
        return np.random.SeedSequence(tuple(int(e) for e in seed))
    return np.random.SeedSequence(int(seed))


def make_rng(seed) -> np.random.Generator:
    """PCG64 generator; equal seeds yield bit-identical draw sequences."""
    return np.random.Generator(np.random.PCG64(_as_seed_seq(seed)))


def spawn_seeds(seed, n: int) -> list[np.random.SeedSequence]:
    """n independent child seed sequences, deterministic in (seed, n)."""
    return _as_seed_seq(seed).spawn(n)


def derived_seed(*entropy: int) -> int:
    """Deterministic integer seed keyed by a tuple of integers (e.g. a base
    seed and a task index), different for every distinct tuple."""
    return int(np.random.SeedSequence(tuple(int(e) for e in entropy))
               .generate_state(1)[0])
