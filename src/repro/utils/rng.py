"""Randomness plumbing.

The 1995 paper runs every experiment with a *fixed seed* ("Since the nature
of the multilevel algorithm discussed is randomized, we performed all
experiments with fixed seed").  We reproduce that discipline: every public
entry point takes a ``seed`` argument that may be ``None`` (fresh
entropy), an ``int``, or an existing :class:`numpy.random.Generator`, and
the helpers here convert it to a concrete generator exactly once at the API
boundary.  Internal code only ever sees ``Generator`` objects.
"""

from __future__ import annotations

import numpy as np

SeedLike = "int | None | np.random.Generator | np.random.SeedSequence"


def as_generator(seed=None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (OS entropy), an integer seed, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged so state is shared with
        the caller).

    Returns
    -------
    numpy.random.Generator
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_child(rng: np.random.Generator) -> np.random.Generator:
    """Derive an independent child generator from ``rng``.

    Used by recursive bisection so each subproblem gets its own stream:
    results then do not depend on the *order* in which subproblems are
    solved, only on the recursion path.
    """
    # Drawing a 128-bit seed from the parent gives a statistically
    # independent child stream without sharing mutable state.
    seed = rng.integers(0, 2**63 - 1, size=2, dtype=np.int64)
    return np.random.default_rng(np.random.SeedSequence(entropy=[int(s) for s in seed]))
