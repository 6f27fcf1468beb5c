"""Helpers that only tests read: confidence bounds for randomized claims, a
bipartite graph as a profile, an instance file's whole text, and a call's traced
memory peak and held bytes."""

import gc
import math
import tracemalloc

from matchsim.model import PreferenceProfile
from matchsim.workbench import _instance_text

Z_99 = 2.5758293035489004  # two-sided 99% normal quantile


def binomial_ci(successes: int, trials: int, z: float = Z_99) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not (0 <= successes <= trials):
        raise ValueError("successes out of range")
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


def rate_within_claim(failures: int, trials: int, claimed: float, z: float = Z_99) -> bool:
    """A probabilistic bound only fails when the CI lower bound of the
    observed failure rate exceeds the claimed rate."""
    lo, _ = binomial_ci(failures, trials, z)
    return lo <= claimed


def bipartite(n: int, edges) -> PreferenceProfile:
    """The graph on n >= 1 men and n women with the given (man, woman) edges, as a
    profile whose lists hold each vertex's neighbours in ascending order."""
    men, women = [[] for _ in range(n)], [[] for _ in range(n)]
    for m, w in sorted(edges):
        men[m].append(w)
        women[w].append(m)
    return PreferenceProfile.from_lists(men, women)


def vertex_count(graph: PreferenceProfile) -> int:
    """The vertices of ``graph`` with at least one neighbour."""
    return sum(1 for lst in (*graph.men_prefs, *graph.women_prefs) if lst)


def instance_to_json(profile: PreferenceProfile) -> str:
    """The text ``save_instance`` writes for ``profile``."""
    return "".join(_instance_text(profile))


def traced_peak(fn, *args) -> tuple[int, int]:
    """The most bytes tracemalloc saw allocated at once during ``fn(*args)``, and the
    bytes allocated during the call that are still held once it has returned and
    garbage is collected: its result, and anything it cached."""
    tracemalloc.start()
    try:
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        del result  # alive until its bytes are read
        return peak, held
    finally:
        tracemalloc.stop()
