"""Ground-truth verification: blocking-pair counting, stability checks,
good/bad classification and a centralized deferred-acceptance oracle.

Conventions match the protocol side: ranks are 1-based and an unmatched
player ranks at deg + 1, i.e. below every acceptable partner, so an
unmatched player prefers anyone acceptable.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Sequence

from .model import BoundCheck, Matching, PreferenceProfile
from .protocols import PlayerFinal, RunResult

# The claims a run is checked against, in the order ``verify_run`` checks them: each
# id keys the report's bounds, and maps to whether it has a ``<id>_pass`` CSV column.
CLAIMS = {
    "thm41": True,  # blocking pairs <= eps * |E|
    "lemma42": True,  # no tight blocking pair touches a good man
    "lemma43": True,  # loose blocking pairs <= 4 |E| / k
    "lemma44": True,  # tight blocking pairs at bad men <= 4 delta |E|
    "lemma45": False,  # per-rung bad fraction among active men <= delta
    "lemma47": False,  # a bad man's tight blocking partners sit on his remaining list
}


def _rank_in(lst: Sequence[int], partner: int | None) -> int:
    """1-based position of partner in lst, with no partner at deg + 1."""
    return len(lst) + 1 if partner is None else lst.index(partner) + 1


# A short list's head, read like a flag row: ``head[m]`` is ``m in head``.
class _ShortHead(frozenset):
    __slots__ = ()
    __getitem__ = frozenset.__contains__


def _heads(profile: PreferenceProfile, matching: Matching, eps: float | None):
    """Each man's list head, lazily, and each woman's head read by man index: a head
    ``lst[:cur - c]`` holds the partners a player gains at least c = ``ceil(eps * deg)`` ranks
    on over their assigned partner (c = 1 with no eps). An edge gains c on both sides when
    ``heads[w][m]`` and w is in m's head; a gap is an integer, so this is ``gap >= eps * deg``.
    A whole-list head is one shared all-ones row (every man scanned against her is on her
    list), a list of n/4 partners or more gets a ``bytearray`` of n flags, a shorter one a set."""
    if eps is None:
        head_len = lambda lst, cur: cur - 1
    elif not math.isfinite(eps):
        raise ValueError(f"eps must be finite, got {eps}")
    else:
        eps = min(max(eps, -1.0), 2.0)  # every gap lies in [1 - deg, deg], so the pairs are the same
        head_len = lambda lst, cur: max(0, cur - math.ceil(eps * len(lst)))
    matching.validate_for(profile)
    n, ids, women = profile.n, range(profile.n), profile.women_prefs
    man_cur = map(_rank_in, profile.men_prefs, map(matching.man_partner.get, ids))
    woman_cur = map(_rank_in, women, map(matching.woman_partner.get, ids))
    everyone = b"\1" * n

    def head(lst, h):
        if h >= len(lst):
            return everyone
        if 4 * len(lst) < n:  # the rank rows' rule
            return _ShortHead(lst[:h])
        row = bytearray(n)
        for m_idx in lst[:h]:  # a subscript store: faster than a C-level map of row.__setitem__
            row[m_idx] = 1
        return row

    heads = list(map(head, women, map(head_len, women, woman_cur)))
    men = ((m_idx, lst[: head_len(lst, cur)]) for m_idx, lst, cur in zip(ids, profile.men_prefs, man_cur))
    return men, heads


def blocking_pairs(profile: PreferenceProfile, matching: Matching) -> list[tuple[int, int]]:
    """All edges (m, w) outside the matching that both endpoints prefer to their
    assigned partners, men in order and each man's in his list order."""
    men, heads = _heads(profile, matching, None)
    return [(m_idx, w_idx) for m_idx, head in men for w_idx in head if heads[w_idx][m_idx]]


def eps_blocking_pairs(profile: PreferenceProfile, matching: Matching, eps: float) -> list[tuple[int, int]]:
    """All edges on which both endpoints improve on their assigned partner by at least
    an eps-fraction of their own list length, in :func:`blocking_pairs`' order."""
    men, heads = _heads(profile, matching, eps)
    return [(m_idx, w_idx) for m_idx, head in men for w_idx in head if heads[w_idx][m_idx]]


def count_blocking_pairs(profile: PreferenceProfile, matching: Matching, eps: float | None = None) -> int:
    """The number of blocking pairs, or of eps-blocking pairs with an eps, not listed."""
    men, heads = _heads(profile, matching, eps)
    return sum(heads[w_idx][m_idx] for m_idx, head in men for w_idx in head)


def classify_good_bad(men: Sequence[PlayerFinal]) -> tuple[set[int], set[int]]:
    """Good men are matched or have exhausted their list; the rest are bad."""
    good = {i for i, st in enumerate(men) if st.partner is not None or not st.remaining}
    bad = set(range(len(men))) - good
    return good, bad


def gale_shapley_oracle(profile: PreferenceProfile) -> Matching:
    """Classical sequential man-proposing deferred acceptance (man-optimal)."""
    n = profile.n
    woman_rank = profile._woman_rank
    next_choice = [0] * n
    holds: dict[int, int] = {}
    free = deque(m for m in range(n) if profile.men_prefs[m])
    while free:
        m = free.popleft()
        lst = profile.men_prefs[m]
        while next_choice[m] < len(lst):
            w = lst[next_choice[m]]
            next_choice[m] += 1
            current = holds.get(w)
            if current is None:
                holds[w] = m
                break
            if woman_rank[w][m] < woman_rank[w][current]:
                holds[w] = m
                free.append(current)
                break
        # list exhausted: m stays unmatched
    return Matching.of((m, w) for w, m in holds.items())


@dataclass
class VerificationReport:
    """Blocking-pair accounting for one run, plus pass/fail per claimed bound."""

    algorithm: str
    n: int
    edges: int
    eps: float | None
    k: int | None
    delta: float | None
    blocking_pairs: int = 0
    tight_threshold: float | None = None  # 2 / k
    tight_blocking_pairs: int = 0
    good_men: frozenset[int] = frozenset()
    bad_men: frozenset[int] = frozenset()
    bounds: dict[str, BoundCheck] = field(default_factory=dict)

    @property
    def loose_blocking_pairs(self) -> int:
        return self.blocking_pairs - self.tight_blocking_pairs

    def all_passed(self) -> bool:
        return all(c.passed for c in self.bounds.values())

    def to_json(self) -> str:
        return json.dumps(
            {
                "algorithm": self.algorithm,
                "n": self.n,
                "edges": self.edges,
                "eps": self.eps,
                "k": self.k,
                "delta": self.delta,
                "blocking_pairs": self.blocking_pairs,
                "tight_threshold": self.tight_threshold,
                "tight_blocking_pairs": self.tight_blocking_pairs,
                "loose_blocking_pairs": self.loose_blocking_pairs,
                "good_men": sorted(self.good_men),
                "bad_men": sorted(self.bad_men),
                "bounds": {
                    k: {"bound": c.bound, "observed": c.observed, "passed": c.passed}
                    for k, c in sorted(self.bounds.items())
                },
            },
            indent=2,
        )


def verify_run(profile: PreferenceProfile, run: RunResult) -> VerificationReport:
    """Evaluate every stability claim a finished run is supposed to satisfy.

    With protocol parameters available the report covers: the total blocking
    budget eps * |E|; zero tight ((2/k)-)blocking pairs incident to good men;
    at most 4 |E| / k loose blocking pairs; at most 4 delta |E| tight blocking
    pairs from bad men; the per-rung bad-fraction records; and bad men's
    tight blocking partners all sitting on their remaining lists. Without
    parameters (deferred acceptance) only the blocking budget is checked,
    against eps = 0.
    """
    params = run.params
    eps = params.eps if params is not None else 0.0
    edges = profile.num_edges
    good, bad = classify_good_bad(run.men)
    report = VerificationReport(
        algorithm=run.algorithm,
        n=profile.n,
        edges=edges,
        eps=eps,
        k=params.k if params else None,
        delta=params.delta if params else None,
        blocking_pairs=count_blocking_pairs(profile, run.matching),
        good_men=frozenset(good),
        bad_men=frozenset(bad),
    )
    # one check per claim, in the table's order
    checks = [BoundCheck.of(eps * edges, report.blocking_pairs)]
    if params is not None:
        k = params.k
        report.tight_threshold = 2.0 / k
        # a tight pair gains at least 2/k > 0 on both sides, so it is also a blocking pair
        tight = eps_blocking_pairs(profile, run.matching, report.tight_threshold)
        tight_bad = [(m, w) for m, w in tight if m in bad]
        report.tight_blocking_pairs = len(tight)
        # each bad man's remaining tuple, read into a set once
        remaining = {m: set(run.men[m].remaining) for m in {m for m, _ in tight_bad}}
        off_list = {m for m, w in tight_bad if w not in remaining[m]}
        checks += [
            BoundCheck.of(0, len(tight) - len(tight_bad)),
            BoundCheck.of(4 * edges / k, report.loose_blocking_pairs),
            BoundCheck.of(4 * params.delta * edges, len(tight_bad)),
            BoundCheck.of(0, sum(not r.check.passed for r in run.outer_records)),
            BoundCheck.of(0, len(off_list)),
        ]
    report.bounds.update(zip(CLAIMS, checks))
    return report

