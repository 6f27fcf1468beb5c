"""Core domain types: players, preference profiles, quantized preferences, matchings.

Conventions used throughout the package:

* Ranks are 1-based; rank 1 is the most favored partner.
* An unmatched player is treated as holding rank ``deg(v) + 1``, i.e. worse
  than every acceptable partner.
* Preference lists are symmetric: ``w`` appears on ``m``'s list exactly when
  ``m`` appears on ``w``'s.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import InvalidMatching, InvalidProfile


class Side(IntEnum):
    MAN = 0
    WOMAN = 1


class PlayerId(NamedTuple):
    """A player, identified by side plus a 0-based index within that side."""

    side: Side
    index: int

    def __repr__(self) -> str:
        return f"{'M' if self.side is Side.MAN else 'W'}{self.index}"


def man(index: int) -> PlayerId:
    return PlayerId(Side.MAN, index)


def woman(index: int) -> PlayerId:
    return PlayerId(Side.WOMAN, index)


@dataclass(frozen=True)
class PreferenceProfile:
    """A full instance: n players per side with symmetric incomplete preference lists.

    ``men_prefs[i]`` is man i's ordered list of woman indices (position 0 is
    rank 1); ``women_prefs`` likewise. Lists may be empty. Validation happens
    at construction and raises :class:`InvalidProfile` with the violated
    invariant spelled out.
    """

    n: int
    men_prefs: tuple[tuple[int, ...], ...]
    women_prefs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidProfile(f"n must be >= 1, got {self.n}")
        if not self._passes_fast_checks():
            self._raise_first_violation()

    def _passes_fast_checks(self) -> bool:
        """True exactly when the profile is valid. When men's lists are in range without
        repeats, men's edges lie among women's and the degree sums are equal, the edge
        sets are equal, so women's lists are in range without repeats too."""
        n, men, women = self.n, self.men_prefs, self.women_prefs
        if len(men) != n or len(women) != n or self.num_edges != sum(map(len, women)):
            return False
        if list(map(len, map(set(range(n)).intersection, men))) != list(map(len, men)):
            return False
        women_sets = list(map(set, women))
        for m_idx, lst in enumerate(men):
            for w_idx in lst:
                if m_idx not in women_sets[w_idx]:
                    return False
        return True

    def _raise_first_violation(self) -> None:
        """Walk every entry in order and raise InvalidProfile at the first violation."""
        sides = (("man", "men", self.men_prefs), ("woman", "women", self.women_prefs))
        for side, plural, prefs in sides:
            if len(prefs) != self.n:
                raise InvalidProfile(f"expected {self.n} {plural} preference lists, got {len(prefs)}")
            for i, lst in enumerate(prefs):
                seen = set()
                for j in lst:
                    if not (0 <= j < self.n):
                        raise InvalidProfile(f"{side} {i} ranks out-of-range partner {j}")
                    if j in seen:
                        raise InvalidProfile(f"{side} {i} ranks partner {j} twice")
                    seen.add(j)
        sets = {side: [set(lst) for lst in prefs] for side, _, prefs in sides}
        for (side, _, prefs), (other, _, _) in zip(sides, reversed(sides)):
            for i, lst in enumerate(prefs):
                for j in lst:
                    if i not in sets[other][j]:
                        raise InvalidProfile(
                            f"asymmetric pair: {side} {i} lists {other} {j} but {other} {j} does not list {side} {i}"
                        )

    @classmethod
    def from_lists(cls, men_prefs: Sequence[Sequence[int]], women_prefs: Sequence[Sequence[int]]) -> "PreferenceProfile":
        n = max(len(men_prefs), len(women_prefs))
        return cls(
            n=n,
            men_prefs=tuple(tuple(lst) for lst in men_prefs),
            women_prefs=tuple(tuple(lst) for lst in women_prefs),
        )

    @cached_property
    def _man_rank(self) -> tuple[dict[int, int], ...]:
        return tuple(dict(zip(lst, range(1, len(lst) + 1))) for lst in self.men_prefs)

    @cached_property
    def _woman_rank(self) -> tuple[dict[int, int], ...]:
        return tuple(dict(zip(lst, range(1, len(lst) + 1))) for lst in self.women_prefs)

    @cached_property
    def num_edges(self) -> int:
        return sum(map(len, self.men_prefs))

    def is_edge(self, m_idx: int, w_idx: int) -> bool:
        """Reads man m's list rather than a rank table, so a check of a few pairs
        (``Matching.validate_for``) builds no table. False for an index out of range."""
        return 0 <= m_idx < self.n and w_idx in self.men_prefs[m_idx]


class QuantizedPrefs:
    """A player's preference list chopped into k quantile buckets.

    Bucket assignment follows ``q(r) = ceil(r * k / deg)`` for 1-based rank r,
    which keeps bucket sizes within one of ``deg / k`` and leaves some buckets
    empty when ``deg < k``. Bucket i is the rank slice
    ``order[(i - 1) * deg // k : i * deg // k]``, so only the remaining set and
    cursors at the first and last remaining positions are kept. The structure
    is removal-only, and ``rank_of``/``quantile`` describe the original list.
    ``rank_of`` may be passed in (a profile's cached rank table for this list)
    and is only read.
    """

    __slots__ = ("k", "deg", "order", "rank_of", "remaining", "_first", "_last")

    def __init__(self, ordered_partners: Sequence[int], k: int, rank_of: Mapping[int, int] | None = None):
        if k < 1:
            raise ValueError(f"quantile count must be >= 1, got {k}")
        self.k = k
        self.order: tuple[int, ...] = tuple(ordered_partners)
        self.deg = deg = len(self.order)
        if rank_of is None:
            rank_of = dict(zip(self.order, range(1, deg + 1)))
        self.rank_of: Mapping[int, int] = rank_of
        self.remaining: set[int] = set(self.order)
        # the cursors only move inward, O(deg) over a whole run
        self._first, self._last = 0, deg - 1

    def _remaining_in(self, lo: int, hi: int) -> list[int]:
        rem = self.remaining
        return [p for p in self.order[lo:hi] if p in rem]

    def quantile(self, partner: int) -> int:
        """Quantile index (1-based) of a partner from the original list."""
        return -(-self.rank_of[partner] * self.k // self.deg)

    def best_nonempty_index(self) -> int | None:
        return None if self._first > self._last else -(-(self._first + 1) * self.k // self.deg)

    def best_nonempty_bucket(self) -> list[int]:
        i = self.best_nonempty_index()
        return [] if i is None else self._remaining_in(self._first, i * self.deg // self.k)

    def remove(self, partner: int) -> None:
        self.remove_many((partner,))

    def remove_many(self, partners: Sequence[int]) -> None:
        """Drop distinct remaining partners; checks and set update run once per call.
        On a KeyError nothing is removed."""
        rem = self.remaining
        size = len(rem)
        if not rem.issuperset(partners):
            raise KeyError(f"partners {list(partners)} include one already removed")
        rem.difference_update(partners)
        if size - len(rem) != len(partners):
            # every partner was remaining, so adding them all back restores the set
            rem.update(partners)
            raise KeyError(f"partners {list(partners)} repeat one")
        order, first, last = self.order, self._first, self._last
        while first <= last and order[first] not in rem:
            first += 1
        while last >= first and order[last] not in rem:
            last -= 1
        self._first, self._last = first, last

    def at_or_worse(self, quantile_index: int) -> list[int]:
        """Remaining partners whose quantile index is >= the given one, in rank order."""
        return self._remaining_in(max((quantile_index - 1) * self.deg // self.k, self._first), self._last + 1)

    def __len__(self) -> int:
        return len(self.remaining)


def quantize(prefs_of_player: Sequence[int], k: int, rank_of: Mapping[int, int] | None = None) -> QuantizedPrefs:
    """Split an ordered partner list into k quantile buckets (empty list allowed)."""
    return QuantizedPrefs(prefs_of_player, k, rank_of)


def as_index(value) -> int:
    """``value`` if it is an int and not a bool, else a TypeError worded as for a parsed JSON value."""
    if type(value) is int:
        return value
    if value is None or isinstance(value, (list, dict)):
        int(value)  # raises, in int()'s own words
    raise TypeError(f"expected an integer, got {json.dumps(value, default=repr)}")


@dataclass(frozen=True)
class Matching:
    """A set of (man index, woman index) pairs, at most one per player."""

    pairs: frozenset[tuple[int, int]]

    @classmethod
    def of(cls, pairs: Iterable[tuple[int, int]]) -> "Matching":
        return cls(pairs)

    def __post_init__(self):
        # any iterable of pairs is accepted; each entry is checked, not converted
        try:
            object.__setattr__(self, "pairs", frozenset((as_index(m), as_index(w)) for m, w in self.pairs))
        except (TypeError, ValueError) as exc:
            raise InvalidMatching(str(exc)) from None
        men_seen: set[int] = set()
        women_seen: set[int] = set()
        for m_idx, w_idx in self.pairs:
            if m_idx in men_seen:
                raise InvalidMatching(f"man {m_idx} appears in two pairs")
            if w_idx in women_seen:
                raise InvalidMatching(f"woman {w_idx} appears in two pairs")
            men_seen.add(m_idx)
            women_seen.add(w_idx)

    @cached_property
    def man_partner(self) -> dict[int, int]:
        return {m: w for m, w in self.pairs}

    @cached_property
    def woman_partner(self) -> dict[int, int]:
        return {w: m for m, w in self.pairs}

    def validate_for(self, profile: PreferenceProfile) -> None:
        """Raise InvalidMatching unless every pair is an edge of the communication graph."""
        for m_idx, w_idx in self.pairs:
            if not (0 <= m_idx < profile.n and 0 <= w_idx < profile.n):
                raise InvalidMatching(f"pair ({m_idx}, {w_idx}) is out of range for n={profile.n}")
            if not profile.is_edge(m_idx, w_idx):
                raise InvalidMatching(
                    f"pair ({m_idx}, {w_idx}) is not a mutually acceptable edge"
                )

    def __len__(self) -> int:
        return len(self.pairs)

    def sorted_pairs(self) -> list[tuple[int, int]]:
        return sorted(self.pairs)
