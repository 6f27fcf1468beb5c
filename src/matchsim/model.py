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
from itertools import compress
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
        sets are equal, so women's lists are in range without repeats too. A woman's list
        of n partners in range lists every man, as ``range(n)`` does with no allocation."""
        n, men, women = self.n, self.men_prefs, self.women_prefs
        if len(men) != n or len(women) != n or self.num_edges != sum(map(len, women)):
            return False
        in_range = set(range(n)).intersection
        if list(map(len, map(in_range, men))) != list(map(len, men)):
            return False
        everyone = range(n)
        women_sets = [everyone if len(lst) == n == len(in_range(lst)) else set(lst) for lst in women]
        if any(s is not everyone for s in women_sets):  # else no man's edge can miss
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

    def _rank_table(self, prefs: tuple[tuple[int, ...], ...]) -> tuple[list[int] | dict[int, int], ...]:
        """One rank row per list: ``row[p]`` is partner p's 1-based rank, and any other
        index from 0 up reads 0 or raises LookupError."""
        # A list with at least n / 4 partners gets a list of n ints, 0 off the list, which
        # is then no larger than a {partner: rank} dict; a shorter one gets the dict. A
        # list row reads a negative index from its end, so a reader that can meet one
        # checks it first. Every rank is an int of one tuple per profile, so a rank above
        # 256 is one object shared by all rows of both sides rather than one per entry.
        n = self.n
        ranks = self.__dict__.setdefault("_ranks", tuple(range(1, n + 1)))

        def row(lst: tuple[int, ...]) -> list[int] | dict[int, int]:
            if 4 * len(lst) < n:
                return dict(zip(lst, ranks))
            flat = [0] * n
            for rank, p in zip(ranks, lst):
                flat[p] = rank
            return flat

        return tuple(map(row, prefs))

    _man_rank = cached_property(lambda self: self._rank_table(self.men_prefs))
    _woman_rank = cached_property(lambda self: self._rank_table(self.women_prefs))

    @cached_property
    def num_edges(self) -> int:
        return sum(map(len, self.men_prefs))

    def is_edge(self, m_idx: int, w_idx: int) -> bool:
        """Reads man m's list rather than a rank table, so a check of a few pairs
        (``Matching.validate_for``) builds no table. False for an index out of range."""
        return 0 <= m_idx < self.n and w_idx in self.men_prefs[m_idx]


class QuantizedPrefs:
    """A player's preference list chopped into k quantile buckets.

    Bucket assignment follows ``q(r) = ceil(r * k / deg)`` for 1-based rank r, which keeps
    bucket sizes within one of ``deg / k`` and leaves some empty when ``deg < k``. Bucket i
    is the rank slice ``order[(i - 1) * deg // k : i * deg // k]``, so no bucket is stored.
    The only mutable state is a flag byte per rank: ``live[r]`` is 1 while the partner of
    rank r remains, and ``live[0]`` is a 0 pad that a stranger reads (its ``rank_of[p]`` is
    0 or raises LookupError). ``compress``, ``find(1)``, ``count(1)`` and a slice clear read
    and drop partners. The structure is removal-only; ``rank_of`` (the profile's cached rank
    row for this list, only read) and ``quantile`` describe the original list.
    """

    __slots__ = ("k", "deg", "order", "rank_of", "live")

    def __init__(self, ordered_partners: Sequence[int], k: int, rank_of: Sequence[int] | Mapping[int, int]):
        if k < 1:
            raise ValueError(f"quantile count must be >= 1, got {k}")
        self.k = k
        self.order: tuple[int, ...] = tuple(ordered_partners)
        self.deg = deg = len(self.order)
        self.rank_of = rank_of
        self.live = bytearray(b"\0" + b"\1" * deg)

    def _remaining_in(self, lo: int, hi: int) -> list[int]:
        return list(compress(self.order[lo:hi], self.live[lo + 1 : hi + 1]))

    @property
    def remaining(self) -> tuple[int, ...]:
        """The remaining partners as a tuple in rank order, built on each read."""
        return tuple(compress(self.order, memoryview(self.live)[1:]))

    def quantile(self, partner: int) -> int:
        """Quantile index (1-based) of a partner from the original list."""
        return -(-self.rank_of[partner] * self.k // self.deg)

    def best_nonempty_bucket(self) -> list[int]:
        r = self.live.find(1)
        return [] if r < 0 else self._remaining_in(r - 1, -(-r * self.k // self.deg) * self.deg // self.k)

    def remove(self, partner: int) -> None:
        self.remove_many((partner,))

    def remove_many(self, partners: Sequence[int]) -> None:
        """Drop distinct remaining partners. On a KeyError the flags cleared so far
        are set again, so nothing is removed."""
        live, rank_of = self.live, self.rank_of
        # a negative index is never a partner, but a list row would read it from its end
        for i, p in enumerate(partners):
            try:
                r = rank_of[p] if p >= 0 else 0
            except LookupError:
                r = 0
            if not live[r]:
                for cleared in partners[:i]:
                    live[rank_of[cleared]] = 1
                raise KeyError(f"partners {list(partners)} include {p}, not remaining")
            live[r] = 0

    def remove_from(self, quantile_index: int, keep: int | None = None) -> list[int]:
        """Drop the remaining partners at quantile index >= the given one (1..k) but ``keep``; return
        them in rank order. Another index, or a ``keep`` not among them, is a ValueError, and nothing is removed."""
        if not 1 <= quantile_index <= self.k:
            raise ValueError(f"quantile index {quantile_index} is outside 1..{self.k}")
        lo, deg = (quantile_index - 1) * self.deg // self.k, self.deg
        dropped = self._remaining_in(lo, deg)
        if keep is not None:
            dropped.remove(keep)
        self.live[lo + 1 :] = bytes(deg - lo)
        if keep is not None:
            self.live[self.rank_of[keep]] = 1
        return dropped

    def __contains__(self, partner: int) -> bool:
        try:
            return partner >= 0 and self.live[self.rank_of[partner]] == 1
        except LookupError:
            return False

    def __len__(self) -> int:
        return self.live.count(1)


def quantize(prefs_of_player: Sequence[int], k: int, rank_of: Sequence[int] | Mapping[int, int]) -> QuantizedPrefs:
    """Split an ordered partner list into k quantile buckets (empty list allowed)."""
    return QuantizedPrefs(prefs_of_player, k, rank_of)


def as_index(value) -> int:
    """``value`` if it is an int and not a bool, else a TypeError worded as for a parsed JSON value."""
    if type(value) is int:
        return value
    if value is None or isinstance(value, (list, dict)):
        int(value)  # raises, in int()'s own words
    raise TypeError(f"expected an integer, got {json.dumps(value, default=repr)}")


# a descriptor grammar maps each head to its (field, type) arguments, in order
Grammar = Mapping[str, Sequence[tuple[str, type]]]


def parse_descriptor(text: str, grammar: Grammar, what: str) -> tuple[str, dict]:
    """Split a ``head[:a,b,...]`` descriptor into its head and its typed fields by
    name; anything ``grammar`` does not read is a ValueError naming ``what``."""
    head, colon, rest = text.partition(":")
    args = rest.split(",") if colon else []
    fields = grammar.get(head)
    try:
        if fields is not None and len(args) == len(fields):
            return head, {name: kind(arg) for (name, kind), arg in zip(fields, args)}
    except ValueError:
        pass
    raise ValueError(f"cannot parse {what} descriptor {text!r}")


def describe_descriptor(head: str, grammar: Grammar, spec) -> str:
    """The descriptor of ``spec``'s ``head`` fields: floats with ``:g``, ints in full."""
    args = ",".join(format(getattr(spec, name), "g" if kind is float else "") for name, kind in grammar[head])
    return f"{head}:{args}" if args else head


@dataclass(frozen=True)
class BoundCheck:
    bound: float
    observed: float
    passed: bool

    @classmethod
    def of(cls, bound: float, observed: float) -> "BoundCheck":
        """The check of an observed count against its bound, up to float rounding."""
        return cls(bound=bound, observed=observed, passed=observed <= bound + 1e-9)


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
