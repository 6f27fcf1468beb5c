"""Deterministic synchronous message-passing engine.

Each round has three stages: every processor first sees the messages
delivered at the end of the previous round (its inbox), then performs local
computation, then stages outgoing messages. Staged messages are validated
(edge adjacency, payload budget) and delivered atomically when the round
ends. Messages are short: a 3-bit kind token plus an optional integer
payload, checked against a budget of ``4 * ceil(log2(processors))`` bits.

Processors are ints: with n players per side, man i is processor i and woman
j is processor n + j. A step addresses partners by their index on the other
side, as the preference lists do; adjacency is the profile's own lists.

The engine is a sequential simulator of a parallel network: processors step
in deterministic id order within a round, and the inbox/outbox separation
guarantees no behavior can depend on that order. Per-processor RNG streams
are derived from (global seed, player id) so runs are bit-reproducible and
adding processors never perturbs existing streams.
"""

from __future__ import annotations

import random
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from enum import IntEnum
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence

from .errors import InconsistentState, NonNeighborSend, OversizedPayload, RoundCapExceeded
from .model import PlayerId, PreferenceProfile, Side


class MsgKind(IntEnum):
    PROPOSE = 0
    ACCEPT = 1
    REJECT = 2
    MM_POINT = 3
    MM_KEEP = 4
    MM_CHOOSE = 5
    MM_MATCHED = 6
    CONTROL = 7


# 8 kinds fit in 3 bits; sender identity is implicit in the edge, so protocol
# messages normally carry no payload at all.
KIND_BITS = 3


def payload_bits(payload: int | None) -> int:
    """Size of a message: the kind token plus the payload's bit length."""
    return KIND_BITS if payload is None else KIND_BITS + payload.bit_length()


_KIND_NAMES = {kind: kind.name for kind in MsgKind}


# kind -> receiver id -> inbox entries, each level created on first use
_mailbags = partial(defaultdict, partial(defaultdict, list))


# the inbox of a processor that received nothing; read-only, so one serves all
_NO_MAIL: Mapping[MsgKind, list] = MappingProxyType({})


@dataclass
class RoundTrace:
    """Per-run accounting: rounds, message volume, payload sizes, phase breakdown."""

    rounds: int = 0
    messages_sent: int = 0
    max_payload_bits: int = 0
    phase_breakdown: dict[str, int] = field(default_factory=dict)
    messages_by_phase: dict[str, int] = field(default_factory=dict)
    # protocol-level counters (proposal rounds, subroutine invocations, ...)
    extras: dict[str, int] = field(default_factory=dict)

    def add_phase(self, label: str, rounds: int) -> None:
        self.rounds += rounds
        self.phase_breakdown[label] = self.phase_breakdown.get(label, 0) + rounds

    def as_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "messages_sent": self.messages_sent,
            "max_payload_bits": self.max_payload_bits,
            "phase_breakdown": dict(sorted(self.phase_breakdown.items())),
            "messages_by_phase": dict(sorted(self.messages_by_phase.items())),
            "extras": dict(sorted(self.extras.items())),
        }


@dataclass(frozen=True)
class Topology:
    """Communication graph handed to the engine: a profile's acceptability lists."""

    profile: PreferenceProfile

    @classmethod
    def from_profile(cls, profile: PreferenceProfile) -> "Topology":
        return cls(profile)

    @classmethod
    def from_bipartite(cls, adjacency: Mapping[PlayerId, Iterable[PlayerId]]) -> "Topology":
        """The graph as a profile of sorted lists, n one more than the largest index."""
        nbrs = {v: sorted(adjacency[v]) for v in adjacency}
        for v, vs in nbrs.items():
            for u in vs:
                if u.side == v.side or v not in nbrs.get(u, ()):
                    raise InconsistentState(f"edge ({v}, {u}) does not cross sides or is not listed at both ends")
        n = 1 + max((v.index for v in nbrs), default=0)
        lists: tuple[list, list] = ([[] for _ in range(n)], [[] for _ in range(n)])
        for v, vs in nbrs.items():
            lists[v.side][v.index] = [u.index for u in vs]
        return cls(PreferenceProfile.from_lists(*lists))

    def id_of(self, v: PlayerId) -> int:
        """Player (side, i) is processor ``side * n + i``."""
        return v.side * self.profile.n + v.index

    def num_processors(self) -> int:
        return 2 * self.profile.n


class ProcessorContext:
    """Engine-facing view of one processor during a round.

    ``id`` is the processor number, ``side`` and ``index`` the player it
    runs, and ``neighbors`` its preference list: partner indices on the
    other side, best first. ``inbox`` maps each kind received this round to
    its senders' indices in ascending order, one entry per message; a
    message that carried a payload arrives as a ``(sender, payload)`` pair.
    A step sends via :meth:`send` or :meth:`send_many`, addressing partners
    by index. The rng stream is a pure function of (engine seed, player id).
    """

    __slots__ = ("id", "side", "index", "neighbors", "inbox", "_ranks", "_peer_base", "_engine", "_rng", "_seed")

    def __init__(self, side: Side, index: int, n: int, profile: PreferenceProfile, engine: "Engine", seed: int):
        self.side = side
        self.index = index
        self.id = side * n + index
        self._peer_base = 0 if side else n  # the id of the partner with index 0
        self.neighbors = (profile.men_prefs, profile.women_prefs)[side][index]
        self._ranks = (profile._man_rank, profile._woman_rank)[side][index]
        self.inbox: Mapping[MsgKind, list] = _NO_MAIL
        # a proxy, not a reference: no cycle keeps a finished engine alive until the next gc pass
        self._engine = weakref.proxy(engine)
        self._rng: random.Random | None = None
        self._seed = seed

    @property
    def self_id(self) -> PlayerId:
        return PlayerId(self.side, self.index)

    def peer(self, index: int) -> PlayerId:
        """The partner a step addresses as ``index``."""
        return PlayerId(Side(1 - self.side), index)

    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(f"{self._seed}:{int(self.side)}:{self.index}")
        return self._rng

    def take(self, kind: MsgKind) -> list:
        """The inbox entries of ``kind`` (a new empty list if none); any other kind is an error."""
        inbox = self.inbox
        got = inbox.get(kind)
        if len(inbox) > (got is not None):
            other = next(k for k in inbox if k is not kind)
            raise InconsistentState(f"{self.self_id} received {other.name} where only {kind.name} is expected")
        return [] if got is None else got

    def send(self, to: int, kind: MsgKind, payload: int | None = None) -> None:
        self.send_many((to,), kind, payload)

    def send_many(self, targets: Sequence[int], kind: MsgKind, payload: int | None = None) -> None:
        """Send the same message to each target, in order; same as one ``send`` per target."""
        if not targets:
            return
        ranks = self._ranks
        if not all(map(ranks.__contains__, targets)):
            to = next(t for t in targets if t not in ranks)
            raise NonNeighborSend(f"{self.self_id} tried to send {kind.name} to non-neighbor {self.peer(to)}")
        self._engine._stage(self, targets, kind, payload)


StepFn = Callable[[ProcessorContext], None]


class Engine:
    """Runs synchronous rounds over a fixed topology.

    ``payload_budget`` is ``4 * max(1, ceil(log2 P))`` bits where P is the
    processor count; the ``max(1, .)`` floor keeps single-edge instances
    able to carry the 3-bit kind token.
    """

    def __init__(self, topology: Topology, seed: int = 0, round_cap: int | None = None, message_log: list | None = None):
        self.topology = topology
        self.seed = seed
        self.round_cap = round_cap
        profile = topology.profile
        n = profile.n
        self.payload_budget = 4 * max(1, (topology.num_processors() - 1).bit_length())
        self.trace = RoundTrace()
        self.message_log = message_log
        # log names per side, computed once per player instead of once per record
        if message_log is not None:
            self._names = ([f"M{i}" for i in range(n)], [f"W{i}" for i in range(n)])
        # indexed by processor id
        self.contexts: list[ProcessorContext] = [
            ProcessorContext(side, i, n, profile, self, seed) for side in Side for i in range(n)
        ]
        # delivered at the end of the last round, and staged in this one
        self._pending: dict[MsgKind, dict[int, list]] = _mailbags()
        self._staged: dict[MsgKind, dict[int, list]] = _mailbags()
        self._staged_count = 0
        self._in_round = False

    # -- message plumbing -------------------------------------------------

    def _stage(self, sender: ProcessorContext, targets: Sequence[int], kind: MsgKind, payload: int | None) -> None:
        """Stage one message from ``sender`` to every target index; checks run once per call."""
        if not self._in_round:
            raise InconsistentState("send outside of a round")
        bits = payload_bits(payload)
        if bits > self.payload_budget:
            raise OversizedPayload(
                f"{sender.self_id} -> {sender.peer(targets[0])}: payload of {bits} bits exceeds budget of {self.payload_budget}"
            )
        entry = sender.index if payload is None else (sender.index, payload)
        boxes, base = self._staged[kind], sender._peer_base
        for to in [base + t for t in targets] if base else targets:
            boxes[to].append(entry)
        self._staged_count += len(targets)
        if bits > self.trace.max_payload_bits:
            self.trace.max_payload_bits = bits
        if self.message_log is not None:
            rnd, frm, kname = self.trace.rounds + 1, self._names[sender.side][sender.index], _KIND_NAMES[kind]
            names = self._names[1 - sender.side]
            self.message_log.extend(
                {"round": rnd, "from": frm, "to": names[to], "kind": kname, "payload_bits": bits}
                for to in targets
            )

    @property
    def in_flight(self) -> int:
        """Messages delivered but not yet consumed by a round."""
        return sum(len(box) for boxes in self._pending.values() for box in boxes.values())

    def peek_pending(self, kind: MsgKind) -> dict[int, list]:
        """A copy of the undelivered ``kind`` traffic, receiver id -> inbox entries; for instrumentation only."""
        return dict(self._pending.get(kind, {}))

    def _check_cap(self, new_rounds: int) -> None:
        if self.round_cap is not None and self.trace.rounds + new_rounds > self.round_cap:
            raise RoundCapExceeded(self.round_cap)

    # -- round execution ---------------------------------------------------

    def run_round(self, step_fn: StepFn, label: str = "round", actors: Iterable[int] | None = None) -> int:
        """Execute one synchronous round; returns the number of messages sent.

        ``actors`` optionally restricts which processor ids are stepped. Any
        processor holding undelivered messages is always stepped, so
        restricting to known senders is a pure optimization: a processor
        outside the set would observe an empty inbox and send nothing.
        Processors step in id order, so every inbox list is in sender order.
        """
        self._check_cap(1)
        pending = self._pending
        if actors is None:
            to_step = range(len(self.contexts))
        else:
            combined = set(actors)
            for boxes in pending.values():
                combined.update(boxes)
            to_step = sorted(combined)
        contexts, kinds = self.contexts, list(pending.items())
        self._in_round = True
        for v in to_step:
            ctx = contexts[v]
            for kind, boxes in kinds:
                got = boxes.pop(v, None)
                if got is not None:
                    if ctx.inbox is _NO_MAIL:
                        ctx.inbox = {}
                    ctx.inbox[kind] = got
            step_fn(ctx)
            ctx.inbox = _NO_MAIL
        self._in_round = False
        for boxes in pending.values():
            if boxes:
                # processors outside the actor set would have dropped messages
                raise InconsistentState(f"undelivered messages for unstepped processor {next(iter(boxes))}")
        sent = self._staged_count
        self._pending = self._staged
        self._staged = _mailbags()
        self._staged_count = 0
        self.trace.messages_sent += sent
        if sent:
            self.trace.messages_by_phase[label] = self.trace.messages_by_phase.get(label, 0) + sent
        self.trace.add_phase(label, 1)
        return sent

    def repeat(
        self,
        count: int,
        shape: Sequence[tuple[str, int]],
        body: Callable[[int], object],
        quiet: Callable[[int], bool] | None = None,
    ) -> int:
        """Run ``body(i)`` for i in range(count); return how many repetitions were skipped.

        ``shape`` lists the (label, rounds) pairs one repetition runs. Before
        repetition i, once nothing is in flight and ``quiet(i)`` holds, the
        remaining repetitions are counted with one :meth:`skip_rounds` call
        per label instead of being stepped. With ``quiet`` None every
        repetition is stepped.
        """
        for i in range(count):
            if quiet is not None and not self._pending and quiet(i):
                left = count - i
                for label, rounds in shape:
                    self.skip_rounds(label, rounds * left)
                return left
            body(i)
        return 0

    def skip_rounds(self, label: str, count: int) -> None:
        """Advance the round counter over a stretch provably free of traffic.

        Only legal when nothing is in flight: every processor's step would
        observe an empty inbox, and the caller asserts none would send.
        Counters advance exactly as if the rounds had been executed.
        """
        if count <= 0:
            return
        if self._pending:
            raise InconsistentState("cannot skip rounds while messages are in flight")
        self._check_cap(count)
        self.trace.add_phase(label, count)
