"""Deterministic synchronous message-passing engine.

Each round has three stages: every processor first sees the messages
delivered at the end of the previous round (its inbox), then performs local
computation, then stages outgoing messages. Staged messages are checked for
edge adjacency and delivered atomically when the round ends. A message is its
3-bit kind token alone: the sender is implicit in the edge, and no protocol
step needs more, so there is no payload and no budget to check.

Processors are ints: with n players per side, man i is processor i and woman
j is processor n + j. A step addresses partners by their index on the other
side, as the preference lists do; adjacency is the profile's own lists.

The engine is a sequential simulator of a parallel network: processors step
in deterministic id order within a round, and the inbox/outbox separation
guarantees no behavior can depend on that order. Each processor's random
stream is exactly the draws of ``random.Random(f"{seed}:{side}:{index}")``,
held as a few buffered words and re-seeded only when they run out, so runs are
bit-reproducible and adding processors never perturbs existing streams.
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

from .errors import InconsistentState, NonNeighborSend, RoundCapExceeded
from .model import PlayerId, PreferenceProfile, Side


class MsgKind(IntEnum):
    PROPOSE = 0
    ACCEPT = 1
    REJECT = 2
    MM_POINT = 3
    MM_KEEP = 4
    MM_CHOOSE = 5
    MM_MATCHED = 6


# the size of every message: its kind token, which fits in 3 bits
KIND_BITS = 3


def log_ndjson(record: tuple) -> str:
    """The NDJSON lines of one message-log record ``(round, sender PlayerId, kind,
    partner indices)``, one per message in send order. Names and kind names need no
    escaping, so each line equals ``json.dumps`` of ``{"round", "from", "to", "kind",
    "payload_bits"}`` with ``(",", ":")`` separators."""
    rnd, sender, kind, targets = record
    head = f'{{"round":{rnd},"from":"{sender!r}","to":"{"WM"[sender.side]}'
    tail = f'","kind":"{kind.name}","payload_bits":{KIND_BITS}}}\n'
    return head + (tail + head).join(map(str, targets)) + tail


# kind -> receiver id -> inbox entries, each level created on first use
_mailbags = partial(defaultdict, partial(defaultdict, list))


# the inbox of a processor that received nothing; read-only, so one serves all
_NO_MAIL: Mapping[MsgKind, list] = MappingProxyType({})


@dataclass
class RoundTrace:
    """Per-run accounting: rounds, message volume, message size, phase breakdown."""

    rounds: int = 0
    messages_sent: int = 0
    max_payload_bits: int = 0  # KIND_BITS once any message is sent
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


class RandomStream:
    """The draws of ``random.Random(text)``, held as a block of buffered 32-bit words."""

    __slots__ = ("text", "_used", "_left", "_words")

    def __init__(self, text: str):
        self.text = text
        self._used = self._left = self._words = 0

    def choice(self, seq: Sequence):
        """The item ``random.Random(text).choice(seq)`` picks, by the same rejection draws."""
        n = len(seq)
        if not 0 < n < 1 << 32:
            raise ValueError(f"a stream chooses among 1 to 2**32 - 1 items, not {n}")
        shift = 32 - n.bit_length()
        while True:
            if not self._left:
                self._refill()
            self._left -= 1
            r = (self._words & 0xFFFFFFFF) >> shift
            self._words >>= 32
            if r < n:
                return seq[r]

    def _refill(self) -> None:
        """Seed a generator for the moment, skip the words already used and take as
        many more (16 at first), so a stream is seeded O(log draws) times."""
        gen = random.Random(self.text)
        gen.getrandbits(32 * self._used)
        self._left = max(16, self._used)
        self._words = gen.getrandbits(32 * self._left)
        self._used += self._left


class ProcessorContext:
    """Engine-facing view of one processor during a round.

    ``id`` is the processor number, ``side`` and ``index`` the player it
    runs, and ``neighbors`` its preference list: partner indices on the
    other side, best first. ``inbox`` maps each kind received this round to
    its senders' indices in ascending order, one entry per message.
    A step sends via :meth:`send` or :meth:`send_many`, addressing partners
    by index. ``rng`` is the processor's :class:`RandomStream`.
    """

    __slots__ = ("id", "side", "index", "neighbors", "inbox", "rng", "_ranks", "_peer_base", "_engine")

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
        self.rng = RandomStream(f"{seed}:{int(side)}:{index}")

    @property
    def self_id(self) -> PlayerId:
        return PlayerId(self.side, self.index)

    def peer(self, index: int) -> PlayerId:
        """The partner a step addresses as ``index``."""
        return PlayerId(Side(1 - self.side), index)

    def take(self, kind: MsgKind) -> list:
        """The inbox entries of ``kind`` (a new empty list if none); any other kind is an error."""
        inbox = self.inbox
        got = inbox.get(kind)
        if len(inbox) > (got is not None):
            other = next(k for k in inbox if k is not kind)
            raise InconsistentState(f"{self.self_id} received {other.name} where only {kind.name} is expected")
        return [] if got is None else got

    def send(self, to: int, kind: MsgKind) -> None:
        self.send_many((to,), kind)

    def send_many(self, targets: Sequence[int], kind: MsgKind) -> None:
        """Send ``kind`` to each target, in order; same as one ``send`` per target."""
        if not targets:
            return
        ranks = self._ranks
        if not all(map(ranks.__contains__, targets)):
            to = next(t for t in targets if t not in ranks)
            raise NonNeighborSend(f"{self.self_id} tried to send {kind.name} to non-neighbor {self.peer(to)}")
        self._engine._stage(self, targets, kind)


StepFn = Callable[[ProcessorContext], None]


class Engine:
    """Runs synchronous rounds over a fixed topology.

    A ``message_log`` list gets one record per non-empty ``send_many``/``send``
    call; :func:`log_ndjson` expands it to the NDJSON lines of its messages.
    """

    # the one fast-forward switch, for tests: set False on the class and repeat()
    # steps every repetition instead of skipping quiet ones; outcomes are identical
    fast_forward = True

    def __init__(self, topology: Topology, seed: int = 0, round_cap: int | None = None, message_log: list | None = None):
        self.round_cap = round_cap
        profile = topology.profile
        n = profile.n
        self.trace = RoundTrace()
        self.message_log = message_log
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

    def _stage(self, sender: ProcessorContext, targets: Sequence[int], kind: MsgKind) -> None:
        """Stage ``kind`` from ``sender`` to every target index; the round check runs once per call."""
        if not self._in_round:
            raise InconsistentState("send outside of a round")
        entry, boxes, base = sender.index, self._staged[kind], sender._peer_base
        for to in [base + t for t in targets] if base else targets:
            boxes[to].append(entry)
        self._staged_count += len(targets)
        self.trace.max_payload_bits = KIND_BITS
        if self.message_log is not None:
            self.message_log.append((self.trace.rounds + 1, sender.self_id, kind, tuple(targets)))

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
        per label instead of being stepped. With ``quiet`` None, or with
        ``fast_forward`` off, every repetition is stepped.
        """
        if not self.fast_forward:
            quiet = None
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
