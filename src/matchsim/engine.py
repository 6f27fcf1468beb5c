"""Deterministic synchronous message-passing engine.

Each round has three stages: every processor first sees the messages
delivered at the end of the previous round (its inbox), then performs local
computation, then stages outgoing messages. Staged messages are checked for
edge adjacency and delivered atomically when the round ends. A message is its
3-bit kind token alone: the sender is implicit in the edge, and no protocol
step needs more, so there is no payload and no budget to check. Every round
of the schedule has one purpose, so a round carries one kind: the first send
fixes it, a send of another kind raises ``InconsistentState``, and an inbox
is just the senders.

Processors are ints: with n players per side, man i is processor i and woman
j is processor n + j. A step addresses partners by their index on the other
side, as the preference lists do; adjacency is the profile's own lists.

The engine is a sequential simulator of a parallel network: processors step
in deterministic id order within a round, and the inbox/outbox separation
guarantees no behavior can depend on that order. Each processor's random
stream is exactly the draws of ``random.Random(f"{seed}:{side}:{index}")``,
held as a few buffered words, so runs are bit-reproducible and adding
processors never perturbs existing streams. A stream seeds a generator only
when a choice among two or more items needs words it does not hold.
"""

from __future__ import annotations

import random
import weakref
from collections import defaultdict
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Callable, Iterable, Sequence

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
    """The draws of ``random.Random(text)``, held as a block of buffered 32-bit words.

    A choice among one item is owed, not drawn, until a choice among two or more
    items needs words: a stream with no such choice never seeds a generator."""

    __slots__ = ("text", "_used", "_left", "_words", "_owed")

    def __init__(self, text: str):
        self.text = text
        self._used = self._left = self._words = self._owed = 0

    def choice(self, seq: Sequence):
        """The item ``random.Random(text).choice(seq)`` picks, by the same rejection draws."""
        n = len(seq)
        if not 0 < n < 1 << 32:
            raise ValueError(f"a stream chooses among 1 to 2**32 - 1 items, not {n}")
        if n == 1:
            self._owed += 1
            return seq[0]
        shift = 32 - n.bit_length()
        while True:
            if not self._left:
                self._refill()
            self._left -= 1
            word = self._words & 0xFFFFFFFF
            self._words >>= 32
            if self._owed:
                # an owed one-item draw ends on its first word with a top bit of 0
                self._owed -= word < 0x80000000
            elif word >> shift < n:
                return seq[word >> shift]

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
    runs; its neighbours are the partners on the player's preference list.
    ``inbox`` holds the senders' indices of the messages delivered this
    round, in ascending order, one entry per message; all are of the round's
    one kind, which :meth:`take` checks. With no mail it is an empty tuple,
    so no step can fill a list that others share. A step sends via
    :meth:`send` or :meth:`send_many`, addressing partners by their index on
    the other side. ``rng`` is the processor's :class:`RandomStream`.
    """

    __slots__ = ("id", "side", "index", "inbox", "rng", "_ranks", "_peer_base", "_engine")

    def __init__(self, side: Side, index: int, n: int, profile: PreferenceProfile, engine: "Engine", seed: int):
        self.side = side
        self.index = index
        self.id = side * n + index
        self._peer_base = 0 if side else n  # the id of the partner with index 0
        self._ranks = (profile._man_rank, profile._woman_rank)[side][index]
        self.inbox: Sequence[int] = ()
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
        """The inbox, whose senders sent ``kind`` (a new empty list if none); mail of another kind is an error."""
        inbox, got = self.inbox, self._engine._pending_kind
        if inbox and got is not kind:
            raise InconsistentState(f"{self.self_id} received {got.name} where only {kind.name} is expected")
        return inbox or []

    def _is_neighbor(self, to: int) -> bool:
        # on the list: a nonzero rank; a negative index is refused first, since a
        # list rank row would read it from its end
        try:
            return to >= 0 and self._ranks[to] != 0
        except LookupError:
            return False

    def send(self, to: int, kind: MsgKind) -> None:
        try:
            known = to >= 0 and self._ranks[to]
        except LookupError:
            known = False
        if not known:
            raise NonNeighborSend(f"{self.self_id} tried to send {kind.name} to non-neighbor {self.peer(to)}")
        self._engine._stage(self, (to,), kind)

    def send_many(self, targets: Sequence[int], kind: MsgKind) -> None:
        """Send ``kind`` to each target, in order; same as one ``send`` per target."""
        if not targets:
            return
        try:
            known = min(targets) >= 0 and all(map(self._ranks.__getitem__, targets))
        except LookupError:
            known = False
        if not known:
            to = next(t for t in targets if not self._is_neighbor(t))
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
        # receiver id -> senders, delivered at the end of the last round and
        # staged in this one (None outside a round), each with the one kind it
        # holds (None while empty)
        self._pending: dict[int, list] = {}
        self._staged: dict[int, list] | None = None
        self._pending_kind = self._staged_kind = None

    # -- message plumbing -------------------------------------------------

    def _stage(self, sender: ProcessorContext, targets: Sequence[int], kind: MsgKind) -> None:
        """Stage ``kind`` from ``sender`` to every target index; the round check runs once per call."""
        boxes = self._staged
        if boxes is None:
            raise InconsistentState("send outside of a round")
        if self._staged_kind is None:
            self._staged_kind = kind
        elif kind is not self._staged_kind:
            raise InconsistentState(f"{sender.self_id} sent {kind.name} in a {self._staged_kind.name} round")
        entry, base = sender.index, sender._peer_base
        for to in targets:
            boxes[base + to].append(entry)
        if self.message_log is not None:
            self.message_log.append((self.trace.rounds + 1, sender.self_id, kind, tuple(targets)))

    @property
    def in_flight(self) -> int:
        """Messages delivered but not yet consumed by a round."""
        return sum(map(len, self._pending.values()))

    def peek_pending(self, kind: MsgKind) -> dict[int, list]:
        """A copy of the undelivered ``kind`` traffic, receiver id -> inbox entries; for instrumentation only."""
        return dict(self._pending) if kind is self._pending_kind else {}

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
        to_step = range(len(self.contexts)) if actors is None else sorted({*actors, *pending})
        contexts = self.contexts
        self._staged = defaultdict(list)
        for v in to_step:
            ctx = contexts[v]
            ctx.inbox = pending.pop(v, ())
            step_fn(ctx)
            ctx.inbox = ()
        staged, self._staged = self._staged, None
        sent = sum(map(len, staged.values()))
        self._pending, self._pending_kind, self._staged_kind = staged, self._staged_kind, None
        self.trace.messages_sent += sent
        if sent:
            self.trace.max_payload_bits = KIND_BITS
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
        if self._pending:
            raise InconsistentState("cannot skip rounds while messages are in flight")
        self._check_cap(count)
        self.trace.add_phase(label, count)
