"""Deterministic synchronous message-passing engine.

Each round has three stages: every processor first sees the messages
delivered at the end of the previous round (its inbox), then performs local
computation, then stages outgoing messages. Staged messages are validated
(edge adjacency, payload budget) and delivered atomically when the round
ends. Messages are short: a 3-bit kind token plus an optional integer
payload, checked against a budget of ``c * ceil(log2(processors))`` bits.

The engine is a sequential simulator of a parallel network: processors step
in deterministic id order within a round, and the inbox/outbox separation
guarantees no behavior can depend on that order. Per-processor RNG streams
are derived from (global seed, player id) so runs are bit-reproducible and
adding processors never perturbs existing streams.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, field
from enum import IntEnum
from operator import itemgetter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import InconsistentState, NonNeighborSend, OversizedPayload, RoundCapExceeded
from .model import PlayerId, PreferenceProfile, man, woman


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


class Message(NamedTuple):
    kind: MsgKind
    payload: int | None = None


def payload_bits(msg: Message) -> int:
    extra = msg.payload.bit_length() if msg.payload is not None else 0
    return KIND_BITS + extra


# bare messages are immutable, so one instance per kind serves every send
_BARE = {kind: Message(kind) for kind in MsgKind}
_KIND_NAMES = {kind: kind.name for kind in MsgKind}


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
    """Communication graph handed to the engine: nodes plus sorted adjacency."""

    nodes: tuple[PlayerId, ...]
    neighbors: Mapping[PlayerId, tuple[PlayerId, ...]]

    @classmethod
    def from_profile(cls, profile: PreferenceProfile) -> "Topology":
        men = tuple(man(i) for i in range(profile.n))
        women = tuple(woman(i) for i in range(profile.n))
        nbrs: dict[PlayerId, tuple[PlayerId, ...]] = {}
        for m, lst in zip(men, profile.men_prefs):
            nbrs[m] = tuple([women[j] for j in sorted(lst)])
        for w, lst in zip(women, profile.women_prefs):
            nbrs[w] = tuple([men[j] for j in sorted(lst)])
        return cls(nodes=men + women, neighbors=nbrs)

    @classmethod
    def from_bipartite(cls, adjacency: Mapping[PlayerId, Iterable[PlayerId]]) -> "Topology":
        nodes = tuple(sorted(adjacency))
        nbrs = {v: tuple(sorted(adjacency[v])) for v in nodes}
        for v, vs in nbrs.items():
            for u in vs:
                if u.side == v.side:
                    raise InconsistentState(f"edge ({v}, {u}) does not cross sides")
                if v not in nbrs.get(u, ()):
                    raise InconsistentState(f"adjacency is not symmetric at ({v}, {u})")
        return cls(nodes=nodes, neighbors=nbrs)

    def num_processors(self) -> int:
        return len(self.nodes)


class ProcessorContext:
    """Engine-facing view of one processor during a round.

    A step function may read ``self_id``, ``neighbors``, ``inbox`` and its
    own protocol state, and send via :meth:`send` or :meth:`send_many`. The
    rng stream is a pure function of (engine seed, player id).
    """

    __slots__ = ("self_id", "neighbors", "inbox", "_neighbor_set", "_engine", "_rng", "_seed")

    def __init__(self, self_id: PlayerId, neighbors: tuple[PlayerId, ...], engine: "Engine", seed: int):
        self.self_id = self_id
        self.neighbors = neighbors
        self._neighbor_set = frozenset(neighbors)
        self.inbox: list[tuple[PlayerId, Message]] = []
        # a proxy, not a reference: no cycle keeps a finished engine alive until the next gc pass
        self._engine = weakref.proxy(engine)
        self._rng: random.Random | None = None
        self._seed = seed

    @property
    def rng(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(f"{self._seed}:{int(self.self_id.side)}:{self.self_id.index}")
        return self._rng

    def send(self, to: PlayerId, kind: MsgKind, payload: int | None = None) -> None:
        self.send_many((to,), kind, payload)

    def send_many(self, targets: Sequence[PlayerId], kind: MsgKind, payload: int | None = None) -> None:
        """Send the same message to each target, in order; same as one ``send`` per target."""
        if not targets:
            return
        if not self._neighbor_set.issuperset(targets):
            to = next(t for t in targets if t not in self._neighbor_set)
            raise NonNeighborSend(f"{self.self_id} tried to send {kind.name} to non-neighbor {to}")
        msg = _BARE[kind] if payload is None else Message(kind, payload)
        self._engine._stage(self.self_id, targets, msg)


StepFn = Callable[[ProcessorContext], None]

_by_sender = itemgetter(0)


class Engine:
    """Runs synchronous rounds over a fixed topology.

    ``payload_budget`` defaults to ``payload_constant * max(1, ceil(log2 P))``
    bits where P is the processor count; the ``max(1, .)`` floor keeps
    single-edge instances able to carry the 3-bit kind token.
    """

    def __init__(
        self,
        topology: Topology,
        seed: int = 0,
        round_cap: int | None = None,
        payload_constant: int = 4,
        payload_budget: int | None = None,
        message_log: list | None = None,
    ):
        self.topology = topology
        self.seed = seed
        self.round_cap = round_cap
        p = topology.num_processors()
        if payload_budget is None:
            payload_budget = payload_constant * max(1, (max(p, 1) - 1).bit_length())
        self.payload_budget = payload_budget
        self.trace = RoundTrace()
        self.message_log = message_log
        # log names, looked up once per player instead of once per record
        self._names = {v: repr(v) for v in topology.nodes} if message_log is not None else {}
        self.contexts: dict[PlayerId, ProcessorContext] = {
            v: ProcessorContext(v, topology.neighbors.get(v, ()), self, seed) for v in topology.nodes
        }
        # messages delivered at the end of the last round, keyed by receiver
        self._pending: dict[PlayerId, list[tuple[PlayerId, Message]]] = {}
        self._staged: dict[PlayerId, list[tuple[PlayerId, Message]]] = {}
        self._staged_count = 0
        self._in_round = False

    # -- message plumbing -------------------------------------------------

    def _stage(self, sender: PlayerId, targets: Sequence[PlayerId], msg: Message) -> None:
        """Stage ``msg`` from ``sender`` to every target; checks run once per call."""
        if not self._in_round:
            raise InconsistentState("send outside of a round")
        bits = payload_bits(msg)
        if bits > self.payload_budget:
            raise OversizedPayload(
                f"{sender} -> {targets[0]}: payload of {bits} bits exceeds budget of {self.payload_budget}"
            )
        entry = (sender, msg)
        staged = self._staged
        for to in targets:
            box = staged.get(to)
            if box is None:
                staged[to] = [entry]
            else:
                box.append(entry)
        self._staged_count += len(targets)
        if bits > self.trace.max_payload_bits:
            self.trace.max_payload_bits = bits
        if self.message_log is not None:
            names = self._names
            rnd, frm, kind = self.trace.rounds + 1, names[sender], _KIND_NAMES[msg.kind]
            self.message_log.extend(
                {"round": rnd, "from": frm, "to": names[to], "kind": kind, "payload_bits": bits}
                for to in targets
            )

    @property
    def in_flight(self) -> int:
        """Messages delivered but not yet consumed by a round."""
        return sum(len(v) for v in self._pending.values())

    def peek_pending(self) -> Iterable[tuple[PlayerId, PlayerId, Message]]:
        """Read-only view of undelivered traffic: (receiver, sender, message).

        Verifier instrumentation only; protocols never look at this.
        """
        for to, entries in self._pending.items():
            for sender, msg in entries:
                yield to, sender, msg

    def _check_cap(self, new_rounds: int) -> None:
        if self.round_cap is not None and self.trace.rounds + new_rounds > self.round_cap:
            raise RoundCapExceeded(self.round_cap)

    # -- round execution ---------------------------------------------------

    def run_round(self, step_fn: StepFn, label: str = "round", actors: Iterable[PlayerId] | None = None) -> int:
        """Execute one synchronous round; returns the number of messages sent.

        ``actors`` optionally restricts which processors are stepped. Any
        processor holding undelivered messages is always stepped, so
        restricting to known senders is a pure optimization: a processor
        outside the set would observe an empty inbox and send nothing.
        """
        self._check_cap(1)
        if actors is None:
            to_step = list(self.topology.nodes)
        else:
            combined = set(actors)
            combined.update(self._pending.keys())
            to_step = sorted(combined)
        self._in_round = True
        for v in to_step:
            ctx = self.contexts[v]
            delivered = self._pending.pop(v, None)
            if delivered is not None:
                delivered.sort(key=_by_sender)
                ctx.inbox = delivered
            else:
                ctx.inbox = []
            step_fn(ctx)
            ctx.inbox = []
        self._in_round = False
        if self._pending:
            # processors outside the actor set would have dropped messages
            leftover = next(iter(self._pending))
            raise InconsistentState(f"undelivered messages for unstepped processor {leftover}")
        sent = self._staged_count
        self._pending = self._staged
        self._staged = {}
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
