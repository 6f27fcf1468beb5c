"""Round engine contract: delivery timing, accounting, errors, determinism."""

import json
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchsim import (
    InconsistentState,
    MsgKind,
    NonNeighborSend,
    PreferenceProfile,
    RoundCapExceeded,
)
from matchsim.engine import KIND_BITS, Engine, RandomStream, Topology, log_ndjson

# processor ids: with n players per side, man i is i and woman j is n + j


def _messages(log: list) -> list[dict]:
    """The per-message records a message log's NDJSON lines hold."""
    return [json.loads(line) for line in "".join(map(log_ndjson, log)).splitlines()]


def _pair_engine(**kw):
    prof = PreferenceProfile.from_lists([[0]], [[0]])
    return Engine(Topology.from_profile(prof), **kw)


def test_single_propose_delivered_next_round():
    eng = _pair_engine(seed=0)
    seen = {}

    def round_one(ctx):
        seen[ctx.id] = ctx.take(MsgKind.PROPOSE)
        if ctx.id == 0:
            ctx.send(0, MsgKind.PROPOSE)

    sent = eng.run_round(round_one)
    # the send is staged, not visible within the same round
    assert sent == 1
    assert seen[1] == []
    assert eng.trace.rounds == 1

    def round_two(ctx):
        seen[ctx.id] = ctx.take(MsgKind.PROPOSE)

    eng.run_round(round_two)
    assert seen[1] == [0]
    assert seen[0] == []
    assert eng.trace.rounds == 2
    assert eng.trace.messages_sent == 1


def test_silent_round_counts_rounds_only():
    eng = _pair_engine(seed=0)
    eng.run_round(lambda ctx: None)
    assert eng.trace.rounds == 1
    assert eng.trace.messages_sent == 0


def test_non_neighbor_send_rejected():
    prof = PreferenceProfile.from_lists([[], []], [[], []])
    eng = Engine(Topology.from_profile(prof), seed=0)

    def step(ctx):
        if ctx.id == 0:
            ctx.send(0, MsgKind.PROPOSE)

    with pytest.raises(NonNeighborSend):
        eng.run_round(step)


def test_send_outside_round_rejected():
    eng = _pair_engine(seed=0)
    ctx = eng.contexts[0]
    with pytest.raises(InconsistentState):
        ctx.send(0, MsgKind.PROPOSE)


def test_round_cap_enforced():
    eng = _pair_engine(seed=0, round_cap=2)
    eng.run_round(lambda ctx: None)
    eng.run_round(lambda ctx: None)
    with pytest.raises(RoundCapExceeded):
        eng.run_round(lambda ctx: None)


def test_skip_rounds_requires_empty_network():
    eng = _pair_engine(seed=0)

    def step(ctx):
        if ctx.id == 0:
            ctx.send(0, MsgKind.PROPOSE)

    eng.run_round(step)
    with pytest.raises(InconsistentState):
        eng.skip_rounds("idle", 5)
    eng.run_round(lambda ctx: None)  # consume
    eng.skip_rounds("idle", 5)
    assert eng.trace.rounds == 7
    assert eng.trace.phase_breakdown["idle"] == 5


def test_rng_streams_are_stable_per_player():
    a = _pair_engine(seed=99)
    b = _pair_engine(seed=99)
    c = _pair_engine(seed=100)
    draws_a = [a.contexts[0].rng.choice(range(2**31)) for _ in range(3)]
    draws_b = [b.contexts[0].rng.choice(range(2**31)) for _ in range(3)]
    draws_c = [c.contexts[0].rng.choice(range(2**31)) for _ in range(3)]
    assert draws_a == draws_b
    assert draws_a != draws_c
    # different players, different streams
    assert a.contexts[0].rng.choice(range(2**31)) != a.contexts[1].rng.choice(range(2**31))


@settings(max_examples=200, deadline=None)
@given(
    st.text(max_size=12),
    st.lists(st.one_of(st.integers(1, 3), st.integers(1, 2**32 - 1)), min_size=1, max_size=8),
)
def test_stream_makes_the_draws_of_a_seeded_generator(text, lengths):
    # 40 choices take at least 40 words: past the first 16-word block and its 16-word refill;
    # every fifth chooses from one item, which still uses up words (half of them rejected)
    stream, reference = RandomStream(text), random.Random(text)
    for i in range(40):
        seq = range(1 if i % 5 == 0 else lengths[i % len(lengths)])
        assert stream.choice(seq) == reference.choice(seq)
    assert stream.choice(range(2**32 - 1)) == reference.choice(range(2**32 - 1))


def test_stream_rejects_sequences_it_cannot_index():
    stream = RandomStream("0:0:0")
    for n in (0, 2**32, 2**40):
        with pytest.raises(ValueError):
            stream.choice(range(n))
    # a refused choice uses up no words: with 2**32 - 1 items each word is one draw
    reference, seq = random.Random("0:0:0"), range(2**32 - 1)
    assert [stream.choice(seq) for _ in range(20)] == [reference.choice(seq) for _ in range(20)]
    # nor is it owed like a one-item draw
    assert stream.choice("a") == reference.choice("a")
    for n in (0, 2**32):
        with pytest.raises(ValueError):
            stream.choice(range(n))
    assert [stream.choice(seq) for _ in range(20)] == [reference.choice(seq) for _ in range(20)]


@settings(max_examples=200, deadline=None)
@given(
    st.text(max_size=12),
    st.lists(st.tuples(st.integers(0, 100), st.integers(2, 2**32 - 1)), max_size=6),
)
def test_stream_owes_one_item_draws_until_a_choice_needs_words(text, runs):
    # the last run owes at least 100 draws, which take more words than the first two blocks
    stream, reference = RandomStream(text), random.Random(text)
    for ones, n in [*runs, (100, 2**32 - 1)]:
        for i in range(ones):
            assert stream.choice((i,)) == reference.choice((i,)) == i
        assert stream.choice(range(n)) == reference.choice(range(n))


def test_stream_of_one_item_choices_never_seeds_a_generator(monkeypatch):
    reference = random.Random("0:1:7")
    built = []

    class Counting(random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(random, "Random", Counting)
    stream = RandomStream("0:1:7")
    assert [stream.choice((i,)) for i in range(1000)] == list(range(1000))
    assert built == []
    # the first choice among two items pays every owed draw
    for i in range(1000):
        reference.choice((i,))
    assert stream.choice("ab") == reference.choice("ab")
    assert built and set(built) == {("0:1:7",)}


def test_streams_hold_a_few_words_per_processor():
    # a Mersenne Twister per drawing processor held about 2.7 KB each
    prof = PreferenceProfile.from_lists([[i] for i in range(512)], [[i] for i in range(512)])
    Engine(Topology.from_profile(prof))  # builds the profile's rank tables before tracing
    tracemalloc.start()
    try:
        eng = Engine(Topology.from_profile(prof))
        for ctx in eng.contexts:
            for _ in range(8):
                ctx.rng.choice((0, 1, 2))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 512 * len(eng.contexts)


def test_inbox_sorted_by_sender():
    prof = PreferenceProfile.from_lists([[0], [0], [0]], [[2, 0, 1], [], []])
    eng = Engine(Topology.from_profile(prof), seed=0)

    def send_all(ctx):
        if ctx.side.name == "MAN":
            ctx.send(0, MsgKind.PROPOSE)

    eng.run_round(send_all)
    got = {}
    eng.run_round(lambda ctx: got.update({ctx.id: ctx.take(MsgKind.PROPOSE)}))
    assert got[3] == [0, 1, 2]


def test_message_log_records_traffic():
    log = []
    prof = PreferenceProfile.from_lists([[0]], [[0]])
    eng = Engine(Topology.from_profile(prof), seed=0, message_log=log)

    def step(ctx):
        if ctx.id == 0:
            ctx.send(0, MsgKind.PROPOSE)

    eng.run_round(step)
    assert _messages(log) == [
        {"round": 1, "from": "M0", "to": "W0", "kind": "PROPOSE", "payload_bits": 3}
    ]


def test_information_travels_one_hop_per_round():
    # flooding from one end of a path: every processor that has heard sends to
    # all its neighbours each round, so after t rounds exactly the processors
    # within graph distance t of the source have heard or have it delivered
    n = 6
    men = [[i, i + 1] if i + 1 < n else [i] for i in range(n)]
    women = [[i - 1, i] if i > 0 else [i] for i in range(n)]
    prof = PreferenceProfile.from_lists(men, women)
    eng = Engine(Topology.from_profile(prof), seed=0)
    nodes = range(2 * n)
    source = n  # W0
    heard = {source}

    def step(ctx):
        if ctx.take(MsgKind.MM_POINT):
            heard.add(ctx.id)
        if ctx.id in heard:
            ctx.send_many((prof.men_prefs, prof.women_prefs)[ctx.side][ctx.index], MsgKind.MM_POINT)

    # the edge set forms the path W0-M0-W1-M1-...-W5-M5
    def dist(a, b):
        pos = lambda v: 2 * (v % n) + (1 if v < n else 0)
        return abs(pos(a) - pos(b))

    for t in range(1, 2 * n + 1):
        eng.run_round(step)
        assert heard == {v for v in nodes if dist(source, v) <= t - 1}, t
        assert heard | set(eng.peek_pending(MsgKind.MM_POINT)) == {v for v in nodes if dist(source, v) <= t}, t


def test_actor_restriction_never_drops_messages():
    prof = PreferenceProfile.from_lists([[0]], [[0]])
    eng = Engine(Topology.from_profile(prof), seed=0)

    def step(ctx):
        if ctx.id == 0:
            ctx.send(0, MsgKind.PROPOSE)

    eng.run_round(step, actors=[0])
    received = []
    # W0 is not in the actor list but holds pending traffic: stepped anyway
    eng.run_round(lambda ctx: received.extend(ctx.take(MsgKind.PROPOSE)), actors=[])
    assert received == [0]


def _complete_engine(n=3, **kw):
    prof = PreferenceProfile.from_lists([list(range(n))] * n, [list(range(n))] * n)
    return Engine(Topology.from_profile(prof), seed=0, **kw)


def test_send_many_equals_a_send_loop():
    runs = []
    for batched in (False, True):
        log = []
        eng = _complete_engine(message_log=log)
        inboxes = {}

        def fan_out(ctx, kind):
            targets = [2, 0]
            if batched:
                ctx.send_many(targets, kind)
            else:
                for to in targets:
                    ctx.send(to, kind)

        def receive(ctx, kind):
            if ctx.inbox:
                inboxes.setdefault(ctx.id, {})[kind] = ctx.take(kind)

        def reject(ctx):
            if ctx.id == 4:  # W1
                fan_out(ctx, MsgKind.REJECT)
            elif ctx.id == 3:  # W0
                ctx.send(2, MsgKind.REJECT)

        def announce(ctx):
            receive(ctx, MsgKind.REJECT)
            if ctx.id == 4:  # W1
                fan_out(ctx, MsgKind.MM_MATCHED)

        # a round carries one kind, so W1's MM_MATCHED fan-out follows its REJECTs a round later
        eng.run_round(reject, "reject")
        eng.run_round(announce, "reject")
        eng.run_round(lambda ctx: receive(ctx, MsgKind.MM_MATCHED), "flush")
        # a send loop and one send_many make different records with the same lines
        runs.append((inboxes, "".join(map(log_ndjson, log)), eng.trace.as_dict()))
    assert runs[0] == runs[1]
    inboxes, text, trace = runs[1]
    assert inboxes[2] == {MsgKind.REJECT: [0, 1], MsgKind.MM_MATCHED: [1]}
    assert [(e["from"], e["to"]) for e in map(json.loads, text.splitlines())] == [
        ("W0", "M2"), ("W1", "M2"), ("W1", "M0"), ("W1", "M2"), ("W1", "M0")
    ]
    assert trace["messages_by_phase"] == {"reject": 5}
    assert trace["max_payload_bits"] == KIND_BITS


def test_a_round_carries_one_kind():
    log = []
    eng = _complete_engine(message_log=log)

    def step(ctx):
        if ctx.id == 3:  # W0
            ctx.send(0, MsgKind.REJECT)
        elif ctx.id == 4:  # W1
            ctx.send_many([1, 2], MsgKind.MM_MATCHED)

    with pytest.raises(InconsistentState, match="W1 sent MM_MATCHED in a REJECT round"):
        eng.run_round(step)
    # the refused fan-out logged nothing
    assert _messages(log) == [{"round": 1, "from": "W0", "to": "M0", "kind": "REJECT", "payload_bits": 3}]


def test_send_many_rejects_any_non_neighbor():
    prof = PreferenceProfile.from_lists([[0], [1]], [[0], [1]])
    eng = Engine(Topology.from_profile(prof), seed=0)

    def step(ctx):
        if ctx.id == 2:  # W0
            ctx.send_many([0, 1], MsgKind.REJECT)

    with pytest.raises(NonNeighborSend, match="M1"):
        eng.run_round(step)


@pytest.mark.parametrize("sender", [0, 1], ids=["list-row", "dict-row"])
@pytest.mark.parametrize("bad", ["-1", "-n", "n", "n+5", "stranger"])
def test_send_refuses_every_index_off_the_list_and_stages_nothing(sender, bad):
    # n = 8: M0's list [7, 0, 1] gets a list rank row, which reads -1 as W7 and -8 as
    # W0, both on his list; M1's list [0] gets a dict row. W3 is on neither list.
    n = 8
    men = [[7, 0, 1], [0]] + [[] for _ in range(n - 2)]
    women = [[m for m in range(n) if w in men[m]] for w in range(n)]
    prof = PreferenceProfile.from_lists(men, women)
    assert type(prof._man_rank[0]) is list and type(prof._man_rank[1]) is dict
    to = {"-1": -1, "-n": -n, "n": n, "n+5": n + 5, "stranger": 3}[bad]
    log = []
    eng = Engine(Topology.from_profile(prof), seed=0, message_log=log)
    refused = []

    def step(ctx):
        if ctx.id != sender:
            return
        # send, then send_many alone, after a partner and before a later bad target,
        # which is not the one named
        for targets in (None, [to], [0, to], [0, to, 4]):
            with pytest.raises(NonNeighborSend) as info:
                ctx.send(to, MsgKind.PROPOSE) if targets is None else ctx.send_many(targets, MsgKind.PROPOSE)
            refused.append(str(info.value))

    eng.run_round(step, actors=[sender])
    assert refused == [f"M{sender} tried to send PROPOSE to non-neighbor W{to}"] * 4
    assert eng.in_flight == 0 and log == [] and eng.trace.messages_sent == 0


def test_send_many_outside_round_rejected():
    eng = _complete_engine()
    with pytest.raises(InconsistentState):
        eng.contexts[3].send_many([0, 1], MsgKind.REJECT)


def test_send_many_to_no_one_changes_nothing():
    log = []
    eng = _complete_engine(message_log=log)
    eng.contexts[3].send_many([], MsgKind.REJECT)  # outside a round, and still no error
    eng.run_round(lambda ctx: ctx.send_many([], MsgKind.MM_MATCHED))
    assert log == [] and eng.in_flight == 0
    assert eng.trace.as_dict() == {
        "rounds": 1,
        "messages_sent": 0,
        "max_payload_bits": 0,
        "phase_breakdown": {"round": 1},
        "messages_by_phase": {},
        "extras": {},
    }


# ---------------------------------------------------------------------------
# The delivery contract against a plain reference model
# ---------------------------------------------------------------------------


class _ReferenceNetwork:
    """The engine's contract written out plainly: every message is a
    (receiver, sender, kind) tuple, a round's messages all have the kind of
    its first, and an inbox is the stable sort of the receiver's messages by
    sender, split by kind, each entry a sender index."""

    def __init__(self, profile: PreferenceProfile, log: list):
        self.n = n = profile.n
        self.adjacent = [set(lst) for lst in profile.men_prefs] + [set(lst) for lst in profile.women_prefs]
        self.pending: list[tuple] = []
        self.log = log
        self.fanouts = 0  # non-empty send calls
        self.trace = {"rounds": 0, "messages_sent": 0, "max_payload_bits": 0,
                      "phase_breakdown": {}, "messages_by_phase": {}, "extras": {}}

    def name(self, v: int) -> str:
        return f"M{v}" if v < self.n else f"W{v - self.n}"

    def send(self, sender: int, targets: list[int], kind: MsgKind, staged: list | None) -> None:
        if not targets:
            return
        peer_base = self.n if sender < self.n else 0
        if any(t not in self.adjacent[sender] for t in targets):
            raise NonNeighborSend
        if staged is None or staged and staged[0][2] is not kind:
            raise InconsistentState
        self.fanouts += 1
        for t in targets:
            staged.append((peer_base + t, sender % self.n, kind))
            self.log.append({"round": self.trace["rounds"] + 1, "from": self.name(sender),
                             "to": self.name(peer_base + t), "kind": kind.name, "payload_bits": 3})

    def run_round(self, ops, label: str, actors, inboxes: dict) -> int:
        receivers = {to for to, *_ in self.pending}
        to_step = range(2 * self.n) if actors is None else sorted(set(actors) | receivers)
        staged: list[tuple] = []
        for v in to_step:
            mine = sorted((m for m in self.pending if m[0] == v), key=lambda m: m[1])
            inbox: dict = {}
            for _, sender, kind in mine:
                inbox.setdefault(kind, []).append(sender)
            inboxes[v] = inbox
            for targets, kind, single in ops.get(v, ()):
                for batch in ([t] for t in targets) if single else [targets]:
                    self.send(v, batch, kind, staged)
        self.pending = staged
        self.trace["rounds"] += 1
        self.trace["messages_sent"] += len(staged)
        self.trace["phase_breakdown"][label] = self.trace["phase_breakdown"].get(label, 0) + 1
        if staged:
            self.trace["max_payload_bits"] = 3
            self.trace["messages_by_phase"][label] = self.trace["messages_by_phase"].get(label, 0) + len(staged)
        return len(staged)


@st.composite
def _network_script(draw):
    n = draw(st.integers(1, 4))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    men = [draw(st.permutations(sorted(w for m, w in edges if m == i))) for i in range(n)]
    women = [draw(st.permutations(sorted(m for m, w in edges if w == j))) for j in range(n)]
    profile = PreferenceProfile.from_lists(men, women)

    def send(v, kind):
        neighbours = (men + women)[v]
        # mostly valid sends; now and then a non-neighbour, and index n is never one
        stray = not neighbours or draw(st.integers(0, 9)) == 0
        return st.tuples(
            st.lists(st.integers(0, n) if stray else st.sampled_from(neighbours), max_size=4),
            # mostly the round's kind; now and then a second kind, which the round refuses
            st.integers(0, 9).flatmap(lambda i: st.sampled_from(list(MsgKind)) if i == 0 else st.just(kind)),
            st.booleans(),  # one send per target instead of one send_many
        )

    def ops():
        kind = draw(st.sampled_from(list(MsgKind)))
        senders = draw(st.sets(st.integers(0, 2 * n - 1), max_size=2 * n))
        return {v: draw(st.lists(send(v, kind), max_size=2)) for v in senders}

    rounds = [
        (ops(), draw(st.sampled_from(["a", "b"])), draw(st.none() | st.lists(st.integers(0, 2 * n - 1), max_size=3)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    outsider = draw(st.integers(0, 2 * n - 1))
    return profile, rounds, (outsider, draw(send(outsider, draw(st.sampled_from(list(MsgKind))))))


@settings(max_examples=400, deadline=None)
@given(_network_script())
def test_engine_matches_reference_network(script):
    profile, rounds, (outsider, outside_send) = script
    log, ref_log = [], []
    eng = Engine(Topology.from_profile(profile), seed=0, message_log=log)
    ref = _ReferenceNetwork(profile, ref_log)

    def outcome(fn):
        try:
            return fn(), None
        except (NonNeighborSend, InconsistentState) as exc:
            return None, type(exc)

    def by_kind(ctx):
        # the inbox split as the reference splits it: take hands it over for
        # the kind it holds and raises for any other
        inbox = {}
        for kind in MsgKind:
            senders, error = outcome(lambda: ctx.take(kind))
            if error is None and senders:
                inbox[kind] = list(senders)
        return inbox

    for ops, label, actors in rounds:
        got, want = {}, {}

        def step(ctx):
            got[ctx.id] = by_kind(ctx)
            for targets, kind, single in ops.get(ctx.id, ()):
                if single:
                    for t in targets:
                        ctx.send(t, kind)
                else:
                    ctx.send_many(targets, kind)

        result = outcome(lambda: eng.run_round(step, label, actors))
        assert result == outcome(lambda: ref.run_round(ops, label, actors, want))
        assert got == want
        # compact records expand to the per-message log, one record per fan-out
        assert _messages(log) == ref_log
        assert len(log) == ref.fanouts
        if result[1] is not None:
            return
        assert eng.in_flight == len(ref.pending)
        assert eng.trace.as_dict() == ref.trace

    targets, kind, single = outside_send
    sends = [[t] for t in targets] if single else [targets]
    ctx = eng.contexts[outsider]
    engine_error = outcome(lambda: [ctx.send_many(batch, kind) for batch in sends])[1]
    reference_error = outcome(lambda: [ref.send(outsider, batch, kind, None) for batch in sends])[1]
    assert engine_error == reference_error
    assert eng.trace.as_dict() == ref.trace and _messages(log) == ref_log and len(log) == ref.fanouts
