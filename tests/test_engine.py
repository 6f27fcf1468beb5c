"""Round engine contract: delivery timing, accounting, errors, determinism."""

import pytest

from matchsim import (
    InconsistentState,
    Message,
    MsgKind,
    NonNeighborSend,
    OversizedPayload,
    PreferenceProfile,
    RoundCapExceeded,
    man,
    payload_bits,
    woman,
)
from matchsim.engine import Engine, Topology


def _pair_engine(**kw):
    prof = PreferenceProfile.from_lists([[0]], [[0]])
    return Engine(Topology.from_profile(prof), **kw)


def test_single_propose_delivered_next_round():
    eng = _pair_engine(seed=0)
    seen = {}

    def round_one(ctx):
        seen[ctx.self_id] = list(ctx.inbox)
        if ctx.self_id == man(0):
            ctx.send(woman(0), MsgKind.PROPOSE)

    sent = eng.run_round(round_one)
    # the send is staged, not visible within the same round
    assert sent == 1
    assert seen[woman(0)] == []
    assert eng.trace.rounds == 1

    def round_two(ctx):
        seen[ctx.self_id] = list(ctx.inbox)

    eng.run_round(round_two)
    assert seen[woman(0)] == [(man(0), Message(MsgKind.PROPOSE))]
    assert seen[man(0)] == []
    assert eng.trace.rounds == 2
    assert eng.trace.messages_sent == 1


def test_silent_round_counts_rounds_only():
    eng = _pair_engine(seed=0)
    eng.run_round(lambda ctx: None)
    assert eng.trace.rounds == 1
    assert eng.trace.messages_sent == 0


def test_oversized_payload_aborts():
    eng = _pair_engine(seed=0)

    def step(ctx):
        if ctx.self_id == man(0):
            ctx.send(woman(0), MsgKind.CONTROL, payload=1 << eng.payload_budget)

    with pytest.raises(OversizedPayload):
        eng.run_round(step)


def test_payload_budget_floor_admits_kind_token():
    # even a single-edge instance can carry the 3-bit kind token
    eng = _pair_engine(seed=0)
    assert eng.payload_budget >= payload_bits(Message(MsgKind.PROPOSE))


def test_non_neighbor_send_rejected():
    prof = PreferenceProfile.from_lists([[], []], [[], []])
    eng = Engine(Topology.from_profile(prof), seed=0)

    def step(ctx):
        if ctx.self_id == man(0):
            ctx.send(woman(0), MsgKind.PROPOSE)

    with pytest.raises(NonNeighborSend):
        eng.run_round(step)


def test_send_outside_round_rejected():
    eng = _pair_engine(seed=0)
    ctx = eng.contexts[man(0)]
    with pytest.raises(InconsistentState):
        ctx.send(woman(0), MsgKind.PROPOSE)


def test_round_cap_enforced():
    eng = _pair_engine(seed=0, round_cap=2)
    eng.run_round(lambda ctx: None)
    eng.run_round(lambda ctx: None)
    with pytest.raises(RoundCapExceeded):
        eng.run_round(lambda ctx: None)


def test_skip_rounds_requires_empty_network():
    eng = _pair_engine(seed=0)

    def step(ctx):
        if ctx.self_id == man(0):
            ctx.send(woman(0), MsgKind.PROPOSE)

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
    draws_a = [a.contexts[man(0)].rng.random() for _ in range(3)]
    draws_b = [b.contexts[man(0)].rng.random() for _ in range(3)]
    draws_c = [c.contexts[man(0)].rng.random() for _ in range(3)]
    assert draws_a == draws_b
    assert draws_a != draws_c
    # different players, different streams
    assert a.contexts[man(0)].rng.random() != a.contexts[woman(0)].rng.random()


def test_inbox_sorted_by_sender():
    prof = PreferenceProfile.from_lists([[0], [0], [0]], [[2, 0, 1], [], []])
    eng = Engine(Topology.from_profile(prof), seed=0)

    def send_all(ctx):
        if ctx.self_id.side.name == "MAN":
            ctx.send(woman(0), MsgKind.PROPOSE)

    eng.run_round(send_all)
    got = {}
    eng.run_round(lambda ctx: got.update({ctx.self_id: [s for s, _ in ctx.inbox]}))
    assert got[woman(0)] == [man(0), man(1), man(2)]


def test_message_log_records_traffic():
    log = []
    prof = PreferenceProfile.from_lists([[0]], [[0]])
    eng = Engine(Topology.from_profile(prof), seed=0, message_log=log)

    def step(ctx):
        if ctx.self_id == man(0):
            ctx.send(woman(0), MsgKind.PROPOSE)

    eng.run_round(step)
    assert log == [
        {"round": 1, "from": "M0", "to": "W0", "kind": "PROPOSE", "payload_bits": 3}
    ]


def test_information_travels_one_hop_per_round():
    # max-id flooding along a path: after t rounds each node knows exactly
    # the largest value within graph distance t
    n = 6
    men = [[i, i + 1] if i + 1 < n else [i] for i in range(n)]
    women = [[i - 1, i] if i > 0 else [i] for i in range(n)]
    prof = PreferenceProfile.from_lists(men, women)
    eng = Engine(Topology.from_profile(prof), seed=0)
    value = {v: (int(v.side) * n + v.index) for v in eng.topology.nodes}
    heard = dict(value)

    def step(ctx):
        for _, msg in ctx.inbox:
            heard[ctx.self_id] = max(heard[ctx.self_id], msg.payload)
        for u in ctx.neighbors:
            ctx.send(u, MsgKind.CONTROL, payload=heard[ctx.self_id])

    # the edge set forms the path W0-M0-W1-M1-...-W5-M5
    def dist(a, b):
        pos = lambda v: 2 * v.index + (1 if v.side.name == "MAN" else 0)
        return abs(pos(a) - pos(b))

    for t in range(1, 8):
        eng.run_round(step)
        for v in eng.topology.nodes:
            expect = max(value[u] for u in eng.topology.nodes if dist(u, v) <= t - 1)
            assert heard[v] == expect, (v, t)


def test_actor_restriction_never_drops_messages():
    prof = PreferenceProfile.from_lists([[0]], [[0]])
    eng = Engine(Topology.from_profile(prof), seed=0)

    def step(ctx):
        if ctx.self_id == man(0):
            ctx.send(woman(0), MsgKind.PROPOSE)

    eng.run_round(step, actors=[man(0)])
    received = []
    # W0 is not in the actor list but holds pending traffic: stepped anyway
    eng.run_round(lambda ctx: received.extend(ctx.inbox), actors=[])
    assert [s for s, _ in received] == [man(0)]


def _complete_engine(n=3, **kw):
    prof = PreferenceProfile.from_lists([list(range(n))] * n, [list(range(n))] * n)
    return Engine(Topology.from_profile(prof), seed=0, **kw)


def test_send_many_equals_a_send_loop():
    runs = []
    for batched in (False, True):
        log = []
        eng = _complete_engine(message_log=log)

        def step(ctx):
            if ctx.self_id == woman(1):
                targets = [man(2), man(0)]
                if batched:
                    ctx.send_many(targets, MsgKind.REJECT)
                    ctx.send_many(targets, MsgKind.CONTROL, payload=5)
                else:
                    for to in targets:
                        ctx.send(to, MsgKind.REJECT)
                    for to in targets:
                        ctx.send(to, MsgKind.CONTROL, payload=5)
            elif ctx.self_id == woman(0):
                ctx.send(man(2), MsgKind.REJECT)

        eng.run_round(step, "reject")
        inboxes = {}
        eng.run_round(lambda ctx: inboxes.update({ctx.self_id: list(ctx.inbox)}), "flush")
        runs.append((inboxes, log, eng.trace.as_dict()))
    assert runs[0] == runs[1]
    inboxes, log, trace = runs[1]
    assert inboxes[man(2)] == [
        (woman(0), Message(MsgKind.REJECT)),
        (woman(1), Message(MsgKind.REJECT)),
        (woman(1), Message(MsgKind.CONTROL, 5)),
    ]
    assert [(e["from"], e["to"]) for e in log] == [
        ("W0", "M2"), ("W1", "M2"), ("W1", "M0"), ("W1", "M2"), ("W1", "M0")
    ]
    assert trace["messages_by_phase"] == {"reject": 5}
    assert trace["max_payload_bits"] == payload_bits(Message(MsgKind.CONTROL, 5))


def test_send_many_rejects_any_non_neighbor():
    prof = PreferenceProfile.from_lists([[0], [1]], [[0], [1]])
    eng = Engine(Topology.from_profile(prof), seed=0)

    def step(ctx):
        if ctx.self_id == woman(0):
            ctx.send_many([man(0), man(1)], MsgKind.REJECT)

    with pytest.raises(NonNeighborSend, match="M1"):
        eng.run_round(step)


def test_send_many_outside_round_rejected():
    eng = _complete_engine()
    with pytest.raises(InconsistentState):
        eng.contexts[woman(0)].send_many([man(0), man(1)], MsgKind.REJECT)


def test_send_many_oversized_payload_aborts():
    eng = _complete_engine()

    def step(ctx):
        if ctx.self_id == woman(0):
            ctx.send_many([man(0), man(1)], MsgKind.CONTROL, payload=1 << eng.payload_budget)

    with pytest.raises(OversizedPayload):
        eng.run_round(step)


def test_send_many_to_no_one_changes_nothing():
    log = []
    eng = _complete_engine(message_log=log)
    eng.contexts[woman(0)].send_many([], MsgKind.REJECT)  # outside a round, and still no error
    eng.run_round(lambda ctx: ctx.send_many([], MsgKind.CONTROL, payload=1 << eng.payload_budget))
    assert log == [] and eng.in_flight == 0
    assert eng.trace.as_dict() == {
        "rounds": 1,
        "messages_sent": 0,
        "max_payload_bits": 0,
        "phase_breakdown": {"round": 1},
        "messages_by_phase": {},
        "extras": {},
    }
