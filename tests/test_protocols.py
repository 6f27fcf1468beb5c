"""Protocol family behavior: parameters, hand-traced small instances,
runtime invariants, determinism, and locality."""

import dataclasses
import itertools
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import traced_peak
from matchsim import (
    AlgorithmSpec,
    AsmParams,
    BoundCheck,
    MatchingSubroutineSpec,
    Matching,
    MsgKind,
    NotAlmostRegular,
    PreferenceProfile,
    RoundCapExceeded,
    blocking_pairs,
    gale_shapley_oracle,
    generate,
    GeneratorSpec,
    InconsistentState,
    InvariantViolation,
    iterations_for_maximal,
    man,
    men_degree_ratio,
    run_algorithm,
    verify_run,
    woman,
)
from matchsim.engine import Engine, log_ndjson


def test_params_eps_half():
    p = AsmParams.for_instance(0.5, 64)
    assert p.k == 16
    assert p.delta == 1 / 16
    assert p.inner_iterations == 512
    assert p.outer_iterations == 7  # ceil(log2 64) + 1


def test_params_eps_one():
    p = AsmParams.for_instance(1.0, 1)
    assert p.k == 8 and p.delta == 0.125 and p.outer_iterations == 1
    assert p.inner_iterations == 128


def test_params_rejects_bad_eps():
    with pytest.raises(ValueError):
        AsmParams.for_instance(0.0, 4)
    with pytest.raises(ValueError):
        AsmParams.for_instance(1.5, 4)


def pair_profile():
    return PreferenceProfile.from_lists([[0]], [[0]])


def test_single_pair_matches():
    res = run_algorithm(pair_profile(), "asm:0.5")
    assert res.matching.sorted_pairs() == [(0, 0)]
    assert res.trace.rounds >= 3
    assert len(blocking_pairs(pair_profile(), res.matching)) == 0
    assert not res.violations


def test_single_pair_message_sequence():
    log = []
    run_algorithm(pair_profile(), "asm:0.5", message_log=log)
    kinds = [json.loads(line)["kind"] for line in "".join(map(log_ndjson, log)).splitlines()]
    assert kinds[0] == "PROPOSE"
    assert kinds[1] == "ACCEPT"
    assert "REJECT" not in kinds
    assert set(kinds) <= {"PROPOSE", "ACCEPT", "MM_POINT", "MM_MATCHED"}


def test_message_log_has_one_record_per_fan_out(monkeypatch):
    # every send, single or batched, is staged by Engine._stage; an empty batch logs nothing
    calls = []
    stage = Engine._stage

    def counting(eng, ctx, targets, kind):
        before = len(log)
        ctx.send_many([], kind)
        assert len(log) == before
        stage(eng, ctx, targets, kind)
        if targets:
            calls.append(len(targets))

    monkeypatch.setattr(Engine, "_stage", counting)
    log = []
    res = run_algorithm(generate(GeneratorSpec.parse("complete", n=16, seed=0)), "asm:0.5", message_log=log)
    lines_per_record = [log_ndjson(record).count("\n") for record in log]
    assert lines_per_record == calls
    assert sum(lines_per_record) == res.trace.messages_sent
    assert max(lines_per_record) > 1  # fan-outs are one record each


def test_empty_edge_set():
    prof = PreferenceProfile.from_lists([[], []], [[], []])
    res = run_algorithm(prof, "asm:0.5")
    assert len(res.matching) == 0
    assert res.trace.messages_sent == 0
    assert not res.violations


def test_round_cap_carries_partial_state():
    with pytest.raises(RoundCapExceeded) as exc:
        run_algorithm(pair_profile(), "asm:0.5", round_cap=1)
    partial = exc.value.partial
    assert partial is not None
    assert partial.trace.rounds == 1
    assert len(partial.matching) == 0


def test_two_suitors_one_match_one_rejection():
    # both men court the only listed woman; the subroutine matches one and
    # she rejects the other, who then drops her
    prof = PreferenceProfile.from_lists([[0], [0]], [[0, 1], []])
    res = run_algorithm(prof, "asm:1")
    assert len(res.matching) == 1
    matched_man = res.matching.sorted_pairs()[0][0]
    loser = 1 - matched_man
    assert res.men[loser].partner is None
    assert res.men[loser].remaining == ()
    assert not res.violations


def test_conflicting_top_choices_resolve():
    prof = PreferenceProfile.from_lists([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    res = run_algorithm(prof, "asm:1")
    assert len(res.matching) >= 1
    assert all(st.partner is not None or not st.remaining for st in res.men)
    assert not res.violations


def test_messages_fit_in_kind_token():
    prof = generate(GeneratorSpec.parse("random:0.5", n=24, seed=5))
    res = run_algorithm(prof, "asm:0.5")
    assert res.trace.max_payload_bits == 3


def test_det_asm_ignores_seed():
    prof = generate(GeneratorSpec.parse("random:0.5", n=16, seed=8))
    a = run_algorithm(prof, "asm:0.5", seed=0)
    b = run_algorithm(prof, "asm:0.5", seed=12345)
    assert a.matching.pairs == b.matching.pairs
    assert a.trace.rounds == b.trace.rounds


def test_strict_invariants_hold_on_random_instances():
    # partner monotonicity, post-match emptiness, good-man accounting and the
    # per-rung bad fraction all run as in-run assertions under strict mode
    for seed in range(15):
        prof = generate(GeneratorSpec.parse("random:0.4", n=20, seed=seed))
        res = run_algorithm(prof, "asm:0.5", seed=seed)
        assert res.violations == ()
        rep = verify_run(prof, res)
        assert rep.all_passed(), rep.to_json()


def test_trace_decomposition_consistency():
    prof = generate(GeneratorSpec.parse("complete", n=16, seed=2))
    res = run_algorithm(prof, "asm:0.5")
    pb = res.trace.phase_breakdown
    prs = res.trace.extras["proposal_rounds"]
    # every proposal round contributes exactly one propose/accept/reject round
    assert pb["propose"] == prs
    assert pb["accept"] == prs
    assert pb["reject"] == prs
    assert res.trace.rounds == sum(pb.values())
    p = AsmParams.for_instance(0.5, 16)
    assert prs == p.outer_iterations * p.inner_iterations * p.k
    assert res.trace.extras["quantile_matches"] == p.outer_iterations * p.inner_iterations


@pytest.mark.parametrize("desc", ["asm:0.5", "randasm:0.5,0.1", "aregasm:0.5,0.1,1", "gs"])
def test_communication_confined_to_proposal_phases(desc):
    prof = generate(GeneratorSpec.parse("complete", n=12, seed=11))
    res = run_algorithm(prof, desc, seed=4)
    assert set(res.trace.messages_by_phase) <= {"propose", "accept", "mm", "reject"}
    assert sum(res.trace.messages_by_phase.values()) == res.trace.messages_sent


def test_rand_asm_reproducible():
    prof = generate(GeneratorSpec.parse("complete", n=16, seed=4))
    log_a, log_b = [], []
    a = run_algorithm(prof, "randasm:0.5,0.1", seed=7, message_log=log_a)
    b = run_algorithm(prof, "randasm:0.5,0.1", seed=7, message_log=log_b)
    assert a.matching.pairs == b.matching.pairs
    assert a.trace.as_dict() == b.trace.as_dict()
    assert log_a == log_b
    c = run_algorithm(prof, "randasm:0.5,0.1", seed=8)
    assert c.trace.rounds == a.trace.rounds  # schedule is seed-independent


def test_run_seed_reaches_the_rand_subroutine():
    # k = ceil(8 / 0.5) = 16: complete n=32 puts two partners in each quantile bucket,
    # so a rand subroutine graph has choices and the seed changes the matching
    prof = generate(GeneratorSpec.parse("complete", n=32, seed=0))
    runs = [run_algorithm(prof, "randasm:0.5,0.1", seed=seed) for seed in range(4)]
    assert len({tuple(r.matching.sorted_pairs()) for r in runs}) >= 2
    # bounded:8 degrees are below k, so each bucket holds at most one partner, every
    # subroutine graph is a matching, and rand has one choice whatever the seed
    prof = generate(GeneratorSpec.parse("bounded:8", n=64, seed=0))
    runs = [run_algorithm(prof, "randasm:0.5,0.1", seed=seed) for seed in range(4)]
    assert len({tuple(r.matching.sorted_pairs()) for r in runs}) == 1
    assert all(r.trace.as_dict() == runs[0].trace.as_dict() for r in runs)


def test_rand_mm_iteration_formula_scaling():
    # randasm sizes rand:s by a union bound: calls * vertices in place of the vertex count
    base = iterations_for_maximal(1000 * 128, 0.1)
    halved = iterations_for_maximal(1000 * 128, 0.05)
    step = math.log(2) / math.log(1 / 0.95)
    assert abs((halved - base) - step) <= 1


def test_aregasm_accepts_complete_preferences():
    prof = generate(GeneratorSpec.parse("complete", n=16, seed=1))
    assert men_degree_ratio(prof) == 1.0
    res = run_algorithm(prof, "aregasm:0.5,0.1,1", seed=0)
    rep = verify_run(prof, res)
    assert rep.bounds["thm41"].passed


def test_aregasm_rejects_irregular_profile():
    men = [[0, 1]] + [[0, 1, 2, 3, 4]] * 4
    women = [[0, 1, 2, 3, 4]] * 2 + [[1, 2, 3, 4]] * 3
    prof = PreferenceProfile.from_lists(men, women)
    with pytest.raises(NotAlmostRegular) as exc:
        run_algorithm(prof, "aregasm:0.5,0.1,2")
    assert exc.value.ratio == pytest.approx(2.5)


def test_aregasm_round_count_independent_of_n():
    rounds = []
    for n in (16, 32):
        prof = generate(GeneratorSpec.parse("complete", n=n, seed=0))
        res = run_algorithm(prof, "aregasm:0.5,0.1,1", seed=0)
        rounds.append(res.trace.rounds)
    assert max(rounds) <= 1.5 * min(rounds)


def test_gs_single_pair():
    res = run_algorithm(pair_profile(), "gs")
    assert res.matching.sorted_pairs() == [(0, 0)]
    assert len(blocking_pairs(pair_profile(), res.matching)) == 0


def test_gs_matches_oracle_on_random_instances():
    for seed in range(25):
        prof = generate(GeneratorSpec.parse("random:0.5", n=14, seed=seed))
        res = run_algorithm(prof, "gs")
        assert res.matching.pairs == gale_shapley_oracle(prof).pairs
        assert len(blocking_pairs(prof, res.matching)) == 0


def test_gs_shared_ranking_serial_assignment():
    men = [[0, 1, 2]] * 3
    women = [[2, 0, 1], [1, 2, 0], [0, 1, 2]]
    prof = PreferenceProfile.from_lists(men, women)
    res = run_algorithm(prof, "gs")
    assert res.matching.pairs == gale_shapley_oracle(prof).pairs
    assert res.matching.woman_partner[0] == 2


def test_gs_round_cap_default_suffices_at_desk_scale():
    prof = generate(GeneratorSpec.parse("complete", n=32, seed=3))
    res = run_algorithm(prof, "gs")
    assert res.trace.rounds <= 6 * (32 * 32 + 32) + 8


def test_algorithm_descriptor_parsing():
    spec = AlgorithmSpec.parse("asm:0.5")
    assert spec.name == "asm" and spec.eps == 0.5
    spec = AlgorithmSpec.parse("randasm:0.25,0.05")
    assert spec.delta_fail == 0.05
    spec = AlgorithmSpec.parse("aregasm:0.5,0.1,2")
    assert spec.alpha == 2.0
    assert AlgorithmSpec.parse("gs").describe() == "gs"
    with pytest.raises(ValueError):
        AlgorithmSpec.parse("asm")
    with pytest.raises(ValueError):
        AlgorithmSpec.parse("magic:1")


def test_run_algorithm_dispatch():
    prof = generate(GeneratorSpec.parse("complete", n=8, seed=6))
    for desc in ("gs", "asm:0.5", "randasm:0.5,0.1", "aregasm:0.5,0.1,1"):
        res = run_algorithm(prof, desc, seed=3)
        assert res.algorithm.startswith(desc.split(":")[0])
        rep = verify_run(prof, res)
        assert rep.bounds["thm41"].passed


def test_asm_with_randomized_subroutine_override():
    prof = generate(GeneratorSpec.parse("complete", n=12, seed=9))
    spec = MatchingSubroutineSpec("rand", 60)
    res = run_algorithm(prof, AlgorithmSpec("asm", 0.5, mm=spec), seed=5)
    rep = verify_run(prof, res)
    assert rep.bounds["thm41"].passed


def test_fast_forward_equals_stepping_every_round(monkeypatch):
    # skipping provably silent stretches must be observationally identical
    # to stepping them one round at a time
    from matchsim.protocols import QuantileProtocol

    prof = generate(GeneratorSpec.parse("random:0.6", n=4, seed=2))
    params = AsmParams.for_instance(1.0, prof.n)
    skip_rounds = Engine.skip_rounds
    skipped = []

    def counting_skip(eng, label, count):
        skipped.append(count)
        skip_rounds(eng, label, count)

    monkeypatch.setattr(Engine, "skip_rounds", counting_skip)

    def run(mm, fast):
        skipped.clear()
        log = []
        monkeypatch.setattr(Engine, "fast_forward", fast)
        proto = QuantileProtocol(
            prof,
            mm_spec=mm,
            params=params,
            seed=9,
            strict=mm.flavor == "det",
            message_log=log,
            algorithm_label="equiv",
        )
        result = proto.run()
        # the fast run skips some stretch and the other steps every round
        assert (sum(skipped) > 0) == fast
        return result, log

    for mm in (MatchingSubroutineSpec("det"), MatchingSubroutineSpec("rand", 3)):
        fast, fast_log = run(mm, True)
        slow, slow_log = run(mm, False)
        assert fast.matching.pairs == slow.matching.pairs
        assert fast.trace.as_dict() == slow.trace.as_dict()
        assert fast_log == slow_log
        assert fast.men == slow.men and fast.women == slow.women


@st.composite
def _schedule_case(draw):
    """A small random profile plus one (mode, subroutine) schedule to run on it."""
    # up to 12 players a side, so that with k = 8 a quantile can hold
    # several partners and accepted graphs can have cycles
    n = draw(st.integers(1, 12))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = {(m, w) for m in range(n) for w in range(n)} - draw(st.sets(pairs))
    men = [draw(st.permutations([w for w in range(n) if (m, w) in edges])) for m in range(n)]
    women = [draw(st.permutations([m for m in range(n) if (m, w) in edges])) for w in range(n)]
    mode, mm = draw(st.sampled_from([
        ("ladder", "det"), ("ladder", "rand:1"), ("ladder", "rand:3"), ("ladder", "amm:1,0.9"),
        ("flat", "amm:1,0.96"), ("flat", "amm:1,0.9"), ("serial", "det"),
    ]))
    # fewer quantile matches per rung than eps = 1 asks for keeps stepping
    # every round cheap; the fast-forward must be exact for any schedule
    inner = draw(st.integers(1, 4))
    return PreferenceProfile.from_lists(men, women), mode, mm, inner, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(_schedule_case())
def test_fast_forward_equals_stepping_every_round_for_every_schedule(case):
    from matchsim.protocols import QuantileProtocol

    prof, mode, mm, inner, seed = case
    params = None
    if mode != "serial":
        params = dataclasses.replace(AsmParams.for_instance(1.0, prof.n), inner_iterations=inner)

    def run(fast):
        log = []
        # a function-scoped fixture cannot serve a Hypothesis test, so each run patches in a context
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Engine, "fast_forward", fast)
            result = QuantileProtocol(
                prof,
                mm_spec=MatchingSubroutineSpec.parse(mm),
                params=params,
                flat_quantile_matches=inner if mode == "flat" else None,
                seed=seed,
                strict=False,
                message_log=log,
            ).run()
        return result, log

    (fast, fast_log), (slow, slow_log) = run(True), run(False)
    assert fast.matching.pairs == slow.matching.pairs
    assert fast.trace.as_dict() == slow.trace.as_dict()
    assert fast_log == slow_log
    assert fast.men == slow.men and fast.women == slow.women
    assert fast.outer_records == slow.outer_records
    assert fast.violations == slow.violations


def _scanned_actors(proto, qm_start, outer_index):
    """A propose round's actors as a scan of every man, the expression the kept sets replace."""
    if outer_index is not None:
        return set(range(len(proto.men)))
    return {
        i for i, st in enumerate(proto.men)
        if st.A or (qm_start and (st.a_entry is not None or (not st.removed and st.p is None and st.quantized)))
    }


def _scanned_unsettled(proto):
    return {i for i, st in enumerate(proto.men) if not st.removed and st.p is None and st.quantized}


# with eps = 1, k = 8: the complete and random lists here are longer, so quantiles
# hold several partners and accepted graphs have choices
@pytest.mark.parametrize("fast", [True, False])
@pytest.mark.parametrize("family, n, algorithm, mm", [
    ("random:0.5", 20, "gs", None),
    ("random:0.8", 12, "asm:1", None),
    ("complete", 12, "randasm:1,0.5", "rand:3"),
    ("aregular:1,9", 10, "aregasm:1,0.5,1", None),
])
def test_kept_schedule_sets_equal_a_scan_of_every_player(monkeypatch, family, n, algorithm, mm, fast):
    from collections import Counter

    from matchsim.maximal import MmPhase
    from matchsim.protocols import QuantileProtocol

    checked = Counter()
    propose_actors, any_A, any_assignable = (
        QuantileProtocol._propose_actors, QuantileProtocol._any_A, QuantileProtocol._any_assignable
    )
    run_round, any_live = Engine.run_round, MmPhase.any_live

    def checked_actors(proto, qm_start, outer_index):
        actors = propose_actors(proto, qm_start, outer_index)
        assert set(actors) == _scanned_actors(proto, qm_start, outer_index)
        assert proto._unsettled == _scanned_unsettled(proto)
        checked["propose"] += 1
        return actors

    def checked_any_A(proto):
        got = any_A(proto)
        assert got == any(st.A for st in proto.men)
        checked["quiet"] += 1
        return got

    def checked_any_assignable(proto, ignore_active=False):
        got = any_assignable(proto, ignore_active)
        assert proto._unsettled == _scanned_unsettled(proto)
        assert got == any(
            (ignore_active or st.active) and not st.removed and st.p is None and st.quantized for st in proto.men
        )
        checked["quiet"] += 1
        return got

    def checked_round(eng, step_fn, label="round", actors=None):
        if label == "mm":
            phase = step_fn.__self__
            live = {v for v, node in phase.nodes.items() if node.live}
            if step_fn.__func__ is MmPhase.point:
                # the vertices matched since the last point round are stepped anyway: they are told so
                pending = set().union(*map(eng.peek_pending, MsgKind))
                assert set(actors) | pending == live | pending
            else:
                assert set(actors) == live
            checked["mm"] += 1
        return run_round(eng, step_fn, label, actors)

    def checked_any_live(phase):
        got = any_live(phase)
        assert got == any(node.live for node in phase.nodes.values())
        checked["mm quiet"] += 1
        return got

    monkeypatch.setattr(QuantileProtocol, "_propose_actors", checked_actors)
    monkeypatch.setattr(QuantileProtocol, "_any_A", checked_any_A)
    monkeypatch.setattr(QuantileProtocol, "_any_assignable", checked_any_assignable)
    monkeypatch.setattr(Engine, "run_round", checked_round)
    monkeypatch.setattr(MmPhase, "any_live", checked_any_live)
    monkeypatch.setattr(Engine, "fast_forward", fast)
    profile = generate(GeneratorSpec.parse(family, n=n, seed=3))
    spec = AlgorithmSpec.parse(algorithm, mm=None if mm is None else MatchingSubroutineSpec.parse(mm))
    run_algorithm(profile, spec, seed=5)
    assert checked["propose"] and checked["mm"] and checked["mm quiet"]
    # stepping every round, or in serial mode, the schedule makes no quiet check
    assert bool(checked["quiet"]) == (fast and algorithm != "gs")


def test_weak_almost_maximal_subroutine_keeps_partners():
    # a single-iteration subroutine fails often, so the removal path runs
    # hot; matched women must never be pulled out of play
    from matchsim.protocols import QuantileProtocol

    spec = MatchingSubroutineSpec("amm", eta=1.0, delta=0.96)
    assert spec.fixed_iterations() == 1
    failures = 0
    removals = 0
    # seed 25 exercises the case where the subroutine strands a woman who
    # already holds a partner; she must keep him rather than leave the game
    for seed in range(30):
        # k = 8 with degree 24 gives three-man quantiles, so accepted graphs
        # are dense enough that one pointer round regularly leaves residue
        prof = generate(GeneratorSpec.parse("complete", n=24, seed=seed))
        params = AsmParams.for_instance(1.0, prof.n)
        proto = QuantileProtocol(
            prof,
            mm_spec=spec,
            params=params,
            flat_quantile_matches=8,
            seed=seed,
            strict=False,
            algorithm_label="weak-amm",
        )
        res = proto.run()
        failures += res.trace.extras["mm_failures"]
        res.matching.validate_for(prof)
        for side in (res.men, res.women):
            for st in side:
                if st.removed:
                    removals += 1
                    assert st.partner is None
    assert failures > 0  # the stress is real
    assert removals > 0


def _after_one_proposal_round():
    """A deterministic ladder protocol on complete n=8 that has run one
    proposal round; returns it and the REJECTs that round left in flight."""
    from matchsim.protocols import QuantileProtocol

    prof = generate(GeneratorSpec.parse("complete", n=8, seed=1))
    proto = QuantileProtocol(prof, MatchingSubroutineSpec("det"), params=AsmParams.for_instance(1.0, prof.n))
    proto._proposal_round(qm_start=True, outer_index=0)
    return proto, proto.eng.peek_pending(MsgKind.REJECT)


def test_trailing_flush_round_settles_rejections_in_flight():
    # the last reject round's REJECTs reach the men only in one trailing flush round
    proto, rejections = _after_one_proposal_round()
    assert sum(map(len, rejections.values())) == 21
    proto._flush()
    res = proto._assemble()
    assert res.trace.phase_breakdown["flush"] == 1
    assert proto.eng.in_flight == 0
    for m, women in rejections.items():
        # his whole list but the women who rejected him, in his rank order
        assert res.men[m].remaining == tuple(w for w in proto.men[m].quantized.order if w not in women)


# a neighbour's stray message (sender id, receiver index, kind), the protocol
# round that next steps its receiver, and the error that round raises; with
# n = 8, man i is processor i and woman j processor 8 + j
_STRAY_MAIL = {
    "woman in a propose round": (0, 0, MsgKind.PROPOSE, "propose", "W0 received messages in a propose round"),
    "man in an accept round": (8, 0, MsgKind.ACCEPT, "accept", "M0 received messages in an accept round"),
    # W2 already rejected M0 in the first proposal round
    "man rejected twice": (10, 0, MsgKind.REJECT, "propose", "M0 rejected twice"),
    "woman at flush": (0, 0, MsgKind.PROPOSE, "flush", "W0 had messages at flush"),
}


@pytest.mark.parametrize("case", _STRAY_MAIL)
def test_stray_mail_raises_inconsistent_state(case):
    sender, to, kind, next_round, message = _STRAY_MAIL[case]
    proto, rejections = _after_one_proposal_round()
    assert 2 in rejections[0]
    proto._flush()
    proto.eng.run_round(lambda c: c.send(to, kind), "stray", actors=[sender])
    step = {
        "propose": lambda: proto._propose_round(qm_start=True, outer_index=None),
        "accept": proto._match_and_reject,
        "flush": proto._flush,
    }[next_round]
    with pytest.raises(InconsistentState, match=message):
        step()


@pytest.mark.parametrize("strict", [True, False])
def test_quantile_match_closing_with_a_nonempty_active_set(strict):
    # no tier-1 run ends a quantile match with a nonempty active set, so one is set
    # by hand. Strict, the check raises; otherwise it logs the set, sorted, and
    # clears it
    from matchsim.protocols import QuantileProtocol

    prof = generate(GeneratorSpec.parse("complete", n=8, seed=1))
    proto = QuantileProtocol(prof, MatchingSubroutineSpec("det"), params=AsmParams.for_instance(1.0, 8), strict=strict)
    state = proto.men[0]
    state.A = (5, 2)
    message = "man 0 exits a quantile match with nonempty active set [2, 5]"
    if strict:
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            proto._close_quantile_match_for(0, state)
    else:
        proto._close_quantile_match_for(0, state)
        assert proto.violations == [message]
        assert state.A == ()


def test_accept_for_an_unsent_proposal_raises_inconsistent_state():
    # W3 ACCEPTs M0, whose active set holds only W1 and W2: his first point round
    # joins him to the subroutine with that ACCEPT, and the join refuses it
    from matchsim.maximal import MmPhase

    proto, _ = _after_one_proposal_round()
    proto._flush()
    proto.men[0].A = (1, 2)
    phase = MmPhase(proto.mm_spec, join=proto._join_man)
    proto.eng.run_round(lambda c: c.send(0, MsgKind.ACCEPT), "stray", actors=[8 + 3])
    with pytest.raises(InconsistentState, match="M0 got ACCEPT from W3 for an unsent proposal"):
        proto.eng.run_round(phase.point, "mm", actors=())


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize(
    "current, partner, error, message",
    [
        (3, 3, InconsistentState, "woman 0 re-matched to her current partner"),
        # the same quantile, then a worse one; structural, so raised when logged too
        (3, 4, InvariantViolation, "woman 0 partner quantile did not strictly improve"),
        (3, 9, InvariantViolation, "woman 0 partner quantile did not strictly improve"),
    ],
)
def test_reject_round_refuses_a_partner_that_is_no_upgrade(strict, current, partner, error, message):
    # no tier-1 run re-matches a woman to a man no better than her partner, so one
    # reject round is stepped by hand: woman 0 of complete n=16 holds the man she
    # ranks ``current`` and the subroutine matched her to the one she ranks ``partner``
    # (1-based; k = 8, so ranks 2r - 1 and 2r share quantile r)
    from matchsim.maximal import MmNode, MmPhase
    from matchsim.protocols import QuantileProtocol

    prof = generate(GeneratorSpec.parse("complete", n=16, seed=1))
    proto = QuantileProtocol(prof, MatchingSubroutineSpec("det"), params=AsmParams.for_instance(1.0, 16), strict=strict)
    state, order = proto.women[0], proto.women[0].quantized.order
    state.p = order[current - 1]
    node = MmNode([order[partner - 1]])
    node.matched = order[partner - 1]
    phase = MmPhase(proto.mm_spec, {16: node})
    with pytest.raises(error, match=message):
        proto.eng.run_round(lambda c: proto._step_reject(c, phase), "reject", actors=[16])
    assert state.p == order[current - 1] and state.quantized.remaining == order
    assert proto.violations == []


def _one_woman_accept_round(strict, proposer_rank, edit):
    """Woman 0 of complete n=16 gets PROPOSE from the man she ranks ``proposer_rank``
    (1-based) after ``edit(state, order)``, and one accept round steps her."""
    from matchsim.maximal import MmPhase
    from matchsim.protocols import QuantileProtocol

    prof = generate(GeneratorSpec.parse("complete", n=16, seed=1))
    proto = QuantileProtocol(prof, MatchingSubroutineSpec("det"), params=AsmParams.for_instance(1.0, 16), strict=strict)
    state, order = proto.women[0], proto.women[0].quantized.order
    edit(state, order)
    proposer = order[proposer_rank - 1]
    proto.eng.run_round(lambda c: c.send(0, MsgKind.PROPOSE), "stray", actors=[proposer])
    phase = MmPhase(proto.mm_spec, join=proto._join_man)
    return proto, proposer, lambda: proto.eng.run_round(lambda c: proto._step_accept(c, phase), "accept", actors=())


def test_accept_round_refuses_a_proposal_from_a_pruned_man():
    # no tier-1 run has a man propose to a woman who already dropped him, so she drops
    # him by hand first
    proto, proposer, step = _one_woman_accept_round(True, 5, lambda state, order: state.quantized.remove(order[4]))
    with pytest.raises(InconsistentState, match=f"W0 got a proposal from pruned M{proposer}$"):
        step()


def test_accept_round_refuses_a_proposal_to_a_removed_woman():
    def remove(state, order):
        state.removed = True

    _, _, step = _one_woman_accept_round(True, 5, remove)
    with pytest.raises(InconsistentState, match="removed W0 received a proposal"):
        step()


@pytest.mark.parametrize("strict", [True, False])
@pytest.mark.parametrize("proposer_rank, best", [(2, 1), (3, 2)])
def test_accept_round_refuses_proposers_no_better_than_her_partner(strict, proposer_rank, best):
    # she holds the man she ranks first (quantile 1 of k = 8, with his rank-2 peer); a
    # proposer from the same quantile or a worse one is no upgrade. Structural, so raised
    # when logged too
    def hold_the_first(state, order):
        state.p = order[0]

    proto, _, step = _one_woman_accept_round(strict, proposer_rank, hold_the_first)
    with pytest.raises(InvariantViolation, match=f"woman 0 saw best proposing quantile {best}, no better than her partner's"):
        step()
    assert proto.violations == []


def test_a_woman_who_gets_accept_in_the_first_point_round_raises():
    # ACCEPT goes from women to men, so a woman who receives one cannot join the
    # subroutine as a man; M3 sends it by hand
    from matchsim.maximal import MmPhase

    proto, _ = _after_one_proposal_round()
    proto._flush()
    phase = MmPhase(proto.mm_spec, join=proto._join_man)
    proto.eng.run_round(lambda c: c.send(0, MsgKind.ACCEPT), "stray", actors=[3])
    with pytest.raises(InconsistentState, match="W0 received ACCEPT"):
        proto.eng.run_round(phase.point, "mm", actors=())


def test_a_flat_run_is_rung_0_with_no_record():
    # the flat schedule opens as the ladder's rung 0, whose opening round marks a man
    # inactive only when his list is empty; it keeps no rung record
    from matchsim.protocols import QuantileProtocol

    profile = PreferenceProfile.from_lists([[0, 1], [], [1, 0]], [[2, 0], [0, 2], []])
    proto = QuantileProtocol(profile, MatchingSubroutineSpec("det"), params=AsmParams.for_instance(1.0, 3),
                             flat_quantile_matches=4)
    res = proto.run()
    assert res.outer_records == () and res.violations == ()
    assert [st.active for st in proto.men] == [True, False, True]
    assert sorted(res.matching.pairs) == [(0, 0), (2, 1)]


def _truncated_ladder(profile, mm, k, inner, seed, strict):
    """A ladder whose rungs run ``inner`` quantile matches of k proposal rounds each, so
    they end with men still bad and, for k <= 2, with REJECTs still in flight."""
    from matchsim.protocols import QuantileProtocol

    params = dataclasses.replace(AsmParams.for_instance(1.0, profile.n), inner_iterations=inner, k=k)
    return QuantileProtocol(profile, MatchingSubroutineSpec.parse(mm), params=params, seed=seed, strict=strict)


def test_rung_records_read_the_rejects_in_flight(monkeypatch):
    # each record is recounted from snapshots of every man's (partner, list length),
    # taken where every man is settled: right after each rung's opening propose round,
    # which steps every man, and after the trailing flush. No engine mail is read
    from matchsim.protocols import QuantileProtocol

    snapshots = []  # (the rung whose opening round ran, or inf at the flush; the men's state)
    at_rung_end = []  # the men's state as each rung ends, before its REJECTs land
    propose_round, record_outer, flush = (
        QuantileProtocol._propose_round, QuantileProtocol._record_outer, QuantileProtocol._flush
    )

    def men(proto):
        return [(st.p, len(st.quantized)) for st in proto.men]

    def snapped_propose_round(proto, qm_start, outer_index):
        sent = propose_round(proto, qm_start, outer_index)
        if outer_index is not None:
            snapshots.append((outer_index, men(proto)))
        return sent

    def snapped_record_outer(proto, index, opened):
        at_rung_end.append(men(proto))
        record_outer(proto, index, opened)

    def snapped_flush(proto):
        flush(proto)
        snapshots.append((math.inf, men(proto)))

    monkeypatch.setattr(QuantileProtocol, "_propose_round", snapped_propose_round)
    monkeypatch.setattr(QuantileProtocol, "_record_outer", snapped_record_outer)
    monkeypatch.setattr(QuantileProtocol, "_flush", snapped_flush)

    def bad(state, active):
        return sum(1 for m in active if state[m][0] is None and state[m][1] > 0)

    checked = bad_rungs = unsettled_at_end = 0
    cases = itertools.product(
        ["complete", "random:0.3", "random:0.6", "bounded:3", "bounded:6"], (9, 16, 30), (0, 1), (1, 2), (1, 2, 3)
    )
    for family, n, seed, k, inner in cases:
        profile = generate(GeneratorSpec.parse(family, n=n, seed=seed))
        for mm in ("det", "rand:3"):
            snapshots.clear()
            at_rung_end.clear()
            proto = _truncated_ladder(profile, mm, k, inner, seed, strict=False)
            res = proto.run()
            assert [r.index for r in res.outer_records] == list(range(proto.params.outer_iterations))
            for record, end in zip(res.outer_records, at_rung_end):
                i = record.index
                after = next(state for rung, state in snapshots if rung > i)
                # a rung skipped whole changed no state, so the next snapshot has its lists
                opened = next((state for rung, state in snapshots if rung == i), after)
                active = [m for m, (_, length) in enumerate(opened) if length >= 1 << i]
                settled = bad(after, active)
                assert record.active_men == len(active)
                assert record.check == BoundCheck.of(proto.params.delta * len(active), settled)
                checked += 1
                bad_rungs += settled > 0
                unsettled_at_end += bad(end, active) != settled
    # the sweep reaches rungs with bad men, and rungs whose REJECTs in flight change the count
    assert checked and bad_rungs and unsettled_at_end


def test_strict_truncated_ladder_raises_from_its_rung_record():
    # with one quantile match of two proposal rounds per rung, rung 0 ends with more bad
    # men than its bound; strict, the record raises, and logged, the run finishes with
    # the same message among its violations
    profile = generate(GeneratorSpec.parse("random:0.3", n=16, seed=0))
    with pytest.raises(InvariantViolation, match="^rung 0: 3 bad men among 16 active exceeds 2$") as raised:
        _truncated_ladder(profile, "det", k=2, inner=1, seed=0, strict=True).run()
    res = _truncated_ladder(profile, "det", k=2, inner=1, seed=0, strict=False).run()
    assert str(raised.value) in res.violations
    assert not res.outer_records[0].check.passed


def two_component_profile(perm_b):
    """Two complete 4x4 islands; the second island's men use ``perm_b``."""
    men, women = [], []
    for m in range(8):
        if m < 4:
            men.append([0, 1, 2, 3])
        else:
            men.append([4 + perm_b[m - 4][0], 4 + perm_b[m - 4][1], 4 + perm_b[m - 4][2], 4 + perm_b[m - 4][3]])
    for w in range(8):
        women.append([0, 1, 2, 3] if w < 4 else [4, 5, 6, 7])
    return PreferenceProfile.from_lists(men, women)


@pytest.mark.parametrize("runner", ["det", "rand"])
def test_locality_across_components(runner):
    # players in a different connected component cannot influence outcomes:
    # reshuffling the far island leaves the near island's result untouched
    base = two_component_profile([[0, 1, 2, 3]] * 4)
    twisted = two_component_profile([[3, 2, 1, 0], [1, 0, 3, 2], [2, 3, 0, 1], [0, 2, 1, 3]])
    if runner == "det":
        r1, r2 = run_algorithm(base, "asm:0.5", seed=3), run_algorithm(twisted, "asm:0.5", seed=3)
    else:
        r1, r2 = run_algorithm(base, "randasm:0.5,0.1", seed=3), run_algorithm(twisted, "randasm:0.5,0.1", seed=3)
    near = lambda res: {p for p in res.matching.pairs if p[0] < 4}
    assert near(r1) == near(r2)
    assert r1.men[:4] == r2.men[:4]
    assert r1.women[:4] == r2.women[:4]


@pytest.mark.parametrize(
    "args, missing",
    [
        (("asm",), "eps"),
        (("randasm", 0.5), "delta_fail"),
        (("randasm",), "eps, delta_fail"),
        (("aregasm", 0.5, 0.1), "alpha"),
        (("aregasm", None, 0.1, 2.0), "eps"),
    ],
)
def test_algorithm_spec_rejects_missing_parameters(args, missing):
    # without this check describe() fails later with a TypeError
    with pytest.raises(ValueError, match=f"{args[0]} needs {missing}$"):
        AlgorithmSpec(*args)


_DESCRIPTORS = [
    ("gs", None), ("asm:1", None), ("asm:0.5", None), ("asm:1", "rand:2"), ("asm:1", "amm:0.5,0.5"),
    ("asm:0.5", "det"), ("randasm:1,0.2", None), ("randasm:0.5,0.1", "det"), ("randasm:1,0.2", "amm:0.5,0.5"),
    ("aregasm:1,0.5,2", None), ("aregasm:1,0.5,8", None),
]


@st.composite
def _sparse_profile(draw):
    """Up to 8 players a side; any player may be isolated, so lists may be empty."""
    n = draw(st.integers(1, 8))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    men = [draw(st.permutations(sorted(w for m, w in edges if m == i))) for i in range(n)]
    women = [draw(st.permutations(sorted(m for m, w in edges if w == j))) for j in range(n)]
    return PreferenceProfile.from_lists(men, women)


@settings(max_examples=300, deadline=None)
@given(_sparse_profile(), st.sampled_from(_DESCRIPTORS), st.integers(0, 2**16))
def test_every_descriptor_is_sound_on_small_profiles(prof, descriptor, seed):
    text, mm = descriptor
    spec = AlgorithmSpec.parse(text, mm=MatchingSubroutineSpec.parse(mm) if mm else None)
    if spec.name == "aregasm" and men_degree_ratio(prof) > spec.alpha:
        with pytest.raises(NotAlmostRegular):
            run_algorithm(prof, spec, seed=seed)
        return
    res = run_algorithm(prof, spec, seed=seed)
    res.matching.validate_for(prof)
    if spec.deterministic:
        assert res.violations == ()
        rep = verify_run(prof, res)
        assert rep.all_passed(), rep.to_json()
    if spec.name == "gs":
        assert res.matching == gale_shapley_oracle(prof)


@pytest.mark.parametrize(
    "family, n, algorithm, peak_bound, held_bound",
    [
        # complete n=128: a player's remaining partners are one flag byte per rank; held
        # as a set of ints, they made a run peak at about 160 bytes per edge. With each
        # player's small collections (a man's active set, a vertex's residual, the
        # result's remaining partners) as hash sets, the run peaked at 38.1 (asm:0.5) and
        # 45.5 (gs) bytes per edge and its result held 25.3 and 32.7; as tuples, 17.9 and
        # 16.7, holding 4.9 and 5.6
        ("complete", 128, "asm:0.5", 24, 8),
        ("complete", 128, "gs", 24, 8),
        # bounded:8 n=1024, where k = 16 exceeds every degree: 294.7 peak and 111.7 held
        # with hash sets, 207.1 and 44.4 with tuples
        ("bounded:8", 1024, "randasm:0.5,0.1", 240, 64),
    ],
    ids=["asm:0.5", "gs", "randasm:0.5,0.1"],
)
def test_per_run_player_state_stays_within_its_bytes_per_edge(family, n, algorithm, peak_bound, held_bound):
    prof = generate(GeneratorSpec.parse(family, n=n, seed=0))
    run_algorithm(prof, algorithm)  # builds the profile's cached rank tables
    peak, held = traced_peak(run_algorithm, prof, algorithm)
    assert peak <= peak_bound * prof.num_edges
    assert held <= held_bound * prof.num_edges
