"""Protocol family behavior: parameters, hand-traced small instances,
runtime invariants, determinism, and locality."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchsim import (
    AlgorithmSpec,
    AsmParams,
    MatchingSubroutineSpec,
    Matching,
    MsgKind,
    NotAlmostRegular,
    PreferenceProfile,
    RoundCapExceeded,
    count_blocking_pairs,
    gale_shapley_oracle,
    generate,
    GeneratorSpec,
    iterations_for_maximal,
    man,
    men_degree_ratio,
    run_algorithm,
    verify_run,
    woman,
)


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
    assert count_blocking_pairs(pair_profile(), res.matching) == 0
    assert not res.violations


def test_single_pair_message_sequence():
    log = []
    run_algorithm(pair_profile(), "asm:0.5", message_log=log)
    kinds = [e["kind"] for e in log]
    assert kinds[0] == "PROPOSE"
    assert kinds[1] == "ACCEPT"
    assert "REJECT" not in kinds
    assert set(kinds) <= {"PROPOSE", "ACCEPT", "MM_POINT", "MM_MATCHED"}


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
    assert res.men[loser].remaining == frozenset()
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
    assert count_blocking_pairs(pair_profile(), res.matching) == 0


def test_gs_matches_oracle_on_random_instances():
    for seed in range(25):
        prof = generate(GeneratorSpec.parse("random:0.5", n=14, seed=seed))
        res = run_algorithm(prof, "gs")
        assert res.matching.pairs == gale_shapley_oracle(prof).pairs
        assert count_blocking_pairs(prof, res.matching) == 0


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
    spec = MatchingSubroutineSpec.randomized(60)
    res = run_algorithm(prof, AlgorithmSpec("asm", 0.5, mm=spec), seed=5)
    rep = verify_run(prof, res)
    assert rep.bounds["thm41"].passed


def test_fast_forward_equals_stepping_every_round():
    # skipping provably silent stretches must be observationally identical
    # to stepping them one round at a time
    from matchsim.protocols import QuantileProtocol

    prof = generate(GeneratorSpec.parse("random:0.6", n=4, seed=2))
    params = AsmParams.for_instance(1.0, prof.n)

    def run(mm, fast):
        log = []
        proto = QuantileProtocol(
            prof,
            mode="ladder",
            mm_spec=mm,
            params=params,
            seed=9,
            strict=mm.flavor == "det",
            message_log=log,
            algorithm_label="equiv",
            fast_forward=fast,
        )
        return proto.run(), log

    for mm in (MatchingSubroutineSpec.deterministic(), MatchingSubroutineSpec.randomized(3)):
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
        result = QuantileProtocol(
            prof,
            mode=mode,
            mm_spec=MatchingSubroutineSpec.parse(mm),
            params=params,
            flat_quantile_matches=inner if mode == "flat" else None,
            seed=seed,
            strict=False,
            message_log=log,
            fast_forward=fast,
        ).run()
        return result, log

    (fast, fast_log), (slow, slow_log) = run(True), run(False)
    assert fast.matching.pairs == slow.matching.pairs
    assert fast.trace.as_dict() == slow.trace.as_dict()
    assert fast_log == slow_log
    assert fast.men == slow.men and fast.women == slow.women
    assert fast.outer_records == slow.outer_records
    assert fast.violations == slow.violations
    assert fast.mm_failures == slow.mm_failures


def test_weak_almost_maximal_subroutine_keeps_partners():
    # a single-iteration subroutine fails often, so the removal path runs
    # hot; matched women must never be pulled out of play
    from matchsim.protocols import QuantileProtocol

    spec = MatchingSubroutineSpec.almost_maximal(1.0, 0.96)
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
            mode="flat",
            mm_spec=spec,
            params=params,
            flat_quantile_matches=8,
            seed=seed,
            strict=False,
            algorithm_label="weak-amm",
        )
        res = proto.run()
        failures += res.mm_failures
        res.matching.validate_for(prof)
        for side in (res.men, res.women):
            for st in side:
                if st.removed:
                    removals += 1
                    assert st.partner is None
    assert failures > 0  # the stress is real
    assert removals > 0


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
