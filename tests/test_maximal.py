"""Matching subroutines run standalone by ``maximal_matching``: the randomized
pointer round, its iterated forms, and the deterministic greedy."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import bipartite, rate_within_claim, vertex_count
from matchsim import (
    Engine,
    GeneratorSpec,
    InconsistentState,
    InvalidProfile,
    Matching,
    MatchingSubroutineSpec,
    MmNode,
    MmPhase,
    MsgKind,
    PreferenceProfile,
    Topology,
    check_maximal,
    generate,
    iterations_for_almost_maximal,
    iterations_for_maximal,
    man,
    maximal_matching,
    woman,
)
from matchsim.maximal import DEFAULT_SHRINK_C

DET = MatchingSubroutineSpec("det")
ONE_ROUND = MatchingSubroutineSpec("rand", 1)  # one randomized matching iteration


def random_bipartite(n_side, p, rng):
    return bipartite(n_side, [(m, w) for m in range(n_side) for w in range(n_side) if rng.random() < p])


def test_matching_round_single_edge():
    for seed in range(5):
        res = maximal_matching(bipartite(1, [(0, 0)]), ONE_ROUND, seed=seed)
        assert res.matching.sorted_pairs() == [(0, 0)]
        assert res.residual_vertices == frozenset()


def test_matching_round_star_always_matches_one():
    # center keeps one incoming edge; whichever leaf survives, exactly one
    # pair forms and the other leaves drop out isolated
    star = bipartite(3, [(0, 0), (0, 1), (0, 2)])
    for seed in range(40):
        res = maximal_matching(star, ONE_ROUND, seed=seed)
        assert len(res.matching) == 1
        assert res.matching.sorted_pairs()[0][0] == 0
        assert res.residual_vertices == frozenset()


def test_matching_round_empty_graph():
    res = maximal_matching(bipartite(1, []), ONE_ROUND, seed=0)
    assert len(res.matching) == 0
    assert res.residual_vertices == frozenset()


def test_matching_round_uses_four_rounds():
    res = maximal_matching(bipartite(1, [(0, 0)]), ONE_ROUND, seed=1)
    assert res.trace.phase_breakdown == {"mm": 4}


def test_matching_round_path_always_resolves():
    # on the 2-edge path the center is matched every time, so the residual
    # empties regardless of seed; some seed matches the lower-id branch
    path = bipartite(2, [(0, 0), (1, 0)])  # M0 - W0 - M1
    seen_low = None
    for seed in range(64):
        res = maximal_matching(path, ONE_ROUND, seed=seed)
        assert len(res.matching) == 1
        assert res.maximal
        assert not res.residual_vertices
        if res.matching.sorted_pairs() == [(0, 0)]:
            seen_low = seed
    assert seen_low is not None


def test_randomized_runs_to_maximality_with_enough_iterations():
    rng = random.Random(5)
    for trial in range(10):
        g = random_bipartite(12, 0.3, rng)
        if not g.num_edges:
            continue
        s = iterations_for_maximal(vertex_count(g), eta=0.01)
        res = maximal_matching(g, MatchingSubroutineSpec("rand", s), seed=trial)
        assert res.maximal
        assert not check_maximal(g, res.matching)


def test_randomized_result_is_always_a_valid_matching():
    rng = random.Random(11)
    for trial in range(20):
        g = random_bipartite(10, 0.25, rng)
        if not g.num_edges:
            continue
        res = maximal_matching(g, MatchingSubroutineSpec("rand", 2), seed=trial)
        for m_idx, w_idx in res.matching.pairs:
            assert g.is_edge(m_idx, w_idx)
        # violators are exactly the unmatched vertices with unmatched neighbors
        assert check_maximal(g, res.matching) == res.residual_vertices


def test_iteration_formula_values():
    assert iterations_for_maximal(256, eta=0.01) == 198
    assert iterations_for_maximal(128, eta=0.05) == 153
    assert iterations_for_almost_maximal(eta=1.0, delta=0.99) == 1
    assert iterations_for_maximal(0, eta=0.1) == 1  # no vertex still runs one iteration
    # halving the failure budget costs about log 2 / log(1 / c) extra rounds
    base = iterations_for_maximal(128, eta=0.05)
    assert iterations_for_maximal(128, eta=0.025) - base == pytest.approx(
        math.log(2) / math.log(1 / 0.95), abs=1
    )


def test_iterated_rounds_failure_rate_within_budget():
    # with s sized for eta = 0.01 on 256 vertices, non-maximal outcomes
    # should stay within the claimed rate across 500 seeded graphs
    s = iterations_for_maximal(256, eta=0.01)
    assert s == 198
    rng = random.Random(3)
    fails = 0
    trials = 500
    for seed in range(trials):
        g = random_bipartite(128, 0.08, rng)
        res = maximal_matching(g, MatchingSubroutineSpec("rand", s), seed=seed)
        if not res.maximal:
            fails += 1
    assert rate_within_claim(fails, trials, 0.01), fails


# ---------------------------------------------------------------------------
# The premise behind the randomized budgets: one iteration leaves, in
# expectation, at most DEFAULT_SHRINK_C of the live vertices live
# ---------------------------------------------------------------------------

SHRINK_TRIALS = 200


def _mean_survival(graph, trials):
    """The mean fraction of the vertices with a neighbour that one randomized
    iteration leaves live, over seeds 0 .. trials - 1."""
    live = vertex_count(graph)
    return sum(len(maximal_matching(graph, ONE_ROUND, seed=s).residual_vertices) for s in range(trials)) / (trials * live)


def _hoeffding_margin(trials):
    # a mean of trials outcomes in [0, 1] exceeds its expectation by this much with probability <= 1e-6
    return math.sqrt(math.log(1e6) / (2 * trials))


def _complete(a, b):
    return bipartite(max(a, b), [(m, w) for m in range(a) for w in range(b)])


@pytest.mark.parametrize(
    "build",
    [
        *(lambda m=m: _complete(m, m) for m in (2, 5, 10, 40)),
        lambda: _complete(2, 80),
        lambda: bipartite(25, [(i, i) for i in range(25)] + [(i + 1, i) for i in range(24)]),
        lambda: generate(GeneratorSpec.parse("bounded:8", n=32, seed=0)),
    ],
    ids=["K2,2", "K5,5", "K10,10", "K40,40", "K2,80", "path", "bounded8"],
)
def test_one_iteration_shrinks_named_shapes_by_the_default_factor(build):
    assert _mean_survival(build(), SHRINK_TRIALS) + _hoeffding_margin(SHRINK_TRIALS) <= DEFAULT_SHRINK_C


@st.composite
def _small_graphs(draw):
    """A bipartite graph on up to 10 + 10 vertices with at least one edge."""
    a, b = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    edges = draw(st.lists(st.tuples(st.integers(0, a - 1), st.integers(0, b - 1)), min_size=1, unique=True))
    return bipartite(max(a, b), edges)


@settings(max_examples=20, deadline=None)
@given(_small_graphs())
def test_one_iteration_shrinks_small_graphs_by_the_default_factor(graph):
    trials = 50
    assert _mean_survival(graph, trials) + _hoeffding_margin(trials) <= DEFAULT_SHRINK_C


def test_almost_maximal_eta_one_single_iteration():
    g = bipartite(4, [(m, w) for m in range(4) for w in range(4)])
    res = maximal_matching(g, MatchingSubroutineSpec("amm", eta=1.0, delta=0.99), seed=0)
    assert res.iterations == 1
    assert len(res.matching) >= 1


def test_almost_maximal_empty_graph():
    res = maximal_matching(bipartite(1, []), MatchingSubroutineSpec("amm", eta=0.5, delta=0.1), seed=0)
    assert len(res.matching) == 0
    assert not res.residual_vertices


def test_almost_maximal_k44_leaves_few_residuals():
    # 8 vertices, eta = 0.25: more than 2 residual vertices may happen in at
    # most a delta = 0.1 fraction of runs (99% CI judgement)
    g = bipartite(4, [(m, w) for m in range(4) for w in range(4)])
    over_budget = 0
    trials = 500
    for seed in range(trials):
        res = maximal_matching(g, MatchingSubroutineSpec("amm", eta=0.25, delta=0.1), seed=seed)
        if len(res.residual_vertices) > 0.25 * 8:
            over_budget += 1
    assert rate_within_claim(over_budget, trials, 0.1), over_budget


def test_deterministic_single_edge():
    res = maximal_matching(bipartite(1, [(0, 0)]), DET)
    assert res.matching.sorted_pairs() == [(0, 0)]
    assert res.maximal


def test_deterministic_path_lowest_id_pairing():
    # M0 - W0 - M1: W0 points at her lowest-id neighbor M0, mutual with M0
    path = bipartite(2, [(0, 0), (1, 0)])
    res = maximal_matching(path, DET)
    assert res.matching.sorted_pairs() == [(0, 0)]
    assert not check_maximal(path, res.matching)


def test_deterministic_perfect_matching_is_immediate():
    g = bipartite(6, [(i, i) for i in range(6)])
    res = maximal_matching(g, DET)
    assert res.matching.sorted_pairs() == [(i, i) for i in range(6)]
    assert res.iterations == 1
    assert res.trace.rounds == 3


def test_deterministic_always_maximal_on_random_graphs():
    rng = random.Random(23)
    for trial in range(30):
        g = random_bipartite(rng.randint(2, 14), 0.3, rng)
        if not g.num_edges:
            continue
        res = maximal_matching(g, DET)
        assert not check_maximal(g, res.matching), f"trial {trial}"


def test_maximality_check_cannot_be_extended():
    # adding any remaining edge of the graph to a maximal matching collides
    rng = random.Random(31)
    for trial in range(10):
        g = random_bipartite(8, 0.4, rng)
        if not g.num_edges:
            continue
        res = maximal_matching(g, DET)
        men, women = res.matching.man_partner, res.matching.woman_partner
        for m, lst in enumerate(g.men_prefs):
            for w in lst:
                assert m in men or w in women


def test_subroutine_spec_parsing():
    assert MatchingSubroutineSpec.parse("det").flavor == "det"
    spec = MatchingSubroutineSpec.parse("rand:40")
    assert spec.flavor == "rand" and spec.iterations == 40
    spec = MatchingSubroutineSpec.parse("amm:0.01,0.05")
    assert spec.flavor == "amm" and spec.eta == 0.01 and spec.delta == 0.05
    assert spec.fixed_iterations() == iterations_for_almost_maximal(0.01, 0.05)
    for text in ("foo", "det:junk", "amm:1e-200,1e-200"):
        with pytest.raises(ValueError):
            MatchingSubroutineSpec.parse(text)
    with pytest.raises(ValueError):
        MatchingSubroutineSpec("rand", 0)
    with pytest.raises(ValueError):
        MatchingSubroutineSpec("amm", eta=0.0, delta=0.5)


def test_matching_round_determinism():
    g = bipartite(6, [(m, w) for m in range(6) for w in range(6) if (m + w) % 2])
    a = maximal_matching(g, ONE_ROUND, seed=5)
    b = maximal_matching(g, ONE_ROUND, seed=5)
    assert a.matching.pairs == b.matching.pairs
    assert a.residual_vertices == b.residual_vertices


@st.composite
def _graph_and_pairs(draw):
    """A small bipartite graph (isolated vertices included) and a matching of it."""
    a, b = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    edges = [(m, w) for m in range(a) for w in range(b) if draw(st.booleans())]
    graph = bipartite(max(a, b, 1), edges)
    pairs, used_m, used_w = [], set(), set()
    for m, w in draw(st.permutations(edges)):
        if m not in used_m and w not in used_w and draw(st.booleans()):
            pairs.append((m, w))
            used_m.add(m)
            used_w.add(w)
    return graph, edges, pairs, draw(st.integers(0, 2**16))


def _nx_graph(nx, graph, edges):
    g = nx.Graph()
    g.add_nodes_from([*map(man, range(graph.n)), *map(woman, range(graph.n))])
    g.add_edges_from((man(m), woman(w)) for m, w in edges)
    return g


def _nx_matching(matching):
    return {(man(m), woman(w)) for m, w in matching.pairs}


@settings(max_examples=300, deadline=None)
@given(_graph_and_pairs())
def test_maximality_agrees_with_networkx(case):
    # networkx decides maximality on its own, independent of this package
    nx = pytest.importorskip("networkx")
    graph, edges, pairs, seed = case
    g = _nx_graph(nx, graph, edges)

    given_matching = Matching.of(pairs)
    assert (not check_maximal(graph, given_matching)) == nx.is_maximal_matching(g, _nx_matching(given_matching))

    greedy = maximal_matching(graph, DET).matching
    assert nx.is_maximal_matching(g, _nx_matching(greedy))
    assert not check_maximal(graph, greedy)

    for s in (1, 3):
        res = maximal_matching(graph, MatchingSubroutineSpec("rand", s), seed=seed)
        assert nx.is_matching(g, _nx_matching(res.matching))
        assert res.maximal == nx.is_maximal_matching(g, _nx_matching(res.matching))
        assert check_maximal(graph, res.matching) == res.residual_vertices


@settings(max_examples=200, deadline=None)
@given(_graph_and_pairs(), st.integers(1, 4))
def test_subroutine_fast_forward_equals_stepping_every_round(case, s):
    # dense small graphs have 4-cycles, on which an iteration can match no one
    graph, _, _, seed = case

    def run(fast):
        stepped = []
        run_round = Engine.run_round
        # a function-scoped fixture cannot serve a Hypothesis test, so each run patches in a context
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Engine, "fast_forward", fast)
            mp.setattr(Engine, "run_round", lambda eng, *args: stepped.append(args[1]) or run_round(eng, *args))
            res = maximal_matching(graph, MatchingSubroutineSpec("rand", s), seed=seed)
        if not fast:
            assert len(stepped) == res.trace.rounds  # no round was skipped
        return res.matching, res.residual_vertices, res.iterations, res.trace.as_dict()

    assert run(True) == run(False)


# ---------------------------------------------------------------------------
# Consistency errors: traffic no correct run sends must abort the phase
# ---------------------------------------------------------------------------


def _phase_on_path(spec, node_nbrs):
    """An engine over the path M0 - W0 - M1 (processors 0, 2 and 1) and a phase
    whose nodes are ``node_nbrs``: processor id -> neighbour indices it starts with."""
    topology = Topology.from_profile(PreferenceProfile.from_lists([[0], [0]], [[0, 1], []]))
    phase = MmPhase(spec, {v: MmNode(nbrs) for v, nbrs in node_nbrs.items()})
    return Engine(topology, seed=0), phase


def test_graph_edge_listed_at_one_end_is_an_invalid_profile():
    # the profile's validation is the subroutine's one symmetry check; an edge
    # within a side cannot be written in a profile at all
    with pytest.raises(InvalidProfile, match="asymmetric pair: man 0 lists woman 0"):
        maximal_matching(PreferenceProfile.from_lists([[0]], [[]]), DET)


def _sending(sender: int, to: int, kind):
    return lambda ctx: ctx.send(to, kind) if ctx.id == sender else None


@pytest.mark.parametrize("spec", [ONE_ROUND, DET], ids=["rand-keep", "det-resolve"])
def test_pointer_from_outside_the_residual_is_inconsistent(spec):
    # W0 (id 2) is unaware of M1: both men point at her, and the round that
    # receives their pointers (keep, or the greedy's resolve) refuses M1's
    engine, phase = _phase_on_path(spec, {0: [0], 1: [0], 2: [0]})
    with pytest.raises(InconsistentState, match="outside residual"):
        phase.run(engine)


def test_keep_from_a_vertex_not_pointed_at_is_inconsistent():
    # W0 (id 2) sends KEEP to M0, who pointed at no one
    engine, phase = _phase_on_path(ONE_ROUND, {0: [0], 2: [0]})
    engine.run_round(_sending(2, 0, MsgKind.MM_KEEP))
    with pytest.raises(InconsistentState, match="keep message from 0"):
        engine.run_round(phase.choose)


@pytest.mark.parametrize(
    "kind, step",
    [
        (MsgKind.MM_MATCHED, "point"),
        (MsgKind.MM_POINT, "keep"),
        (MsgKind.MM_KEEP, "choose"),
        (MsgKind.MM_CHOOSE, "resolve"),
    ],
)
def test_subroutine_message_to_a_vertex_outside_the_phase_is_inconsistent(kind, step):
    # M1 (id 1) is adjacent to W0 (id 2) but takes no part in the phase
    engine, phase = _phase_on_path(ONE_ROUND, {0: [0], 2: [0]})
    engine.run_round(_sending(2, 1, kind))
    with pytest.raises(InconsistentState, match=f"M1.*{kind.name}"):
        engine.run_round(getattr(phase, step))
    # a vertex without a node is never stepped, with mail or without
    engine, phase = _phase_on_path(ONE_ROUND, {0: [0], 2: [0]})
    with pytest.raises(InconsistentState, match=f"M1 was stepped for {kind.name} outside the subroutine"):
        engine.run_round(getattr(phase, step), actors=[1])


@pytest.mark.parametrize("receiver", [0, 1], ids=["inside", "outside"])
def test_accept_to_a_phase_without_join_is_inconsistent(receiver):
    # M0 (id 0) takes part in the phase and M1 (id 1) does not
    engine, phase = _phase_on_path(DET, {0: [0], 2: [0]})
    engine.run_round(_sending(2, receiver, MsgKind.ACCEPT))
    with pytest.raises(InconsistentState, match="ACCEPT"):
        engine.run_round(phase.point)
