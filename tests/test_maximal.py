"""Matching subroutines run standalone by ``maximal_matching``: the randomized
pointer round, its iterated forms, and the deterministic greedy."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchsim import (
    Engine,
    Matching,
    MatchingSubroutineSpec,
    MmNode,
    MmPhase,
    Topology,
    check_maximal,
    iterations_for_almost_maximal,
    iterations_for_maximal,
    man,
    maximal_matching,
    woman,
)

DET = MatchingSubroutineSpec.deterministic()
ONE_ROUND = MatchingSubroutineSpec.randomized(1)  # one randomized matching iteration


def bipartite(edges):
    adj = {}
    for m_idx, w_idx in edges:
        adj.setdefault(man(m_idx), set()).add(woman(w_idx))
        adj.setdefault(woman(w_idx), set()).add(man(m_idx))
    return adj


def random_bipartite(n_side, p, rng):
    edges = [(m, w) for m in range(n_side) for w in range(n_side) if rng.random() < p]
    return bipartite(edges)


def test_matching_round_single_edge():
    for seed in range(5):
        res = maximal_matching(bipartite([(0, 0)]), ONE_ROUND, seed=seed)
        assert res.matching.sorted_pairs() == [(0, 0)]
        assert res.residual_vertices == frozenset()


def test_matching_round_star_always_matches_one():
    # center keeps one incoming edge; whichever leaf survives, exactly one
    # pair forms and the other leaves drop out isolated
    star = bipartite([(0, 0), (0, 1), (0, 2)])
    for seed in range(40):
        res = maximal_matching(star, ONE_ROUND, seed=seed)
        assert len(res.matching) == 1
        assert res.matching.sorted_pairs()[0][0] == 0
        assert res.residual_vertices == frozenset()


def test_matching_round_empty_graph():
    res = maximal_matching({}, ONE_ROUND, seed=0)
    assert len(res.matching) == 0
    assert res.residual_vertices == frozenset()


def test_matching_round_uses_four_rounds():
    res = maximal_matching(bipartite([(0, 0)]), ONE_ROUND, seed=1)
    assert res.trace.phase_breakdown == {"mm": 4}


def test_matching_round_path_always_resolves():
    # on the 2-edge path the center is matched every time, so the residual
    # empties regardless of seed; some seed matches the lower-id branch
    path = bipartite([(0, 0), (1, 0)])  # M0 - W0 - M1
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
        if not g:
            continue
        s = iterations_for_maximal(len(g), eta=0.01)
        res = maximal_matching(g, MatchingSubroutineSpec.randomized(s), seed=trial)
        assert res.maximal
        rep = check_maximal(g, res.matching)
        assert rep.maximal and not rep.violators


def test_randomized_result_is_always_a_valid_matching():
    rng = random.Random(11)
    for trial in range(20):
        g = random_bipartite(10, 0.25, rng)
        if not g:
            continue
        res = maximal_matching(g, MatchingSubroutineSpec.randomized(2), seed=trial)
        for m_idx, w_idx in res.matching.pairs:
            assert woman(w_idx) in g[man(m_idx)]
        # violators are exactly the unmatched vertices with unmatched neighbors
        rep = check_maximal(g, res.matching)
        assert rep.violators == res.residual_vertices


def test_iteration_formula_values():
    assert iterations_for_maximal(256, eta=0.01) == 198
    assert iterations_for_maximal(128, eta=0.05) == 153
    assert iterations_for_almost_maximal(eta=1.0, delta=0.99) == 1
    # halving the failure budget costs about log 2 / log(1 / c) extra rounds
    base = iterations_for_maximal(128, eta=0.05)
    assert iterations_for_maximal(128, eta=0.025) - base == pytest.approx(
        math.log(2) / math.log(1 / 0.95), abs=1
    )


def test_iterated_rounds_failure_rate_within_budget():
    # with s sized for eta = 0.01 on 256 vertices, non-maximal outcomes
    # should stay within the claimed rate across 500 seeded graphs
    from matchsim import rate_within_claim

    s = iterations_for_maximal(256, eta=0.01)
    assert s == 198
    rng = random.Random(3)
    fails = 0
    trials = 500
    for seed in range(trials):
        g = random_bipartite(128, 0.08, rng)
        res = maximal_matching(g, MatchingSubroutineSpec.randomized(s), seed=seed)
        if not res.maximal:
            fails += 1
    assert rate_within_claim(fails, trials, 0.01), fails


def test_almost_maximal_eta_one_single_iteration():
    g = bipartite([(m, w) for m in range(4) for w in range(4)])
    res = maximal_matching(g, MatchingSubroutineSpec.almost_maximal(1.0, 0.99), seed=0)
    assert res.iterations == 1
    assert len(res.matching) >= 1


def test_almost_maximal_empty_graph():
    res = maximal_matching({}, MatchingSubroutineSpec.almost_maximal(0.5, 0.1), seed=0)
    assert len(res.matching) == 0
    assert not res.residual_vertices


def test_almost_maximal_k44_leaves_few_residuals():
    # 8 vertices, eta = 0.25: more than 2 residual vertices may happen in at
    # most a delta = 0.1 fraction of runs (99% CI judgement)
    from matchsim import rate_within_claim

    g = bipartite([(m, w) for m in range(4) for w in range(4)])
    over_budget = 0
    trials = 500
    for seed in range(trials):
        res = maximal_matching(g, MatchingSubroutineSpec.almost_maximal(0.25, 0.1), seed=seed)
        if len(res.residual_vertices) > 0.25 * 8:
            over_budget += 1
    assert rate_within_claim(over_budget, trials, 0.1), over_budget


def test_deterministic_single_edge():
    res = maximal_matching(bipartite([(0, 0)]), DET)
    assert res.matching.sorted_pairs() == [(0, 0)]
    assert res.maximal


def test_deterministic_path_lowest_id_pairing():
    # M0 - W0 - M1: W0 points at her lowest-id neighbor M0, mutual with M0
    res = maximal_matching(bipartite([(0, 0), (1, 0)]), DET)
    assert res.matching.sorted_pairs() == [(0, 0)]
    rep = check_maximal(bipartite([(0, 0), (1, 0)]), res.matching)
    assert rep.maximal


def test_deterministic_perfect_matching_is_immediate():
    g = bipartite([(i, i) for i in range(6)])
    res = maximal_matching(g, DET)
    assert res.matching.sorted_pairs() == [(i, i) for i in range(6)]
    assert res.iterations == 1
    assert res.trace.rounds == 3


def test_deterministic_always_maximal_on_random_graphs():
    rng = random.Random(23)
    for trial in range(30):
        g = random_bipartite(rng.randint(2, 14), 0.3, rng)
        if not g:
            continue
        res = maximal_matching(g, DET)
        rep = check_maximal(g, res.matching)
        assert rep.maximal, f"trial {trial}"


def test_maximality_check_cannot_be_extended():
    # adding any remaining edge of the graph to a maximal matching collides
    rng = random.Random(31)
    for trial in range(10):
        g = random_bipartite(8, 0.4, rng)
        if not g:
            continue
        res = maximal_matching(g, DET)
        matched = {man(m) for m, _ in res.matching.pairs} | {woman(w) for _, w in res.matching.pairs}
        for v, nbrs in g.items():
            for u in nbrs:
                assert v in matched or u in matched


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
        MatchingSubroutineSpec.randomized(0)
    with pytest.raises(ValueError):
        MatchingSubroutineSpec.almost_maximal(0.0, 0.5)


def test_matching_round_determinism():
    g = bipartite([(m, w) for m in range(6) for w in range(6) if (m + w) % 2])
    a = maximal_matching(g, ONE_ROUND, seed=5)
    b = maximal_matching(g, ONE_ROUND, seed=5)
    assert a.matching.pairs == b.matching.pairs
    assert a.residual_vertices == b.residual_vertices


@st.composite
def _graph_and_pairs(draw):
    """A small bipartite graph (isolated vertices included) and a matching of it."""
    a, b = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    edges = [(m, w) for m in range(a) for w in range(b) if draw(st.booleans())]
    adj = {man(m): set() for m in range(a)}
    adj.update({woman(w): set() for w in range(b)})
    for m, w in edges:
        adj[man(m)].add(woman(w))
        adj[woman(w)].add(man(m))
    pairs, used_m, used_w = [], set(), set()
    for m, w in draw(st.permutations(edges)):
        if m not in used_m and w not in used_w and draw(st.booleans()):
            pairs.append((m, w))
            used_m.add(m)
            used_w.add(w)
    return adj, edges, pairs, draw(st.integers(0, 2**16))


def _nx_graph(nx, adj, edges):
    g = nx.Graph()
    g.add_nodes_from(adj)
    g.add_edges_from((man(m), woman(w)) for m, w in edges)
    return g


def _nx_matching(matching):
    return {(man(m), woman(w)) for m, w in matching.pairs}


@settings(max_examples=300, deadline=None)
@given(_graph_and_pairs())
def test_maximality_agrees_with_networkx(case):
    # networkx decides maximality on its own, independent of this package
    nx = pytest.importorskip("networkx")
    adj, edges, pairs, seed = case
    g = _nx_graph(nx, adj, edges)

    given_matching = Matching.of(pairs)
    assert check_maximal(adj, given_matching).maximal == nx.is_maximal_matching(g, _nx_matching(given_matching))

    greedy = maximal_matching(adj, DET).matching
    assert nx.is_maximal_matching(g, _nx_matching(greedy))
    assert check_maximal(adj, greedy).maximal

    for s in (1, 3):
        res = maximal_matching(adj, MatchingSubroutineSpec.randomized(s), seed=seed)
        assert nx.is_matching(g, _nx_matching(res.matching))
        assert res.maximal == nx.is_maximal_matching(g, _nx_matching(res.matching))
        assert check_maximal(adj, res.matching).maximal == res.maximal


@settings(max_examples=200, deadline=None)
@given(_graph_and_pairs(), st.integers(1, 4))
def test_subroutine_fast_forward_equals_stepping_every_round(case, s):
    # dense small graphs have 4-cycles, on which an iteration can match no one
    adj, _, _, seed = case
    graph = {v: nbrs for v, nbrs in adj.items() if nbrs}

    def run(fast):
        topology = Topology.from_bipartite(graph)
        nodes = {topology.id_of(v): MmNode(u.index for u in nbrs) for v, nbrs in graph.items()}
        phase = MmPhase(MatchingSubroutineSpec.randomized(s), nodes)
        engine = Engine(topology, seed=seed)
        phase.run(engine, fast_forward=fast)
        return {v: node.matched for v, node in phase.nodes.items()}, engine.trace.as_dict()

    assert run(True) == run(False)
