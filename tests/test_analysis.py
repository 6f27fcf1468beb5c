"""Verifier: blocking-pair enumeration, thresholded blocking, classification,
maximality, the centralized oracle, and statistics helpers."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import binomial_ci, bipartite, rate_within_claim, traced_peak
from matchsim import (
    AsmParams,
    BoundCheck,
    GeneratorSpec,
    InvalidMatching,
    Matching,
    OuterRecord,
    PlayerFinal,
    PreferenceProfile,
    RoundTrace,
    RunResult,
    blocking_pairs,
    check_maximal,
    classify_good_bad,
    count_blocking_pairs,
    eps_blocking_pairs,
    gale_shapley_oracle,
    generate,
    man,
    run_algorithm,
    verify_run,
    woman,
)
from matchsim.analysis import CLAIMS, _heads


def edges(prof):
    """Every (man, woman) edge of the profile: men in order, each man's in his list order."""
    return [(m, w) for m, lst in enumerate(prof.men_prefs) for w in lst]


def is_eps_blocking(profile, matching, edge, eps):
    """Reference check of one edge: True when both endpoints improve on their assigned
    partner (rank deg + 1 when unmatched) by at least an eps-fraction of their own list length."""
    m_idx, w_idx = edge
    if not profile.is_edge(m_idx, w_idx):
        raise InvalidMatching(f"({m_idx}, {w_idx}) is not an edge of the instance")

    def rank(lst, partner):
        return len(lst) + 1 if partner is None else lst.index(partner) + 1

    m_list, w_list = profile.men_prefs[m_idx], profile.women_prefs[w_idx]
    gap_m = rank(m_list, matching.man_partner.get(m_idx)) - rank(m_list, w_idx)
    gap_w = rank(w_list, matching.woman_partner.get(w_idx)) - rank(w_list, m_idx)
    return gap_m >= eps * len(m_list) and gap_w >= eps * len(w_list)


def complete_profile(men_orders, women_orders):
    return PreferenceProfile.from_lists(men_orders, women_orders)


def test_blocking_pairs_crossed_2x2():
    # everyone prefers partner index 0; the crossed matching leaves (0, 0)
    prof = complete_profile([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    m = Matching.of([(0, 1), (1, 0)])
    assert blocking_pairs(prof, m) == [(0, 0)]


def test_blocking_pairs_stable_is_zero():
    prof = complete_profile([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    assert len(blocking_pairs(prof, Matching.of([(0, 0), (1, 1)]))) == 0


def test_blocking_pairs_empty_matching_counts_all_edges():
    # unmatched players prefer any acceptable partner, so every edge blocks
    prof = complete_profile([[0, 1], [1, 0]], [[0, 1], [1, 0]])
    assert len(blocking_pairs(prof, Matching.of([]))) == 4


def test_blocking_pairs_adversarial_3x3_fixture():
    # identical assortative lists with the anti-assortative matching: the
    # nine edges hand-enumerate to exactly three blocking pairs
    prof = complete_profile([[0, 1, 2]] * 3, [[0, 1, 2]] * 3)
    m = Matching.of([(0, 2), (1, 1), (2, 0)])
    assert sorted(blocking_pairs(prof, m)) == [(0, 0), (0, 1), (1, 0)]
    assert len(blocking_pairs(prof, m)) == 3


def test_blocking_pairs_rejects_non_edge():
    prof = PreferenceProfile.from_lists([[0], []], [[0], []])
    with pytest.raises(InvalidMatching):
        blocking_pairs(prof, Matching.of([(1, 1)]))


@pytest.mark.parametrize("edge", [(0, 1), (-1, 1), (0, -1), (2, 0), (0, 2)])
def test_is_eps_blocking_rejects_non_edge(edge):
    # man -1 once read man 1's list, and (2, 0) raised IndexError
    prof = PreferenceProfile.from_lists([[0], [1]], [[0], [1]])
    with pytest.raises(InvalidMatching, match="not an edge"):
        is_eps_blocking(prof, Matching.of([]), edge, 0.5)


def _eps_fixture():
    # man 0 ranks w0 second and his partner w8 ninth; woman 0 ranks m0 first
    # and her partner m7 eighth; all lists complete with 10 entries
    base = list(range(10))
    men = [base[:] for _ in range(10)]
    men[0] = [1, 0, 2, 3, 4, 5, 6, 7, 8, 9]
    women = [base[:] for _ in range(10)]
    women[0] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9]
    prof = complete_profile(men, women)
    pairs = [(0, 8), (7, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6), (8, 7), (9, 9)]
    return prof, Matching.of(pairs)


def test_is_eps_blocking_arithmetic():
    prof, m = _eps_fixture()
    # gaps are 9 - 2 = 7 and 8 - 1 = 7 against a requirement of 0.5 * 10 = 5
    assert is_eps_blocking(prof, m, (0, 0), 0.5)
    assert not is_eps_blocking(prof, m, (0, 0), 0.8)


def test_is_eps_blocking_matched_edge_false_for_positive_eps():
    prof, m = _eps_fixture()
    assert not is_eps_blocking(prof, m, (1, 1), 0.5)


def test_is_eps_blocking_zero_threshold_includes_nonnegative_gaps():
    prof, m = _eps_fixture()
    # at eps = 0 a matched edge has both gaps exactly 0, satisfying >= 0
    assert is_eps_blocking(prof, m, (1, 1), 0.0)


def test_eps_blocking_monotone_in_threshold():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(2, 8)
        orders = lambda: [rng.sample(range(n), n) for _ in range(n)]
        prof = complete_profile(orders(), orders())
        women = list(range(n))
        rng.shuffle(women)
        m = Matching.of(list(enumerate(women))[: rng.randint(0, n)])
        counts = [len(eps_blocking_pairs(prof, m, t)) for t in (0.0, 0.1, 0.3, 0.5, 1.0)]
        assert counts == sorted(counts, reverse=True)


def test_positive_threshold_blocking_is_subset_of_blocking():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(2, 8)
        orders = lambda: [rng.sample(range(n), n) for _ in range(n)]
        prof = complete_profile(orders(), orders())
        women = list(range(n))
        rng.shuffle(women)
        m = Matching.of(list(enumerate(women))[: rng.randint(0, n)])
        tight = set(eps_blocking_pairs(prof, m, 0.25))
        assert tight <= set(blocking_pairs(prof, m))


def test_classify_good_bad():
    men = (
        PlayerFinal(partner=3, remaining=(3, 4), removed=False),
        PlayerFinal(partner=None, remaining=(), removed=False),
        PlayerFinal(partner=None, remaining=(1,), removed=False),
    )
    good, bad = classify_good_bad(men)
    assert good == {0, 1}
    assert bad == {2}


def test_check_maximal_paths():
    path = bipartite(2, [(0, 0), (1, 0)])  # M0 - W0 - M1, with W1 isolated
    assert check_maximal(path, Matching.of([(0, 0)])) == frozenset()
    assert check_maximal(path, Matching.of([])) == frozenset({man(0), woman(0), man(1)})
    assert check_maximal(bipartite(1, [(0, 0)]), Matching.of([(0, 0)])) == frozenset()
    # a pair that is not an edge of the graph is refused, not counted
    with pytest.raises(InvalidMatching, match="not a mutually acceptable edge"):
        check_maximal(path, Matching.of([(1, 1)]))


def test_oracle_single_pair():
    prof = PreferenceProfile.from_lists([[0]], [[0]])
    assert gale_shapley_oracle(prof).sorted_pairs() == [(0, 0)]


def test_oracle_2x2_contested():
    prof = complete_profile([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    assert gale_shapley_oracle(prof).sorted_pairs() == [(0, 0), (1, 1)]


def brute_force_blocking(men_lists, women_lists, pairs) -> int:
    """Independent counter: scans all index pairs, woman-major, list.index."""
    n = len(men_lists)
    mp = {m: w for m, w in pairs}
    wp = {w: m for m, w in pairs}
    total = 0
    for w in range(n):
        for m in range(n):
            if w not in men_lists[m] or m not in women_lists[w]:
                continue
            if mp.get(m) == w:
                continue
            cur_w = mp.get(m)
            likes_w = cur_w is None or men_lists[m].index(w) < men_lists[m].index(cur_w)
            cur_m = wp.get(w)
            likes_m = cur_m is None or women_lists[w].index(m) < women_lists[w].index(cur_m)
            if likes_w and likes_m:
                total += 1
    return total


def all_matchings(prof):
    """Every matching of the instance, via recursion over the men."""
    n = prof.n
    out = []

    def rec(m, taken, acc):
        if m == n:
            out.append(tuple(acc))
            return
        rec(m + 1, taken, acc)
        for w in prof.men_prefs[m]:
            if w not in taken:
                acc.append((m, w))
                rec(m + 1, taken | {w}, acc)
                acc.pop()

    rec(0, frozenset(), [])
    return out


def random_instance(rng, n, p=0.6):
    mat = [[rng.random() < p for _ in range(n)] for _ in range(n)]
    men, women = [], []
    for m in range(n):
        row = [w for w in range(n) if mat[m][w]]
        rng.shuffle(row)
        men.append(row)
    for w in range(n):
        col = [m for m in range(n) if mat[m][w]]
        rng.shuffle(col)
        women.append(col)
    return PreferenceProfile.from_lists(men, women)


def random_matching(rng, prof):
    shuffled = edges(prof)
    rng.shuffle(shuffled)
    used_m, used_w, pairs = set(), set(), []
    for m, w in shuffled:
        if m not in used_m and w not in used_w and rng.random() < 0.7:
            pairs.append((m, w))
            used_m.add(m)
            used_w.add(w)
    return Matching.of(pairs)


def test_counter_agrees_with_brute_force_sample():
    rng = random.Random(17)
    for _ in range(150):
        prof = random_instance(rng, rng.randint(1, 7))
        m = random_matching(rng, prof)
        expect = brute_force_blocking(
            [list(l) for l in prof.men_prefs], [list(l) for l in prof.women_prefs], m.pairs
        )
        assert len(blocking_pairs(prof, m)) == expect


def _definition_gains(prof, matching):
    """(m, w, m's gain, w's gain) for every edge, where a gain is the current
    partner's rank (deg + 1 when unmatched) minus the other endpoint's rank."""
    mp = dict(matching.pairs)
    wp = {w: m for m, w in matching.pairs}

    def gain(lst, partner, other):
        cur = len(lst) + 1 if partner is None else lst.index(partner) + 1
        return cur - (lst.index(other) + 1)

    for m, lst in enumerate(prof.men_prefs):
        for w in lst:
            yield m, w, gain(lst, mp.get(m), w), gain(prof.women_prefs[w], wp.get(w), m)


@st.composite
def _profile_and_matching(draw):
    """A small symmetric profile (isolated players allowed) and a random partial matching on it."""
    n = draw(st.integers(1, 6))
    edges = sorted(draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))))
    men = [draw(st.permutations([w for m2, w in edges if m2 == m])) for m in range(n)]
    women = [draw(st.permutations([m for m, w2 in edges if w2 == w])) for w in range(n)]
    used_m, used_w, pairs = set(), set(), []
    for m, w in draw(st.permutations(edges)):
        if m not in used_m and w not in used_w and draw(st.booleans()):
            pairs.append((m, w))
            used_m.add(m)
            used_w.add(w)
    extra = draw(st.floats(allow_nan=False, allow_infinity=False))
    return PreferenceProfile(n, tuple(map(tuple, men)), tuple(map(tuple, women))), Matching.of(pairs), extra


@settings(max_examples=300, deadline=None)
@given(_profile_and_matching())
def test_blocking_scans_equal_the_definition(case):
    prof, m, extra = case
    gains = list(_definition_gains(prof, m))
    assert blocking_pairs(prof, m) == [(i, j) for i, j, gi, gj in gains if gi > 0 and gj > 0]
    assert count_blocking_pairs(prof, m) == len(blocking_pairs(prof, m))
    degrees = {len(lst) for lst in prof.men_prefs + prof.women_prefs} - {0}
    # 0, 1, the tight thresholds 2/k, every eps with an integer eps * deg, and one arbitrary value
    thresholds = [0.0, 1.0, *(2 / k for k in range(1, 13)), *(a / d for d in degrees for a in range(-d, d + 2)), extra]
    for eps in thresholds:
        expected = [
            (i, j) for i, j, gi, gj in gains
            if gi >= eps * len(prof.men_prefs[i]) and gj >= eps * len(prof.women_prefs[j])
        ]
        assert eps_blocking_pairs(prof, m, eps) == expected
        assert count_blocking_pairs(prof, m, eps) == len(expected)
        assert [e for e in edges(prof) if is_eps_blocking(prof, m, e, eps)] == expected


def test_scans_follow_each_new_matching_on_one_profile():
    # one profile scanned under many matchings: each scan reads its own matching's partners
    prof = generate(GeneratorSpec.parse("complete", n=4, seed=1))
    for perm in itertools.permutations(range(4)):
        for size in (0, 2, 4):
            m = Matching.of(list(enumerate(perm))[:size])
            gains = list(_definition_gains(prof, m))
            assert blocking_pairs(prof, m) == [(i, j) for i, j, gi, gj in gains if gi > 0 and gj > 0]
            assert eps_blocking_pairs(prof, m, 0.5) == [(i, j) for i, j, gi, gj in gains if gi >= 2 and gj >= 2]
    sparse = PreferenceProfile.from_lists([[0], []], [[0], []])
    assert blocking_pairs(sparse, Matching.of([(0, 0)])) == []
    with pytest.raises(InvalidMatching):
        blocking_pairs(sparse, Matching.of([(1, 1)]))


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf")])
def test_eps_blocking_rejects_non_finite_threshold(eps):
    prof, m = _eps_fixture()
    with pytest.raises(ValueError, match="finite"):
        eps_blocking_pairs(prof, m, eps)
    with pytest.raises(ValueError, match="finite"):
        count_blocking_pairs(prof, m, eps)


def _isolating(prof, m, w):
    """``prof`` with every edge of man m and of woman w removed, so both are isolated."""
    men = [() if i == m else tuple(x for x in lst if x != w) for i, lst in enumerate(prof.men_prefs)]
    women = [() if j == w else tuple(x for x in lst if x != m) for j, lst in enumerate(prof.women_prefs)]
    return PreferenceProfile(prof.n, tuple(men), tuple(women))


def test_scans_equal_the_definition_on_every_kind_of_head():
    # n 8-16, where a woman's head is a set (a list under n/4), a flag row (a longer
    # list's partial head) or the shared all-ones row (her whole list), and some players
    # are isolated; test_blocking_scans_equal_the_definition stops at n 6, where few
    # lists are short
    rng = random.Random(30)
    kinds = set()
    for family, n, seed in itertools.product(("bounded:3", "random:0.3", "complete"), (8, 12, 16), range(3)):
        prof = generate(GeneratorSpec.parse(family, n=n, seed=seed))
        if seed:
            prof = _isolating(prof, rng.randrange(n), rng.randrange(n))
        for m in (random_matching(rng, prof), random_matching(rng, prof), Matching.of([])):
            gains = list(_definition_gains(prof, m))
            degrees = {len(lst) for lst in prof.men_prefs + prof.women_prefs} - {0}
            thresholds = [0.0, 1.0, *(2 / k for k in range(1, 13)), *(a / d for d in degrees for a in range(-d, d + 2))]
            for eps in (None, *thresholds):
                if eps is None:
                    expected = [(i, j) for i, j, gi, gj in gains if gi > 0 and gj > 0]
                    assert blocking_pairs(prof, m) == expected
                else:
                    expected = [
                        (i, j) for i, j, gi, gj in gains
                        if gi >= eps * len(prof.men_prefs[i]) and gj >= eps * len(prof.women_prefs[j])
                    ]
                    assert eps_blocking_pairs(prof, m, eps) == expected
                assert count_blocking_pairs(prof, m, eps) == len(expected)
                kinds.update(type(head).__name__ for head in _heads(prof, m, eps)[1])
    assert kinds == {"bytes", "bytearray", "_ShortHead"}


def test_long_heads_are_flag_rows():
    # every other pair of the stable matching leaves half the women unmatched: on
    # complete n=512 at eps 0.125 their heads hold about 7/8 of the men, 8.67 MiB traced
    # as sets and about 0.3 MiB as rows of n flags; bounded:8 n=4096 has no list of
    # n/4 partners, keeps its sets and stays near 0.66 MiB
    cases = ((GeneratorSpec("complete", 512, seed=0), 2**20), (GeneratorSpec("bounded", 4096, seed=0, d=8), 1.5 * 2**20))
    for spec, bound in cases:
        prof = generate(spec)
        m = Matching.of(gale_shapley_oracle(prof).sorted_pairs()[::2])
        for eps in (0.125, None):
            assert traced_peak(count_blocking_pairs, prof, m, eps)[0] <= bound
            assert count_blocking_pairs(prof, m, eps) == len(
                blocking_pairs(prof, m) if eps is None else eps_blocking_pairs(prof, m, eps))


def test_counting_builds_no_pair_list():
    # every other pair of a stable matching leaves about 0.3 |E| blocking pairs; listing
    # them as tuples on top of the head sets peaked at about 41 bytes per edge
    prof = generate(GeneratorSpec.parse("complete", n=256, seed=0))
    m = Matching.of(gale_shapley_oracle(prof).sorted_pairs()[::2])
    expected = (len(blocking_pairs(prof, m)), len(eps_blocking_pairs(prof, m, 0.125)))
    tracemalloc.start()
    try:
        assert (count_blocking_pairs(prof, m), count_blocking_pairs(prof, m, 0.125)) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30 * prof.num_edges


def test_oracle_stable_and_man_optimal_exhaustively():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(1, 5)
        prof = random_instance(rng, n)
        oracle = gale_shapley_oracle(prof)
        assert len(blocking_pairs(prof, oracle)) == 0
        stable = [
            mm
            for mm in all_matchings(prof)
            if brute_force_blocking(
                [list(l) for l in prof.men_prefs], [list(l) for l in prof.women_prefs], mm
            )
            == 0
        ]
        assert tuple(sorted(oracle.pairs)) in {tuple(sorted(s)) for s in stable}
        # man-optimal: each man does at least as well as in any stable matching
        for s in stable:
            partners = dict(s)
            for m in range(n):
                deg = len(prof.men_prefs[m])
                mine = oracle.man_partner.get(m)
                mine_rank = prof.men_prefs[m].index(mine) if mine is not None else deg
                other = partners.get(m)
                other_rank = prof.men_prefs[m].index(other) if other is not None else deg
                assert mine_rank <= other_rank


def test_all_men_sharing_one_ranking_is_serial_assignment():
    # every man ranks women 0, 1, 2; each woman takes her favorite among the
    # proposers that cascade down, so w0 gets her top man, then w1 picks from
    # the rest, and so on
    men = [[0, 1, 2]] * 3
    women = [[2, 0, 1], [1, 2, 0], [0, 1, 2]]
    prof = complete_profile(men, women)
    oracle = gale_shapley_oracle(prof)
    assert len(blocking_pairs(prof, oracle)) == 0
    assert oracle.woman_partner[0] == 2
    remaining = [0, 1]
    assert oracle.woman_partner[1] == 1  # w1's favorite among {0, 1}
    assert oracle.woman_partner[2] == 0


def test_report_serializes_to_json():
    import json

    from matchsim import GeneratorSpec, generate, run_algorithm, verify_run

    prof = generate(GeneratorSpec.parse("complete", n=8, seed=0))
    rep = verify_run(prof, run_algorithm(prof, "asm:0.5"))
    parsed = json.loads(rep.to_json())
    assert parsed["blocking_pairs"] == rep.blocking_pairs
    assert set(parsed["bounds"]) == {"thm41", "lemma42", "lemma43", "lemma44", "lemma45", "lemma47"}
    assert parsed["tight_blocking_pairs"] + parsed["loose_blocking_pairs"] == parsed["blocking_pairs"]


def test_report_bounds_follow_the_claim_table():
    # an asm run is checked against every claim, in the table's order; deferred acceptance only against thm41
    prof = generate(GeneratorSpec.parse("complete", n=8, seed=0))
    assert list(verify_run(prof, run_algorithm(prof, "asm:0.5")).bounds) == list(CLAIMS)
    assert list(verify_run(prof, run_algorithm(prof, "gs")).bounds) == ["thm41"]


def _listed_report(profile, run):
    """Reference verifier that lists every pair before counting it: the tight pairs
    split by the men's class, the loose pairs as a set difference, and each bad man's
    tight partners. Returns the counts and each claim's (bound, observed, passed)."""
    params, edges = run.params, profile.num_edges
    eps = params.eps if params is not None else 0.0
    blocking = blocking_pairs(profile, run.matching)
    good, bad = classify_good_bad(run.men)
    claims = {"thm41": (eps * edges, len(blocking), len(blocking) <= eps * edges + 1e-9)}
    tight = []
    if params is not None:
        k = params.k
        tight = eps_blocking_pairs(profile, run.matching, 2.0 / k)
        tight_set = set(tight)
        loose = [e for e in blocking if e not in tight_set]
        tight_good = [e for e in tight if e[0] in good]
        tight_bad = [e for e in tight if e[0] in bad]
        partners = {}
        for m, w in tight_bad:
            partners.setdefault(m, set()).add(w)
        local = sum(not ws.issubset(run.men[m].remaining) for m, ws in partners.items())
        failing = [r for r in run.outer_records if not r.check.passed]
        bound44 = 4 * params.delta * edges
        claims.update(
            lemma42=(0, len(tight_good), not tight_good),
            lemma43=(4 * edges / k, len(loose), len(loose) <= 4 * edges / k + 1e-9),
            lemma44=(bound44, len(tight_bad), len(tight_bad) <= bound44 + 1e-9),
            lemma45=(0, len(failing), not failing),
            lemma47=(0, local, local == 0),
        )
    counts = (len(blocking), len(tight), len(blocking) - len(tight), good, bad)
    return counts, claims


def _report_counts(report):
    counts = (report.blocking_pairs, report.tight_blocking_pairs, report.loose_blocking_pairs,
              report.good_men, report.bad_men)
    # the bound's type too: an int 0 and a float 0.0 print differently in the report's JSON
    claims = {name: (c.bound, c.observed, c.passed) for name, c in report.bounds.items()}
    types = {name: (type(c.bound), type(c.observed)) for name, c in report.bounds.items()}
    return counts, claims, types


def _finished_run(profile, matching, men, eps, outer_records=()):
    """A RunResult carrying just what the verifier reads."""
    n = profile.n
    return RunResult(
        algorithm="test", matching=matching, trace=RoundTrace(), men=tuple(men),
        women=tuple(PlayerFinal(None, (), False) for _ in range(n)),
        params=None if eps is None else AsmParams.for_instance(eps, n),
        outer_records=tuple(outer_records), violations=(),
    )


@st.composite
def _finished_runs(draw):
    """A small profile with an arbitrary matching and arbitrary final states for its men."""
    prof, m, _ = draw(_profile_and_matching())
    men = []
    for lst in prof.men_prefs:
        kept = draw(st.lists(st.booleans(), min_size=len(lst), max_size=len(lst)))
        partner = draw(st.none() | st.sampled_from(lst)) if lst else None
        men.append(PlayerFinal(partner, tuple(w for w, keep in zip(lst, kept) if keep), draw(st.booleans())))
    eps = draw(st.none() | st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]))
    records = [OuterRecord(i, 1, BoundCheck(0.5, 1, passed)) for i, passed in enumerate(draw(st.lists(st.booleans(), max_size=3)))]
    return prof, _finished_run(prof, m, men, eps, records)


@settings(max_examples=300, deadline=None)
@given(_finished_runs())
def test_verify_run_counts_equal_the_listing_reference(case):
    prof, run = case
    counts, claims = _listed_report(prof, run)
    got_counts, got_claims, types = _report_counts(verify_run(prof, run))
    assert got_counts == counts
    assert got_claims == claims
    assert types == {name: (type(bound), type(observed)) for name, (bound, observed, _) in claims.items()}


def test_verify_run_counts_every_claim_it_can_break():
    # complete n=5 with shared orders and nobody matched: every edge blocks, and at eps = 1
    # (k = 8) a tight pair needs a gain of ceil(5 / 4) = 2 on both sides, so the 9 edges
    # at a man's or a woman's last place are loose and the 16 others are tight
    prof = complete_profile([list(range(5))] * 5, [list(range(5))] * 5)
    men = [
        PlayerFinal(None, (), False),  # good: exhausted, yet tight with women 0..3
        PlayerFinal(None, tuple(range(5)), False),  # bad, every tight partner on his list
        PlayerFinal(None, (0,), False),  # bad, tight partners 1..3 off his list
        PlayerFinal(None, (4,), False),  # bad, tight partners 0..3 off his list
        PlayerFinal(None, (0,), False),  # bad, last on every list: no tight pair
    ]
    run = _finished_run(prof, Matching.of([]), men, 1.0, [OuterRecord(0, 5, BoundCheck.of(0.625, 4))])
    report = verify_run(prof, run)
    assert (report.blocking_pairs, report.tight_blocking_pairs, report.loose_blocking_pairs) == (25, 16, 9)
    observed = {name: c.observed for name, c in report.bounds.items()}
    assert observed == {"thm41": 25, "lemma42": 4, "lemma43": 9, "lemma44": 12, "lemma45": 1, "lemma47": 2}
    passed = {name for name, c in report.bounds.items() if c.passed}
    assert passed == {"thm41", "lemma43", "lemma44"}
    assert _report_counts(report)[:2] == _listed_report(prof, run)


def test_binomial_ci_basics():
    lo, hi = binomial_ci(0, 100)
    assert lo == 0.0 and hi < 0.1
    lo, hi = binomial_ci(50, 100)
    assert lo < 0.5 < hi
    assert rate_within_claim(0, 200, 0.1)
    assert rate_within_claim(25, 200, 0.1)  # 12.5% observed, CI reaches 0.1
    assert not rate_within_claim(80, 200, 0.1)
    with pytest.raises(ValueError):
        binomial_ci(5, 0)
