"""Verifier: blocking-pair enumeration, thresholded blocking, classification,
maximality, the centralized oracle, and statistics helpers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchsim import (
    InvalidMatching,
    Matching,
    PlayerFinal,
    PreferenceProfile,
    binomial_ci,
    blocking_pairs,
    check_maximal,
    classify_good_bad,
    count_blocking_pairs,
    eps_blocking_pairs,
    gale_shapley_oracle,
    is_eps_blocking,
    man,
    rate_within_claim,
    woman,
)


def complete_profile(men_orders, women_orders):
    return PreferenceProfile.from_lists(men_orders, women_orders)


def test_blocking_pairs_crossed_2x2():
    # everyone prefers partner index 0; the crossed matching leaves (0, 0)
    prof = complete_profile([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    m = Matching.of([(0, 1), (1, 0)])
    assert blocking_pairs(prof, m) == [(0, 0)]


def test_blocking_pairs_stable_is_zero():
    prof = complete_profile([[0, 1], [0, 1]], [[0, 1], [0, 1]])
    assert count_blocking_pairs(prof, Matching.of([(0, 0), (1, 1)])) == 0


def test_blocking_pairs_empty_matching_counts_all_edges():
    # unmatched players prefer any acceptable partner, so every edge blocks
    prof = complete_profile([[0, 1], [1, 0]], [[0, 1], [1, 0]])
    assert count_blocking_pairs(prof, Matching.of([])) == 4


def test_blocking_pairs_adversarial_3x3_fixture():
    # identical assortative lists with the anti-assortative matching: the
    # nine edges hand-enumerate to exactly three blocking pairs
    prof = complete_profile([[0, 1, 2]] * 3, [[0, 1, 2]] * 3)
    m = Matching.of([(0, 2), (1, 1), (2, 0)])
    assert sorted(blocking_pairs(prof, m)) == [(0, 0), (0, 1), (1, 0)]
    assert count_blocking_pairs(prof, m) == 3


def test_blocking_pairs_rejects_non_edge():
    prof = PreferenceProfile.from_lists([[0], []], [[0], []])
    with pytest.raises(InvalidMatching):
        blocking_pairs(prof, Matching.of([(1, 1)]))


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
        PlayerFinal(partner=3, remaining=frozenset({3, 4}), removed=False),
        PlayerFinal(partner=None, remaining=frozenset(), removed=False),
        PlayerFinal(partner=None, remaining=frozenset({1}), removed=False),
    )
    good, bad = classify_good_bad(men)
    assert good == {0, 1}
    assert bad == {2}


def test_check_maximal_paths():
    path = {
        man(0): {woman(0)},
        woman(0): {man(0), man(1)},
        man(1): {woman(0)},
    }
    assert check_maximal(path, Matching.of([(0, 0)])).maximal
    rep = check_maximal(path, Matching.of([]))
    assert not rep.maximal
    assert rep.violators == frozenset({man(0), woman(0), man(1)})
    assert rep.violation_fraction == 1.0
    perfect = {man(0): {woman(0)}, woman(0): {man(0)}}
    assert check_maximal(perfect, Matching.of([(0, 0)])).maximal


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
    edges = list(prof.edges())
    rng.shuffle(edges)
    used_m, used_w, pairs = set(), set(), []
    for m, w in edges:
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
        assert count_blocking_pairs(prof, m) == expect


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
    degrees = {len(lst) for lst in prof.men_prefs + prof.women_prefs} - {0}
    # 0, 1, the tight thresholds 2/k, every eps with an integer eps * deg, and one arbitrary value
    thresholds = [0.0, 1.0, *(2 / k for k in range(1, 13)), *(a / d for d in degrees for a in range(-d, d + 2)), extra]
    for eps in thresholds:
        expected = [
            (i, j) for i, j, gi, gj in gains
            if gi >= eps * len(prof.men_prefs[i]) and gj >= eps * len(prof.women_prefs[j])
        ]
        assert eps_blocking_pairs(prof, m, eps) == expected
        assert [e for e in prof.edges() if is_eps_blocking(prof, m, e, eps)] == expected


@pytest.mark.parametrize("eps", [float("nan"), float("inf"), float("-inf")])
def test_eps_blocking_rejects_non_finite_threshold(eps):
    prof, m = _eps_fixture()
    with pytest.raises(ValueError, match="finite"):
        eps_blocking_pairs(prof, m, eps)


def test_oracle_stable_and_man_optimal_exhaustively():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(1, 5)
        prof = random_instance(rng, n)
        oracle = gale_shapley_oracle(prof)
        assert count_blocking_pairs(prof, oracle) == 0
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
    assert count_blocking_pairs(prof, oracle) == 0
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
