"""Acceptance suite: every shipped guarantee exercised at its stated tolerance.

Criteria 1-5 share one deterministic sweep (200 instances per family across
three families, sizes 16/32/64, budgets 1/0.5/0.25). Deterministic guarantees
are exact with zero tolerance; randomized guarantees use two-sided 99%
binomial confidence intervals and fail only when the interval's lower bound
exceeds the claimed rate. One PASS/FAIL line prints per criterion.
"""

import itertools
import random

import pytest

from helpers import bipartite, rate_within_claim, vertex_count
from matchsim import (
    AlgorithmSpec,
    GeneratorSpec,
    Matching,
    MatchingSubroutineSpec,
    PreferenceProfile,
    blocking_pairs,
    gale_shapley_oracle,
    generate,
    iterations_for_maximal,
    maximal_matching,
    run_algorithm,
    verify_run,
)

FAMILIES = ("complete", "random:0.25", "random:0.5")
SIZES = (16, 32, 64)
BUDGETS = (1.0, 0.5, 0.25)
RUNS_PER_FAMILY = 200


def report(num: int, label: str, passed: bool, detail: str = "") -> None:
    line = f"[acceptance] criterion {num:>2}: {'PASS' if passed else 'FAIL'} - {label}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert passed, line


@pytest.fixture(scope="session")
def det_sweep():
    """Criterion 1's run set: (family, n, eps, result, report) per run."""
    combos = [(n, e) for n in SIZES for e in BUDGETS]
    runs = []
    for fam in FAMILIES:
        for i in range(RUNS_PER_FAMILY):
            n, eps = combos[i % len(combos)]
            prof = generate(GeneratorSpec.parse(fam, n=n, seed=10_000 + i))
            res = run_algorithm(prof, AlgorithmSpec("asm", eps), seed=i)
            rep = verify_run(prof, res)
            runs.append((fam, n, eps, res, rep))
    return runs


@pytest.fixture(scope="session")
def rand_sweep():
    """Criterion 10's run set: 200 seeded randomized runs on complete n=64."""
    out = []
    for seed in range(200):
        prof = generate(GeneratorSpec.parse("complete", n=64, seed=seed))
        res = run_algorithm(prof, "randasm:0.5,0.1", seed=seed)
        out.append((prof, res))
    return out


def test_criterion_01_total_blocking_budget(det_sweep):
    failures = [
        (fam, n, eps, rep.blocking_pairs, rep.bounds["thm41"].bound)
        for fam, n, eps, res, rep in det_sweep
        if not rep.bounds["thm41"].passed
    ]
    worst = max(
        (rep.blocking_pairs / rep.bounds["thm41"].bound if rep.bounds["thm41"].bound else 0.0)
        for _, _, _, _, rep in det_sweep
    )
    report(
        1,
        "blocking pairs <= eps*|E| on every deterministic run",
        not failures,
        f"{len(det_sweep)} runs, worst budget use {worst:.3f}, failures {failures[:3]}",
    )


def test_criterion_02_good_men_have_no_tight_blocking_pairs(det_sweep):
    bad = [r for _, _, _, _, r in det_sweep if not r.bounds["lemma42"].passed]
    total = sum(r.bounds["lemma42"].observed for _, _, _, _, r in det_sweep)
    report(
        2,
        "zero tight blocking pairs incident to good men",
        not bad and total == 0,
        f"summed offenders {total}",
    )


def test_criterion_03_loose_blocking_pairs_bounded(det_sweep):
    bad = [r for _, _, _, _, r in det_sweep if not r.bounds["lemma43"].passed]
    report(
        3,
        "blocking pairs that are not tight number <= 4|E|/k",
        not bad,
        f"{len(det_sweep)} runs",
    )


def test_criterion_04_bad_men_tight_blocking_bounded(det_sweep):
    bad = [r for _, _, _, _, r in det_sweep if not r.bounds["lemma44"].passed]
    report(
        4,
        "tight blocking pairs incident to bad men number <= 4*delta*|E|",
        not bad,
        f"{len(det_sweep)} runs",
    )


def test_criterion_05_runtime_invariants_clean(det_sweep):
    # strict mode raises on violation, so reaching here already means the
    # in-run checks held; the logs and per-rung records must agree
    dirty = [res.violations for _, _, _, res, _ in det_sweep if res.violations]
    rung_failures = [
        rec for _, _, _, res, _ in det_sweep for rec in res.outer_records if not rec.check.passed
    ]
    report(
        5,
        "partner-monotonicity / active-set / bad-fraction assertions never fired",
        not dirty and not rung_failures,
        f"{sum(len(res.outer_records) for _, _, _, res, _ in det_sweep)} rung records checked",
    )


def test_criterion_06_deferred_acceptance_equivalence():
    rng = random.Random(77)
    mismatches = 0
    blocking = 0
    for i in range(200):
        n = (8, 16, 32, 64)[i % 4]
        fam = "complete" if i % 2 else "random:0.5"
        prof = generate(GeneratorSpec.parse(fam, n=n, seed=rng.randrange(1 << 30)))
        res = run_algorithm(prof, "gs")
        if res.matching.pairs != gale_shapley_oracle(prof).pairs:
            mismatches += 1
        if blocking_pairs(prof, res.matching):
            blocking += 1
    report(
        6,
        "distributed deferred acceptance is stable and equals the oracle",
        mismatches == 0 and blocking == 0,
        f"200 instances, {mismatches} mismatches, {blocking} unstable",
    )


def _brute_blocking(men_lists, women_lists, pairs) -> int:
    mp = {m: w for m, w in pairs}
    wp = {w: m for m, w in pairs}
    n = len(men_lists)
    total = 0
    for w in range(n):
        for m in range(n):
            if w not in men_lists[m] or m not in women_lists[w]:
                continue
            if mp.get(m) == w:
                continue
            cw = mp.get(m)
            cm = wp.get(w)
            if (cw is None or men_lists[m].index(w) < men_lists[m].index(cw)) and (
                cm is None or women_lists[w].index(m) < women_lists[w].index(cm)
            ):
                total += 1
    return total


def _random_instance(rng, n, p):
    mat = [[rng.random() < p for _ in range(n)] for _ in range(n)]
    men = []
    women = []
    for m in range(n):
        row = [w for w in range(n) if mat[m][w]]
        rng.shuffle(row)
        men.append(row)
    for w in range(n):
        col = [m for m in range(n) if mat[m][w]]
        rng.shuffle(col)
        women.append(col)
    return PreferenceProfile.from_lists(men, women)


def test_criterion_07_blocking_counter_cross_checked():
    rng = random.Random(123)
    disagreements = 0
    for _ in range(1000):
        prof = _random_instance(rng, rng.randint(1, 8), rng.choice((0.4, 0.7, 1.0)))
        edges = [(m, w) for m, lst in enumerate(prof.men_prefs) for w in lst]
        rng.shuffle(edges)
        used_m, used_w, pairs = set(), set(), []
        for m, w in edges:
            if m not in used_m and w not in used_w and rng.random() < 0.7:
                pairs.append((m, w))
                used_m.add(m)
                used_w.add(w)
        got = len(blocking_pairs(prof, Matching.of(pairs)))
        want = _brute_blocking(
            [list(l) for l in prof.men_prefs], [list(l) for l in prof.women_prefs], pairs
        )
        if got != want:
            disagreements += 1

    # exhaustive: on complete instances every stable matching is perfect, so
    # scanning all n! permutations finds them all
    mislabeled = 0
    stable_seen = 0
    for trial in range(30):
        n = 2 + trial % 4  # 2..5
        prof = _random_instance(rng, n, 1.0)
        men_lists = [list(l) for l in prof.men_prefs]
        women_lists = [list(l) for l in prof.women_prefs]
        found_stable = 0
        for perm in itertools.permutations(range(n)):
            pairs = list(enumerate(perm))
            brute = _brute_blocking(men_lists, women_lists, pairs)
            counted = len(blocking_pairs(prof, Matching.of(pairs)))
            if counted != brute:
                mislabeled += 1
            if brute == 0:
                found_stable += 1
                if counted != 0:
                    mislabeled += 1
        stable_seen += found_stable
        if found_stable == 0:
            mislabeled += 1  # deferred acceptance guarantees at least one
    report(
        7,
        "counter agrees with an independent brute force",
        disagreements == 0 and mislabeled == 0,
        f"1000 random pairs, {stable_seen} stable matchings enumerated",
    )


def _er_bipartite(n_side, p, rng):
    return bipartite(n_side, [(m, w) for m in range(n_side) for w in range(n_side) if rng.random() < p])


def test_criterion_08_single_round_shrinkage():
    rng = random.Random(5150)
    ratios = []
    while len(ratios) < 1000:
        g = _er_bipartite(40, 0.15, rng)
        live = vertex_count(g)
        if live < 64:
            continue
        res = maximal_matching(g, MatchingSubroutineSpec("rand", 1), seed=len(ratios))
        ratios.append(len(res.residual_vertices) / live)
    mean = sum(ratios) / len(ratios)
    report(
        8,
        "mean vertex survival of one matching round <= 0.97",
        mean <= 0.97,
        f"mean {mean:.4f} over {len(ratios)} graphs",
    )


def test_criterion_09_iterated_rounds_reach_maximality():
    s = iterations_for_maximal(128, eta=0.05)
    rng = random.Random(99)
    fails = 0
    trials = 500
    for seed in range(trials):
        g = _er_bipartite(64, 0.2, rng)
        res = maximal_matching(g, MatchingSubroutineSpec("rand", s), seed=seed)
        if not res.maximal:
            fails += 1
    ok = rate_within_claim(fails, trials, 0.05)
    report(
        9,
        f"non-maximality rate with s={s} within the 0.05 claim",
        ok,
        f"{fails}/{trials} failures",
    )


def test_criterion_10_randomized_stability_rate(rand_sweep):
    violations = 0
    for prof, res in rand_sweep:
        if len(blocking_pairs(prof, res.matching)) > 0.5 * prof.num_edges:
            violations += 1
    ok = rate_within_claim(violations, len(rand_sweep), 0.1)
    report(
        10,
        "randomized variant exceeds eps*|E| within the 0.1 failure budget",
        ok,
        f"{violations}/{len(rand_sweep)} violations",
    )


def test_criterion_11_flat_variant_constant_rounds():
    rounds = {}
    for n in (32, 64, 128, 256):
        prof = generate(GeneratorSpec.parse("complete", n=n, seed=0))
        res = run_algorithm(prof, "aregasm:0.5,0.1,1", seed=0)
        rounds[n] = res.trace.rounds
    ratio = max(rounds.values()) / min(rounds.values())

    violations = 0
    trials = 200
    for seed in range(trials):
        prof = generate(GeneratorSpec.parse("complete", n=64, seed=seed))
        res = run_algorithm(prof, "aregasm:0.5,0.1,1", seed=seed)
        if len(blocking_pairs(prof, res.matching)) > 0.5 * prof.num_edges:
            violations += 1
    stat_ok = rate_within_claim(violations, trials, 0.1)
    report(
        11,
        "flat variant rounds independent of n and stability within budget",
        ratio <= 1.5 and stat_ok,
        f"rounds {rounds}, max/min {ratio:.3f}, {violations}/{trials} violations",
    )


def test_criterion_12_randomized_round_growth_sublinear():
    rounds = {}
    for n in (64, 128, 256, 512):
        prof = generate(GeneratorSpec.parse("bounded:8", n=n, seed=0))
        res = run_algorithm(prof, "randasm:0.5,0.1", seed=0)
        rounds[n] = res.trace.rounds
    ratios = [rounds[2 * n] / rounds[n] for n in (64, 128, 256)]
    report(
        12,
        "randomized rounds grow sublinearly in n",
        all(r <= 1.5 for r in ratios),
        f"rounds {rounds}, doubling ratios {[f'{r:.3f}' for r in ratios]}",
    )
