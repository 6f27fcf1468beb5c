"""Core model: quantization, ranks, profiles, matchings."""

import json
import random
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import traced_peak
from matchsim import (
    AlgorithmSpec,
    GeneratorSpec,
    InvalidMatching,
    InvalidProfile,
    Matching,
    MatchingSubroutineSpec,
    PreferenceProfile,
    Side,
    count_blocking_pairs,
    generate,
    man,
    woman,
)
from matchsim import model
from matchsim.workbench import load_instance


def quantize(order, k):
    """A quantized list over its own rank table, the table a profile would give it."""
    return model.quantize(order, k, dict(zip(order, range(1, len(order) + 1))))


def _copy(q):
    """A quantized list over q's list and rank row with q's flags, for a read that removes."""
    c = model.quantize(q.order, q.k, q.rank_of)
    c.live[:] = q.live
    return c


def _buckets(q):
    """The remaining partners of each quantile 1..k, in rank order, read through
    ``remove_from`` on a copy of q and ``quantile``."""
    return [[p for p in _copy(q).remove_from(i) if q.quantile(p) == i] for i in range(1, q.k + 1)]


def test_quantize_exact_division():
    q = quantize(list(range(100, 108)), 4)
    assert [len(b) for b in _buckets(q)] == [2, 2, 2, 2]
    # ranks 1 and 2 land in the first bucket
    assert q.best_nonempty_bucket() == [100, 101]


def test_quantize_ragged_division():
    q = quantize([10, 11, 12, 13, 14], 4)
    assert [q.quantile(p) for p in q.order] == [1, 2, 3, 4, 4]
    assert [len(b) for b in _buckets(q)] == [1, 1, 1, 2]


def test_quantize_fewer_partners_than_buckets():
    q = quantize([7, 8, 9], 8)
    assert [q.quantile(p) for p in q.order] == [3, 6, 8]
    sizes = [len(b) for b in _buckets(q)]
    assert sizes == [0, 0, 1, 0, 0, 1, 0, 1]


def test_quantize_empty_list():
    q = quantize([], 4)
    assert q.best_nonempty_bucket() == []
    assert not q.remaining
    assert q.remove_from(1) == [] and len(q) == 0


def test_quantize_rejects_bad_k():
    with pytest.raises(ValueError):
        quantize([1, 2], 0)


def test_quantize_order_preserving_and_balanced():
    rng = random.Random(7)
    for _ in range(200):
        deg = rng.randint(1, 40)
        k = rng.randint(1, 12)
        q = quantize(list(range(deg)), k)
        # quantile index is non-decreasing in rank
        quantiles = [q.quantile(p) for p in q.order]
        assert all(a <= b for a, b in zip(quantiles, quantiles[1:]))
        # every bucket holds contiguous ranks
        flat = [p for b in _buckets(q) for p in b]
        assert flat == list(range(deg))
        if deg >= k:
            sizes = [len(b) for b in _buckets(q)]
            assert max(sizes) - min(sizes) <= 1
            assert all(s in (deg // k, deg // k + (1 if deg % k else 0)) for s in sizes)
            assert all(s >= 1 for s in sizes)


def test_quantize_same_bucket_width_bound():
    # two partners in one bucket differ in rank by less than 2 deg / k
    rng = random.Random(13)
    for _ in range(300):
        deg = rng.randint(1, 40)
        k = rng.randint(1, 12)
        q = quantize(list(range(deg)), k)
        for b in _buckets(q):
            if len(b) >= 2:
                spread = q.rank_of[b[-1]] - q.rank_of[b[0]]
                assert spread < 2 * deg / k


def test_quantize_removal_only():
    q = quantize([5, 6, 7, 8], 2)
    q.remove(6)
    assert 6 not in q.remaining and 6 not in q
    assert q.best_nonempty_bucket() == [5]
    with pytest.raises(KeyError):
        q.remove(6)
    q.remove(5)
    # the best bucket is now quantile 2's; dropping it from quantile 2 on empties the list
    assert q.best_nonempty_bucket() == [7, 8] and q.quantile(7) == 2
    assert q.remove_from(2) == [7, 8]
    assert q.best_nonempty_bucket() == [] and len(q) == 0 and not q.remaining


@pytest.mark.parametrize("index", [0, -1, 4, 5])
def test_remove_from_refuses_a_quantile_index_outside_one_to_k(index):
    # below 1 the start rank would wrap or drop the wrong partners, and past k + 1 the
    # clear's length goes negative; each is refused before any flag changes
    q = quantize([0, 1, 2, 3, 4, 5], 3)
    q.remove(1)
    live = bytes(q.live)
    with pytest.raises(ValueError, match=f"quantile index {index} is outside 1..3"):
        q.remove_from(index)
    assert bytes(q.live) == live and q.remaining == (0, 2, 3, 4, 5)


class _ReferenceQuantized:
    """Naive list-of-buckets model of QuantizedPrefs, for the property test."""

    def __init__(self, order, k):
        deg = len(order)
        self.k = k
        self.quantile_of = {}
        self.buckets = [[] for _ in range(k)]
        for r, p in enumerate(order, start=1):
            q = next(q for q in range(1, k + 1) if q * deg >= r * k)
            self.quantile_of[p] = q
            self.buckets[q - 1].append(p)

    def remove_many(self, partners):
        if len(set(partners)) < len(partners) or any(p not in self.buckets[self.quantile_of[p] - 1] for p in partners):
            raise KeyError(partners)
        for p in partners:
            self.buckets[self.quantile_of[p] - 1].remove(p)

    def best_nonempty_index(self):
        return next((i + 1 for i, b in enumerate(self.buckets) if b), None)

    def at_or_worse(self, q):
        return [p for b in self.buckets[q - 1 :] for p in b]


@st.composite
def _quantize_case(draw):
    shape = draw(st.sampled_from(["deg=0", "deg<k", "k=deg", "k=1", "any"]))
    if shape == "deg=0":
        deg, k = 0, draw(st.integers(1, 6))
    elif shape == "deg<k":
        deg = draw(st.integers(1, 10))
        k = draw(st.integers(deg + 1, 3 * deg + 1))
    elif shape == "k=deg":
        deg = draw(st.integers(1, 16))
        k = deg
    elif shape == "k=1":
        deg, k = draw(st.integers(1, 16)), 1
    else:
        deg, k = draw(st.integers(1, 24)), draw(st.integers(1, 12))
    order = draw(st.permutations([100 + i for i in range(deg)]))
    # each step removes a batch, then maybe clears from a quantile index, keeping one
    # partner or none (a batch is empty on an empty list)
    partners = st.sampled_from(order) if deg else st.nothing()
    batch = st.lists(partners, max_size=4) if deg else st.just([])
    clear = st.none() | st.tuples(st.integers(1, k), st.none() | partners)
    steps = draw(st.lists(st.tuples(batch, clear), max_size=max(3 * deg, 2)))
    return order, k, steps


@settings(max_examples=300, deadline=None)
@given(_quantize_case())
def test_quantize_matches_reference_under_removals(case):
    order, k, steps = case
    q = quantize(tuple(order), k)
    ref = _ReferenceQuantized(order, k)

    def agree():
        best = ref.best_nonempty_index()
        assert q.best_nonempty_bucket() == ([] if best is None else ref.buckets[best - 1])
        for i in range(1, k + 1):
            assert _copy(q).remove_from(i) == ref.at_or_worse(i)
        for p in order:
            assert q.quantile(p) == ref.quantile_of[p]
            assert (p in q) == (p in ref.buckets[ref.quantile_of[p] - 1])
        assert len(q) == sum(len(b) for b in ref.buckets)
        assert 99 not in q  # not on the list
        assert q.remaining == tuple(p for b in ref.buckets for p in b)  # in rank order

    agree()
    for batch, clear in steps:
        try:
            ref.remove_many(batch)
        except KeyError:
            with pytest.raises(KeyError):
                q.remove_many(batch)
        else:
            q.remove_many(batch)
        agree()
        if clear is None:
            continue
        i, keep = clear
        dropped = [p for p in ref.at_or_worse(i) if p != keep]
        if keep is None or keep in ref.at_or_worse(i):
            assert q.remove_from(i, keep) == dropped
            ref.remove_many(dropped)
        else:
            # a keep already removed or in a better quantile: nothing changes
            with pytest.raises(ValueError):
                q.remove_from(i, keep)
        agree()
    for p in order:
        if p not in q.remaining:
            with pytest.raises(KeyError):
                q.remove(p)
    agree()


def _profile_2x2():
    return PreferenceProfile.from_lists([[0, 1], [0, 1]], [[0, 1], [0, 1]])


def _rank(row, p):
    """A rank row's entry for p, with 0 for an index the row has no entry for: a row
    reads a non-partner as 0 or raises LookupError, and anything else escapes."""
    try:
        return row[p]
    except LookupError:
        return 0


def test_rank_lookup():
    # the rank tables that sends and quantiles read: 1-based, 0 or absent when unacceptable
    prof = PreferenceProfile.from_lists([[2, 0, 1], [0], [1, 2]], [[1, 0], [0, 2], [0, 2]])
    assert _rank(prof._man_rank[0], 1) == 3
    assert _rank(prof._man_rank[0], 2) == 1
    assert _rank(prof._man_rank[1], 2) == 0
    assert _rank(prof._man_rank[1], 0) == 1
    assert _rank(prof._woman_rank[2], 0) == 1


def test_rank_position_example():
    # list [3, 1, 2]: woman 1 sits in position 2; a single-entry list ranks
    # its only partner first
    prof = PreferenceProfile.from_lists(
        [[3, 1, 2], [], [], [7], [], [], [], []],
        [[], [0], [0], [0], [], [], [], [3]],
    )
    assert _rank(prof._man_rank[0], 1) == 2
    assert _rank(prof._man_rank[0], 0) == 0
    assert _rank(prof._man_rank[3], 7) == 1


@st.composite
def _profile_with_both_row_kinds(draw):
    """Up to 12 players a side; each man's list is empty, complete, exactly a quarter
    of the women (when 4 divides n) or any subset, in a drawn order, and each woman
    lists her suitors in a drawn order."""
    n = draw(st.integers(1, 12))
    sizes = ["empty", "complete", "any"] + (["quarter"] if n % 4 == 0 else [])
    men = []
    for _ in range(n):
        size = draw(st.sampled_from(sizes))
        if size == "empty":
            chosen = []
        elif size == "complete":
            chosen = list(range(n))
        elif size == "quarter":
            chosen = draw(st.lists(st.integers(0, n - 1), min_size=n // 4, max_size=n // 4, unique=True))
        else:
            chosen = draw(st.lists(st.integers(0, n - 1), unique=True))
        men.append(draw(st.permutations(chosen)))
    women = [draw(st.permutations([m for m in range(n) if w in men[m]])) for w in range(n)]
    return PreferenceProfile.from_lists(men, women)


@settings(max_examples=300, deadline=None)
@given(_profile_with_both_row_kinds(), st.integers(1, 5), st.data())
def test_rank_rows_read_ranks_and_strangers_as_zero(prof, k, data):
    n = prof.n
    for prefs, table in ((prof.men_prefs, prof._man_rank), (prof.women_prefs, prof._woman_rank)):
        for lst, row in zip(prefs, table):
            # a list row at a quarter of the partners or more, a dict below
            assert type(row) is (list if 4 * len(lst) >= n else dict)
            assert all(row[p] == rank for rank, p in enumerate(lst, 1))
            assert all(_rank(row, p) == 0 for p in [*range(n), n, n + 5] if p not in lst)
            # p in q, remove_many and remaining agree with a set of the remaining partners
            q, left = model.quantize(lst, k, row), set(lst)
            batches = data.draw(st.lists(st.lists(st.integers(-2, n + 1), max_size=3), max_size=4))
            for batch in batches:
                if len(set(batch)) == len(batch) and left.issuperset(batch):
                    q.remove_many(batch)
                    left.difference_update(batch)
                else:
                    with pytest.raises(KeyError):
                        q.remove_many(batch)
                assert [p in q for p in range(-2, n + 2)] == [p in left for p in range(-2, n + 2)]
                assert len(q) == len(left) and q.remaining == tuple(p for p in lst if p in left)


def _rank_tables_bytes(prof) -> int:
    """The bytes tracemalloc sees allocated, and still held, while both rank tables are built."""
    tracemalloc.start()
    try:
        prof._man_rank, prof._woman_rank
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_rank_tables_fit_their_lists():
    # complete n=512: a list row of 512 ints per player, where a dict row took 18.1 MiB
    # for both tables; bounded:8 n=4096 keeps its dict rows, 2.96 MiB for both
    assert _rank_tables_bytes(generate(GeneratorSpec("complete", 512, seed=0))) <= 5 * 2**20
    assert _rank_tables_bytes(generate(GeneratorSpec("bounded", 4096, seed=0, d=8))) <= 3.0 * 2**20


def test_full_lists_are_checked_and_scanned_without_sets():
    # a set per woman, built by the profile check and by a scan with every woman
    # unmatched, peaked at 16.1 MiB each on complete n=512; bounded:8 n=4096 has no
    # full list and keeps its sets, 3.1 MiB (2.9 while the range check's set was
    # freed before them)
    prof = generate(GeneratorSpec("complete", 512, seed=0))
    build = lambda p: PreferenceProfile(p.n, p.men_prefs, p.women_prefs)
    assert traced_peak(build, prof)[0] <= 2**20
    assert traced_peak(count_blocking_pairs, prof, Matching.of([]))[0] <= 2**20
    assert traced_peak(build, generate(GeneratorSpec("bounded", 4096, seed=0, d=8)))[0] <= 3.5 * 2**20


def test_rank_tables_share_their_int_objects():
    # Python keeps one object per int only up to 256; above that, each table entry
    # of a given rank, on either side, is still the one object of the shared tuple
    prof = generate(GeneratorSpec("complete", 512, seed=0))
    for rank in (257, 400, 512):
        first = prof._man_rank[0][prof.men_prefs[0][rank - 1]]
        assert first == rank
        assert first is prof._man_rank[511][prof.men_prefs[511][rank - 1]]
        assert first is prof._woman_rank[3][prof.women_prefs[3][rank - 1]]


def test_profile_validation_errors():
    with pytest.raises(InvalidProfile, match="asymmetric"):
        PreferenceProfile.from_lists([[0]], [[]])
    with pytest.raises(InvalidProfile, match="twice"):
        PreferenceProfile.from_lists([[0, 0]], [[0]])
    with pytest.raises(InvalidProfile, match="out-of-range"):
        PreferenceProfile.from_lists([[3]], [[0]])
    with pytest.raises(InvalidProfile):
        PreferenceProfile(n=0, men_prefs=(), women_prefs=())


@pytest.mark.parametrize(
    "men, women, message",
    [
        ([[0, 0]], [[0]], "man 0 ranks partner 0 twice"),
        ([[0]], [[0, 0]], "woman 0 ranks partner 0 twice"),
        ([[3]], [[0]], "man 0 ranks out-of-range partner 3"),
        ([[], [], [], []], [[], [], [], [9]], "woman 3 ranks out-of-range partner 9"),
        ([[0], []], [[0, 1], []], "asymmetric pair: woman 0 lists man 1 but man 1 does not list woman 0"),
        ([[1], []], [[], []], "asymmetric pair: man 0 lists woman 1 but woman 1 does not list man 0"),
        # equal degree sums, and every man's edge goes into a list of length n: such a
        # list stands for every man only when it is in range without repeats
        ([[0], [0]], [[0, 0], []], "woman 0 ranks partner 0 twice"),
        ([[0], [0]], [[0, 2], []], "woman 0 ranks out-of-range partner 2"),
        ([[0], [0]], [[0, -1], []], "woman 0 ranks out-of-range partner -1"),
        ([[1], [0]], [[0, 1], []], "asymmetric pair: man 0 lists woman 1 but woman 1 does not list man 0"),
    ],
)
def test_profile_validation_messages_name_the_side(men, women, message):
    with pytest.raises(InvalidProfile) as exc:
        PreferenceProfile.from_lists(men, women)
    assert str(exc.value) == message


def _first_violation(n, men, women):
    """The first broken invariant an entry-by-entry walk meets, or None for a valid profile."""
    for side, plural, prefs in (("man", "men", men), ("woman", "women", women)):
        if len(prefs) != n:
            return f"expected {n} {plural} preference lists, got {len(prefs)}"
        for i, lst in enumerate(prefs):
            for pos, j in enumerate(lst):
                if not 0 <= j < n:
                    return f"{side} {i} ranks out-of-range partner {j}"
                if j in lst[:pos]:
                    return f"{side} {i} ranks partner {j} twice"
    for side, other, lists, other_lists in (("man", "woman", men, women), ("woman", "man", women, men)):
        for i, lst in enumerate(lists):
            for j in lst:
                if i not in other_lists[j]:
                    return f"asymmetric pair: {side} {i} lists {other} {j} but {other} {j} does not list {side} {i}"
    return None


@st.composite
def _profile_lists(draw):
    """A symmetric profile, often with one entry added, dropped, repeated or pushed out of range."""
    n = draw(st.integers(1, 5))
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    men = [draw(st.permutations([w for w in range(n) if (m, w) in edges])) for m in range(n)]
    women = [draw(st.permutations([m for m in range(n) if (m, w) in edges])) for w in range(n)]
    sides = (men, women)
    for _ in range(draw(st.integers(0, 2))):
        prefs = sides[draw(st.integers(0, 1))]
        kind = draw(st.sampled_from(["add", "drop", "repeat", "out-of-range", "list-count"]))
        lst = prefs[draw(st.integers(0, len(prefs) - 1))]
        if kind == "add":
            lst.insert(draw(st.integers(0, len(lst))), draw(st.integers(0, n - 1)))
        elif kind == "drop" and lst:
            del lst[draw(st.integers(0, len(lst) - 1))]
        elif kind == "repeat" and lst:
            lst.insert(draw(st.integers(0, len(lst))), draw(st.sampled_from(lst)))
        elif kind == "out-of-range":
            lst.insert(draw(st.integers(0, len(lst))), draw(st.sampled_from([-2, -1, n, n + 3])))
        elif kind == "list-count":
            prefs.pop() if len(prefs) > 1 and draw(st.booleans()) else prefs.append([])
    return n, men, women


@settings(max_examples=400, deadline=None)
@given(_profile_lists())
def test_profile_validation_matches_entrywise_reference(case):
    n, men, women = case
    expected = _first_violation(n, men, women)
    build = lambda: PreferenceProfile(n, tuple(map(tuple, men)), tuple(map(tuple, women)))
    with tempfile.TemporaryDirectory() as tmp:
        # the file path skips the int() copy when it can, and must decide the same way
        path = Path(tmp) / "instance.json"
        path.write_text(json.dumps({"n": n, "men": men, "women": women}))
        if expected is None:
            assert build().num_edges == sum(map(len, men))
            assert load_instance(path) == build()
        else:
            with pytest.raises(InvalidProfile) as exc:
                build()
            assert str(exc.value) == expected
            with pytest.raises(InvalidProfile) as exc:
                load_instance(path)
            assert str(exc.value) == f"{path}: {expected}"


def test_degree_sums_match_edge_count():
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randint(1, 10)
        mat = [[rng.random() < 0.5 for _ in range(n)] for _ in range(n)]
        men = [tuple(w for w in range(n) if mat[m][w]) for m in range(n)]
        women = [tuple(m for m in range(n) if mat[m][w]) for w in range(n)]
        prof = PreferenceProfile(n=n, men_prefs=tuple(men), women_prefs=tuple(women))
        assert sum(len(l) for l in prof.men_prefs) == prof.num_edges
        assert sum(len(l) for l in prof.women_prefs) == prof.num_edges
        assert prof.num_edges == len({(m, w) for m, lst in enumerate(prof.men_prefs) for w in lst})


def test_matching_rejects_duplicates():
    with pytest.raises(InvalidMatching):
        Matching.of([(0, 0), (0, 1)])
    with pytest.raises(InvalidMatching):
        Matching.of([(0, 0), (1, 0)])


@pytest.mark.parametrize(
    "pair, message",
    [
        (("0", 1), 'expected an integer, got "0"'),
        ((0, True), "expected an integer, got true"),
        ((0.0, 1), "expected an integer, got 0.0"),
        ((float("inf"), 1), "expected an integer, got Infinity"),
        ((0, None), "int() argument must be a string, a bytes-like object or a real number, not 'NoneType'"),
    ],
    ids=["string", "bool", "float", "infinity", "none"],
)
def test_matching_takes_only_ints(pair, message):
    # int() once read ("0", True) and (0.0, 1) as the pair (0, 1)
    with pytest.raises(InvalidMatching) as exc:
        Matching.of([(1, 0), pair])
    assert str(exc.value) == message
    assert Matching.of([(1, 0), (0, 1)]).pairs == {(1, 0), (0, 1)}


def test_matching_validate_for_profile():
    prof = _profile_2x2()
    Matching.of([(0, 0), (1, 1)]).validate_for(prof)
    sparse = PreferenceProfile.from_lists([[0], []], [[0], []])
    with pytest.raises(InvalidMatching):
        Matching.of([(1, 1)]).validate_for(sparse)


def test_player_id_ordering_and_repr():
    assert man(3) < woman(0)
    assert repr(man(3)) == "M3"
    assert repr(woman(2)) == "W2"
    assert man(1).side is Side.MAN


def _decimal(lo, hi, ok=lambda x: True):
    """Floats in [lo, hi] with at most 6 significant digits, so that ``:g`` prints them exactly."""
    return st.floats(lo, hi).map(lambda x: float(f"{x:.6g}")).filter(lambda x: lo <= x <= hi and ok(x))


_UNIT, _OPEN_UNIT = _decimal(1e-9, 1), _decimal(1e-9, 1, lambda x: x < 1)
# in-range arguments for every head of the three grammars; a generator's n is drawn
# at least 10**6, so every base degree here is in range
_ARGUMENTS = {
    "complete": {},
    "random": {"p": _UNIT},
    "bounded": {"d": st.integers(1, 10**9)},
    "aregular": {"alpha": _decimal(1, 1e6), "base_degree": st.integers(1, 10**6)},
    "det": {},
    "rand": {"iterations": st.integers(1, 10**9)},
    "amm": {"eta": _UNIT, "delta": _OPEN_UNIT},
    "gs": {},
    "asm": {"eps": _decimal(1e-3, 1)},
    "randasm": {"eps": _decimal(1e-3, 1), "delta_fail": _OPEN_UNIT},
    "aregasm": {"eps": _decimal(1e-3, 1), "delta_fail": _OPEN_UNIT, "alpha": _decimal(1, 1e3)},
}
_KINDS = {GeneratorSpec: "family", MatchingSubroutineSpec: "subroutine", AlgorithmSpec: "algorithm"}


@pytest.mark.parametrize(
    "cls, head", [(cls, head) for cls in _KINDS for head in cls._GRAMMAR], ids=lambda x: getattr(x, "__name__", x)
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_descriptor_reads_back_as_its_spec_and_malformed_text_does_not(cls, head, data):
    grammar = cls._GRAMMAR[head]
    assert set(_ARGUMENTS[head]) == {name for name, _ in grammar}
    fields = data.draw(st.fixed_dictionaries(_ARGUMENTS[head]))
    # a generator spec also carries an n and a seed, which parse takes beside the text
    where = {}
    if cls is GeneratorSpec:
        where = {"n": data.draw(st.integers(10**6, 10**9)), "seed": data.draw(st.integers(0, 2**64))}
    spec = cls(head, **where, **fields)
    text = spec.describe()
    assert cls.parse(text, **where) == spec
    malformed = [
        "nope" + text,  # an unknown head
        text + ("," if grammar else ":") + "1",  # one argument too many
        head + ":",  # a bare trailing colon
    ]
    if grammar:
        malformed.append(text.rpartition(",")[0] or head)  # one argument too few
    for bad in malformed:
        with pytest.raises(ValueError, match=re.escape(f"cannot parse {_KINDS[cls]} descriptor {bad!r}")):
            cls.parse(bad, **where)
