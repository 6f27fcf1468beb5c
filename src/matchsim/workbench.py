"""Instance generation, file formats, and experiment orchestration.

Instance files are canonical UTF-8 JSON: ``{"n": int, "men": [[...]],
"women": [[...]]}`` with 0-based partner indices in preference order
(position 0 is rank 1). Matchings are ``{"pairs": [[man, woman], ...]}``.
Experiment batches emit one CSV row per seed with a fixed column set.
"""

from __future__ import annotations

import csv
import json
import math
import random
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

from .analysis import CLAIMS, VerificationReport, verify_run
from .engine import log_ndjson
from .errors import DegenerateInstance, InvalidMatching, InvalidProfile, MatchsimError, RoundCapExceeded
from .model import Matching, PreferenceProfile, as_index, describe_descriptor, parse_descriptor
from .protocols import AlgorithmSpec, RunResult, run_algorithm

_REPAIR_PASSES = 30


@dataclass(frozen=True)
class GeneratorSpec:
    """Instance family descriptor.

    Families: ``complete``; ``random:P`` (each pair is an edge independently
    with probability P); ``bounded:D`` (union of D random perfect matchings,
    so every degree lands in 1..D); ``aregular:ALPHA,BASE`` (men's degrees
    drawn from [BASE, floor(ALPHA * BASE)], women balanced).
    """

    family: str
    n: int
    seed: int
    p: float | None = None
    d: int | None = None
    alpha: float | None = None
    base_degree: int | None = None

    _GRAMMAR = {"complete": (), "random": (("p", float),), "bounded": (("d", int),),
                "aregular": (("alpha", float), ("base_degree", int))}

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.family not in self._GRAMMAR:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "random":
            if self.p is None or not (0 < self.p <= 1):
                raise ValueError("random family needs edge probability p in (0, 1]")
        elif self.family == "bounded":
            if self.d is None or self.d < 1:
                raise ValueError("bounded family needs degree bound d >= 1")
        elif self.family == "aregular":
            if self.base_degree is None or not (1 <= self.base_degree <= self.n):
                raise ValueError("aregular family needs base degree in 1..n")
            # the degree cap is int(alpha * base degree), so it must be finite
            if self.alpha is None or not (1 <= self.alpha and math.isfinite(self.alpha * self.base_degree)):
                raise ValueError("aregular family needs alpha >= 1 with a finite alpha * base degree")

    @classmethod
    def parse(cls, text: str, n: int, seed: int) -> "GeneratorSpec":
        family, fields = parse_descriptor(text, cls._GRAMMAR, "family")
        return cls(family, n, seed, **fields)

    def describe(self) -> str:
        return describe_descriptor(self.family, self._GRAMMAR, self)


def _shuffle(x: list, getrandbits) -> None:
    """``random.Random.shuffle`` inline: the same ``getrandbits`` draws, so the same
    permutation and the same generator state after, without a ``_randbelow`` call
    per entry."""
    for i in reversed(range(1, len(x))):
        n = i + 1
        k = n.bit_length()
        j = getrandbits(k)
        while j >= n:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def _shuffled_orders(rng: random.Random, adjacency: Sequence[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    orders = []
    for nbrs in adjacency:
        lst = sorted(nbrs)
        _shuffle(lst, rng.getrandbits)
        orders.append(tuple(lst))
    return tuple(orders)


def generate(spec: GeneratorSpec) -> PreferenceProfile:
    """Build a symmetric instance of the requested family, deterministic in
    the spec (including its seed). Preference orders are independent uniform
    shuffles of each player's neighbor set."""
    rng = random.Random(f"gen:{spec.describe()}:{spec.n}:{spec.seed}")
    n = spec.n
    # each man's partners; complete lists everyone in one list, whose sorted
    # copies share their int objects
    men_adj: list[Iterable[int]] = [set() for _ in range(n)]

    if spec.family == "complete":
        men_adj = [list(range(n))] * n
    elif spec.family == "random":
        for m in range(n):
            men_adj[m] = {w for w in range(n) if rng.random() < spec.p}
        for _ in range(_REPAIR_PASSES):
            empty_men = [m for m in range(n) if not men_adj[m]]
            women_deg = [0] * n
            for nbrs in men_adj:
                for w in nbrs:
                    women_deg[w] += 1
            empty_women = [w for w in range(n) if women_deg[w] == 0]
            if not empty_men and not empty_women:
                break
            for m in empty_men:
                men_adj[m] = {w for w in range(n) if rng.random() < spec.p}
            for w in empty_women:
                for m in range(n):
                    if rng.random() < spec.p:
                        men_adj[m].add(w)
                    else:
                        men_adj[m].discard(w)
        else:
            raise DegenerateInstance(
                f"players kept coming out isolated after {_REPAIR_PASSES} repair passes "
                f"(family {spec.describe()}, n={n})"
            )
    elif spec.family == "bounded":
        for _ in range(min(spec.d, n)):
            perm = list(range(n))
            _shuffle(perm, rng.getrandbits)
            for m, w in enumerate(perm):
                men_adj[m].add(w)
    else:  # aregular
        cap = min(int(spec.alpha * spec.base_degree), n)
        deck: list[int] = []
        for m in range(n):
            want = rng.randint(spec.base_degree, cap)
            while len(men_adj[m]) < want:
                if not deck:
                    deck.extend(range(n))
                    _shuffle(deck, rng.getrandbits)
                men_adj[m].add(deck.pop())

    if spec.family == "complete":
        women_adj = men_adj
    else:
        women_adj = [set() for _ in range(n)]
        for m, nbrs in enumerate(men_adj):
            for w in nbrs:
                women_adj[w].add(m)
    return PreferenceProfile(
        n=n,
        men_prefs=_shuffled_orders(rng, men_adj),
        women_prefs=_shuffled_orders(rng, women_adj),
    )


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def _instance_text(profile: PreferenceProfile):
    """The canonical instance file in pieces, one per preference list: together,
    ``json.dumps`` of the file's object with sorted keys and no spaces, plus a newline."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    for head, prefs in (('{"men":[', profile.men_prefs), (f'],"n":{profile.n},"women":[', profile.women_prefs)):
        yield head
        for i, lst in enumerate(prefs):
            yield "," + encode(lst) if i else encode(lst)
    yield "]}\n"


def save_instance(profile: PreferenceProfile, path: str | Path) -> None:
    """Write the instance file piece by piece, never holding its whole text."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_instance_text(profile))


class _SharedInts(dict):
    """Number token -> int, filled on first use: equal integers in one file load as
    one object, and the scans compare by identity."""

    def __missing__(self, token: str) -> int:
        value = self[token] = int(token)
        return value


def _read_text(path: str | Path) -> str:
    """The file's UTF-8 text, read in 1 MiB pieces, so its whole bytes never exist."""
    try:
        with open(path, encoding="utf-8") as fh:
            return "".join(iter(partial(fh.read, 1 << 20), ""))
    except UnicodeDecodeError:  # a piece's error counts its position from the piece's start
        return Path(path).read_text(encoding="utf-8")  # raises, counting from the file's


def _read_json(path: str | Path, error: type[MatchsimError]):
    """The text of a file whose numbers must all be integers, and what it parses to;
    ``error``, naming the file, on any other number, on an integer longer than
    ``int()`` converts, on text that is not UTF-8 and on nesting too deep to parse."""

    def no_floats(token: str):  # called for float tokens only, so integer-only files pay nothing
        raise ValueError(f"expected an integer, got {token}")

    try:
        text = _read_text(path)
        return text, json.loads(text, parse_float=no_floats, parse_int=_SharedInts().__getitem__)
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc
    except ValueError as exc:  # from no_floats, or from int() on a token of too many digits
        raise error(f"{path}: {exc}") from exc


def load_instance(path: str | Path) -> PreferenceProfile:
    text, obj = _read_json(path, InvalidProfile)
    plain = "true" not in text and "false" not in text
    del text  # freed before any preference tuple is built
    if not isinstance(obj, dict):
        raise InvalidProfile(f"{path}: expected a JSON object")
    for key in ("n", "men", "women"):
        if key not in obj:
            raise InvalidProfile(f"{path}: missing key {key!r}")
    n, men, women = obj["n"], obj["men"], obj["women"]
    if plain and type(n) is int and type(men) is list and type(women) is list:
        # Without booleans, an entry is an int, a string, a null or a container, and
        # the profile's checks accept only ints in range: a file they pass needs no
        # conversion. Each list becomes a tuple in place, so it is freed as its tuple
        # is built; a tuple iterates as its source did, so the entry-by-entry path
        # below words any error as it would have.
        try:
            for prefs in (men, women):
                for i, lst in enumerate(prefs):
                    prefs[i] = tuple(lst)
            return PreferenceProfile(n=n, men_prefs=tuple(men), women_prefs=tuple(women))
        except (TypeError, ValueError):
            pass
    try:
        return PreferenceProfile(
            n=as_index(n),
            men_prefs=tuple(tuple(map(as_index, lst)) for lst in men),
            women_prefs=tuple(tuple(map(as_index, lst)) for lst in women),
        )
    except (TypeError, ValueError) as exc:  # InvalidProfile is a ValueError too
        raise InvalidProfile(f"{path}: {exc}") from exc


def save_matching(matching: Matching, path: str | Path) -> None:
    pairs = [list(p) for p in matching.sorted_pairs()]
    Path(path).write_text(json.dumps({"pairs": pairs}, separators=(",", ":")) + "\n", encoding="utf-8")


def load_matching(path: str | Path) -> Matching:
    _, obj = _read_json(path, InvalidMatching)
    if not isinstance(obj, dict) or "pairs" not in obj:
        raise InvalidMatching(f"{path}: missing key 'pairs'")
    try:
        return Matching.of(obj["pairs"])
    except InvalidMatching as exc:
        raise InvalidMatching(f"{path}: {exc}") from exc


def write_message_log(records: Iterable[tuple], path: str | Path) -> None:
    """Write an engine message log, one record per fan-out, as NDJSON with one
    line per message: :func:`log_ndjson` expands each record."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(map(log_ndjson, records))


# ---------------------------------------------------------------------------
# experiment batches
# ---------------------------------------------------------------------------

# the claims with a CSV column, each as its ``<id>_pass`` column
_PASS_COLUMNS = {f"{claim}_pass": claim for claim, in_csv in CLAIMS.items() if in_csv}

CSV_COLUMNS = [
    "algorithm",
    "n",
    "edges",
    "eps",
    "delta",
    "alpha",
    "seed",
    "rounds",
    "messages",
    "matching_size",
    "blocking_pairs",
    "two_over_k_blocking",
    "good_men",
    "bad_men",
    *_PASS_COLUMNS,
    "status",
]


@dataclass
class ExperimentConfig:
    algorithm: AlgorithmSpec
    seeds: Sequence[int]
    generator: GeneratorSpec | None = None
    instance_path: str | None = None
    round_cap: int | None = None
    csv_path: str | None = None
    message_log_path: str | None = None

    def __post_init__(self):
        if (self.generator is None) == (self.instance_path is None):
            raise ValueError("exactly one of generator or instance_path is required")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if self.round_cap is not None and self.round_cap < 1:
            raise ValueError(f"round cap must be >= 1, got {self.round_cap}")


@dataclass
class ExperimentResult:
    rows: list[dict]
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _bool_cell(report: VerificationReport | None, claim: str) -> str:
    if report is None or claim not in report.bounds:
        return ""
    return "true" if report.bounds[claim].passed else "false"


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """One run per seed: generate or load, run, verify, emit a CSV row.

    Run errors are captured per row without aborting the batch; a row fails
    when it errors out or a deterministic-guarantee check fails, and the batch
    is ``ok`` with no failed rows. Only the rows outlive their run. The CSV and
    message log files are opened before the first run, so an unwritable path
    fails before any work; each run's records are written and dropped after
    that run.
    """
    fixed_profile = load_instance(config.instance_path) if config.instance_path else None
    log_path = config.message_log_path
    message_log: list | None = [] if log_path else None
    outcome = ExperimentResult(rows=[], failures=0)
    with open_output(log_path) as log_file, open_output(config.csv_path) as csv_file:
        for seed in config.seeds:
            profile = fixed_profile if fixed_profile is not None else generate(replace(config.generator, seed=seed))
            row, failed = _run_seed(config, profile, seed, message_log)
            outcome.rows.append(row)
            outcome.failures += failed
            if message_log:
                log_file.writelines(map(log_ndjson, message_log))
                message_log.clear()
        if csv_file:
            write_csv(outcome.rows, csv_file)
    return outcome


def _run_seed(config: ExperimentConfig, profile: PreferenceProfile, seed: int, message_log: list | None) -> tuple[dict, bool]:
    """One seed's CSV row, and whether the row failed."""
    spec = config.algorithm
    status = "ok"
    result: RunResult | None = None
    report: VerificationReport | None = None
    try:
        result = run_algorithm(profile, spec, seed=seed, round_cap=config.round_cap, message_log=message_log)
    except RoundCapExceeded as exc:
        status = "round_cap"
        result = exc.partial
    except (ValueError, MatchsimError) as exc:
        status = f"error:{exc}"
    if result is not None:
        report = verify_run(profile, result)
    row = {
        "algorithm": spec.describe(),
        "n": profile.n,
        "edges": profile.num_edges,
        "eps": "" if spec.eps is None else f"{spec.eps:g}",
        "delta": (
            f"{spec.delta_fail:g}"
            if spec.delta_fail is not None
            else (f"{result.params.delta:g}" if result is not None and result.params else "")
        ),
        "alpha": "" if spec.alpha is None else f"{spec.alpha:g}",
        "seed": seed,
        "rounds": result.trace.rounds if result else "",
        "messages": result.trace.messages_sent if result else "",
        "matching_size": len(result.matching) if result else "",
        "blocking_pairs": report.blocking_pairs if report else "",
        "two_over_k_blocking": report.tight_blocking_pairs if report and report.k is not None else "",
        "good_men": len(report.good_men) if report else "",
        "bad_men": len(report.bad_men) if report else "",
        **{column: _bool_cell(report, claim) for column, claim in _PASS_COLUMNS.items()},
        "status": status,
    }
    failed = status != "ok" or (spec.deterministic and report is not None and not report.all_passed())
    return row, failed


def open_output(path: str | Path | None):
    """``path`` opened for writing UTF-8 text, as ``csv`` needs it (no newline
    translation), or a context giving None when there is no path."""
    return open(path, "w", newline="", encoding="utf-8") if path else nullcontext()


def write_csv(rows: list[dict], fh) -> None:
    writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)


_LONG_METRICS = CSV_COLUMNS[CSV_COLUMNS.index("rounds") : CSV_COLUMNS.index(next(iter(_PASS_COLUMNS)))]


def to_long_format(rows: list[dict]) -> list[dict]:
    """Tidy long-format view of a batch, one (metric, value) record per row,
    for plotting with external tools."""
    return [
        {"algorithm": row["algorithm"], "n": row["n"], "seed": row["seed"], "metric": metric, "value": row[metric]}
        for row in rows
        for metric in _LONG_METRICS
        if row.get(metric, "") != ""
    ]


def write_long_csv(rows: list[dict], fh) -> None:
    writer = csv.DictWriter(fh, fieldnames=["algorithm", "n", "seed", "metric", "value"])
    writer.writeheader()
    writer.writerows(to_long_format(rows))
