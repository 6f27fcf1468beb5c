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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from .analysis import VerificationReport, verify_run
from .errors import DegenerateInstance, InvalidMatching, InvalidProfile, MatchsimError, RoundCapExceeded
from .model import Matching, PreferenceProfile
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

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.family == "complete":
            pass
        elif self.family == "random":
            if self.p is None or not (0 < self.p <= 1):
                raise ValueError("random family needs edge probability p in (0, 1]")
        elif self.family == "bounded":
            if self.d is None or self.d < 1:
                raise ValueError("bounded family needs degree bound d >= 1")
        elif self.family == "aregular":
            if self.base_degree is None or self.base_degree < 1:
                raise ValueError("aregular family needs base degree >= 1")
            # the degree cap is int(alpha * base degree), so it must be finite
            if self.alpha is None or not (1 <= self.alpha and math.isfinite(self.alpha * self.base_degree)):
                raise ValueError("aregular family needs alpha >= 1 with a finite alpha * base degree")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    @classmethod
    def parse(cls, text: str, n: int, seed: int) -> "GeneratorSpec":
        head, _, rest = text.partition(":")
        if text == "complete":
            return cls(family="complete", n=n, seed=seed)
        if head == "random":
            return cls(family="random", n=n, seed=seed, p=float(rest))
        if head == "bounded":
            return cls(family="bounded", n=n, seed=seed, d=int(rest))
        if head == "aregular":
            alpha_s, _, base_s = rest.partition(",")
            return cls(family="aregular", n=n, seed=seed, alpha=float(alpha_s), base_degree=int(base_s))
        raise ValueError(f"unknown family descriptor {text!r}")

    def describe(self) -> str:
        if self.family == "complete":
            return "complete"
        if self.family == "random":
            return f"random:{self.p:g}"
        if self.family == "bounded":
            return f"bounded:{self.d}"
        return f"aregular:{self.alpha:g},{self.base_degree}"


def _shuffled_orders(rng: random.Random, adjacency: list[set[int]]) -> tuple[tuple[int, ...], ...]:
    orders = []
    for nbrs in adjacency:
        lst = sorted(nbrs)
        rng.shuffle(lst)
        orders.append(tuple(lst))
    return tuple(orders)


def generate(spec: GeneratorSpec) -> PreferenceProfile:
    """Build a symmetric instance of the requested family, deterministic in
    the spec (including its seed). Preference orders are independent uniform
    shuffles of each player's neighbor set."""
    rng = random.Random(f"gen:{spec.describe()}:{spec.n}:{spec.seed}")
    n = spec.n
    men_adj: list[set[int]] = [set() for _ in range(n)]

    if spec.family == "complete":
        for m in range(n):
            men_adj[m] = set(range(n))
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
            rng.shuffle(perm)
            for m, w in enumerate(perm):
                men_adj[m].add(w)
    else:  # aregular
        cap = min(int(spec.alpha * spec.base_degree), n)
        cap = max(cap, spec.base_degree)
        if spec.base_degree > n:
            raise ValueError("base degree exceeds n")
        deck: list[int] = []

        def draw() -> int:
            if not deck:
                deck.extend(range(n))
                rng.shuffle(deck)
            return deck.pop()

        for m in range(n):
            want = rng.randint(spec.base_degree, cap)
            guard = 0
            while len(men_adj[m]) < want:
                men_adj[m].add(draw())
                guard += 1
                if guard > 4 * n + want:
                    raise DegenerateInstance("degree assignment failed to converge")

    women_adj: list[set[int]] = [set() for _ in range(n)]
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


def instance_to_json(profile: PreferenceProfile) -> str:
    obj = {
        "n": profile.n,
        "men": [list(lst) for lst in profile.men_prefs],
        "women": [list(lst) for lst in profile.women_prefs],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def save_instance(profile: PreferenceProfile, path: str | Path) -> None:
    Path(path).write_text(instance_to_json(profile), encoding="utf-8")


def _read_json(path: str | Path, error: type[MatchsimError]):
    """Parse a file whose numbers must all be integers; ``error`` on any other content."""

    def no_floats(token: str):  # called for float tokens only, so integer-only files pay nothing
        raise error(f"{path}: expected an integer, got {token}")

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_float=no_floats)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: not valid JSON: {exc}") from exc


def load_instance(path: str | Path) -> PreferenceProfile:
    obj = _read_json(path, InvalidProfile)
    if not isinstance(obj, dict):
        raise InvalidProfile(f"{path}: expected a JSON object")
    for key in ("n", "men", "women"):
        if key not in obj:
            raise InvalidProfile(f"{path}: missing key {key!r}")
    try:
        return PreferenceProfile(
            n=int(obj["n"]),
            men_prefs=tuple(tuple(map(int, lst)) for lst in obj["men"]),
            women_prefs=tuple(tuple(map(int, lst)) for lst in obj["women"]),
        )
    except (TypeError, ValueError) as exc:  # InvalidProfile is a ValueError too
        raise InvalidProfile(f"{path}: {exc}") from exc


def matching_to_json(matching: Matching) -> str:
    return json.dumps({"pairs": [list(p) for p in matching.sorted_pairs()]}, separators=(",", ":")) + "\n"


def save_matching(matching: Matching, path: str | Path) -> None:
    Path(path).write_text(matching_to_json(matching), encoding="utf-8")


def load_matching(path: str | Path) -> Matching:
    obj = _read_json(path, InvalidMatching)
    if not isinstance(obj, dict) or "pairs" not in obj:
        raise InvalidMatching(f"{path}: missing key 'pairs'")
    try:
        return Matching.of((int(m), int(w)) for m, w in obj["pairs"])
    except (TypeError, ValueError) as exc:  # InvalidMatching is a ValueError too
        raise InvalidMatching(f"{path}: {exc}") from exc


def write_message_log(entries: Iterable[dict], path: str | Path) -> None:
    """Write records of the engine's shape as NDJSON: ints and names that need no
    escaping, so each line equals ``json.dumps(record, separators=(",", ":"))``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f'{{"round":{e["round"]},"from":"{e["from"]}","to":"{e["to"]}",'
            f'"kind":"{e["kind"]}","payload_bits":{e["payload_bits"]}}}\n'
            for e in entries
        )


# ---------------------------------------------------------------------------
# experiment batches
# ---------------------------------------------------------------------------

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
    "thm41_pass",
    "lemma42_pass",
    "lemma43_pass",
    "lemma44_pass",
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


@dataclass
class ExperimentRow:
    seed: int
    row: dict
    report: VerificationReport | None
    result: RunResult | None
    failed: bool


@dataclass
class ExperimentResult:
    rows: list[ExperimentRow]
    ok: bool

    def csv_rows(self) -> list[dict]:
        return [r.row for r in self.rows]


def _bool_cell(report: VerificationReport | None, claim: str) -> str:
    if report is None or claim not in report.bounds:
        return ""
    return "true" if report.bounds[claim].passed else "false"


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """One run per seed: generate or load, run, verify, emit a CSV row.

    Run errors are captured per row without aborting the batch; the overall
    ``ok`` flag clears when any row errors out or a deterministic-guarantee
    check fails.
    """
    spec = config.algorithm
    fixed_profile = load_instance(config.instance_path) if config.instance_path else None
    message_log: list | None = [] if config.message_log_path else None
    rows: list[ExperimentRow] = []
    for seed in config.seeds:
        profile = (
            fixed_profile
            if fixed_profile is not None
            else generate(replace(config.generator, seed=seed))
        )
        status = "ok"
        result: RunResult | None = None
        report: VerificationReport | None = None
        try:
            result = run_algorithm(
                profile, spec, seed=seed, round_cap=config.round_cap, message_log=message_log
            )
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
            "two_over_k_blocking": (
                report.tight_blocking_pairs if report and report.k is not None else ""
            ),
            "good_men": len(report.good_men) if report else "",
            "bad_men": len(report.bad_men) if report else "",
            "thm41_pass": _bool_cell(report, "thm41"),
            "lemma42_pass": _bool_cell(report, "lemma42"),
            "lemma43_pass": _bool_cell(report, "lemma43"),
            "lemma44_pass": _bool_cell(report, "lemma44"),
            "status": status,
        }
        failed = status != "ok" or (
            spec.deterministic and report is not None and not report.all_passed()
        )
        rows.append(ExperimentRow(seed=seed, row=row, report=report, result=result, failed=failed))
    outcome = ExperimentResult(rows=rows, ok=not any(r.failed for r in rows))
    if config.csv_path:
        write_csv(outcome.csv_rows(), config.csv_path)
    if config.message_log_path and message_log is not None:
        write_message_log(message_log, config.message_log_path)
    return outcome


def write_csv(rows: list[dict], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


_LONG_METRICS = (
    "rounds",
    "messages",
    "matching_size",
    "blocking_pairs",
    "two_over_k_blocking",
    "good_men",
    "bad_men",
)


def to_long_format(rows: list[dict]) -> list[dict]:
    """Tidy long-format view of a batch, one (metric, value) record per row,
    for plotting with external tools."""
    out = []
    for row in rows:
        for metric in _LONG_METRICS:
            value = row.get(metric, "")
            if value == "":
                continue
            out.append(
                {
                    "algorithm": row["algorithm"],
                    "n": row["n"],
                    "seed": row["seed"],
                    "metric": metric,
                    "value": value,
                }
            )
    return out


def write_long_csv(rows: list[dict], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["algorithm", "n", "seed", "metric", "value"])
        writer.writeheader()
        for row in to_long_format(rows):
            writer.writerow(row)
