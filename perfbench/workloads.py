"""The benchmark's workloads, their correctness checks and their metrics.

A workload builds its inputs from the workload seed (``setup``, reported as
``setup_s``), then repeats a timed pass over its cells. Every cell's output
is reduced to a sha256 digest, which must equal the digest pinned in
``pins.json`` for that seed (when one is pinned) and must repeat across
passes and between the traced and untraced run. Invariants that hold on any
seed are checked as well, so a seed without pins is still checked.

Only the calls into matchsim are timed; digests and checks run between them.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import matchsim.analysis as analysis
import matchsim.cli as cli
import matchsim.protocols as protocols
import matchsim.workbench as workbench
from matchsim.model import Matching

from tracing import Tracer

HERE = Path(__file__).resolve().parent
PINS_PATH = HERE / "pins.json"
SETUP_REPEATS = 5

# name -> unit, reported with --trace 0
END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PHASES = ("propose", "accept", "mm", "reject", "flush")

# name -> unit, reported with --trace 1
PER_LAYER = {
    "workbench.generate_s": "s",
    "workbench.load_instance_s": "s",
    "workbench.load_matching_s": "s",
    "workbench.write_log_s": "s",
    "workbench.log_records": "count",
    "model.profile_build_s": "s",
    "model.quantize_s": "s",
    "model.quantize_calls": "count",
    "model.prefs_remove_s": "s",
    "model.prefs_removes": "count",
    "engine.topology_s": "s",
    **{f"engine.round_s.{phase}": "s" for phase in PHASES},
    "engine.self_s": "s",
    "engine.send_s": "s",
    "engine.messages": "count",
    "engine.sim_rounds": "count",
    "engine.rounds_stepped": "count",
    "engine.rounds_skipped": "count",
    "engine.skip_ratio": "ratio",
    "engine.processor_steps": "count",
    "engine.msgs_per_s": "msg/s",
    "protocols.run_s": "s",
    "protocols.state_init_s": "s",
    "protocols.step_s": "s",
    "protocols.proposal_rounds": "count",
    "protocols.quantile_matches": "count",
    "maximal.step_s": "s",
    "maximal.mm_rounds_stepped": "count",
    "maximal.mm_rounds_skipped": "count",
    "maximal.mm_messages": "count",
    "maximal.mm_invocations": "count",
    "maximal.mm_failures": "count",
    "maximal.fail_ratio": "ratio",
    "analysis.verify_s": "s",
    "analysis.blocking_s": "s",
    "analysis.eps_blocking_s": "s",
    "analysis.oracle_s": "s",
    "analysis.edges_scanned": "count",
    "analysis.blocking_found": "count",
    "analysis.edges_per_s": "edge/s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Sizes:
    dense_n: int
    sparse_n: int
    aregular_n: int
    files_n: int


FULL = Sizes(dense_n=512, sparse_n=4096, aregular_n=1024, files_n=1024)
# same code path at a size the benchmark's own tests can afford
TINY = Sizes(dense_n=24, sparse_n=64, aregular_n=48, files_n=32)


@dataclass
class PassResult:
    """One timed pass over a workload's cells."""

    cell_s: dict = field(default_factory=dict)  # cell -> timed seconds
    run_s: float = 0.0
    verify_s: float = 0.0
    edges: int = 0
    digests: dict = field(default_factory=dict)
    costs: Counter = field(default_factory=Counter)
    failures: list = field(default_factory=list)  # (cell, message)
    attempted: int = 0
    totals: dict | None = None  # tracer totals, traced passes only

    def fail(self, cell: str, message: str) -> None:
        self.failures.append((cell, message))


def _sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Named explicitly so that a field added to RoundTrace later (a wall time,
# say) does not change the digest of an unchanged simulation.
TRACE_FIELDS = ("rounds", "messages_sent", "max_payload_bits", "phase_breakdown",
                "messages_by_phase", "extras")


def run_digest(result, report, log_sha256: str | None) -> str:
    """Digest of a simulated run: matching, trace counters, verifier report, log bytes."""
    return _sha256({
        "pairs": result.matching.sorted_pairs(),
        "trace": {name: getattr(result.trace, name) for name in TRACE_FIELDS},
        "verify": report.to_json(),
        "log_sha256": log_sha256,
    })


# ---------------------------------------------------------------------------
# dense and sparse: generate -> run -> verify
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunCell:
    name: str
    instance: str
    algorithm: str
    deterministic: bool
    seed_offset: int = 0
    log: bool = False


class SimulationWorkload:
    """Runs each cell's algorithm on a generated instance and verifies the result."""

    def __init__(self, instances: dict, cells: tuple[RunCell, ...]):
        self.instances = instances  # key -> (family descriptor, n)
        self.cells = cells

    def setup(self, seed: int, workdir: Path) -> dict:
        return {
            key: workbench.generate(workbench.GeneratorSpec.parse(family, n=n, seed=seed))
            for key, (family, n) in self.instances.items()
        }

    def prepare(self, profiles: dict) -> dict:
        """Untimed reference results the checks compare against."""
        return {
            cell.name: analysis.gale_shapley_oracle(profiles[cell.instance])
            for cell in self.cells
            if cell.algorithm == "gs"
        }

    def run_pass(self, seed: int, profiles: dict, oracles: dict, workdir: Path) -> PassResult:
        out = PassResult()
        log_path = workdir / "messages.ndjson"
        for cell in self.cells:
            out.attempted += 1
            profile = profiles[cell.instance]
            log = [] if cell.log else None
            try:
                t0 = perf_counter()
                result = protocols.run_algorithm(
                    profile, cell.algorithm, seed=seed + cell.seed_offset, message_log=log
                )
                t1 = perf_counter()
                report = analysis.verify_run(profile, result)
                t2 = perf_counter()
                if log is not None:
                    workbench.write_message_log(log, log_path)
                t3 = perf_counter()
            except Exception:
                out.fail(cell.name, traceback.format_exc())
                continue
            del log
            out.cell_s[cell.name] = t3 - t0
            out.run_s += t1 - t0
            out.verify_s += t2 - t1
            out.edges += profile.num_edges

            log_sha = None
            if cell.log:
                with open(log_path, "rb") as fh:
                    log_sha = hashlib.file_digest(fh, "sha256").hexdigest()
                log_path.unlink()
            out.digests[cell.name] = run_digest(result, report, log_sha)

            trace = result.trace
            out.costs["messages"] += trace.messages_sent
            out.costs["sim_rounds"] += trace.rounds
            out.costs["mm_messages"] += trace.messages_by_phase.get("mm", 0)
            for key in ("proposal_rounds", "quantile_matches", "mm_invocations", "mm_failures"):
                out.costs[key] += trace.extras.get(key, 0)

            if cell.deterministic and not report.all_passed():
                failed = sorted(k for k, c in report.bounds.items() if not c.passed)
                out.fail(cell.name, f"deterministic guarantee failed: {failed}")
            if cell.name in oracles and result.matching != oracles[cell.name]:
                out.fail(cell.name, "differs from gale_shapley_oracle")
        return out


# ---------------------------------------------------------------------------
# verify-files: matchsim verify on instance and matching files
# ---------------------------------------------------------------------------

VERIFY_EPS = "0.25"
VERIFY_THRESHOLD = "0.125"


class VerifyFilesWorkload:
    """Runs ``matchsim verify`` on a stable matching and on one with half its pairs dropped."""

    cells = ("stable", "halved")

    def __init__(self, n: int):
        self.n = n

    def setup(self, seed: int, workdir: Path) -> dict:
        profile = workbench.generate(workbench.GeneratorSpec.parse("complete", n=self.n, seed=seed))
        stable = analysis.gale_shapley_oracle(profile)
        matchings = {"stable": stable, "halved": Matching.of(stable.sorted_pairs()[::2])}
        workbench.save_instance(profile, workdir / "instance.json")
        for name, matching in matchings.items():
            workbench.save_matching(matching, workdir / f"{name}.json")
        return {
            "edges": profile.num_edges,
            "sizes": {name: len(m) for name, m in matchings.items()},
        }

    def prepare(self, facts: dict) -> None:
        """The checks need nothing beyond what set-up recorded."""

    def run_pass(self, seed: int, facts: dict, reference: None, workdir: Path) -> PassResult:
        out = PassResult()
        for cell in self.cells:
            out.attempted += 1
            argv = [
                "verify",
                "--instance", str(workdir / "instance.json"),
                "--matching", str(workdir / f"{cell}.json"),
                "--eps", VERIFY_EPS,
                "--threshold", VERIFY_THRESHOLD,
            ]
            printed = io.StringIO()
            try:
                t0 = perf_counter()
                with contextlib.redirect_stdout(printed):
                    code = cli.main(argv)
                dt = perf_counter() - t0
            except Exception:
                out.fail(cell, traceback.format_exc())
                continue
            out.cell_s[cell] = dt
            out.verify_s += dt
            out.edges += facts["edges"]
            text = printed.getvalue()
            out.digests[cell] = _sha256({"stdout": text, "exit_code": code})

            try:
                payload = json.loads(text)
                blocking = payload["blocking_pairs"]
                edges, size = payload["edges"], payload["matching_size"]
            except (json.JSONDecodeError, KeyError, TypeError):
                out.fail(cell, f"exit code {code}, unexpected output: {text[:200]!r}")
                continue
            budget = float(VERIFY_EPS) * facts["edges"]
            if code != (0 if blocking <= budget else 1):
                out.fail(cell, f"exit code {code} disagrees with {blocking} blocking pairs "
                               f"against eps * |E| = {budget:g}")
            if edges != facts["edges"] or size != facts["sizes"][cell]:
                out.fail(cell, f"verify read a different instance or matching: {payload}")
            if cell == "stable" and blocking != 0:
                out.fail(cell, f"oracle matching has {blocking} blocking pairs")
        return out


def make_workload(name: str, sizes: Sizes = FULL):
    if name == "dense":
        # one complete instance: per-message and per-edge object cost dominates
        return SimulationWorkload(
            {"complete": ("complete", sizes.dense_n)},
            (
                RunCell("asm:0.5", "complete", "asm:0.5", deterministic=True, log=True),
                RunCell("gs", "complete", "gs", deterministic=True),
            ),
        )
    if name == "sparse":
        # many processors with few partners: per-processor and per-round cost,
        # fast-forward, and the randomized subroutine flavors dominate
        return SimulationWorkload(
            {
                "bounded": ("bounded:8", sizes.sparse_n),
                "aregular": ("aregular:2,16", sizes.aregular_n),
            },
            (
                RunCell("randasm:0.5,0.1#0", "bounded", "randasm:0.5,0.1", deterministic=False),
                RunCell("randasm:0.5,0.1#1", "bounded", "randasm:0.5,0.1", deterministic=False,
                        seed_offset=1),
                RunCell("aregasm:0.5,0.1,2", "aregular", "aregasm:0.5,0.1,2", deterministic=False),
            ),
        )
    if name == "verify-files":
        return VerifyFilesWorkload(sizes.files_n)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("dense", "sparse", "verify-files")


# ---------------------------------------------------------------------------
# running a workload
# ---------------------------------------------------------------------------


def load_pins(workload: str, seed: int) -> dict:
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text(encoding="utf-8")).get(workload, {}).get(str(seed), {})


@dataclass
class Measurement:
    """Everything one invocation measured, before it is reduced to metrics."""

    setup_s: list = field(default_factory=list)
    passes: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    # first digest seen for each cell; every later pass, traced or not, must repeat it
    digests: dict = field(default_factory=dict)
    setup_totals: dict | None = None  # tracer totals of the traced set-up

    def failures(self) -> list:
        return [(cell, text) for p in self.passes + self.traced for cell, text in p.failures]


def _passes(wl, seed, inputs, reference, workdir, seconds, pins, measurement):
    """Yield passes until ``seconds`` have gone by (at least one), checking digests."""
    start = perf_counter()
    while True:
        gc.collect()  # start every pass from the same collector state
        result = wl.run_pass(seed, inputs, reference, workdir)
        for cell, digest in result.digests.items():
            if cell in pins and pins[cell] != digest:
                result.fail(cell, f"digest {digest} differs from pinned {pins[cell]}")
            seen = measurement.digests.setdefault(cell, digest)
            if seen != digest:
                result.fail(cell, f"digest {digest} differs from this run's first {seen}")
        yield result
        if perf_counter() - start >= seconds:
            return


def _setup(wl, seed, workdir, repeats, measurement):
    inputs = None
    for _ in range(repeats):
        inputs = None  # let the previous copy go before building the next
        t0 = perf_counter()
        inputs = wl.setup(seed, workdir)
        measurement.setup_s.append(perf_counter() - t0)
    return inputs, wl.prepare(inputs)


def measure(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes = FULL,
            pins: dict | None = None, out_dir: Path | None = None) -> Measurement:
    """Run one workload and keep everything it measured.

    Untraced, the inputs are built ``SETUP_REPEATS`` times and passes repeat
    for ``seconds``. Traced, half the time goes to untraced passes and half
    to traced ones, which gives the per-layer numbers and the tracing
    overhead; the spans are written to ``out_dir``.
    """
    wl = make_workload(name, sizes)
    if pins is None:
        pins = load_pins(name, seed) if sizes == FULL else {}
    out_dir = out_dir or HERE / "_out"
    out_dir.mkdir(parents=True, exist_ok=True)
    measurement = Measurement()
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        workdir = Path(tmp)
        inputs, reference = _setup(wl, seed, workdir, 1 if trace else SETUP_REPEATS, measurement)
        untraced_s = seconds / 2 if trace else seconds
        measurement.passes = list(
            _passes(wl, seed, inputs, reference, workdir, untraced_s, pins, measurement)
        )
        if trace:
            inputs = reference = None
            with Tracer() as tracer:
                inputs = wl.setup(seed, workdir)
                measurement.setup_totals = tracer.take_totals()
                reference = wl.prepare(inputs)
                tracer.take_totals()  # the checks' reference results are not workload
                passes = _passes(wl, seed, inputs, reference, workdir, seconds / 2, pins, measurement)
                for result in passes:
                    result.totals = tracer.take_totals()
                    _check_trace_consistency(result)
                    measurement.traced.append(result)
            tracer.write(out_dir / f"spans-{name}-seed{seed}.json", {"workload": name, "seed": seed})
    return measurement


def summarize(measurement: Measurement, trace: bool) -> dict:
    """The result object the benchmark prints as its last line."""
    all_passes = measurement.passes + measurement.traced
    # a trace-consistency failure names no cell; it still fails the pass's cells
    failed = sum(min(p.attempted, len({cell for cell, _ in p.failures})) for p in all_passes)
    if trace:
        metrics, units = per_layer_metrics(measurement), PER_LAYER
    else:
        metrics, units = end_to_end_metrics(measurement), END_TO_END
    return {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in all_passes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }


def _check_trace_consistency(result: PassResult) -> None:
    """The traced counters must agree with the counters the run itself reports."""
    counts, calls = result.totals["counts"], result.totals["calls"]
    traced_messages = counts.get("engine.messages", 0)
    if traced_messages != result.costs["messages"]:
        result.fail(
            "trace",
            f"{traced_messages} messages seen by run_round, {result.costs['messages']} reported"
        )
    stepped = sum(v for k, v in calls.items() if k.startswith("engine.round."))
    skipped = sum(v for k, v in counts.items() if k.startswith("engine.skipped."))
    if stepped + skipped != result.costs["sim_rounds"]:
        result.fail(
            "trace",
            f"{stepped} stepped + {skipped} skipped rounds != {result.costs['sim_rounds']} reported"
        )


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_wall(passes: list) -> float:
    """Each cell's median time over the passes, summed over cells.

    Host speed here drifts by tens of percent over seconds; a per-cell
    median discards a slow stretch that hits one cell of a pass without
    discarding the whole pass.
    """
    cells = sorted({cell for p in passes for cell in p.cell_s})
    return sum(statistics.median(p.cell_s[c] for p in passes if c in p.cell_s) for c in cells)


def end_to_end_metrics(measurement: Measurement) -> dict:
    return {
        "wall_s": median_wall(measurement.passes),
        "peak_rss_mb": peak_rss_mb(),
        "setup_s": statistics.median(measurement.setup_s),
    }


def _layer_values(totals: dict, costs: Counter) -> dict:
    own = totals["self_s"]
    incl = totals["incl_s"]
    calls = totals["calls"]
    counts = totals["counts"]

    def s(key):
        return own.get(key, 0.0)

    values = {
        "workbench.generate_s": s("workbench.generate"),
        "workbench.load_instance_s": s("workbench.load_instance"),
        "workbench.load_matching_s": s("workbench.load_matching"),
        "workbench.write_log_s": s("workbench.write_log"),
        "workbench.log_records": counts.get("workbench.log_records", 0),
        "model.profile_build_s": s("model.profile_build"),
        "model.quantize_s": s("model.quantize"),
        "model.quantize_calls": calls.get("model.quantize", 0),
        "model.prefs_remove_s": s("model.prefs_remove"),
        "model.prefs_removes": calls.get("model.prefs_remove", 0),
        "engine.topology_s": s("engine.topology"),
        "engine.self_s": sum(v for k, v in own.items() if k.startswith("engine.round."))
        + s("engine.skip"),
        "engine.send_s": s("engine.send"),
        "engine.messages": costs["messages"],
        "engine.sim_rounds": costs["sim_rounds"],
        "engine.rounds_stepped": sum(v for k, v in calls.items() if k.startswith("engine.round.")),
        "engine.rounds_skipped": sum(v for k, v in counts.items() if k.startswith("engine.skipped.")),
        "engine.processor_steps": calls.get("protocols.step", 0) + calls.get("maximal.step", 0),
        "protocols.run_s": s("protocols.run"),
        "protocols.state_init_s": s("protocols.state_init"),
        "protocols.step_s": s("protocols.step"),
        "protocols.proposal_rounds": costs["proposal_rounds"],
        "protocols.quantile_matches": costs["quantile_matches"],
        "maximal.step_s": s("maximal.step"),
        "maximal.mm_rounds_stepped": calls.get("engine.round.mm", 0),
        "maximal.mm_rounds_skipped": counts.get("engine.skipped.mm", 0),
        "maximal.mm_messages": costs["mm_messages"],
        "maximal.mm_invocations": costs["mm_invocations"],
        "maximal.mm_failures": costs["mm_failures"],
        "analysis.verify_s": s("analysis.verify"),
        "analysis.blocking_s": s("analysis.blocking"),
        "analysis.eps_blocking_s": s("analysis.eps_blocking"),
        "analysis.oracle_s": s("analysis.oracle"),
        "analysis.edges_scanned": counts.get("analysis.edges_scanned", 0),
        "analysis.blocking_found": counts.get("analysis.blocking_found", 0),
        "cli.main_s": incl.get("cli.main", 0.0),
        "cli.self_s": s("cli.main"),
    }
    for phase in PHASES:
        # phase times are inclusive: the round's engine work plus its step callbacks
        values[f"engine.round_s.{phase}"] = incl.get(f"engine.round.{phase}", 0.0)
    return values


def per_layer_metrics(measurement: Measurement) -> dict:
    """One traced set-up plus the median traced pass, per metric."""
    setup = _layer_values(measurement.setup_totals, Counter())
    per_pass = [_layer_values(p.totals, p.costs) for p in measurement.traced]
    metrics = {k: setup[k] + statistics.median(v[k] for v in per_pass) for k in setup}
    metrics["engine.skip_ratio"] = (
        metrics["engine.rounds_skipped"] / metrics["engine.sim_rounds"]
        if metrics["engine.sim_rounds"] else 0.0
    )
    metrics["maximal.fail_ratio"] = (
        metrics["maximal.mm_failures"] / metrics["maximal.mm_invocations"]
        if metrics["maximal.mm_invocations"] else 0.0
    )
    # throughputs come from the untraced passes, which tracing does not slow
    metrics["engine.msgs_per_s"] = statistics.median(
        p.costs["messages"] / p.run_s if p.run_s else 0.0 for p in measurement.passes
    )
    metrics["analysis.edges_per_s"] = statistics.median(
        p.edges / p.verify_s if p.verify_s else 0.0 for p in measurement.passes
    )
    metrics["trace.overhead_s"] = (
        median_wall(measurement.traced) - median_wall(measurement.passes)
    )
    return metrics
