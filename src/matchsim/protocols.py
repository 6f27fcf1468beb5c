"""The quantile proposal protocol family, run over the synchronous engine.

One proposal round works in five steps spread over engine rounds:

1. propose round: every man sends PROPOSE to each woman in his active set A.
2. accept round: each proposed-to woman ACCEPTs exactly the proposers in her
   best remaining quantile that contains a proposer.
3. subroutine phase: one ``MmPhase`` (``maximal.py``) computes a maximal
   (or almost-maximal) matching in the bipartite graph of accepted
   proposals, via message rounds.
4. reject round: each newly matched woman sends REJECT to every remaining
   man in a quantile no better than her new partner's, prunes them from her
   list, and records the partner; matched men clear A.
5. rejected men prune the rejecting women from their lists and active sets;
   a man rejected by his current partner becomes single. This step executes
   in the receive stage of the *following* engine round (the next propose
   round, or one trailing flush round at the end of the run), so a proposal
   round consumes 3 + rounds(subroutine) engine rounds.

The protocol schedule is fixed and known to all processors up front; the
engine executes every round of it, but stretches in which provably no
processor would send (no active sets, nothing in flight) are advanced
arithmetically instead of being stepped one by one. One driver,
``Engine.repeat``, does this at every level of the schedule: rungs, quantile
matches, proposal rounds and the subroutine's iterations. Round and message
counters are identical either way.

Runtime invariant checks (partner monotonicity, active-set emptiness after
each quantile match, good-man accounting) are enforced while running; checks
that are only guaranteed when every run is exact are raised for a
deterministic descriptor (``AlgorithmSpec.deterministic``) and logged
otherwise.

A run is built from a descriptor only: ``run_algorithm(profile, "asm:0.25")``
(or an ``AlgorithmSpec``) is the one protocol runner, and
``AlgorithmSpec`` is the one place that turns a descriptor into a schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .engine import Engine, MsgKind, ProcessorContext, RoundTrace, Topology
from .errors import (
    InconsistentState,
    InvariantViolation,
    NotAlmostRegular,
    RoundCapExceeded,
)
from .maximal import MatchingSubroutineSpec, MmNode, MmPhase, iterations_for_maximal
from .model import Matching, PreferenceProfile, QuantizedPrefs, Side, quantize


@dataclass(frozen=True)
class AsmParams:
    """Loop and quantization parameters derived from the target blocking budget.

    For budget fraction eps, preferences are split into k = ceil(8 / eps)
    quantiles, the tolerated bad-man fraction is delta = eps / 8, the degree
    ladder runs ceil(log2 n) + 1 rungs, and each rung repeats the quantile
    match ceil(2 k / delta) times.
    """

    eps: float
    n: int
    k: int
    delta: float
    inner_iterations: int
    outer_iterations: int

    def __post_init__(self):
        if not (0 < self.eps <= 1):
            raise ValueError(f"eps must be in (0, 1], got {self.eps}")
        if self.k < 8 or not (0 < self.delta <= 0.125):
            raise ValueError("derived parameters out of range (need k >= 8, 0 < delta <= 1/8)")

    @classmethod
    def for_instance(cls, eps: float, n: int) -> "AsmParams":
        if not (0 < eps <= 1):
            raise ValueError(f"eps must be in (0, 1], got {eps}")
        k = math.ceil(8 / eps)
        delta = eps / 8
        inner = math.ceil(2 * k / delta)
        outer = (math.ceil(math.log2(n)) if n > 1 else 0) + 1
        return cls(eps=eps, n=n, k=k, delta=delta, inner_iterations=inner, outer_iterations=outer)


class ManState:
    __slots__ = ("quantized", "p", "A", "active", "removed", "a_entry")

    def __init__(self, quantized: QuantizedPrefs):
        self.quantized = quantized
        self.p: int | None = None
        self.A: set[int] = set()
        self.active = True
        self.removed = False
        self.a_entry: frozenset[int] | None = None


class WomanState:
    __slots__ = ("quantized", "p", "removed")

    def __init__(self, quantized: QuantizedPrefs):
        self.quantized = quantized
        self.p: int | None = None
        self.removed = False


@dataclass(frozen=True)
class PlayerFinal:
    """Post-run snapshot of one player, for verification."""

    partner: int | None
    remaining: frozenset[int]
    removed: bool


@dataclass(frozen=True)
class OuterRecord:
    """Bad-man accounting at the end of one rung of the degree ladder."""

    index: int
    active_men: int
    bad_active_men: int
    bound: float
    passed: bool


@dataclass(frozen=True)
class RunResult:
    """Everything a run produces: the matching, round/message accounting,
    final player states, per-rung records, and any logged check failures."""

    algorithm: str
    matching: Matching
    trace: RoundTrace
    men: tuple[PlayerFinal, ...]
    women: tuple[PlayerFinal, ...]
    params: AsmParams | None
    outer_records: tuple[OuterRecord, ...]
    mm_failures: int
    violations: tuple[str, ...]


class QuantileProtocol:
    """One run of the proposal machinery in one of three modes.

    * ``ladder``: the full doubly nested loop; men whose remaining list has
      at least 2^i entries participate in rung i.
    * ``flat``: a fixed number of quantile matches with every man eligible
      throughout; players the subroutine leaves unmatched in an accepted
      graph are removed from play.
    * ``serial``: per-player singleton quantiles iterated to quiescence,
      which reduces the machinery to classical deferred acceptance.

    With ``strict`` set, invariant failures are raised; otherwise they are
    logged in ``violations``.
    """

    def __init__(
        self,
        profile: PreferenceProfile,
        mode: str,
        mm_spec: MatchingSubroutineSpec,
        params: AsmParams | None = None,
        flat_quantile_matches: int | None = None,
        seed: int = 0,
        round_cap: int | None = None,
        strict: bool = True,
        message_log: list | None = None,
        algorithm_label: str = "",
    ):
        if mode not in ("ladder", "flat", "serial"):
            raise ValueError(f"unknown mode {mode!r}")
        if mode in ("ladder", "flat") and params is None:
            raise ValueError("ladder and flat modes need params")
        if mode == "flat" and flat_quantile_matches is None:
            raise ValueError("flat mode needs a quantile match count")
        self.profile = profile
        self.mode = mode
        self.mm_spec = mm_spec
        self.params = params
        self.flat_quantile_matches = flat_quantile_matches
        self.seed = seed
        self.round_cap = round_cap
        self.strict = strict
        self.message_log = message_log
        self.algorithm_label = algorithm_label

        def quantized(prefs, ranks):  # each list shares the profile's cached rank table
            return [quantize(lst, max(1, len(lst)) if mode == "serial" else params.k, r) for lst, r in zip(prefs, ranks)]

        # men are processors 0..n-1, so a man's index is also his engine id
        self.men = list(map(ManState, quantized(profile.men_prefs, profile._man_rank)))
        self.women = list(map(WomanState, quantized(profile.women_prefs, profile._woman_rank)))

        # the (label, rounds) one proposal round runs; a greedy subroutine
        # runs no rounds when it is skipped, a fixed schedule 4 per iteration
        fixed = mm_spec.fixed_iterations()
        mm_rounds = (("mm", 4 * fixed),) if fixed else ()
        self._pr_shape = (("propose", 1), ("accept", 1)) + mm_rounds + (("reject", 1),)

        self.good_count = sum(1 for st in self.men if not st.quantized)
        self._last_good_count = self.good_count
        self._frozen_active: list[int] = list(range(profile.n))

        self.pr_count = 0
        self.qm_count = 0
        self.mm_calls = 0
        self.mm_failures = 0
        self.outer_records: list[OuterRecord] = []
        self.violations: list[str] = []

    # ------------------------------------------------------------------
    # plumbing

    def _violate(self, msg: str, structural: bool = False) -> None:
        if structural or self.strict:
            raise InvariantViolation(msg)
        self.violations.append(msg)

    # ------------------------------------------------------------------
    # step functions (strictly local: own state + inbox only)

    def _settle_man(self, st: ManState, ctx: ProcessorContext) -> None:
        """Process rejections delivered since the man's last step, all at once."""
        if not ctx.inbox:
            return
        rejected = ctx.take(MsgKind.REJECT)
        try:
            st.quantized.remove_many(rejected)
        except KeyError as exc:
            raise InconsistentState(f"{ctx.self_id} rejected twice: {exc}") from exc
        if st.A:
            st.A.difference_update(rejected)
        # equals summing the change per rejection: only the last one can leave
        # a man with neither a partner nor anyone left to reject him
        was_good = st.p is not None
        if was_good and st.p in rejected:
            st.p = None
        now_good = st.p is not None or not st.quantized
        self.good_count += int(now_good) - int(was_good)

    def _close_quantile_match_for(self, idx: int, st: ManState) -> None:
        """Checks due when a quantile match ends (run post-settle)."""
        if st.A:
            self._violate(f"man {idx} exits a quantile match with nonempty active set {sorted(st.A)}")
            st.A = set()
        if st.a_entry is not None:
            matched_inside = st.p is not None and st.p in st.a_entry
            fully_rejected = not any(map(st.quantized.__contains__, st.a_entry))
            if not (matched_inside or fully_rejected):
                self._violate(
                    f"man {idx} neither matched inside his entering active set nor rejected by all of it"
                )
            st.a_entry = None

    def _step_propose(self, ctx: ProcessorContext, qm_start: bool, outer_index: int | None) -> None:
        if ctx.side is Side.WOMAN:
            if ctx.inbox:
                raise InconsistentState(f"{ctx.self_id} received messages in a propose round")
            return
        st = self.men[ctx.index]
        self._settle_man(st, ctx)
        if outer_index is not None:
            st.active = len(st.quantized) >= (1 << outer_index)
        if qm_start:
            self._close_quantile_match_for(ctx.index, st)
            if st.active and not st.removed and st.p is None:
                bucket = st.quantized.best_nonempty_bucket()
                if bucket:
                    st.A = set(bucket)
                    st.a_entry = frozenset(bucket)
        if st.A:
            ctx.send_many(sorted(st.A), MsgKind.PROPOSE)

    def _step_accept(self, ctx: ProcessorContext, phase: MmPhase) -> None:
        if ctx.side is Side.MAN:
            if ctx.inbox:
                raise InconsistentState(f"{ctx.self_id} received messages in an accept round")
            return
        st = self.women[ctx.index]
        # in sender order, so the accepted men come out sorted
        proposers = ctx.take(MsgKind.PROPOSE)
        if not proposers:
            return
        if not all(map(st.quantized.__contains__, proposers)):
            pruned = next(m for m in proposers if m not in st.quantized)
            raise InconsistentState(f"{ctx.self_id} got a proposal from pruned {ctx.peer(pruned)}")
        if st.removed:
            raise InconsistentState(f"removed {ctx.self_id} received a proposal")
        quantile = st.quantized.quantile
        best = min(map(quantile, proposers))
        if st.p is not None and best >= quantile(st.p):
            self._violate(
                f"woman {ctx.index} saw best proposing quantile {best}, no better than her partner's",
                structural=True,
            )
        accepted = [m for m in proposers if quantile(m) == best]
        phase.nodes[ctx.id] = MmNode(accepted)
        ctx.send_many(accepted, MsgKind.ACCEPT)

    def _join_man(self, ctx: ProcessorContext, accepts: list[int]) -> MmNode:
        """The subroutine's hook: the ACCEPTs a man receives become his node."""
        if ctx.side is not Side.MAN:
            raise InconsistentState(f"{ctx.self_id} received ACCEPT")
        proposed_to = self.men[ctx.index].A
        for sender in accepts:
            if sender not in proposed_to:
                raise InconsistentState(f"{ctx.self_id} got ACCEPT from {ctx.peer(sender)} for an unsent proposal")
        return MmNode(accepts)

    def _step_reject(self, ctx: ProcessorContext, phase: MmPhase) -> None:
        st = self.men[ctx.index] if ctx.side is Side.MAN else self.women[ctx.index]
        node, announcers = phase.receive(ctx, MsgKind.MM_MATCHED)
        if node is not None:
            node.residual.difference_update(announcers)
        partner, residual_here = (None, False) if node is None else (node.matched, node.live)
        # only players with no partner at all leave the game; a matched woman
        # the subroutine failed to upgrade simply keeps her current partner
        removed_now = residual_here and self.mm_spec.flavor == "amm" and st.p is None
        if ctx.side is Side.WOMAN:
            if partner is not None:
                q0 = st.quantized.quantile(partner)
                if st.p is not None:
                    if st.p == partner:
                        raise InconsistentState(f"woman {ctx.index} re-matched to her current partner")
                    if q0 >= st.quantized.quantile(st.p):
                        self._violate(
                            f"woman {ctx.index} partner quantile did not strictly improve",
                            structural=True,
                        )
                targets = [m for m in st.quantized.at_or_worse(q0) if m != partner]
                ctx.send_many(targets, MsgKind.REJECT)
                st.quantized.remove_many(targets)
                st.p = partner
            elif removed_now:
                targets = sorted(st.quantized.remaining)
                ctx.send_many(targets, MsgKind.REJECT)
                st.quantized.remove_many(targets)
                st.removed = True
        elif partner is not None:
            was_good = st.p is not None or not st.quantized
            st.p = partner
            st.A = set()
            self.good_count += 1 - int(was_good)
        elif removed_now:
            st.removed = True
            st.A = set()

    def _step_flush(self, ctx: ProcessorContext) -> None:
        if ctx.side is Side.MAN:
            self._settle_man(self.men[ctx.index], ctx)
        elif ctx.inbox:
            raise InconsistentState(f"{ctx.self_id} had messages at flush")

    # ------------------------------------------------------------------
    # schedule orchestration (simulator-global; never mutates player state)

    def _any_A(self) -> bool:
        return any(st.A for st in self.men)

    def _any_assignable(self, ignore_active: bool = False) -> bool:
        return any(
            (ignore_active or st.active) and not st.removed and st.p is None and st.quantized
            for st in self.men
        )

    def _propose_actors(self, qm_start: bool, outer_index: int | None) -> Iterable[int]:
        if outer_index is not None:
            return range(len(self.men))
        return [
            i for i, st in enumerate(self.men)
            if st.A or (qm_start and (st.a_entry is not None or (not st.removed and st.p is None and st.quantized)))
        ]

    def _after_qm_boundary(self) -> None:
        if self.good_count < self._last_good_count:
            self._violate(
                f"good-man count decreased from {self._last_good_count} to {self.good_count}",
                structural=True,
            )
        self._last_good_count = self.good_count

    def _match_and_reject(self, eng: Engine) -> None:
        """The tail of every proposal round: accept round, subroutine phase, reject round."""
        phase = MmPhase(self.mm_spec, join=self._join_man)
        accepted = eng.run_round(lambda c: self._step_accept(c, phase), "accept", actors=())
        if accepted:
            self.mm_calls += 1
        # the greedy takes no rounds on an empty graph; a fixed schedule always does
        if accepted or phase.iterations:
            phase.run(eng)
        eng.run_round(lambda c: self._step_reject(c, phase), "reject", actors=phase.nodes)
        # the reject round pruned every node, so a live one is a residual the subroutine left
        if phase.any_live():
            self.mm_failures += 1

    def _proposal_round(self, eng: Engine, qm_start: bool, outer_index: int | None) -> None:
        self.pr_count += 1
        actors = self._propose_actors(qm_start, outer_index)
        eng.run_round(lambda c: self._step_propose(c, qm_start, outer_index), "propose", actors)
        if outer_index is not None:
            self._frozen_active = [i for i, st in enumerate(self.men) if st.active]
        if qm_start:
            self._after_qm_boundary()
        self._match_and_reject(eng)

    def _quantile_match(self, eng: Engine, outer_index: int | None) -> None:
        self.qm_count += 1
        skipped = eng.repeat(
            self.params.k,
            self._pr_shape,
            lambda r: self._proposal_round(eng, qm_start=(r == 0), outer_index=(outer_index if r == 0 else None)),
            lambda r: r > 0 and not self._any_A(),
        )
        self.pr_count += skipped

    def _quantile_matches(self, eng: Engine, count: int, rung: int | None) -> int:
        """Run ``count`` quantile matches, the first opening ``rung`` of the
        ladder (None in flat mode); return how many were skipped."""
        k = self.params.k
        skipped = eng.repeat(
            count,
            [(label, k * rounds) for label, rounds in self._pr_shape],
            lambda j: self._quantile_match(eng, outer_index=(rung if j == 0 else None)),
            # a rung's first propose round sets the active flags; before it,
            # every man counts
            lambda j: not self._any_assignable(ignore_active=(j == 0 and rung is not None)),
        )
        self.qm_count += skipped
        self.pr_count += k * skipped
        return skipped

    # -- bad-man accounting at ladder rung boundaries ----------------------

    def _settled_bad_men(self, eng: Engine, candidates: Iterable[int]) -> int:
        """Count bad men among candidates as of the settled state, i.e. with
        in-flight rejections applied. Read-only instrumentation."""
        # only men receive REJECT, and a man's engine id is his index
        pending = eng.peek_pending(MsgKind.REJECT)
        bad = 0
        for m_idx in candidates:
            st = self.men[m_idx]
            gone = set(pending.get(m_idx, ()))
            if (st.p is None or st.p in gone) and len(st.quantized) > len(gone):
                bad += 1
        return bad

    def _record_outer(self, eng: Engine, index: int, active: list[int]) -> None:
        bad = self._settled_bad_men(eng, active)
        bound = self.params.delta * len(active)
        passed = bad <= bound + 1e-9
        self.outer_records.append(
            OuterRecord(index=index, active_men=len(active), bad_active_men=bad, bound=bound, passed=passed)
        )
        if not passed:
            self._violate(
                f"rung {index}: {bad} bad men among {len(active)} active exceeds {bound:g}"
            )

    # ------------------------------------------------------------------
    # top-level schedules

    def _run_ladder(self, eng: Engine) -> None:
        p = self.params
        for i in range(p.outer_iterations):
            if self._quantile_matches(eng, p.inner_iterations, i) == p.inner_iterations:
                # the whole rung was skipped, so no propose round froze its active men
                self._frozen_active = [m for m, st in enumerate(self.men) if len(st.quantized) >= (1 << i)]
            self._record_outer(eng, i, self._frozen_active)

    def _run_serial(self, eng: Engine) -> None:
        while True:
            actors = self._propose_actors(qm_start=True, outer_index=None)
            if not eng.run_round(lambda c: self._step_propose(c, True, None), "propose", actors):
                break
            self.pr_count += 1
            self._match_and_reject(eng)

    def _flush(self, eng: Engine) -> None:
        if eng.in_flight:
            eng.run_round(self._step_flush, "flush", actors=())
        for idx, st in enumerate(self.men):
            self._close_quantile_match_for(idx, st)
        self._after_qm_boundary()

    def _assemble(self, eng: Engine, partial: bool = False) -> RunResult:
        pairs = []
        for w_idx, st in enumerate(self.women):
            if st.p is not None:
                if not partial and self.men[st.p].p != w_idx:
                    raise InconsistentState(
                        f"woman {w_idx} holds man {st.p} but he holds {self.men[st.p].p}"
                    )
                pairs.append((st.p, w_idx))
        eng.trace.extras.update(
            {
                "proposal_rounds": self.pr_count,
                "quantile_matches": self.qm_count,
                "mm_invocations": self.mm_calls,
                "mm_failures": self.mm_failures,
            }
        )
        men, women = (tuple(PlayerFinal(st.p, st.quantized.remaining, st.removed) for st in players) for players in (self.men, self.women))
        return RunResult(
            algorithm=self.algorithm_label,
            matching=Matching.of(pairs),
            trace=eng.trace,
            men=men,
            women=women,
            params=self.params,
            outer_records=tuple(self.outer_records),
            mm_failures=self.mm_failures,
            violations=tuple(self.violations),
        )

    def run(self) -> RunResult:
        eng = Engine(
            Topology.from_profile(self.profile),
            seed=self.seed,
            round_cap=self.round_cap,
            message_log=self.message_log,
        )
        try:
            if self.mode == "ladder":
                self._run_ladder(eng)
            elif self.mode == "flat":
                self._quantile_matches(eng, self.flat_quantile_matches, rung=None)
            else:
                self._run_serial(eng)
            self._flush(eng)
        except RoundCapExceeded as exc:
            exc.partial = self._assemble(eng, partial=True)
            raise
        return self._assemble(eng)


# ---------------------------------------------------------------------------
# building a run from a descriptor
# ---------------------------------------------------------------------------


def men_degree_ratio(profile: PreferenceProfile) -> float:
    degs = list(map(len, profile.men_prefs))
    return math.inf if min(degs) == 0 else max(degs) / min(degs)


# the parameters each descriptor must carry, in field order
_REQUIRED = {"gs": (), "asm": ("eps",), "randasm": ("eps", "delta_fail"), "aregasm": ("eps", "delta_fail", "alpha")}


@dataclass(frozen=True)
class AlgorithmSpec:
    """Parsed form of CLI algorithm descriptors.

    ``gs``, ``asm:EPS``, ``randasm:EPS,DELTA``, ``aregasm:EPS,DELTA,ALPHA``;
    ``asm`` and ``randasm`` take a subroutine override. A spec whose
    schedule cannot be built for one player a side is rejected here, before
    any run.
    """

    name: str
    eps: float | None = None
    delta_fail: float | None = None
    alpha: float | None = None
    mm: MatchingSubroutineSpec | None = None

    def __post_init__(self):
        if self.name not in _REQUIRED:
            raise ValueError(f"unknown algorithm {self.name!r}")
        missing = [param for param in _REQUIRED[self.name] if getattr(self, param) is None]
        if missing:
            raise ValueError(f"{self.name} needs {', '.join(missing)}")
        if self.eps is not None and not (0 < self.eps <= 1):
            raise ValueError(f"eps must be in (0, 1], got {self.eps:g}")
        if self.delta_fail is not None and not (0 < self.delta_fail < 1):
            raise ValueError(f"delta must be in (0, 1), got {self.delta_fail:g}")
        if self.alpha is not None and not 1 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be a finite number >= 1, got {self.alpha:g}")
        if self.mm is not None and self.name not in ("asm", "randasm"):
            raise ValueError(f"a subroutine override applies to asm and randasm only, not {self.name}")
        # k, the quantile matches per rung, the flat count and the aregasm
        # subroutine do not depend on n, so one player a side checks them all
        self._schedule(1)

    @property
    def deterministic(self) -> bool:
        """Whether every run is exact, so invariant failures are raised rather than logged."""
        return self.name == "gs" or (self.name == "asm" and (self.mm is None or self.mm.flavor == "det"))

    @classmethod
    def parse(cls, text: str, mm: MatchingSubroutineSpec | None = None) -> "AlgorithmSpec":
        head, colon, rest = text.partition(":")
        args = rest.split(",") if colon else []
        if head not in _REQUIRED or len(args) != len(_REQUIRED[head]):
            raise ValueError(f"cannot parse algorithm descriptor {text!r}")
        return cls(head, *map(float, args), mm=mm)

    def describe(self) -> str:
        params = ",".join(f"{getattr(self, param):g}" for param in _REQUIRED[self.name])
        return f"{self.name}:{params}" if params else self.name

    def _schedule(self, n: int) -> tuple[str, AsmParams | None, int | None, MatchingSubroutineSpec]:
        """The mode, ladder parameters, flat quantile-match count and subroutine
        of a run with n players a side.

        * ``gs``: serial mode with the greedy subroutine.
        * ``asm``: the degree ladder, greedy subroutine unless overridden.
        * ``randasm``: the ladder with ``rand:s`` sized so that, by a union
          bound over every subroutine call the schedule can make, all of them
          produce a maximal matching with probability at least 1 - delta.
        * ``aregasm``: a flat ceil(8 alpha k / eps) quantile matches with an
          almost-maximal subroutine, whose stragglers leave the game
          immediately.
        """
        mm = self.mm or MatchingSubroutineSpec.deterministic()
        if self.name == "gs":
            return "serial", None, None, mm
        try:  # a tiny eps can overflow a count or underflow a probability
            params = AsmParams.for_instance(self.eps, n)
            if self.name == "aregasm":
                flat = math.ceil(8 * self.alpha * params.k / self.eps)
                eta = self.eps**4 / (64 * self.alpha)
                return "flat", params, flat, MatchingSubroutineSpec.almost_maximal(eta, self.delta_fail / (flat * params.k))
            if self.name == "randasm" and self.mm is None:
                total_calls = params.outer_iterations * params.inner_iterations * params.k
                mm = MatchingSubroutineSpec.randomized(iterations_for_maximal(total_calls * 2 * n, self.delta_fail))
        except (ArithmeticError, ValueError) as exc:
            raise ValueError(f"cannot build a schedule for {self.describe()} with n={n}: {exc}") from None
        return "ladder", params, None, mm


def run_algorithm(
    profile: PreferenceProfile,
    algorithm: AlgorithmSpec | str,
    seed: int = 0,
    round_cap: int | None = None,
    message_log: list | None = None,
) -> RunResult:
    """Execute any protocol of the family from its descriptor, e.g. ``"asm:0.25"``.

    ``gs``'s default round cap allows n^2 + n proposal iterations of six
    engine rounds each (propose, accept, three subroutine rounds, reject).
    ``aregasm`` needs men's degree spread at most alpha. A ``message_log`` list
    gets one record per fan-out; ``write_message_log`` writes its NDJSON lines.
    """
    spec = AlgorithmSpec.parse(algorithm) if isinstance(algorithm, str) else algorithm
    if spec.name == "aregasm":
        ratio = men_degree_ratio(profile)
        if ratio > spec.alpha:
            raise NotAlmostRegular(ratio, spec.alpha)
    mode, params, flat, mm = spec._schedule(profile.n)
    label = spec.describe()
    if spec.mm is not None and (spec.name == "randasm" or spec.mm.flavor != "det"):
        label += f"/{spec.mm.describe()}"
    if spec.name == "gs" and round_cap is None:
        round_cap = 6 * (profile.n * profile.n + profile.n) + 8
    return QuantileProtocol(
        profile,
        mode=mode,
        mm_spec=mm,
        params=params,
        flat_quantile_matches=flat,
        seed=seed,
        round_cap=round_cap,
        strict=spec.deterministic,
        message_log=message_log,
        algorithm_label=label,
    ).run()
