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
from .model import BoundCheck, Matching, PreferenceProfile, QuantizedPrefs, Side, describe_descriptor, parse_descriptor, quantize


@dataclass(frozen=True)
class AsmParams:
    """Loop and quantization parameters derived from the target blocking budget.

    For budget fraction eps, preferences are split into k = ceil(8 / eps)
    quantiles, the tolerated bad-man fraction is delta = eps / 8, the degree
    ladder runs ceil(log2 n) + 1 rungs, and each rung repeats the quantile
    match ceil(2 k / delta) times.
    """

    eps: float
    k: int
    delta: float
    inner_iterations: int
    outer_iterations: int

    @classmethod
    def for_instance(cls, eps: float, n: int) -> "AsmParams":
        if not (0 < eps <= 1):
            raise ValueError(f"eps must be in (0, 1], got {eps}")
        k = math.ceil(8 / eps)
        delta = eps / 8
        inner = math.ceil(2 * k / delta)
        outer = (math.ceil(math.log2(n)) if n > 1 else 0) + 1
        return cls(eps=eps, k=k, delta=delta, inner_iterations=inner, outer_iterations=outer)


class ManState:
    # A is the part of the bucket a man opened his quantile match with (a_entry, the
    # same tuple when opened) that has not rejected him, in rank order; () when empty
    __slots__ = ("quantized", "p", "A", "active", "removed", "a_entry")

    def __init__(self, quantized: QuantizedPrefs):
        self.quantized = quantized
        self.p: int | None = None
        self.A: tuple[int, ...] = ()
        self.active = True
        self.removed = False
        self.a_entry: tuple[int, ...] | None = None


class WomanState:
    __slots__ = ("quantized", "p", "removed")

    def __init__(self, quantized: QuantizedPrefs):
        self.quantized = quantized
        self.p: int | None = None
        self.removed = False


@dataclass(frozen=True, slots=True)
class PlayerFinal:
    """Post-run snapshot of one player, for verification; ``remaining`` is in rank order."""

    partner: int | None
    remaining: tuple[int, ...]
    removed: bool


@dataclass(frozen=True)
class OuterRecord:
    """Bad-man accounting at the end of one rung of the degree ladder."""

    index: int
    active_men: int
    check: BoundCheck  # bad active men against delta * active men


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
    violations: tuple[str, ...]


class QuantileProtocol:
    """One run of the proposal machinery, on one engine, in the mode its
    schedule implies.

    * ``params`` None (serial): per-player singleton quantiles iterated to
      quiescence, which reduces the machinery to classical deferred acceptance.
    * ``flat_quantile_matches`` set (flat): that many quantile matches, run as
      rung 0 with no record; players the subroutine leaves unmatched in an
      accepted graph are removed from play.
    * otherwise (ladder): the full doubly nested loop; men with at least 2^i
      partners left when rung i opens take part in it, and one pass at its end
      records its active and bad men, with the REJECTs in flight settled.

    With ``strict`` set, invariant failures are raised; otherwise they are
    logged in ``violations``. The schedule's totals (proposal rounds,
    quantile matches, subroutine calls and failures) are counted in the
    trace's ``extras``.
    """

    def __init__(
        self,
        profile: PreferenceProfile,
        mm_spec: MatchingSubroutineSpec,
        params: AsmParams | None = None,
        flat_quantile_matches: int | None = None,
        seed: int = 0,
        round_cap: int | None = None,
        strict: bool = True,
        message_log: list | None = None,
        algorithm_label: str = "",
    ):
        self.mm_spec = mm_spec
        self.params = params
        self.flat_quantile_matches = flat_quantile_matches
        self.strict = strict
        self.algorithm_label = algorithm_label
        self.eng = Engine(Topology.from_profile(profile), seed=seed, round_cap=round_cap, message_log=message_log)
        self.totals = self.eng.trace.extras
        self.totals.update(dict.fromkeys(("proposal_rounds", "quantile_matches", "mm_invocations", "mm_failures"), 0))

        def quantized(prefs, ranks):  # each list shares the profile's cached rank table
            return [quantize(lst, params.k if params else max(1, len(lst)), r) for lst, r in zip(prefs, ranks)]

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
        # kept where the state changes, so no quiet check or actor list scans every
        # man: the men neither removed, matched nor out of partners; the men who
        # sent PROPOSE in the last propose round (every man with a nonempty A is
        # one); and those of the last round that opened a quantile match (every
        # man with an a_entry is one)
        self._unsettled = {i for i, st in enumerate(self.men) if st.quantized}
        self._proposers: list[int] = []
        self._opened: list[int] = []

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
        if st.A:  # a subset of the remaining list: keeping what remains drops the rejecters
            st.A = tuple(filter(st.quantized.__contains__, st.A))
        # equals summing the change per rejection: only the last one can leave
        # a man with neither a partner nor anyone left to reject him
        was_good = st.p is not None
        if was_good and st.p in rejected:
            st.p = None
        now_good = st.p is not None or not st.quantized
        self.good_count += int(now_good) - int(was_good)
        # a man leaves the unsettled when his list runs out, and rejoins when his partner rejects him
        if now_good != was_good:
            (self._unsettled.discard if now_good else self._unsettled.add)(ctx.index)

    def _close_quantile_match_for(self, idx: int, st: ManState) -> None:
        """Checks due when a quantile match ends (run post-settle)."""
        if st.A:
            self._violate(f"man {idx} exits a quantile match with nonempty active set {sorted(st.A)}")
            st.A = ()
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
            # the round steps the men and the receivers of mail
            raise InconsistentState(f"{ctx.self_id} received messages in a propose round")
        st = self.men[ctx.index]
        self._settle_man(st, ctx)
        if outer_index is not None:
            st.active = len(st.quantized) >= (1 << outer_index)
        if qm_start:
            self._close_quantile_match_for(ctx.index, st)
            if st.active and not st.removed and st.p is None:
                bucket = tuple(st.quantized.best_nonempty_bucket())
                if bucket:
                    st.A = st.a_entry = bucket
        if st.A:
            ctx.send_many(sorted(st.A), MsgKind.PROPOSE)
            self._proposers.append(ctx.index)

    def _step_accept(self, ctx: ProcessorContext, phase: MmPhase) -> None:
        if ctx.side is Side.MAN:
            # the round steps only the receivers of mail
            raise InconsistentState(f"{ctx.self_id} received messages in an accept round")
        st = self.women[ctx.index]
        # in sender order, so the accepted men come out sorted
        proposers = ctx.take(MsgKind.PROPOSE)
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
        node, _ = phase.receive(ctx, MsgKind.MM_MATCHED)
        partner, residual_here = node.matched, node.live
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
                ctx.send_many(st.quantized.remove_from(q0, keep=partner), MsgKind.REJECT)
                st.p = partner
            elif removed_now:
                # the REJECTs go out in index order
                ctx.send_many(sorted(st.quantized.remove_from(1)), MsgKind.REJECT)
                st.removed = True
        elif partner is not None:
            was_good = st.p is not None or not st.quantized
            st.p = partner
            st.A = ()
            self.good_count += 1 - int(was_good)
            self._unsettled.discard(ctx.index)
        elif removed_now:
            st.removed = True
            st.A = ()
            self._unsettled.discard(ctx.index)

    def _step_flush(self, ctx: ProcessorContext) -> None:
        if ctx.side is Side.MAN:
            self._settle_man(self.men[ctx.index], ctx)
        elif ctx.inbox:
            raise InconsistentState(f"{ctx.self_id} had messages at flush")

    # ------------------------------------------------------------------
    # schedule orchestration (simulator-global; never mutates player state)

    def _any_A(self) -> bool:
        return any(self.men[i].A for i in self._proposers)

    def _any_assignable(self, ignore_active: bool = False) -> bool:
        return any(ignore_active or self.men[i].active for i in self._unsettled)

    def _propose_actors(self, qm_start: bool, outer_index: int | None) -> Iterable[int]:
        if outer_index is not None:
            return range(len(self.men))
        if qm_start:
            # the men to close (an a_entry, maybe a nonempty A) or to open (unsettled)
            return self._unsettled.union(self._opened)
        return [i for i in self._proposers if self.men[i].A]

    def _propose_round(self, qm_start: bool, outer_index: int | None) -> int:
        actors = self._propose_actors(qm_start, outer_index)
        self._proposers = []
        sent = self.eng.run_round(lambda c: self._step_propose(c, qm_start, outer_index), "propose", actors)
        if qm_start:
            self._opened = self._proposers
        return sent

    def _after_qm_boundary(self) -> None:
        if self.good_count < self._last_good_count:
            self._violate(
                f"good-man count decreased from {self._last_good_count} to {self.good_count}",
                structural=True,
            )
        self._last_good_count = self.good_count

    def _match_and_reject(self) -> None:
        """The tail of every proposal round: accept round, subroutine phase, reject round."""
        phase = MmPhase(self.mm_spec, join=self._join_man)
        accepted = self.eng.run_round(lambda c: self._step_accept(c, phase), "accept", actors=())
        self.totals["mm_invocations"] += bool(accepted)
        # the greedy takes no rounds on an empty graph; a fixed schedule always does
        if accepted or phase.iterations:
            phase.run(self.eng)
        self.eng.run_round(lambda c: self._step_reject(c, phase), "reject", actors=phase.nodes)
        # the reject round pruned every node, so a live one is a residual the subroutine left
        self.totals["mm_failures"] += phase.any_live()

    def _proposal_round(self, qm_start: bool, outer_index: int | None) -> None:
        self.totals["proposal_rounds"] += 1
        self._propose_round(qm_start, outer_index)
        if qm_start:
            self._after_qm_boundary()
        self._match_and_reject()

    def _quantile_match(self, outer_index: int | None) -> None:
        self.totals["quantile_matches"] += 1
        # the proposal rounds count themselves, so the skipped ones are added after them
        skipped = self.eng.repeat(
            self.params.k,
            self._pr_shape,
            lambda r: self._proposal_round(qm_start=(r == 0), outer_index=(outer_index if r == 0 else None)),
            lambda r: r > 0 and not self._any_A(),
        )
        self.totals["proposal_rounds"] += skipped

    def _quantile_matches(self, count: int, rung: int) -> int:
        """Run ``count`` quantile matches, the first opening ``rung`` of the
        ladder (a flat run is rung 0); return how many were skipped."""
        k = self.params.k
        skipped = self.eng.repeat(
            count,
            [(label, k * rounds) for label, rounds in self._pr_shape],
            lambda j: self._quantile_match(outer_index=(rung if j == 0 else None)),
            # a rung's first propose round sets the active flags; before it,
            # every man counts
            lambda j: not self._any_assignable(ignore_active=(j == 0)),
        )
        self.totals["quantile_matches"] += skipped
        self.totals["proposal_rounds"] += k * skipped
        return skipped

    # -- bad-man accounting at ladder rung boundaries ----------------------

    def _record_outer(self, index: int, opened: bool) -> None:
        """Count the rung's active men, and the bad ones among them as of the settled
        state, i.e. with the REJECTs still in flight applied. Read-only instrumentation."""
        # only men receive REJECT, and a man's engine id is his index; a woman
        # rejects a man at most once a round, so an inbox holds distinct senders
        pending = self.eng.peek_pending(MsgKind.REJECT)
        active = bad = 0
        for m, st in enumerate(self.men):
            # the opening round set the flags; a rung skipped whole changed no state
            if st.active if opened else len(st.quantized) >= 1 << index:
                gone = pending.get(m, ())
                active += 1
                bad += (st.p is None or st.p in gone) and len(st.quantized) > len(gone)
        check = BoundCheck.of(self.params.delta * active, bad)
        self.outer_records.append(OuterRecord(index, active, check))
        if not check.passed:
            self._violate(f"rung {index}: {bad} bad men among {active} active exceeds {check.bound:g}")

    # ------------------------------------------------------------------
    # top-level schedules

    def _run_ladder(self) -> None:
        p = self.params
        for i in range(p.outer_iterations):
            self._record_outer(i, opened=self._quantile_matches(p.inner_iterations, i) < p.inner_iterations)

    def _run_serial(self) -> None:
        while self._propose_round(qm_start=True, outer_index=None):
            self.totals["proposal_rounds"] += 1
            self._match_and_reject()

    def _flush(self) -> None:
        if self.eng.in_flight:
            self.eng.run_round(self._step_flush, "flush", actors=())
        for idx, st in enumerate(self.men):
            self._close_quantile_match_for(idx, st)
        self._after_qm_boundary()

    def _assemble(self, partial: bool = False) -> RunResult:
        pairs = []
        for w_idx, st in enumerate(self.women):
            if st.p is not None:
                if not partial and self.men[st.p].p != w_idx:
                    raise InconsistentState(
                        f"woman {w_idx} holds man {st.p} but he holds {self.men[st.p].p}"
                    )
                pairs.append((st.p, w_idx))
        men, women = (tuple(PlayerFinal(st.p, st.quantized.remaining, st.removed) for st in players) for players in (self.men, self.women))
        return RunResult(
            algorithm=self.algorithm_label,
            matching=Matching.of(pairs),
            trace=self.eng.trace,
            men=men,
            women=women,
            params=self.params,
            outer_records=tuple(self.outer_records),
            violations=tuple(self.violations),
        )

    def run(self) -> RunResult:
        try:
            if self.params is None:
                self._run_serial()
            elif self.flat_quantile_matches is not None:
                self._quantile_matches(self.flat_quantile_matches, rung=0)
            else:
                self._run_ladder()
            self._flush()
        except RoundCapExceeded as exc:
            exc.partial = self._assemble(partial=True)
            raise
        return self._assemble()


# ---------------------------------------------------------------------------
# building a run from a descriptor
# ---------------------------------------------------------------------------


def men_degree_ratio(profile: PreferenceProfile) -> float:
    degs = list(map(len, profile.men_prefs))
    return math.inf if min(degs) == 0 else max(degs) / min(degs)


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

    # the parameters each descriptor must carry, in field order
    _GRAMMAR = {"gs": (), "asm": (("eps", float),), "randasm": (("eps", float), ("delta_fail", float)),
                "aregasm": (("eps", float), ("delta_fail", float), ("alpha", float))}

    def __post_init__(self):
        if self.name not in self._GRAMMAR:
            raise ValueError(f"unknown algorithm {self.name!r}")
        missing = [param for param, _ in self._GRAMMAR[self.name] if getattr(self, param) is None]
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
        name, fields = parse_descriptor(text, cls._GRAMMAR, "algorithm")
        return cls(name, **fields, mm=mm)

    def describe(self) -> str:
        return describe_descriptor(self.name, self._GRAMMAR, self)

    def _schedule(self, n: int) -> tuple[AsmParams | None, int | None, MatchingSubroutineSpec]:
        """The ladder parameters, flat quantile-match count and subroutine of
        a run with n players a side; ``QuantileProtocol`` reads its mode from them.

        * ``gs``: no parameters (serial deferred acceptance) with the greedy subroutine.
        * ``asm``: the degree ladder, greedy subroutine unless overridden.
        * ``randasm``: the ladder with ``rand:s`` sized so that, by a union
          bound over every subroutine call the schedule can make, all of them
          produce a maximal matching with probability at least 1 - delta.
        * ``aregasm``: a flat ceil(8 alpha k / eps) quantile matches with an
          almost-maximal subroutine, whose stragglers leave the game
          immediately.
        """
        mm = self.mm or MatchingSubroutineSpec("det")
        if self.name == "gs":
            return None, None, mm
        try:  # a tiny eps can overflow a count or underflow a probability
            params = AsmParams.for_instance(self.eps, n)
            if self.name == "aregasm":
                flat = math.ceil(8 * self.alpha * params.k / self.eps)
                eta = self.eps**4 / (64 * self.alpha)
                return params, flat, MatchingSubroutineSpec("amm", eta=eta, delta=self.delta_fail / (flat * params.k))
            if self.name == "randasm" and self.mm is None:
                total_calls = params.outer_iterations * params.inner_iterations * params.k
                mm = MatchingSubroutineSpec("rand", iterations_for_maximal(total_calls * 2 * n, self.delta_fail))
        except (ArithmeticError, ValueError) as exc:
            raise ValueError(f"cannot build a schedule for {self.describe()} with n={n}: {exc}") from None
        return params, None, mm


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
    params, flat, mm = spec._schedule(profile.n)
    label = spec.describe()
    if spec.mm is not None and (spec.name == "randasm" or spec.mm.flavor != "det"):
        label += f"/{spec.mm.describe()}"
    if spec.name == "gs" and round_cap is None:
        round_cap = 6 * (profile.n * profile.n + profile.n) + 8
    return QuantileProtocol(
        profile,
        mm_spec=mm,
        params=params,
        flat_quantile_matches=flat,
        seed=seed,
        round_cap=round_cap,
        strict=spec.deterministic,
        message_log=message_log,
        algorithm_label=label,
    ).run()
