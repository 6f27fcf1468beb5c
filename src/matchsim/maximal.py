"""Distributed maximal and almost-maximal matching subroutines.

Three flavors sit behind one spec type, selectable per run:

* ``det``  -- repeated lowest-id mutual-pointer greedy. Always maximal,
  fully deterministic, worst-case O(n) rounds but fast in practice.
* ``rand:s`` -- s iterations of the random-pointer matching round
  (point / keep incoming edge / choose incident edge / resolve mutual
  choices). Maximal with probability that improves geometrically in s.
* ``amm:eta,delta`` -- the same iteration run just long enough that at most
  an eta-fraction of vertices is left violating maximality, with
  probability at least 1 - delta.

Each randomized iteration costs 4 engine rounds (3 message rounds plus a
resolution round in which matched vertices announce themselves). One
``MmPhase`` holds the per-vertex steps and the driver for all three flavors;
``MmNode`` is only the state of one vertex, and every rule and consistency
check lives in the phase's steps. Inside a phase, vertices are engine
processor ids and neighbours are partner indices on the other side, as the
engine addresses them. The proposal protocol runs a phase as part of its
own schedule; ``maximal_matching(graph, spec)`` is its standalone twin,
which runs one phase on an arbitrary bipartite graph of ``PlayerId``s and
reports the violators ``check_maximal`` finds. Randomized iterations are
fast-forwarded by the same ``Engine.repeat`` that drives the protocol's
schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .engine import Engine, MsgKind, ProcessorContext, RoundTrace, Topology
from .errors import InconsistentState, InvalidMatching
from .model import Matching, PlayerId, PreferenceProfile, Side, man, woman

# the expected factor by which one randomized iteration shrinks the residual
DEFAULT_SHRINK_C = 0.95


def iterations_for_maximal(num_vertices: int, eta: float) -> int:
    """Iterations after which the residual is empty with probability >= 1 - eta.

    Derived from the expected geometric shrink of the residual vertex set by
    a factor DEFAULT_SHRINK_C per iteration plus a first-moment bound.
    """
    if not 0 < eta:
        raise ValueError("need eta > 0")
    if num_vertices < 1:
        return 1
    return max(1, math.ceil(math.log(num_vertices / eta) / math.log(1 / DEFAULT_SHRINK_C)))


def iterations_for_almost_maximal(eta: float, delta: float) -> int:
    """Iterations after which at most an eta-fraction of vertices violates
    maximality, with probability >= 1 - delta."""
    if not (0 < eta <= 1) or not (0 < delta < 1):
        raise ValueError("need 0 < eta <= 1 and 0 < delta < 1")
    return max(1, math.ceil(math.log(1 / (delta * eta)) / math.log(1 / DEFAULT_SHRINK_C)))


@dataclass(frozen=True)
class MatchingSubroutineSpec:
    """Which matching subroutine a proposal round uses, plus its parameters."""

    flavor: str  # "det" | "rand" | "amm"
    iterations: int | None = None  # rand: fixed iteration count s
    eta: float | None = None  # amm: tolerated unmatched vertex fraction
    delta: float | None = None  # amm: failure probability

    def __post_init__(self):
        if self.flavor not in ("det", "rand", "amm"):
            raise ValueError(f"unknown subroutine flavor {self.flavor!r}")
        if self.flavor == "rand":
            if self.iterations is None or self.iterations < 1:
                raise ValueError("rand flavor needs iterations >= 1")
        if self.flavor == "amm":
            if self.eta is None or not (0 < self.eta <= 1):
                raise ValueError("amm flavor needs 0 < eta <= 1")
            if self.delta is None or not (0 < self.delta < 1):
                raise ValueError("amm flavor needs 0 < delta < 1")
            try:
                self.fixed_iterations()
            except ArithmeticError as exc:  # eta * delta underflows
                raise ValueError(f"amm flavor cannot size its schedule: {exc}") from None

    @classmethod
    def deterministic(cls) -> "MatchingSubroutineSpec":
        return cls(flavor="det")

    @classmethod
    def randomized(cls, iterations: int) -> "MatchingSubroutineSpec":
        return cls(flavor="rand", iterations=iterations)

    @classmethod
    def almost_maximal(cls, eta: float, delta: float) -> "MatchingSubroutineSpec":
        return cls(flavor="amm", eta=eta, delta=delta)

    @classmethod
    def parse(cls, text: str) -> "MatchingSubroutineSpec":
        """Parse descriptor strings: ``det``, ``rand:S``, ``amm:ETA,DELTA``."""
        head, _, rest = text.partition(":")
        if text == "det":
            return cls.deterministic()
        if head == "rand":
            return cls.randomized(int(rest))
        if head == "amm":
            eta_s, _, delta_s = rest.partition(",")
            return cls.almost_maximal(float(eta_s), float(delta_s))
        raise ValueError(f"unknown subroutine descriptor {text!r}")

    def fixed_iterations(self) -> int | None:
        """Iteration count of the fixed schedule, or None for the adaptive greedy."""
        if self.flavor == "rand":
            return self.iterations
        if self.flavor == "amm":
            return iterations_for_almost_maximal(self.eta, self.delta)
        return None

    def describe(self) -> str:
        if self.flavor == "det":
            return "det"
        if self.flavor == "rand":
            return f"rand:{self.iterations}"
        return f"amm:{self.eta:g},{self.delta:g}"


class MmNode:
    """Per-vertex state for one invocation of the matching subroutine.

    ``residual`` is the vertex's current view of unmatched neighbors, by
    index on the other side; it only shrinks, via announcements from
    neighbors that got matched. ``pointing``, ``kept_in`` and ``chosen`` are
    this iteration's out-pointer, kept in-pointer and chosen edge.
    """

    __slots__ = ("residual", "matched", "pointing", "kept_in", "chosen")

    def __init__(self, neighbors: Iterable[int]):
        self.residual: set[int] = set(neighbors)
        self.matched: int | None = None
        self.pointing: int | None = None
        self.kept_in: int | None = None
        self.chosen: int | None = None

    @property
    def live(self) -> bool:
        return self.matched is None and bool(self.residual)


class MmPhase:
    """One invocation of the subroutine, run as a phase of engine rounds.

    ``nodes`` maps the processor id of every vertex taking part to its
    :class:`MmNode`. The four steps (point, keep, choose, resolve) read only
    their own node and inbox; :meth:`run` drives them. ``join``, when set,
    is called with the context and the senders of the ACCEPTs a vertex
    receives in the first point round, and returns that vertex's node: this
    is how the proposal protocol brings its men in.
    """

    def __init__(
        self,
        spec: MatchingSubroutineSpec,
        nodes: dict[int, MmNode] | None = None,
        join: Callable[[ProcessorContext, list[int]], MmNode] | None = None,
    ):
        self.iterations = spec.fixed_iterations()  # None: the greedy, run to quiescence
        self.nodes = {} if nodes is None else nodes
        self.join = join

    def any_live(self) -> bool:
        return any(node.live for node in self.nodes.values())

    def _live(self) -> list[int]:
        # recomputed every round: men join during the first point round
        return [v for v, node in self.nodes.items() if node.live]

    def run(self, engine: Engine) -> int:
        """Greedy: step to quiescence and return the iterations that sent.
        Randomized: run the fixed iterations, 4 rounds each, skipping the
        rest once no vertex is live, and return their count."""
        if self.iterations is None:
            iterations = 0
            while engine.run_round(self.point, "mm", self._live()):
                engine.run_round(self.resolve, "mm", self._live())
                iterations += 1
            if self.any_live():
                raise InconsistentState("greedy subroutine left a vertex with residual neighbors")
            return iterations

        def iteration(_):
            for step in (self.point, self.keep, self.choose, self.resolve):
                engine.run_round(step, "mm", self._live())

        engine.repeat(self.iterations, (("mm", 4),), iteration, lambda _: not self.any_live())
        return self.iterations

    def receive(self, ctx: ProcessorContext, kind: MsgKind) -> tuple[MmNode | None, list[int]]:
        """This vertex's node and the senders in its inbox, all of which must be of
        ``kind``; a pointer must come from the residual neighborhood."""
        senders = ctx.take(kind)
        node = self.nodes.get(ctx.id)
        if node is None:
            if senders:
                raise InconsistentState(f"{ctx.self_id} got {kind.name} outside the subroutine")
        elif kind is MsgKind.MM_POINT:
            for p in senders:
                if p not in node.residual:
                    raise InconsistentState(f"pointer from {p} outside residual neighborhood")
        return node, senders

    def point(self, ctx: ProcessorContext) -> None:
        if self.join is not None and ctx.id not in self.nodes:
            # a vertex outside the phase joins with the ACCEPTs it gets (all in the first round)
            accepts = ctx.take(MsgKind.ACCEPT)
            if not accepts:
                return
            node = self.nodes[ctx.id] = self.join(ctx, accepts)
            announcers = ()
        else:
            node, announcers = self.receive(ctx, MsgKind.MM_MATCHED)
            if node is None:
                return
        node.residual.difference_update(announcers)
        node.pointing = node.kept_in = node.chosen = None
        if node.live:
            node.pointing = min(node.residual) if self.iterations is None else ctx.rng.choice(sorted(node.residual))
            ctx.send(node.pointing, MsgKind.MM_POINT)

    def keep(self, ctx: ProcessorContext) -> None:
        node, pointers = self.receive(ctx, MsgKind.MM_POINT)
        if pointers and node.matched is None:
            node.kept_in = ctx.rng.choice(pointers)  # senders arrive in ascending order
            ctx.send(node.kept_in, MsgKind.MM_KEEP)

    def choose(self, ctx: ProcessorContext) -> None:
        node, keepers = self.receive(ctx, MsgKind.MM_KEEP)
        if node is None:
            return
        for kp in keepers:
            if kp != node.pointing:
                raise InconsistentState(f"keep message from {kp}, but this vertex pointed at {node.pointing}")
        # incident edges of the thinned graph: the in-edge this vertex kept,
        # plus its own out-edge when the target kept it (undirected collapse)
        candidates = sorted({*keepers, node.kept_in} - {None})
        if candidates and node.matched is None:
            node.chosen = ctx.rng.choice(candidates)
            ctx.send(node.chosen, MsgKind.MM_CHOOSE)

    def resolve(self, ctx: ProcessorContext) -> None:
        """A vertex matches when the edge it offered comes back: its pointer in
        the greedy, its chosen edge in the randomized flavors."""
        greedy = self.iterations is None
        node, senders = self.receive(ctx, MsgKind.MM_POINT if greedy else MsgKind.MM_CHOOSE)
        if node is None:
            return
        offered = node.pointing if greedy else node.chosen
        if offered is not None and offered in senders:
            node.matched = offered
            ctx.send_many(sorted(node.residual), MsgKind.MM_MATCHED)


# ---------------------------------------------------------------------------
# The standalone runner over an arbitrary bipartite graph, and its check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MaximalityReport:
    maximal: bool
    violators: frozenset[PlayerId]
    violation_fraction: float


def check_maximal(subgraph: Mapping[PlayerId, Iterable[PlayerId]], matching: Matching) -> MaximalityReport:
    """A matching is maximal when every vertex is matched or has only matched
    neighbors. Violators satisfy neither condition."""
    graph = {v: set(nbrs) for v, nbrs in subgraph.items()}
    matched: set[PlayerId] = set()
    for m_idx, w_idx in matching.pairs:
        mv, wv = man(m_idx), woman(w_idx)
        if mv not in graph or wv not in graph[mv]:
            raise InvalidMatching(f"pair ({m_idx}, {w_idx}) is not an edge of the subgraph")
        matched.update((mv, wv))
    violators = frozenset(v for v, nbrs in graph.items() if v not in matched and not matched.issuperset(nbrs))
    fraction = len(violators) / len(graph) if graph else 0.0
    return MaximalityReport(maximal=not violators, violators=violators, violation_fraction=fraction)


@dataclass(frozen=True)
class SubroutineResult:
    matching: Matching
    residual_vertices: frozenset[PlayerId]  # maximality violators at exit
    maximal: bool
    iterations: int
    trace: RoundTrace


def maximal_matching(
    graph: Mapping[PlayerId, Iterable[PlayerId]], spec: MatchingSubroutineSpec, seed: int = 0
) -> SubroutineResult:
    """Run one invocation of the subroutine ``spec`` on its own engine.

    ``graph`` maps each vertex to its neighbours on the other side; isolated
    vertices take no part. ``residual_vertices`` are the violators
    :func:`check_maximal` finds. A randomized flavor reports them, not
    raises, since callers tolerate its failure probabilistically; the greedy
    must leave none, and :meth:`MmPhase.run` raises ``InconsistentState`` if
    it does. ``iterations`` is the fixed iteration count of a randomized
    flavor, or the number of greedy iterations that sent.
    """
    live = {v: frozenset(nbrs) for v, nbrs in graph.items() if nbrs}
    # the engine runs the graph as a profile of sorted lists, n one more than the largest index
    n = 1 + max((v.index for v in live), default=0)
    lists: tuple[list, list] = ([[] for _ in range(n)], [[] for _ in range(n)])
    for v, nbrs in live.items():
        for u in nbrs:
            if u.side == v.side or v not in live.get(u, ()):
                raise InconsistentState(f"edge ({v}, {u}) does not cross sides or is not listed at both ends")
        lists[v.side][v.index] = sorted(u.index for u in nbrs)
    engine = Engine(Topology(PreferenceProfile.from_lists(*lists)), seed=seed)
    ids = {v: v.side * n + v.index for v in live}  # player (side, i) is processor side * n + i
    phase = MmPhase(spec, {ids[v]: MmNode(u.index for u in nbrs) for v, nbrs in live.items()})
    iterations = phase.run(engine)
    partner = {v: phase.nodes[ids[v]].matched for v in live}
    pairs = set()
    for v, p in partner.items():
        if p is not None and v.side is Side.MAN:
            if partner[woman(p)] != v.index:
                raise InconsistentState(f"asymmetric match between {v} and {woman(p)}")
            pairs.add((v.index, p))
    matching = Matching.of(pairs)
    violators = check_maximal(live, matching).violators
    return SubroutineResult(
        matching=matching,
        residual_vertices=violators,
        maximal=not violators,
        iterations=iterations,
        trace=engine.trace,
    )
