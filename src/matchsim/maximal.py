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
``MmPhase`` holds the per-vertex steps and the driver for all three flavors.
Inside a phase, vertices are engine processor ids and neighbours are
partner indices on the other side, as the engine addresses them. The
functions in this module run it standalone on an arbitrary bipartite graph
of ``PlayerId``s; the proposal protocol runs it as a phase of its own
schedule. Its randomized iterations are fast-forwarded by the same
``Engine.repeat`` that drives the protocol's schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .engine import Engine, MsgKind, ProcessorContext, RoundTrace, Topology
from .errors import InconsistentState
from .model import Matching, PlayerId, Side, woman

DEFAULT_SHRINK_C = 0.95


def iterations_for_maximal(num_vertices: int, eta: float, c: float = DEFAULT_SHRINK_C) -> int:
    """Iterations after which the residual is empty with probability >= 1 - eta.

    Derived from the expected geometric shrink of the residual vertex set by
    a factor c per iteration plus a first-moment bound.
    """
    if not (0 < eta) or not (0 < c < 1):
        raise ValueError("need eta > 0 and 0 < c < 1")
    if num_vertices < 1:
        return 1
    return max(1, math.ceil(math.log(num_vertices / eta) / math.log(1 / c)))


def iterations_for_almost_maximal(eta: float, delta: float, c: float = DEFAULT_SHRINK_C) -> int:
    """Iterations after which at most an eta-fraction of vertices violates
    maximality, with probability >= 1 - delta."""
    if not (0 < eta <= 1) or not (0 < delta < 1) or not (0 < c < 1):
        raise ValueError("need 0 < eta <= 1, 0 < delta < 1, 0 < c < 1")
    return max(1, math.ceil(math.log(1 / (delta * eta)) / math.log(1 / c)))


@dataclass(frozen=True)
class MatchingSubroutineSpec:
    """Which matching subroutine a proposal round uses, plus its parameters."""

    flavor: str  # "det" | "rand" | "amm"
    iterations: int | None = None  # rand: fixed iteration count s
    eta: float | None = None  # amm: tolerated unmatched vertex fraction
    delta: float | None = None  # amm: failure probability
    shrink_c: float = DEFAULT_SHRINK_C

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
        if not (0 < self.shrink_c < 1):
            raise ValueError("shrink constant must be in (0, 1)")

    @classmethod
    def deterministic(cls) -> "MatchingSubroutineSpec":
        return cls(flavor="det")

    @classmethod
    def randomized(cls, iterations: int, shrink_c: float = DEFAULT_SHRINK_C) -> "MatchingSubroutineSpec":
        return cls(flavor="rand", iterations=iterations, shrink_c=shrink_c)

    @classmethod
    def almost_maximal(cls, eta: float, delta: float, shrink_c: float = DEFAULT_SHRINK_C) -> "MatchingSubroutineSpec":
        return cls(flavor="amm", eta=eta, delta=delta, shrink_c=shrink_c)

    @classmethod
    def parse(cls, text: str) -> "MatchingSubroutineSpec":
        """Parse descriptor strings: ``det``, ``rand:S``, ``amm:ETA,DELTA``."""
        head, _, rest = text.partition(":")
        if head == "det":
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
            return iterations_for_almost_maximal(self.eta, self.delta, self.shrink_c)
        return None

    def removes_unmatched(self) -> bool:
        return self.flavor == "amm"

    def describe(self) -> str:
        if self.flavor == "det":
            return "det"
        if self.flavor == "rand":
            return f"rand:{self.iterations}"
        return f"amm:{self.eta:g},{self.delta:g}"


class MmNode:
    """Per-vertex scratch state for one invocation of the matching subroutine.

    ``residual`` is the vertex's current view of unmatched neighbors, by
    index on the other side; it only shrinks, via announcements from
    neighbors that got matched.
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

    def prune(self, announcers: Iterable[int]) -> None:
        self.residual.difference_update(announcers)

    def begin_iteration(self) -> None:
        self.pointing = None
        self.kept_in = None
        self.chosen = None

    # -- randomized flavor -------------------------------------------------

    def point_random(self, rng) -> int | None:
        if not self.live:
            return None
        self.pointing = rng.choice(sorted(self.residual))
        return self.pointing

    def keep_random(self, pointers: list[int], rng) -> int | None:
        for p in pointers:
            if p not in self.residual:
                raise InconsistentState(f"pointer from {p} outside residual neighborhood")
        if not pointers or self.matched is not None:
            return None
        self.kept_in = rng.choice(sorted(pointers))
        return self.kept_in

    def choose_random(self, keepers: list[int], rng) -> int | None:
        for kp in keepers:
            if kp != self.pointing:
                raise InconsistentState(f"keep message from {kp}, but this vertex pointed at {self.pointing}")
        # incident edges of the thinned graph: the in-edge this vertex kept,
        # plus its own out-edge when the target kept it (undirected collapse)
        candidates = set(keepers)
        if self.kept_in is not None:
            candidates.add(self.kept_in)
        if not candidates or self.matched is not None:
            return None
        self.chosen = rng.choice(sorted(candidates))
        return self.chosen

    def resolve_choices(self, choosers: list[int]) -> int | None:
        if self.chosen is not None and self.chosen in choosers:
            self.matched = self.chosen
            return self.matched
        return None

    # -- deterministic greedy flavor ----------------------------------------

    def point_lowest(self) -> int | None:
        if not self.live:
            return None
        self.pointing = min(self.residual)
        return self.pointing

    def resolve_mutual(self, pointers: list[int]) -> int | None:
        for p in pointers:
            if p not in self.residual:
                raise InconsistentState(f"pointer from {p} outside residual neighborhood")
        if self.pointing is not None and self.pointing in pointers:
            self.matched = self.pointing
            return self.matched
        return None


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

    def run(self, engine: Engine, fast_forward: bool = True) -> int:
        """Greedy: step to quiescence and return the iterations that sent.
        Randomized: run the fixed iterations, 4 rounds each, skipping the
        rest once no vertex is live, and return their count."""
        if self.iterations is None:
            iterations = 0
            while engine.run_round(self.point, "mm", self._live()):
                engine.run_round(self.resolve, "mm", self._live())
                iterations += 1
            return iterations

        def iteration(_):
            for step in (self.point, self.keep, self.choose, self.resolve):
                engine.run_round(step, "mm", self._live())

        quiet = (lambda _: not self.any_live()) if fast_forward else None
        engine.repeat(self.iterations, (("mm", 4),), iteration, quiet)
        return self.iterations

    def receive(self, ctx: ProcessorContext, kind: MsgKind) -> tuple[MmNode | None, list[int]]:
        """This vertex's node and the senders in its inbox, all of which must be of ``kind``."""
        senders = ctx.take(kind)
        node = self.nodes.get(ctx.id)
        if node is None and senders:
            raise InconsistentState(f"{ctx.self_id} got {kind.name} outside the subroutine")
        return node, senders

    def point(self, ctx: ProcessorContext) -> None:
        inbox = ctx.inbox
        for kind in inbox:
            if kind is not MsgKind.MM_MATCHED and (kind is not MsgKind.ACCEPT or self.join is None):
                raise InconsistentState(f"{ctx.self_id} received unexpected {kind.name}")
        accepts = inbox.get(MsgKind.ACCEPT)
        if accepts:
            self.nodes[ctx.id] = self.join(ctx, accepts)
        node = self.nodes.get(ctx.id)
        announcers = inbox.get(MsgKind.MM_MATCHED, ())
        if node is None:
            if announcers:
                raise InconsistentState(f"{ctx.self_id} got MM_MATCHED outside the subroutine")
            return
        node.prune(announcers)
        node.begin_iteration()
        target = node.point_lowest() if self.iterations is None else node.point_random(ctx.rng)
        if target is not None:
            ctx.send(target, MsgKind.MM_POINT)

    def keep(self, ctx: ProcessorContext) -> None:
        node, pointers = self.receive(ctx, MsgKind.MM_POINT)
        kept = None if node is None else node.keep_random(pointers, ctx.rng)
        if kept is not None:
            ctx.send(kept, MsgKind.MM_KEEP)

    def choose(self, ctx: ProcessorContext) -> None:
        node, keepers = self.receive(ctx, MsgKind.MM_KEEP)
        choice = None if node is None else node.choose_random(keepers, ctx.rng)
        if choice is not None:
            ctx.send(choice, MsgKind.MM_CHOOSE)

    def resolve(self, ctx: ProcessorContext) -> None:
        greedy = self.iterations is None
        node, senders = self.receive(ctx, MsgKind.MM_POINT if greedy else MsgKind.MM_CHOOSE)
        if node is None:
            return
        partner = node.resolve_mutual(senders) if greedy else node.resolve_choices(senders)
        if partner is not None:
            ctx.send_many(sorted(node.residual), MsgKind.MM_MATCHED)


# ---------------------------------------------------------------------------
# Standalone runners over an arbitrary bipartite graph
# ---------------------------------------------------------------------------


def _matching_from_partners(partner: dict[PlayerId, int | None]) -> Matching:
    pairs = set()
    for v, p in partner.items():
        if p is not None and v.side is Side.MAN:
            if partner[woman(p)] != v.index:
                raise InconsistentState(f"asymmetric match between {v} and {woman(p)}")
            pairs.add((v.index, p))
    return Matching.of(pairs)


def _violating_vertices(graph: Mapping[PlayerId, frozenset[PlayerId]], partner: dict[PlayerId, int | None]) -> frozenset[PlayerId]:
    """Vertices that are unmatched and still have an unmatched neighbor."""
    unmatched = {v for v in graph if partner[v] is None}
    return frozenset(v for v in unmatched if any(u in unmatched for u in graph[v]))


@dataclass(frozen=True)
class MatchingRoundResult:
    matching: Matching
    reduced: dict[PlayerId, frozenset[PlayerId]]  # graph left for the next iteration
    trace: RoundTrace


@dataclass(frozen=True)
class SubroutineResult:
    matching: Matching
    residual_vertices: frozenset[PlayerId]  # maximality violators at exit
    maximal: bool
    iterations: int
    trace: RoundTrace


def _run_standalone(subgraph: Mapping[PlayerId, Iterable[PlayerId]], spec: MatchingSubroutineSpec, seed: int):
    """Run one subroutine phase over a graph of its own; returns (graph, partner, iterations, trace),
    where ``partner`` maps each vertex to its match's index, or None."""
    full = {v: frozenset(nbrs) for v, nbrs in subgraph.items()}
    graph = {v: nbrs for v, nbrs in full.items() if nbrs}  # isolated vertices take no part
    # the topology checks that every edge crosses sides and is listed at both ends
    topology = Topology.from_bipartite(graph)
    engine = Engine(topology, seed=seed)
    phase = MmPhase(spec, {topology.id_of(v): MmNode(u.index for u in nbrs) for v, nbrs in graph.items()})
    iterations = phase.run(engine)
    partner = {v: phase.nodes[topology.id_of(v)].matched for v in graph}
    return graph, partner, iterations, engine.trace


def matching_round(
    subgraph: Mapping[PlayerId, Iterable[PlayerId]], seed: int = 0
) -> MatchingRoundResult:
    """One randomized matching iteration; returns the matching found and the
    reduced graph (matched vertices and newly isolated vertices removed)."""
    graph, partner, _, trace = _run_standalone(subgraph, MatchingSubroutineSpec.randomized(1), seed)
    unmatched = {v for v in graph if partner[v] is None}
    reduced = {
        v: frozenset(u for u in graph[v] if u in unmatched)
        for v in unmatched
    }
    reduced = {v: nbrs for v, nbrs in reduced.items() if nbrs}
    return MatchingRoundResult(matching=_matching_from_partners(partner), reduced=reduced, trace=trace)


def _randomized_iterations(
    subgraph: Mapping[PlayerId, Iterable[PlayerId]], s: int, seed: int
) -> SubroutineResult:
    """Run s randomized matching iterations and report any violating vertices."""
    graph, partner, _, trace = _run_standalone(subgraph, MatchingSubroutineSpec.randomized(s), seed)
    violators = _violating_vertices(graph, partner)
    return SubroutineResult(
        matching=_matching_from_partners(partner),
        residual_vertices=violators,
        maximal=not violators,
        iterations=s,
        trace=trace,
    )


def randomized_maximal_matching(
    subgraph: Mapping[PlayerId, Iterable[PlayerId]], s: int, seed: int = 0
) -> SubroutineResult:
    """Union of s randomized matching iterations.

    If the residual empties the result is maximal; otherwise the violating
    vertex set is reported, not raised, since callers tolerate failure
    probabilistically.
    """
    if s < 1:
        raise ValueError("need s >= 1")
    return _randomized_iterations(subgraph, s, seed)


def almost_maximal_matching(
    subgraph: Mapping[PlayerId, Iterable[PlayerId]],
    eta: float,
    delta: float,
    seed: int = 0,
    shrink_c: float = DEFAULT_SHRINK_C,
) -> SubroutineResult:
    """Run just enough iterations that at most an eta-fraction of vertices is
    left violating maximality, with probability at least 1 - delta."""
    return _randomized_iterations(subgraph, iterations_for_almost_maximal(eta, delta, shrink_c), seed)


def deterministic_maximal_matching(
    subgraph: Mapping[PlayerId, Iterable[PlayerId]]
) -> SubroutineResult:
    """Lowest-id mutual-pointer greedy, iterated to quiescence. Always maximal."""
    graph, partner, iterations, trace = _run_standalone(subgraph, MatchingSubroutineSpec.deterministic(), 0)
    violators = _violating_vertices(graph, partner)
    if violators:
        raise InconsistentState(f"greedy subroutine left violators: {sorted(violators)}")
    return SubroutineResult(
        matching=_matching_from_partners(partner),
        residual_vertices=violators,
        maximal=True,
        iterations=iterations,
        trace=trace,
    )
