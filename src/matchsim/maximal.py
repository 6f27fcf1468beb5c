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
which runs one phase on the bipartite graph of a ``PreferenceProfile``'s lists
and reports the violators ``check_maximal`` finds. Randomized iterations are
fast-forwarded by the same ``Engine.repeat`` that drives the protocol's
schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import filterfalse
from typing import Callable, Iterable

from .engine import Engine, MsgKind, ProcessorContext, RoundTrace, Topology
from .errors import InconsistentState
from .model import Matching, PlayerId, PreferenceProfile, Side, describe_descriptor, man, parse_descriptor, woman

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

    _GRAMMAR = {"det": (), "rand": (("iterations", int),), "amm": (("eta", float), ("delta", float))}

    def __post_init__(self):
        if self.flavor not in self._GRAMMAR:
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
    def parse(cls, text: str) -> "MatchingSubroutineSpec":
        """Parse descriptor strings: ``det``, ``rand:S``, ``amm:ETA,DELTA``."""
        flavor, fields = parse_descriptor(text, cls._GRAMMAR, "subroutine")
        return cls(flavor, **fields)

    def fixed_iterations(self) -> int | None:
        """Iteration count of the fixed schedule, or None for the adaptive greedy."""
        if self.flavor == "rand":
            return self.iterations
        if self.flavor == "amm":
            return iterations_for_almost_maximal(self.eta, self.delta)
        return None

    def describe(self) -> str:
        return describe_descriptor(self.flavor, self._GRAMMAR, self)


class MmNode:
    """Per-vertex state for one invocation of the matching subroutine.

    ``residual`` is the vertex's current view of unmatched neighbors, an ascending
    tuple of indices on the other side; it only shrinks, via announcements from
    neighbors that got matched. ``pointing``, ``kept_in`` and ``chosen`` are
    this iteration's out-pointer, kept in-pointer and chosen edge.
    """

    __slots__ = ("residual", "matched", "pointing", "kept_in", "chosen")

    def __init__(self, neighbors: Iterable[int]):  # in ascending order
        self.residual: tuple[int, ...] = tuple(neighbors)
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
        # the vertices live after the last point round, in id order. Only point and
        # resolve end a vertex's liveness and nothing restores it, so this holds every
        # live vertex; one that resolve matched since has its partner's MM_MATCHED
        # pending, so the next point round steps it either way
        self._live: list[int] = []

    def any_live(self) -> bool:
        return any(self.nodes[v].live for v in self._live)

    def _point_round(self, engine: Engine) -> int:
        # point lists the vertices it leaves live
        stepped, self._live = self._live, []
        return engine.run_round(self.point, "mm", stepped)

    def run(self, engine: Engine) -> int:
        """Greedy: step to quiescence and return the iterations that sent.
        Randomized: run the fixed iterations, 4 rounds each, skipping the
        rest once no vertex is live, and return their count."""
        self._live = [v for v, node in self.nodes.items() if node.live]
        if self.iterations is None:
            iterations = 0
            while self._point_round(engine):
                engine.run_round(self.resolve, "mm", self._live)
                iterations += 1
            if self.any_live():
                raise InconsistentState("greedy subroutine left a vertex with residual neighbors")
            return iterations

        def iteration(_):
            self._point_round(engine)
            for step in (self.keep, self.choose, self.resolve):
                engine.run_round(step, "mm", self._live)

        engine.repeat(self.iterations, (("mm", 4),), iteration, lambda _: not self.any_live())
        return self.iterations

    def receive(self, ctx: ProcessorContext, kind: MsgKind) -> tuple[MmNode, list[int]]:
        """This vertex's node and the senders in its inbox, all of which must be of
        ``kind``; a vertex without a node is never stepped, a pointer must come
        from the residual neighborhood, and an MM_MATCHED sender leaves it."""
        senders = ctx.take(kind)
        node = self.nodes.get(ctx.id)
        if node is None:
            raise InconsistentState(f"{ctx.self_id} was stepped for {kind.name} outside the subroutine")
        if kind is MsgKind.MM_POINT:
            for p in senders:
                if p not in node.residual:
                    raise InconsistentState(f"pointer from {p} outside residual neighborhood")
        elif kind is MsgKind.MM_MATCHED and senders:
            node.residual = tuple(filterfalse(set(senders).__contains__, node.residual))
        return node, senders

    def point(self, ctx: ProcessorContext) -> None:
        if self.join is not None and ctx.id not in self.nodes:
            # a vertex outside the phase joins with the ACCEPTs it gets (all in the first round)
            node = self.nodes[ctx.id] = self.join(ctx, ctx.take(MsgKind.ACCEPT))
        else:
            node, _ = self.receive(ctx, MsgKind.MM_MATCHED)
        node.pointing = node.kept_in = node.chosen = None
        if node.live:
            self._live.append(ctx.id)
            node.pointing = node.residual[0] if self.iterations is None else ctx.rng.choice(node.residual)
            ctx.send(node.pointing, MsgKind.MM_POINT)

    def keep(self, ctx: ProcessorContext) -> None:
        node, pointers = self.receive(ctx, MsgKind.MM_POINT)
        if pointers and node.matched is None:
            node.kept_in = ctx.rng.choice(pointers)  # senders arrive in ascending order
            ctx.send(node.kept_in, MsgKind.MM_KEEP)

    def choose(self, ctx: ProcessorContext) -> None:
        node, keepers = self.receive(ctx, MsgKind.MM_KEEP)
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
        offered = node.pointing if greedy else node.chosen
        if offered is not None and offered in senders:
            node.matched = offered
            ctx.send_many(node.residual, MsgKind.MM_MATCHED)


# ---------------------------------------------------------------------------
# The standalone runner over an arbitrary bipartite graph, and its check
# ---------------------------------------------------------------------------


def check_maximal(graph: PreferenceProfile, matching: Matching) -> frozenset[PlayerId]:
    """The maximality violators of a matching of ``graph``: each vertex that is
    unmatched and has an unmatched neighbour. The matching is maximal when there
    is none; a pair that is not an edge raises ``InvalidMatching``."""
    matching.validate_for(graph)
    matched = (matching.man_partner, matching.woman_partner)  # by side
    return frozenset(
        PlayerId(side, i)
        for side, prefs in zip(Side, (graph.men_prefs, graph.women_prefs))
        for i, lst in enumerate(prefs)
        if i not in matched[side] and not all(p in matched[1 - side] for p in lst)
    )


@dataclass(frozen=True)
class SubroutineResult:
    matching: Matching
    residual_vertices: frozenset[PlayerId]  # maximality violators at exit
    maximal: bool
    iterations: int
    trace: RoundTrace


def maximal_matching(graph: PreferenceProfile, spec: MatchingSubroutineSpec, seed: int = 0) -> SubroutineResult:
    """Run one invocation of the subroutine ``spec`` on its own engine.

    Each vertex's neighbours are its list in ``graph``, in any order; a vertex
    with an empty list takes no part. ``residual_vertices`` are the violators
    :func:`check_maximal` finds. A randomized flavor reports them, not
    raises, since callers tolerate its failure probabilistically; the greedy
    must leave none, and :meth:`MmPhase.run` raises ``InconsistentState`` if
    it does. ``iterations`` is the fixed iteration count of a randomized
    flavor, or the number of greedy iterations that sent.
    """
    n, engine = graph.n, Engine(Topology(graph), seed=seed)
    # player (side, i) is processor side * n + i: the men's lists, then the women's
    phase = MmPhase(spec, {v: MmNode(sorted(lst)) for v, lst in enumerate((*graph.men_prefs, *graph.women_prefs)) if lst})
    iterations = phase.run(engine)
    nodes = phase.nodes
    pairs = [(m, node.matched) for m, node in nodes.items() if m < n and node.matched is not None]
    for m, w in pairs:
        if nodes[n + w].matched != m:
            raise InconsistentState(f"asymmetric match between {man(m)} and {woman(w)}")
    matching = Matching.of(pairs)
    violators = check_maximal(graph, matching)
    return SubroutineResult(
        matching=matching,
        residual_vertices=violators,
        maximal=not violators,
        iterations=iterations,
        trace=engine.trace,
    )
