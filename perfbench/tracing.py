"""Span tracer for the benchmark's traced run.

The tracer patches matchsim's public functions from outside the package:
every name is replaced wherever a caller looks it up (the defining module,
the package root, and any module that imported it by name), and step
callbacks are timed through the ``step_fn`` argument of
``Engine.run_round``. Nothing under ``src/`` is modified; leaving the
``with`` block restores every original.

Two kinds of call are recorded:

* layer-boundary calls (generate, run_algorithm, run_round, verify_run, ...)
  become spans ``[name, start, end, parent, self]`` kept in memory;
* hot calls made once per message, per removal or per processor step
  (``ProcessorContext.send``, ``QuantizedPrefs.remove``, step callbacks,
  ``quantize``, ``Engine.skip_rounds``) only add to per-key totals, since a
  span each would cost more memory than the run itself.

Both kinds feed one stack, so every key's self time is its duration minus
the time of the traced calls nested inside it.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import matchsim.analysis as analysis
import matchsim.cli as cli
import matchsim.engine as engine
import matchsim.model as model
import matchsim.protocols as protocols
import matchsim.workbench as workbench


class Tracer:
    """Patches matchsim on ``__enter__``, restores it on ``__exit__``."""

    def __init__(self):
        self.spans: list[list] = []
        # one frame per open traced call: [time spent in nested traced calls, span index]
        self._stack: list[list] = [[0.0, -1]]
        self.self_s: Counter = Counter()
        self.incl_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, key, fn, after=None):
        """Wrap ``fn`` so each call records a span named ``key``.

        ``after(result, args)`` may add counts once the call returns.
        """
        stack, spans = self._stack, self.spans
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls

        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [key, 0.0, 0.0, stack[-1][1], 0.0]
            spans.append(record)
            frame = [0.0, idx]
            stack.append(frame)
            record[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = end = perf_counter()
                stack.pop()
                dt = end - start
                record[4] = dt - frame[0]
                self_s[key] += dt - frame[0]
                incl_s[key] += dt
                calls[key] += 1
                stack[-1][0] += dt
            if after is not None:
                after(result, args)
            return result

        return wrapper

    def _hot(self, key, fn):
        """Wrap ``fn`` so each call only adds to the totals of ``key``."""
        stack, self_s, calls = self._stack, self.self_s, self.calls

        def wrapper(*args, **kwargs):
            frame = [0.0, stack[-1][1]]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                stack.pop()
                self_s[key] += dt - frame[0]
                calls[key] += 1
                stack[-1][0] += dt

        return wrapper

    # -- patching ------------------------------------------------------------

    def _set(self, owner, name, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _replace_function(self, fn, wrapper) -> None:
        """Rebind every module-level name in matchsim that refers to ``fn``."""
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "matchsim" and not mod_name.startswith("matchsim."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def __enter__(self) -> "Tracer":
        counts = self.counts

        def count_edges(result, args):
            counts["analysis.edges_scanned"] += args[0].num_edges

        def count_blocking(result, args):
            count_edges(result, args)
            counts["analysis.blocking_found"] += len(result)

        def count_records(result, args):
            counts["workbench.log_records"] += len(args[0])

        def count_messages(result, args):
            counts["engine.messages"] += result

        for fn, key, after in (
            (workbench.generate, "workbench.generate", None),
            (workbench.load_instance, "workbench.load_instance", None),
            (workbench.load_matching, "workbench.load_matching", None),
            (workbench.write_message_log, "workbench.write_log", count_records),
            (workbench.save_instance, "workbench.save", None),
            (workbench.save_matching, "workbench.save", None),
            (protocols.run_algorithm, "protocols.run", None),
            (analysis.verify_run, "analysis.verify", None),
            (analysis.blocking_pairs, "analysis.blocking", count_blocking),
            (analysis.eps_blocking_pairs, "analysis.eps_blocking", count_edges),
            (analysis.gale_shapley_oracle, "analysis.oracle", None),
            (cli.main, "cli.main", None),
        ):
            self._replace_function(fn, self._span(key, fn, after))
        self._replace_function(model.quantize, self._hot("model.quantize", model.quantize))

        self._set(model.PreferenceProfile, "__init__",
                  self._span("model.profile_build", model.PreferenceProfile.__init__))
        self._set(model.QuantizedPrefs, "remove",
                  self._hot("model.prefs_remove", model.QuantizedPrefs.remove))
        self._set(protocols.QuantileProtocol, "__init__",
                  self._span("protocols.state_init", protocols.QuantileProtocol.__init__))
        self._set(protocols.QuantileProtocol, "run",
                  self._span("protocols.run", protocols.QuantileProtocol.run))
        self._set(engine.Topology, "from_profile",
                  staticmethod(self._span("engine.topology", engine.Topology.from_profile)))
        self._set(engine.ProcessorContext, "send",
                  self._hot("engine.send", engine.ProcessorContext.send))

        run_round = engine.Engine.run_round
        round_spans = {}
        hot = self._hot

        def traced_run_round(eng, step_fn, label="round", actors=None):
            layer = "maximal.step" if label == "mm" else "protocols.step"
            if label not in round_spans:
                round_spans[label] = self._span(f"engine.round.{label}", run_round, count_messages)
            return round_spans[label](eng, hot(layer, step_fn), label, actors)

        skip_rounds = engine.Engine.skip_rounds

        def traced_skip_rounds(eng, label, count):
            skip_rounds(eng, label, count)
            if count > 0:
                counts[f"engine.skipped.{label}"] += count

        self._set(engine.Engine, "run_round", traced_run_round)
        self._set(engine.Engine, "skip_rounds", self._hot("engine.skip", traced_skip_rounds))
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def take_totals(self) -> dict:
        """Return the totals gathered since the last call, then zero them."""
        snapshot = {
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
        for counter in (self.self_s, self.incl_s, self.calls, self.counts):
            counter.clear()
        return snapshot

    def write(self, path: Path, meta: dict) -> None:
        """Write every span recorded so far as JSON, times relative to the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [
            {"name": n, "start": s - t0, "end": e - t0, "parent": p, "self": own}
            for n, s, e, p, own in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "spans": spans}, separators=(",", ":")) + "\n",
                        encoding="utf-8")
