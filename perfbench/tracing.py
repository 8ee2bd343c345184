"""Span tracing of guardcheck's layers, installed from outside the program.

:func:`instrument` rebinds the public functions of each layer, in every
``guardcheck`` module that imported them by name, to wrappers that record
one span per call (name, parent, start, end) in flat arrays, plus the
counters that a span cannot show (relation-cache hits, frames, ghost
rejections, carrier sizes, law cases). Nothing inside ``src/`` changes,
and the wrappers return what the wrapped function returned, so a traced
report equals an untraced one.

Self time is a span's duration minus the durations of its child spans.
Root spans ("setup", "verdict") split the child process into windows;
the layer self times of the verdict window plus the verdict root's own
self time (``other.self_s``) add up to the traced ``verdict_s``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from array import array
from collections import Counter

# span name -> per-layer time metric fed by that span's self time
TIME_METRICS = {
    "protocol.exchange": "protocol.exchange.s",
    "protocol.guard": "protocol.guard.s",
    "protocol.valid_fragment": "protocol.valid_fragment.s",
    "monoid.carrier": "monoid.carrier.s",
    "monoid.laws": "monoid.laws.s",
    "ghost.apply": "ghost.apply.self_s",
    "ghost.close_windows": "ghost.close_windows.s",
    "lang.step": "lang.step.s",
    "explore": "explore.self_s",
    "explore.transition": "explore.transition.self_s",
    "explore.property": "explore.property.s",
    "studies.resolver": "studies.resolver.s",
    "studies.oracle": "studies.oracle.s",
    "formats.load": "formats.load.s",
    "formats.report": "formats.report.s",
    "verdict": "other.self_s",
}

# span name -> per-layer call-count metric
CALL_METRICS = {
    "protocol.exchange": "protocol.exchange.calls",
    "protocol.guard": "protocol.guard.calls",
    "protocol.valid_fragment": "protocol.valid_fragment.calls",
    "monoid.carrier": "monoid.carrier.builds",
    "ghost.apply": "ghost.apply.calls",
    "lang.step": "lang.step.calls",
    "explore.property": "explore.property.calls",
    "studies.resolver": "studies.resolver.calls",
}

_PROPERTY_PREFIX = "explore.property."
_RAISED = object()


class Tracer:
    """Spans in flat arrays plus named counters; one per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    @contextlib.contextmanager
    def span(self, name: str):
        i = len(self.span_start)
        self.span_name.append(self._id(name))
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(i)
        self.span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self.span_end[i] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str, enter=None, leave=None):
        """``fn`` recording one span per call. ``enter(args)`` runs before
        the span and returns a token; ``leave(args, result, token)`` runs
        after it, with ``result`` the sentinel ``_RAISED`` on an exception."""
        # span() inlined: this runs hundreds of thousands of times a run
        nid = self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter  # the clock verdict_s is timed with

        def traced(*args, **kwargs):
            token = enter(args) if enter is not None else None
            result = _RAISED
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                ends[i] = clock()
                stack.pop()
                if leave is not None:
                    leave(args, result, token)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> dict:
        """{(root name, span name): [calls, self seconds]} over all spans."""
        n = len(self.span_start)
        parents, starts, ends = self.span_parent, self.span_start, self.span_end
        dur = [ends[i] - starts[i] for i in range(n)]
        own = list(dur)
        root = [0] * n
        for i in range(n):  # a parent always precedes its children
            p = parents[i]
            if p >= 0:
                own[p] -= dur[i]
                root[i] = root[p]
            else:
                root[i] = i
        out: dict = {}
        names, span_name = self.names, self.span_name
        for i in range(n):
            key = (names[span_name[root[i]]], names[span_name[i]])
            acc = out.setdefault(key, [0, 0.0])
            acc[0] += 1
            acc[1] += own[i]
        return out

    def dump(self, path) -> None:
        """Header line of JSON, then the four span arrays back to back."""
        header = {
            "names": self.names,
            "spans": len(self.span_start),
            "arrays": ["name:i", "parent:i", "start:d", "end:d"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def layer_metrics(agg: dict, c: Counter, property_kinds) -> dict:
    """Per-layer metrics of one traced child, without ``trace.overhead``.

    ``agg`` is :meth:`Tracer.self_times`. Times and call counts cover the
    verdict window, except ``formats.load.s``, which also covers the setup
    window (the loads that ``setup_s`` pays).
    """
    m = {name: 0.0 for name in TIME_METRICS.values()}
    m.update({name: 0 for name in CALL_METRICS.values()})
    m.update({f"{_PROPERTY_PREFIX}{kind}.s": 0.0 for kind in property_kinds})
    for (root, span), (calls, own) in agg.items():
        if root != "verdict" and span != "formats.load":
            continue
        if span.startswith(_PROPERTY_PREFIX):
            m[f"{span}.s"] += own
            m["explore.property.s"] += own
            continue
        m[TIME_METRICS[span]] += own
        if span in CALL_METRICS:
            m[CALL_METRICS[span]] += calls
    for key in (
        "protocol.exchange.hits", "protocol.exchange.frames",
        "protocol.guard.hits", "protocol.guard.frames",
        "protocol.valid_fragment.hits", "protocol.frames_completing",
        "monoid.carrier.elements", "monoid.laws.checked", "ghost.apply.rejected",
    ):
        m[key] = c[key]
    frames = c["protocol.exchange.frames"] + c["protocol.guard.frames"]
    m["protocol.completing_ratio"] = c["protocol.frames_completing"] / frames if frames else 0.0
    return m


# -- instrumentation ---------------------------------------------------------


def _rebind(original, replacement) -> int:
    """Point every guardcheck module-level name bound to ``original`` at
    ``replacement``; returns how many bindings changed."""
    n = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "guardcheck" or modname.startswith("guardcheck.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                n += 1
    return n


def instrument(tracer: Tracer) -> None:
    """Wrap each layer's public functions at every use site (see module doc)."""
    # the package re-exports functions under module names (guardcheck.explore
    # is the function there), so the modules come from import_module
    importlib.import_module("guardcheck.cli")  # binds what the CLI uses
    explore, formats, ghost, lang, monoid, protocol, studies = (
        importlib.import_module(f"guardcheck.{m}")
        for m in ("explore", "formats", "ghost", "lang", "monoid", "protocol", "studies")
    )

    c = tracer.counts
    seen: dict = {}  # spec -> relation keys asked of it so far
    relation_depth = 0  # > 0 while an exchange or guard check runs

    def first_ask(sp, key) -> bool:
        keys = seen.setdefault(sp, set())
        if key in keys:
            return False
        keys.add(key)
        return True

    def relation(kind, key_of):
        def enter(args):
            nonlocal relation_depth
            relation_depth += 1
            return first_ask(args[0], key_of(args))

        def leave(args, result, first):
            nonlocal relation_depth
            relation_depth -= 1
            if result is _RAISED:
                return
            if first:
                c[f"protocol.{kind}.frames"] += result.frames
            else:
                c[f"protocol.{kind}.hits"] += 1

        return enter, leave

    def vf_enter(args):
        if not first_ask(args[0], ("vf", args[1])):
            c["protocol.valid_fragment.hits"] += 1

    def apply_leave(args, result, _):
        if result is not _RAISED and not result.ok:
            c["ghost.apply.rejected"] += 1

    def laws_leave(args, result, _):
        if result is not _RAISED:
            checks = result.protocol_laws.checks + result.storage_laws.checks + result.extra
            c["monoid.laws.checked"] += sum(chk.checked for chk in checks)

    def carrier_leave(args, result, _):
        if result is not _RAISED:
            c["monoid.carrier.elements"] += len(result)

    def exchange_key(args):
        q = args[1]
        return ("exch", q.p, q.s, q.p_after, q.s_after)

    targets = [
        (protocol.exchange_holds, "protocol.exchange", *relation("exchange", exchange_key)),
        (protocol.guard_holds, "protocol.guard", *relation("guard", lambda a: ("guard", *a[1:3]))),
        (protocol.valid_fragment, "protocol.valid_fragment", vf_enter, None),
        (protocol.check_wellformed, "monoid.laws", None, laws_leave),
        (monoid.check_pcm_laws, "monoid.laws", None, None),
        (ghost.apply_action, "ghost.apply", None, apply_leave),
        (ghost.close_windows, "ghost.close_windows", None, None),
        (lang.step, "lang.step", None, None),
        (explore.explore, "explore", None, None),
        (explore.transition, "explore.transition", None, None),
        (explore.check_property, "explore.property", None, None),
        (studies.sequential_oracle, "studies.oracle", None, None),
        (studies.explorer_outcomes, "studies.oracle", None, None),
        (formats.scenario_from_json, "formats.load", None, None),
        (formats.load_protocol, "formats.load", None, None),
        (formats.load_queries, "formats.load", None, None),
        (formats.result_to_json, "formats.report", None, None),
        (formats.dumps, "formats.report", None, None),
    ]
    for fn, name, enter, leave in targets:
        if not _rebind(fn, tracer.wrap(fn, name, enter, leave)):
            raise RuntimeError(f"{fn.__module__}.{fn.__name__} is bound nowhere")

    # carrier() is called for every relation check but builds once per
    # spec: only the build gets a span, so cached lookups cost no tracing
    original_carrier = monoid.carrier
    build = tracer.wrap(original_carrier, "monoid.carrier", leave=carrier_leave)
    built = set()

    def carrier(spec):
        if spec in built:
            return original_carrier(spec)
        built.add(spec)
        return build(spec)

    carrier.__wrapped__ = original_carrier
    _rebind(original_carrier, carrier)

    # complete() runs once or twice per enumerated frame, millions of
    # times a run: counted, never spanned
    original_complete = protocol.StorageProtocolSpec.complete

    def complete(self, p):
        got = original_complete(self, p)
        if got and relation_depth:
            c["protocol.frames_completing"] += 1
        return got

    protocol.StorageProtocolSpec.complete = complete

    for kind, fn in list(explore.PROPERTY_EVALUATORS.items()):
        explore.PROPERTY_EVALUATORS[kind] = tracer.wrap(fn, f"{_PROPERTY_PREFIX}{kind}")
    for name, fn in list(explore.RESOLVERS.items()):
        explore.RESOLVERS[name] = tracer.wrap(fn, "studies.resolver")
