"""Layer spans recorded from outside the library.

``Tracer.install`` replaces every public function (and public method of a
public class) defined in the six layer modules with a timing wrapper, in
every namespace that holds it: the package, the defining module and each
module that imported the name (``verify.build_triangle``,
``triangle.hypersolid``, ``cli.run_suites``, ...).  No library file is
edited; ``uninstall`` puts the originals back.

Each wrapped call is a span with an id, its parent's id, layer, name, start
and end.  Self time (duration minus the time covered by child spans) is
accumulated per layer as spans close, so it is exact for single-threaded
nesting.  Spans are held in memory up to ``cap`` and written out by
``dump``; past the cap only the per-layer totals keep counting.  Private
helpers such as ``kernel._closed`` are not wrapped, so work done through
them counts toward the calling layer.
"""

from __future__ import annotations

import inspect
import json
import time

LAYERS = ("kernel", "triangle", "sums", "search", "verify", "cli")


class Tracer:
    def __init__(self, cap: int = 50_000) -> None:
        self.cap = cap
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.dropped = 0
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.result_bits = 0
        self.triples_built = 0
        self._stack = [[0, 0.0]]  # [span id, time covered by children]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, name: str, fn):
        stack, clock, spans = self._stack, time.perf_counter, self.spans

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0]
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stack[-1][1] += duration
                if layer in self.self_s:
                    self.self_s[layer] += duration - frame[1]
                    self.calls[layer] += 1
                if len(spans) < self.cap:
                    spans.append((span_id, parent, layer, name, start, end))
                else:
                    self.dropped += 1
            if layer == "kernel" and type(out) is int:
                self.result_bits += out.bit_length()
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self, package, modules: dict) -> None:
        """Wrap the public callables of ``modules`` (layer name -> module)."""
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = self.wrap(layer, f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        if not meth.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, meth, self.wrap(layer, f"{layer}.{attr}.{meth}", fn))
        for namespace in (package, *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers:
                    self._patch(namespace, attr, wrappers[id(obj)])
        sums = modules.get("sums")
        triple = getattr(sums, "IndexTriple", None)
        if triple is not None:
            # Every coordinate triple the sums layer builds goes through
            # this name, so counting its calls counts triples enumerated.
            def counted(*args, **kwargs):
                self.triples_built += 1
                return triple(*args, **kwargs)

            self._patch(sums, "IndexTriple", counted)

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    def merge(self, other: dict) -> None:
        """Add the totals a traced child process wrote with ``dump``."""
        for layer in LAYERS:
            self.self_s[layer] += other["self_s"][layer]
            self.calls[layer] += other["calls"][layer]
        self.result_bits += other["result_bits"]
        self.triples_built += other["triples_built"]
        # Child ids are renumbered past ours, and the child's root spans
        # hang under the span that was open when the child ran.
        offset, parent = self._next_id, self._stack[-1][0]
        room = max(self.cap - len(self.spans), 0)
        for span_id, up, layer, name, start, end in other["spans"][:room]:
            self.spans.append((span_id + offset, up + offset if up else parent,
                               layer, name, start, end))
        self._next_id += max((span[0] for span in other["spans"]), default=0)
        self.dropped += other["dropped"] + max(len(other["spans"]) - room, 0)

    def totals(self) -> dict:
        return {
            "self_s": self.self_s,
            "calls": self.calls,
            "result_bits": self.result_bits,
            "triples_built": self.triples_built,
            "dropped": self.dropped,
        }

    def dump(self, path) -> None:
        doc = self.totals()
        doc["fields"] = ["id", "parent", "layer", "name", "start", "end"]
        doc["spans"] = self.spans
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
