"""Run one condlab CLI command with spans around each layer's public functions.

Usage, from the repository root::

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json -- <condlab arguments>

The command runs through ``condlab.cli.main`` exactly as ``python -m
condlab.cli`` would run it, with the same stdout and exit code. Before it
runs, every public function at a module boundary is replaced by a wrapper
that opens a span. The wrapper is bound wherever a condlab module holds the
function: ``from x import f`` copies the binding into the importing module,
so wrapping only the defining module would miss the calls that matter (for
example ``condlab.axioms.sd_compare`` and ``condlab.analysis.fm_feasible``).

Spans are aggregated in memory per layer, not stored one by one, and OUT.json
is written as the process exits. A layer's self time is the duration of its
spans minus the time covered by the spans they caused; its total time counts
only the outermost span when a layer re-enters itself (a mixture evaluating
its components).
"""

from __future__ import annotations

import json
import sys
import time


class Layer:
    __slots__ = ("calls", "total", "self_time", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.depth = 0
        self.extra = {}

    def to_json_dict(self) -> dict:
        out = {"calls": self.calls, "s": self.total, "self_s": self.self_time}
        for key, value in self.extra.items():
            out[key] = len(value) if isinstance(value, set) else value
        return out


class Tracer:
    """Per-layer span aggregation for one process."""

    def __init__(self):
        self.layers = {}
        self._stack = []
        self._clock = time.perf_counter

    def layer(self, name: str) -> Layer:
        if name not in self.layers:
            self.layers[name] = Layer()
        return self.layers[name]

    def _enter(self, layer: Layer) -> list:
        frame = [layer, 0.0, 0.0]
        layer.depth += 1
        self._stack.append(frame)
        frame[2] = self._clock()
        return frame

    def _leave(self, frame: list) -> None:
        elapsed = self._clock() - frame[2]
        stack = self._stack
        stack.pop()
        layer = frame[0]
        layer.depth -= 1
        layer.self_time += elapsed - frame[1]
        if layer.depth == 0:
            layer.total += elapsed
        if stack:
            stack[-1][1] += elapsed

    def wrap(self, name, fn, count=None, after=None):
        """Wrap ``fn`` in a span of layer ``name``.

        ``count(layer, args)`` replaces the default call counter and runs
        before the span opens; ``after(layer, result)`` sees the result.
        """
        layer = self.layer(name)
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            if count is None:
                layer.calls += 1
            else:
                count(layer, args)
            frame = enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(frame)
            if after is not None:
                after(layer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name, fn):
        """Wrap a generator function; each resumption is one span."""
        layer = self.layer(name)
        layer.extra["yielded"] = 0
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            layer.calls += 1
            gen = fn(*args, **kwargs)
            while True:
                frame = enter(layer)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    leave(frame)
                layer.extra["yielded"] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper


def _rebind(original, replacement) -> None:
    """Point every condlab module-level name bound to ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module_name != "condlab" and not module_name.startswith("condlab."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _cache_json(cached) -> dict:
    info = cached.cache_info()
    return {"hits": info.hits, "misses": info.misses, "size": info.currsize}


def install(tracer: Tracer):
    """Wrap each layer boundary; returns a function that reports the caches."""
    import condlab.cli  # noqa: F401  (imports every module the CLI reaches)
    from condlab import analysis, axioms, core, domains, lottery, ratlp, sds

    winner = core.condorcet_winner
    _rebind(winner, tracer.wrap("core.winner", winner))

    domains.Domain.members = tracer.wrap(
        "domains.members",
        domains.Domain.members,
        after=lambda layer, result: layer.extra.__setitem__("count", len(result)),
    )
    domains.Domain.unilateral_deviations = tracer.wrap_generator(
        "domains.deviations", domains.Domain.unilateral_deviations
    )

    def count_evaluate(layer, args):
        # Only the outermost call is a scheme evaluation; nested calls are
        # a mixture evaluating its components.
        if layer.depth == 0:
            layer.calls += 1
            layer.extra.setdefault("distinct", set()).add(args[1])

    sds.SDS.evaluate = tracer.wrap("sds.evaluate", sds.SDS.evaluate, count=count_evaluate)

    for name in ("sd_compare", "mix"):
        original = getattr(lottery, name)
        _rebind(original, tracer.wrap(f"lottery.{name}", original))

    checker_for = axioms.checker_for
    wrapped_checkers = {}

    def traced_checker_for(axiom):
        checker = checker_for(axiom)
        if checker not in wrapped_checkers:
            wrapped_checkers[checker] = tracer.wrap("axioms.check", checker)
        return wrapped_checkers[checker]

    _rebind(checker_for, traced_checker_for)

    for name, layer in (
        ("max_dictatorial_weight", "analysis.gamma"),
        ("extension_feasibility", "analysis.extension"),
    ):
        original = getattr(analysis, name)
        _rebind(original, tracer.wrap(layer, original))

    def count_simplex(layer, args):
        layer.calls += 1
        layer.extra["rows_in"] = layer.extra.get("rows_in", 0) + len(args[1])

    def count_fm(layer, args):
        layer.calls += 1
        layer.extra["rows_in"] = layer.extra.get("rows_in", 0) + len(args[0])
        layer.extra["vars"] = layer.extra.get("vars", 0) + args[1]

    _rebind(
        ratlp.simplex_maximize,
        tracer.wrap("ratlp.simplex", ratlp.simplex_maximize, count=count_simplex),
    )
    _rebind(ratlp.fm_feasible, tracer.wrap("ratlp.fm", ratlp.fm_feasible, count=count_fm))

    emit = condlab.cli._emit
    _rebind(emit, tracer.wrap("cli.emit", emit))

    return lambda: {
        "core.winner": _cache_json(winner),
        "lottery.cumulative": _cache_json(lottery._cumulative),
    }


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        sys.stderr.write("usage: tracer.py OUT.json -- <condlab arguments>\n")
        return 2
    out_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    caches = install(tracer)
    import condlab.cli

    try:
        code = condlab.cli.main(cli_args)
    finally:
        report = {
            "layers": {name: layer.to_json_dict() for name, layer in tracer.layers.items()},
            "caches": caches(),
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(report, handle, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
