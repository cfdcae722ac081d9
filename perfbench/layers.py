"""Per-layer spans around the simulator's public entry points.

:class:`LayerClock` patches the entry points listed in
:data:`ENTRY_POINTS` at class level for the duration of a ``with``
block, from outside ``src/``.  Each call becomes a span: its duration
is charged to the callee's layer, minus the time of the spans nested
inside it (self time).  Generator processes are timed too: while the
clock is installed, :meth:`Environment.process` hands the kernel a
proxy whose ``send``/``throw`` steps are charged to the layer of the
module that defined the generator.

Time not covered by any span (the kernel's own event loop, deferred
callbacks that call no entry point, the benchmark's loop) is the
``des`` layer's residual, so the layer self times add up to the traced
wall time by construction.  ``self_s["des"]`` keeps the share the
``des`` spans measured, so a test can check that the residual covers
it, i.e. that no time was counted twice.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from time import perf_counter

#: (module, class, method, layer, counter).  A method is wrapped on the
#: class and on every subclass that defines its own override.
ENTRY_POINTS = (
    ("repro.des.core", "Environment", "run", "des", "des.run"),
    ("repro.net.channel", "WirelessChannel", "transmit", "channel", "channel.tx"),
    ("repro.phy.radio", "WirelessPhy", "transmit", "phy", "phy.tx"),
    ("repro.phy.radio", "WirelessPhy", "begin_receive", "phy", "phy.rx"),
    ("repro.phy.propagation", "PropagationModel", "rx_power", "phy",
     "phy.rx_power"),
    ("repro.mac.base", "Mac", "phy_rx_start", "mac", "mac.phy_rx_start"),
    ("repro.mac.base", "Mac", "phy_rx_end", "mac", "mac.phy_rx_end"),
    ("repro.mac.base", "Mac", "phy_rx_failed", "mac", "mac.phy_rx_failed"),
    ("repro.net.queues", "DropTailQueue", "put", "net.ifq", "net.ifq.put"),
    ("repro.net.queues", "DropTailQueue", "get", "net.ifq", "net.ifq.get"),
    ("repro.routing.aodv.protocol", "Aodv", "route_packet", "routing",
     "routing.route_packet"),
    ("repro.routing.aodv.protocol", "Aodv", "handle_packet", "routing",
     "routing.handle_packet"),
    ("repro.transport.tcp", "TcpAgent", "receive", "transport",
     "transport.agent_receive"),
    ("repro.transport.tcp", "TcpSink", "receive", "transport",
     "transport.sink_receive"),
    ("repro.net.node", "Node", "send", "net.node", "net.node.send"),
    ("repro.net.node", "Node", "enqueue_to_mac", "net.node",
     "net.node.enqueue_to_mac"),
    ("repro.net.node", "Node", "deliver_up", "net.node", "net.node.deliver_up"),
    ("repro.mobility.waypoint", "WaypointMobility", "position", "mobility",
     "mobility.position"),
    ("repro.net.packet", "Packet", "copy", "net.packet", "net.packet.copy"),
    ("repro.trace.writer", "Tracer", "record", "trace", "trace.record"),
    ("repro.core.scenario", "EblScenario", "__init__", "core", "core.init"),
)

#: Module prefix -> layer for generator processes; the first match wins.
_MODULE_LAYERS = (
    ("repro.des", "des"),
    ("repro.net.channel", "channel"),
    ("repro.net.queues", "net.ifq"),
    ("repro.net.packet", "net.packet"),
    ("repro.net", "net.node"),
    ("repro.phy", "phy"),
    ("repro.mac", "mac"),
    ("repro.routing", "routing"),
    ("repro.transport", "transport"),
    ("repro.mobility", "mobility"),
    ("repro.trace", "trace"),
    ("repro.stats", "stats"),
    ("repro.core", "app"),
)
#: Layer of a generator from any other module (faults, obs, sanitizer):
#: scenario-level machinery, like the applications in ``repro.core``.
_DEFAULT_LAYER = "app"

#: Every layer a span can be charged to, ``des`` first.
LAYERS = ("des", "channel", "phy", "mac", "routing", "transport", "net.node",
          "net.ifq", "net.packet", "mobility", "trace", "app", "stats", "core")


def module_layer(module: str) -> str:
    """The layer a generator defined in ``module`` is charged to."""
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return _DEFAULT_LAYER


def _subclasses(cls: type) -> list[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(s for s in _subclasses(sub) if s not in found)
    return found


class _TimedGenerator:
    """What :class:`repro.des.process.Process` needs of a generator."""

    __slots__ = ("_generator", "_step", "__name__")

    def __init__(self, generator, step) -> None:
        self._generator = generator
        self._step = step
        self.__name__ = getattr(generator, "__name__", repr(generator))

    def send(self, value):
        return self._step(self._generator.send, value)

    def throw(self, exc):
        return self._step(self._generator.throw, exc)


class LayerClock:
    """Span self time and call counts per layer, across ``with`` blocks."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        #: Open spans, innermost last: [counter, time of nested spans].
        self._stack: list[list] = []
        self._saved: list[tuple[type, str, object]] = []
        self._steps: dict = {}

    def span(self, layer: str, counter: str, fn, *args, **kwargs):
        """Call ``fn`` as one span of ``layer``, counted under ``counter``.

        A call nested directly in a span with the same counter is a
        ``super()`` chain of one logical call and is not counted again.
        """
        stack = self._stack
        if not stack or stack[-1][0] != counter:
            self.calls[counter] += 1
        frame = [counter, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            stack.pop()
            self.self_s[layer] += elapsed - frame[1]
            if stack:
                stack[-1][1] += elapsed

    def _wrap(self, layer: str, counter: str, method):
        span = self.span

        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            return span(layer, counter, method, *args, **kwargs)

        return wrapper

    def _step_for(self, generator):
        code = getattr(generator, "gi_code", None)
        step = self._steps.get(code)
        if step is None:
            frame = getattr(generator, "gi_frame", None)
            module = frame.f_globals.get("__name__", "") if frame else ""
            layer = module_layer(module)
            counter = f"{layer}.steps"
            span = self.span

            def step(advance, value):
                return span(layer, counter, advance, value)

            self._steps[code] = step
        return step

    def __enter__(self) -> "LayerClock":
        if self._saved:
            raise RuntimeError("LayerClock is already installed")
        for module, cls_name, attr, layer, counter in ENTRY_POINTS:
            base = getattr(importlib.import_module(module), cls_name)
            for cls in _subclasses(base):
                if attr in cls.__dict__:
                    method = cls.__dict__[attr]
                    self._saved.append((cls, attr, method))
                    setattr(cls, attr, self._wrap(layer, counter, method))
        environment = importlib.import_module("repro.des.core").Environment
        process = environment.__dict__["process"]
        step_for = self._step_for

        def timed_process(env, generator):
            return process(env, _TimedGenerator(generator, step_for(generator)))

        self._saved.append((environment, "process", process))
        environment.process = timed_process
        return self

    def __exit__(self, *exc_info) -> None:
        for cls, attr, method in reversed(self._saved):
            setattr(cls, attr, method)
        self._saved.clear()

    def layer_self_s(self, wall_s: float) -> dict[str, float]:
        """Self time per layer for ``wall_s`` of traced time; ``des`` = rest."""
        out = {layer: self.self_s.get(layer, 0.0) for layer in LAYERS}
        out["des"] = wall_s - sum(v for k, v in out.items() if k != "des")
        return out
