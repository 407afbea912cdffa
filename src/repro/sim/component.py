"""Base class for clocked hardware components."""

from __future__ import annotations

#: sentinel wake time: "never wake me on a timer — only channel activity
#: (or an explicit reschedule) makes me runnable again"
NEVER = 1 << 62

#: cycle-accounting states — every simulated cycle of every component is
#: attributed to exactly one of these (the Table III utilization model):
#: doing useful work, waiting for upstream data, blocked by downstream
#: backpressure, or idle with nothing to do.
OBS_BUSY = "busy"
OBS_STALL_IN = "stall_in"
OBS_STALL_OUT = "stall_out"
OBS_IDLE = "idle"

OBS_STATES = (OBS_BUSY, OBS_STALL_IN, OBS_STALL_OUT, OBS_IDLE)


def pipe_wake(pipe, cycle):
    """The one ``next_wake`` of a deadline queue (``(due cycle, item)``
    entries served head first: pipes, DRAM accesses in flight, the cache's
    ready responses). The head's deadline is the only timer: one already due
    was acted on this tick (the component's own movement re-wakes it) or is
    backpressured (the blocking channel's pop wakes it). Inlined by the kernel."""
    return pipe[0][0] if pipe and pipe[0][0] > cycle else NEVER


class Component:
    """A clocked block. Once per cycle the engine calls :meth:`tick`;
    channel reads inside tick observe start-of-cycle state, so tick order
    between components never changes behaviour.

    The base class declares ``__slots__`` so the engine-owned scheduling
    fields (read and written on every tick of every component) live in
    slots; subclasses add their own ``__dict__`` as usual.
    """

    __slots__ = ("name", "sim", "_wake_cycle", "_event_aware",
                 "__dict__", "__weakref__")

    def __init__(self, name: str):
        self.name = name
        self.sim = None  # set on registration
        # event-engine bookkeeping, owned by the Simulator
        self._wake_cycle = NEVER
        self._event_aware = False

    def tick(self, cycle: int):
        """Do one cycle of work: read input channels, update internal
        state, push output channels."""

    # -- event-engine contract ---------------------------------------------

    def sensitivity(self):
        """Channels whose committed movement (a push or a pop) must wake
        this component on the following cycle.

        The default is every channel :meth:`ports` declares — an
        event-aware component watches every channel it reads *or*
        writes; waking too often is harmless (a quiescent tick is a
        no-op), waking too rarely breaks bit-identity with the dense
        engine. ``None`` (no declared ports) opts out of event-driven
        scheduling: the engine then wakes the component on every cycle,
        which is always correct — exactly the dense-engine behaviour.
        Override only to watch something other than the ports.
        """
        ports = self.ports()
        if ports is None:
            return None
        return tuple(ports[0]) + tuple(ports[1])

    def next_wake(self, cycle: int) -> int:
        """Earliest future cycle this component can make progress without
        new activity on its sensitivity channels.

        Called by the event engine immediately after :meth:`tick`.
        Return :data:`NEVER` when only channel traffic can unblock it
        (the quiescent state that enables fast-forward), a deadline for
        internal countdowns (DRAM in flight, pipeline registers), or
        ``cycle + 1`` to stay hot. The default keeps the component woken
        every cycle — dense semantics.
        """
        return cycle + 1

    def is_busy(self) -> bool:
        """True while the component holds in-flight work that will make
        progress without new channel traffic (e.g. a DRAM access counting
        down). Used by deadlock detection."""
        return False

    def ports(self):
        """Directed channel endpoints for the static netlist verifier:
        ``(inputs, outputs)`` — channels this component pops from and
        pushes to. Return ``None`` (the default) when the component does
        not declare its wiring; the verifier then treats it as opaque and
        will not report its channels as dangling."""
        return None

    def stats(self) -> dict:
        """Per-component statistics merged into the simulation report."""
        return {}

    # -- observability -----------------------------------------------------

    def obs_classify(self, cycle: int):
        """Attribute the cycle that just executed to one accounting state.

        Returns ``(state, reason)`` where ``state`` is one of
        :data:`OBS_STATES` and ``reason`` is an optional short stall tag
        (e.g. ``"memory"``, ``"mshr-full"``). Called only when an
        observer is attached (or for a deadlock post-mortem), strictly
        after :meth:`tick` — implementations must read state, never
        mutate it, so instrumentation cannot perturb timing.

        The event engine re-samples a component only in cycles where it
        ticked or one of its :meth:`sensitivity` channels committed, so
        the result may depend on the component's own state, on those
        channels and on timers :meth:`next_wake` reports — nothing else.
        """
        return (OBS_BUSY, None) if self.is_busy() else (OBS_IDLE, None)

    def obs_children(self, cycle: int):
        """Per-subunit attribution for components that own inner tiles.

        Yields ``(name, state, reason)`` triples; the observer keeps a
        separate ledger (and trace track) per subunit name. Called right
        after :meth:`obs_classify` for the same cycle, under its rules.
        """
        return ()

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"
