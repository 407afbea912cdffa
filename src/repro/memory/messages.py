"""Message types flowing through the memory network.

Like the task network's messages (:mod:`repro.task.messages`) these are
``__slots__`` types: every memory node issue allocates a request and its
tag, and the flat layout keeps that allocation cheap. :class:`Fields`
gives them a dataclass's equality and ``repr`` over their slots; a
request or response is mutable and does not hash.
"""

from __future__ import annotations

from typing import Any, Optional

LOAD = "load"
STORE = "store"


class Fields:
    """Equality and ``repr`` over ``__slots__``, as a dataclass has them."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None  # mutable

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))


class MemRequest(Fields):
    """A memory operation issued by a TXU dataflow node.

    ``tag`` is opaque routing state (unit, tile, instance, node indices);
    the out-demux network uses ``tag.port`` fields to route the response
    back (Fig 8). ``size`` in bytes; sub-word sizes exercise the staging
    buffers' alignment logic.
    """

    __slots__ = ("tag", "op", "addr", "size", "data", "port")

    def __init__(self, tag: Any, op: str, addr: int, size: int,
                 data: Optional[int] = None, port: int = 0):
        self.tag = tag
        self.op = op
        self.addr = addr
        self.size = size
        self.data = data    # raw payload for stores
        self.port = port    # response routing hint

    def is_load(self) -> bool:
        return self.op == LOAD


class MemResponse(Fields):
    """Completion message routed back to the requesting dataflow node."""

    __slots__ = ("tag", "data", "port")

    def __init__(self, tag: Any, data: Optional[int] = None, port: int = 0):
        self.tag = tag
        self.data = data    # raw payload for loads
        self.port = port
