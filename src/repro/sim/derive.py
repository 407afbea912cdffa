"""One definition per plumbing component: its kernel section is derived
from the class's own ``tick`` / ``is_busy`` / ``next_wake`` source.

:func:`section` rewrites ``type(comp)``'s methods once per class into a text
template, split there into literal and slot segments, and fills it per
component by walking the segments in order: handshakes
become the kernel's flat ``c<K>i`` / ``CQ`` / ``CP`` / ``dq`` / ``dl`` ops,
helpers that touch a channel are inlined, attribute chains no method
assigns are hoisted into the preamble, module globals go through the
object table, and ``next_wake`` is evaluated at ``cycle - 1`` (the skip
runs after the cycle increment). :func:`tile_section` and :func:`tile_loop`
read the TXU's instance scheduler, ``TXUTile.tick`` and ``_schedule``, the
same way, with the generated steppers in place of its interpreted step
and their per-block scans in place of ``_soonest``. docs/simulator.md
("Writing a compilable component") lists the subset; anything else raises
:class:`UnsupportedDesign` naming class, method, construct and line, and
the design runs on the dense oracle.
:func:`expression` reads a one-``return`` function the same way for the
TXU steppers: ``ir/opsem.py``'s operations, ``IntType.wrap`` and
``to_f32``.
"""

from __future__ import annotations

import ast
import builtins
import linecache
import re
from dis import opmap
from functools import lru_cache
from operator import itemgetter
from types import CodeType, FunctionType

from repro.sim.channel import Channel
from repro.sim.component import NEVER, Component

#: handshake methods no deque, list or dict has (``pop`` alone is ambiguous)
_HANDSHAKES = ("can_pop", "peek", "can_push", "push")
_STATEMENTS = (ast.Assign, ast.AugAssign, ast.Expr, ast.Raise, ast.If,
               ast.While, ast.For, ast.Break, ast.Continue, ast.Pass)
_POP = "CQ[%s] = 1", "dq.append(%s)"
#: a template's slots: ``@<kind>:<name>@``, and ``@x`` for the alias
_SLOT = re.compile(r"@(\w):(\w+)@|@x")
#: the bytecodes of an attribute assignment (``del`` included), and the
#: prefix of an argument wider than a byte
_STORES = opmap["STORE_ATTR"], opmap["DELETE_ATTR"]
_EXTENDED = opmap["EXTENDED_ARG"]
#: where the kernel text a template fills sits: the preamble of either
#: module kind, and a shell's fast-forward lines
_PRE, _SKIP = " " * 8, " " * 16


class UnsupportedDesign(Exception):
    """Raised (internally) when a design cannot be specialized; the
    caller turns it into a dense-engine fallback with this reason."""


@lru_cache(maxsize=None)
def _defs(filename: str, line: int):
    """The ``def`` that starts at ``line`` of ``filename``, parsed on its
    own with its line numbers kept, or None. Only the definitions a
    template reads are parsed (a whole-file parse costs more than every
    derivation after it), once per process: the rewrite reads a tree and
    never changes it (:class:`_Rewrite`). Its block runs to the first line
    no deeper than the ``def`` after which it parses: a closing bracket or
    a string's line can look like the end."""
    lines = linecache.getlines(filename)
    if not 0 < line <= len(lines):
        return None
    depth = len(lines[line - 1]) - len(lines[line - 1].lstrip())
    pad = "\n" * (line - 2) + "if 1:\n" if depth else "\n" * (line - 1)
    end = line
    while True:
        while end < len(lines) and (
                lines[end].lstrip()[:1] in ("", "#")
                or len(lines[end]) - len(lines[end].lstrip()) > depth):
            end += 1
        try:
            tree = ast.parse(pad + "".join(lines[line - 1:end]))
            break
        except SyntaxError:
            if end == len(lines):
                return None
            end += 1
    node = tree.body[0].body[0] if depth else tree.body[0]
    return node if isinstance(node, ast.FunctionDef) \
        and node.lineno == line else None


def _find(fn):
    code = fn.__code__
    node = _defs(code.co_filename, code.co_firstlineno)
    return node if node is not None and node.name == fn.__name__ else None


class _Rewrite(ast.NodeTransformer):
    """A ``NodeTransformer`` that leaves the tree it reads as it was: each
    node it rewrites is a shallow copy, lists copied, so the parsed
    definitions stay shared and are never deep-copied."""

    def generic_visit(self, node):
        copy = type(node).__new__(type(node))
        copy.__dict__.update({field: value[:] if type(value) is list
                              else value
                              for field, value in node.__dict__.items()})
        return super().generic_visit(copy)


def _stored(code) -> set:
    """The attribute names ``code`` (or code nested in it) assigns or
    deletes, read off its ``STORE_ATTR`` / ``DELETE_ATTR`` instructions."""
    raw, names = code.co_code, set()
    for op in _STORES:
        at = raw.find(op)
        while at >= 0:
            if not at & 1:  # an opcode, not an argument byte
                arg, prefix, shift = raw[at + 1], at - 2, 8
                while prefix >= 0 and raw[prefix] == _EXTENDED:
                    arg |= raw[prefix + 1] << shift
                    prefix, shift = prefix - 2, shift + 8
                names.add(code.co_names[arg])
            at = raw.find(op, at + 1)
    for const in code.co_consts:
        if isinstance(const, CodeType):
            names |= _stored(const)
    return names


def _returned(fn):
    """The expression of a function that is one ``return <expression>``."""
    body = [stmt for stmt in getattr(_find(fn), "body", [])
            if not (isinstance(stmt, ast.Expr)  # a docstring
                    and isinstance(stmt.value, ast.Constant))]
    return body[0].value if len(body) == 1 \
        and isinstance(body[0], ast.Return) else None


@lru_cache(maxsize=None)
def expression(fn) -> str:
    """What a one-``return`` function returns, as text in which every name
    ``fn`` binds -- a parameter or module global, with its attribute chain
    (``self.mask``, ``struct.pack``) -- is an ``@name@`` placeholder; the
    builtins stay. Read once per function per process."""
    node = _returned(fn)
    if node is None:
        raise UnsupportedDesign(f"{fn.__qualname__} is not one "
                                f"`return <expression>`")
    names = set(fn.__code__.co_varnames) | set(fn.__globals__)

    class Marked(_Rewrite):
        def visit(self, node):
            chain = _chain(node)
            if chain and chain[0] in names:
                return ast.Name(id="@%s@" % ".".join(chain))
            return super().visit(node)

    return ast.unparse(Marked().visit(node))


def _chain(node) -> list:
    """``["a", "b", "c"]`` for ``a.b.c``, else ``[]``."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    return [node.id] + chain[::-1] if isinstance(node, ast.Name) else []


def _self_chain(node) -> list:
    """``["a", "b"]`` for ``self.a.b``, else ``[]``."""
    chain = _chain(node)
    return chain[1:] if chain[:1] == ["self"] else []


def _self_attr(node):
    """``"a"`` for exactly ``self.a``, else ``None``."""
    chain = _self_chain(node)
    return chain[0] if len(chain) == 1 else None


def _raw(text: str) -> ast.Expr:
    """Kernel text as a statement: ``ast.unparse`` prints a ``Name``'s id verbatim."""
    return ast.Expr(ast.Name(id=text))


class _Template(_Rewrite):
    """One class's section as text: ``@x`` stands for the component alias,
    ``@<kind>:<name>@`` for a channel's index (k) / capacity (c), a channel
    list's length (n) / table (t) or an object-table reference (g). Which
    attributes are channels is read off ``comp``, the first instance seen.
    A call of a method named in ``calls`` (by its chain after ``self``)
    becomes that text, formatted with the argument texts, applied to them;
    a statement calling one mapped to None is dropped. The text is split
    into literal and slot segments once: between each two of
    :attr:`literals`, :attr:`fields` picks one value of an instance -- its
    alias, or what fills a distinct slot: a channel's index or a table
    (:attr:`wired`), a capacity, a length, an object's reference -- or the
    empty text at a part's end (:attr:`bounds`: the preamble, held-work
    terms, tick body and skip lines follow each other). Its lines sit at
    their place in the module: the tick lines at ``indent``, the
    preamble's and skip lines at :data:`_PRE` and :data:`_SKIP`."""

    def __init__(self, comp, indent: str, method="tick", calls=None):
        self.cls = cls = type(comp)
        self.calls = calls or {}
        self.channels = {name for name, value in vars(comp).items()
                         if isinstance(value, Channel)}
        self.lists = {name for name, value in vars(comp).items()
                      if isinstance(value, (list, tuple)) and value
                      and all(isinstance(ch, Channel) for ch in value)}
        self.hoisted, self.globals, self.handles = {}, {}, set()
        self.scope, self.fn, self.method, self.line = {}, None, "", 0
        self.stack = []
        if cls not in _STORED:  # attribute names some method assigns
            _STORED[cls] = {
                attr for klass in set(cls.__mro__) - set(Component.__mro__)
                for name, fn in vars(klass).items()
                if isinstance(fn, FunctionType) and name != "__init__"
                for attr in _stored(fn.__code__)}
        self.stored = _STORED[cls]
        busy, skip = [], []
        if isinstance(comp, Component):
            for fn in (cls.is_busy, cls.next_wake):
                if _returned(fn) is None:
                    self.source(fn)
                    raise self.fail("anything but one `return <expression>`")
            busy = self.derive(cls.is_busy)
            wake, = self.derive(cls.next_wake, "(cycle - 1)")
            skip = ["w = " + wake, "if w < tw:", "    tw = w"] * (wake not in [
                "@g:%s@" % name for name in self.globals
                if self.globals[name] == NEVER])  # no timer: nothing to clamp
        fn = getattr(cls, method)
        tick = self.derive(fn, *fn.__code__.co_varnames[
            1:fn.__code__.co_argcount])
        # the preamble, held-work terms, tick body and skip lines, each
        # split into literal segments and slots: ((kind, name), or
        # (None, None) for the alias)
        parts = (
            "\n".join(_PRE + "%s = %s" % hoist
                      for hoist in self.hoisted.items()),
            "\n".join(busy * (busy != ["False"])),
            "\n".join(indent + line for line in tick),
            "\n".join(_SKIP + line for line in skip))
        self.temps = dict.fromkeys(re.findall(r"\bz\d+_\w+", "\0".join(parts)))
        parts = [_SLOT.split(part) for part in parts]
        used = [list(zip(split[1::3], split[2::3])) for split in parts]
        slots = list(dict.fromkeys(slot for part in used for slot in part))
        # the distinct slots by what fills them: channels and channel tables
        # (``em.ci`` aliases a channel on its first use, so these keep their
        # order of first use), capacities, lengths and objects
        self.wired = [(kind == "t", name) for kind, name in slots
                      if kind in ("k", "t")]
        self.capacities = [name for kind, name in slots if kind == "c"]
        self.lengths = [name for kind, name in slots if kind == "n"]
        self.objects = [self.globals[name] for kind, name in slots
                        if kind == "g"]
        # an instance's values in that order, after its alias and the empty
        # text that parts one part's segments from the next
        number = {slot: i for i, slot in enumerate(
            [(None, None), ()] + [slot for kinds in ("kt", "c", "n", "g")
                                  for slot in slots
                                  if slot[0] and slot[0] in kinds])}
        self.literals, fields, self.bounds = [], [], []
        for split, part in zip(parts, used):
            if self.literals:
                self.bounds.append(2 * len(self.literals) - 1)
                fields.append(1)
            self.literals += split[0::3]
            fields += [number[slot] for slot in part]
        self.fields = itemgetter(*fields)
        #: the definition the section is derived from, by name only: a line
        #: number would change every kernel's text whenever code above the
        #: method moves
        self.origin = "%s.%s" % (fn.__module__, fn.__qualname__)

    def fail(self, construct: str):
        return UnsupportedDesign(
            f"{self.cls.__qualname__}.{self.method}: {construct} is outside "
            f"the derivable subset (line {self.line})")

    def source(self, fn):
        self.method, self.line = fn.__name__, fn.__code__.co_firstlineno
        if _find(fn) is None:
            raise self.fail(f"unavailable source ({fn.__code__.co_filename})")
        return _find(fn)

    def touches(self, name, seen=()) -> bool:
        """Does same-class method ``name`` (transitively) use a channel? One
        that does cannot stay a real call: the kernel owns the handshakes."""
        fn = getattr(self.cls, name, None)
        node = isinstance(fn, FunctionType) and name not in seen and _find(fn)
        return bool(node) and any(
            isinstance(n, ast.Attribute) and (
                n.attr in _HANDSHAKES or _self_attr(n)
                and self.touches(n.attr, seen + (name,)))
            for n in ast.walk(node))

    def channel(self, node):
        """``(items, index, capacity)`` texts of a channel expression:
        ``self.<channel>``, or a local bound to ``self.<list>[i]``."""
        name = _self_attr(node)
        if name in self.channels:
            return "c@k:%s@i" % name, "@k:%s@" % name, "@c:%s@" % name
        if self.scope.get(getattr(node, "id", None)) in self.handles:
            return tuple(self.scope[node.id] + part for part in "ikc")

    def popped(self, value):
        """The channel a whole-expression ``<channel>.pop()`` pops, if any."""
        if isinstance(value, ast.Call) and not value.args \
                and getattr(value.func, "attr", None) == "pop":
            return self.channel(value.func.value)

    def text(self, node) -> str:
        return ast.unparse(self.visit(node))

    def visit(self, node):
        self.line = getattr(node, "lineno", self.line)
        if isinstance(node, ast.stmt) and not isinstance(node, _STATEMENTS):
            raise self.fail(f"`{type(node).__name__.lower()}` statement")
        return super().visit(node)

    # -- expressions ---------------------------------------------------------

    def visit_Name(self, node):
        if node.id in self.scope:
            return ast.Name(id=self.scope[node.id])
        if node.id in self.fn.__globals__:
            value = self.fn.__globals__[node.id]
            if self.globals.setdefault(node.id, value) is not value:
                raise self.fail(f"global {node.id} with two meanings")
            return ast.Name(id="@g:%s@" % node.id)
        if node.id in ("self", "super") or not hasattr(builtins, node.id):
            raise self.fail(f"name {node.id!r}")
        return node

    def visit_Attribute(self, node):
        chain = _self_chain(node)
        if not chain:
            return self.generic_visit(node)
        if chain[0] in self.channels or chain[0] in self.lists:
            raise self.fail(f"channel self.{chain[0]} used as a value")
        name = ".".join(["@x"] + chain)
        if isinstance(node.ctx, ast.Load) and not self.stored & set(chain):
            self.hoisted["@x_" + "_".join(chain)] = name  # read once, up front
            name = "@x_" + "_".join(chain)
        return ast.Name(id=name)

    def visit_Call(self, node):
        func, helper = node.func, _self_attr(node.func)
        mapped = self.calls.get(".".join(_self_chain(func)))
        if mapped is not None:
            args = [self.text(arg) for arg in node.args]
            return ast.Name(id="%s(%s)" % (mapped.format(*args),
                                           ", ".join(args)))
        channel = self.channel(getattr(func, "value", None))
        if channel is not None:
            items, index, capacity = channel
            if func.attr == "can_pop":
                return ast.Name(id=f"({items} and not CQ[{index}])")
            if func.attr == "can_push":
                return ast.Name(id=f"(len({items}) < {capacity} "
                                   f"and CP[{index}] is None)")
            if func.attr == "peek":
                return ast.Name(id=f"{items}[0]")
            raise self.fail(f"{func.attr}() inside an expression")
        callee = getattr(self.cls, helper, None) if helper \
            else self.fn.__globals__.get(getattr(func, "id", None))
        if isinstance(callee, FunctionType) and _returned(callee) is not None:
            return self.inline(callee, node, 1 if helper else 0)
        if helper and self.touches(helper):
            raise self.fail(f"channel-touching helper {helper}() "
                            f"inside an expression")
        if getattr(func, "id", None) == "len" and len(node.args) == 1 \
                and _self_attr(node.args[0]) in self.lists:
            return ast.Name(id="@n:%s@" % node.args[0].attr)
        if len(_self_chain(func)) > 1:  # hoist the holder, not its bound method
            return ast.Call(ast.Attribute(self.visit(func.value), func.attr),
                            [self.visit(arg) for arg in node.args],
                            [self.visit(keyword) for keyword in node.keywords])
        return self.generic_visit(node)

    # -- statements ----------------------------------------------------------

    def visit_Expr(self, node):
        value = node.value
        func = getattr(value, "func", None)
        if isinstance(value, ast.Constant):
            return None  # a docstring
        if self.calls.get(".".join(_self_chain(func)), "") is None:
            return None  # a hook this template drops
        channel = self.popped(value)
        if channel:  # a bare pop(): the side effect is all of it
            return [_raw(line % channel[1]) for line in _POP]
        channel = self.channel(getattr(func, "value", None))
        if channel and func.attr == "push" and len(value.args) == 1:
            return [_raw("CP[%s] = %s" % (channel[1],
                                          self.text(value.args[0]))),
                    _raw("dl.append(%s)" % channel[1])]
        name = _self_attr(func) or ""
        helper = getattr(self.cls, name, None)
        if isinstance(helper, FunctionType) and _returned(helper) is None \
                and name not in self.calls \
                and self.touches(name):  # the kernel owns the handshakes
            return self.inline(helper, value)
        return self.generic_visit(node)

    def visit_Assign(self, node):
        target, value = node.targets[0], node.value
        channel = self.popped(value)
        if channel:  # the side effect, then the value it returns
            return [_raw(line % channel[1]) for line in _POP] + [
                _raw("%s = %s[0]" % (self.text(target), channel[0]))]
        name = isinstance(value, ast.Subscript) and _self_attr(value.value)
        if name in self.lists and isinstance(target, ast.Name):
            handle = self.scope[target.id]  # <handle>i, <handle>k, <handle>c
            self.handles.add(handle)
            self.hoisted["@x_" + name] = "@t:%s@" % name
            return _raw("%si, %sk, %sc = @x_%s[%s]" % (
                handle, handle, handle, name, self.text(value.slice)))
        return self.generic_visit(node)

    def inline(self, fn, call, skip=1):
        """``fn`` in place of ``call`` -- its statements, or the expression it
        returns when that is all it does: parameters are substituted by the
        (pure) argument texts, its locals get a prefix of their own."""
        args = [ast.unparse(arg) if isinstance(arg, ast.Name)
                else "(%s)" % ast.unparse(arg)
                for arg in map(self.visit, call.args)]
        saved = self.scope, self.fn, self.method, self.line
        node = self.source(fn)
        params = [a.arg for a in node.args.args][skip:]
        scope = {n.id: "z%d_%s" % (len(self.stack), n.id)
                 for n in ast.walk(node) if isinstance(n, ast.Name)
                 and not isinstance(n.ctx, ast.Load)}
        if fn in self.stack or len(params) != len(args) or call.keywords \
                or set(params) & set(scope):
            raise self.fail(f"this call of {fn.__name__}()")
        self.scope, self.fn = {**scope, **dict(zip(params, args))}, fn
        self.stack.append(fn)
        try:
            if _returned(fn) is not None:
                return self.visit(node.body[-1].value)
            return self.generic_visit(ast.Module(node.body, [])).body
        finally:
            self.stack.pop()
            self.scope, self.fn, self.method, self.line = saved

    def derive(self, fn, *args):
        """A method's text: statement lines, or its one returned expression."""
        self.scope = {arg: arg for arg in args}
        call = ast.Call(None, [ast.Name(id=arg) for arg in args], [])
        body = self.inline(fn, call)
        if getattr(getattr(body, "func", None), "id", None) == "bool":
            body = body.args[0]  # is_busy: only read in a boolean context
        return ast.unparse(body if isinstance(body, ast.AST)
                           else ast.Module(body or [ast.Pass()], [])
                           ).split("\n")


_TEMPLATES: dict = {}
#: per class, what :class:`_Template` hoists nothing of (two templates of a
#: class, ``TXUTile.tick`` and ``_schedule``, share it)
_STORED: dict = {}


def _instantiate(em, alias: str, comp, indent: str, method="tick",
                 calls=()):
    """``(template, busy terms, tick text, skip text)`` of one component:
    its class's template of ``method`` with ``calls`` (pairs; derived once
    per process, its tick lines at ``indent``) filled with this instance's
    channels, fan-ins and objects, preamble and temporaries added to
    ``em``."""
    key = type(comp), method, calls
    tpl = _TEMPLATES.get(key) or _TEMPLATES.setdefault(
        key, _Template(comp, indent, method, dict(calls)))
    values = [alias, ""]
    for table, name in tpl.wired:
        value = getattr(comp, name)
        values.append("(%s)" % "".join([
            "(c%di, %d, %d), " % (k, k, ch.capacity)
            for ch, k in zip(value, map(em.ci, value))])
            if table else str(em.ci(value)))
    values += [str(getattr(comp, name).capacity) for name in tpl.capacities]
    values += [str(len(getattr(comp, name))) for name in tpl.lengths]
    values += map(em.ref, tpl.objects)
    text = [None] * (2 * len(tpl.literals) - 1)  # walk the segments in order
    text[0::2] = tpl.literals
    text[1::2] = tpl.fields(values)
    first, second, third = tpl.bounds
    pre, busy, tick, skip = ("".join(text[:first]),
                             "".join(text[first + 1:second]),
                             "".join(text[second + 1:third]),
                             "".join(text[third + 1:]))
    if pre:
        em.pre.append(pre)
    em.temps.update(tpl.temps)
    return tpl, busy.split("\n") if busy else [], tick, skip


def section(em, alias: str, comp):
    """``(head, tick text, busy terms, skip text)`` of one component, at
    their place in the shell: the head is a comment naming the one
    definition and the no-op guard (work held, or an input to pop), the
    derived body follows it."""
    ports = comp.ports()
    if ports is None:
        raise UnsupportedDesign(
            f"{type(comp).__name__} {comp.name} declares no ports")
    tpl, held, tick, skip = _instantiate(em, alias, comp, " " * 20)
    guard = ["(%s)" % term for term in held] \
        + ["c%di" % em.ci(ch) for ch in ports[0]]
    head = "                # %s\n                if %s:" % (
        tpl.origin, " or ".join(guard) or "False")
    return head, tick, held, skip


def tile_section(em, alias: str, tile) -> str:
    """The tick lines of one TXU tile, inside its unit's section: the
    class's ``tick`` -- the gate of the instance scheduler -- with
    ``<alias>k`` (:func:`tile_loop`, instantiated for this tile) in place
    of ``_schedule``."""
    tpl, _held, tick, _skip = _instantiate(em, alias, tile, " " * 24, "tick",
                                           (("_schedule", "@xk"),))
    return "                        # %s\n%s" % (tpl.origin, tick)


def tile_loop(em, tile, traced: bool) -> str:
    """``def k(cycle, room)`` for a task unit's stepper factory: the tile
    class's ``_schedule`` -- the instance loop -- on the tile ``T``, with
    ``Td[block]`` (the unit's generated steppers) in place of the
    interpreted step, ``Tw[block]`` (their per-block scans of the nodes
    that can mature) in place of ``_soonest``, and its helpers inlined:
    the return-value store, its request channel ``em`` names, calls the
    factory's ``ev`` when ``traced``. The aliases it hoists go to
    ``em.pre``."""
    tpl, _held, loop, _skip = _instantiate(em, "T", tile, " " * 12,
                                           "_schedule", (
        ("_step_instance", "Td[{0}.block]"),
        ("_soonest", "Tw[{0}.block]"),
        ("unit.analysis_event", "ev" if traced else None)))
    return "        # %s\n        def k(cycle, room):\n%s" % (tpl.origin, loop)
