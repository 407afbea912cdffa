"""One definition per plumbing component: its kernel section is derived
from the class's own ``tick`` / ``is_busy`` / ``next_wake`` source.

:func:`section` rewrites ``type(comp)``'s methods once per class into a text
template and instantiates it per component by substitution: handshakes
become the kernel's flat ``c<K>i`` / ``CQ`` / ``CP`` / ``dl`` ops, helpers
that touch a channel are inlined, attribute chains no method assigns are
hoisted into the preamble, module globals go through the object table, and
``next_wake`` is evaluated at ``cycle - 1`` (the skip runs after the cycle
increment). docs/simulator.md ("Writing a compilable component") lists the
subset; anything else raises :class:`UnsupportedDesign` naming class,
method, construct and line, and the design runs on the dense oracle.
"""

from __future__ import annotations

import ast
import builtins
import copy
import linecache
import re
from functools import lru_cache
from types import FunctionType

from repro.sim.channel import Channel
from repro.sim.component import NEVER, Component

#: handshake methods no deque, list or dict has (``pop`` alone is ambiguous)
_HANDSHAKES = ("can_pop", "peek", "can_push", "push")
_STATEMENTS = (ast.Assign, ast.AugAssign, ast.Expr, ast.Raise, ast.If,
               ast.While, ast.For, ast.Break, ast.Continue, ast.Pass)
_POP = "CQ[%s] = 1", "dl.append(%s)"


class UnsupportedDesign(Exception):
    """Raised (internally) when a design cannot be specialized; the
    caller turns it into a dense-engine fallback with this reason."""


@lru_cache(maxsize=None)
def _defs(filename: str) -> dict:
    """``{(name, def line): FunctionDef}`` of one source file, parsed whole
    (``inspect.getsource`` per method is five times the cost)."""
    found, scopes = {}, [ast.parse("".join(linecache.getlines(filename)))]
    for scope in scopes:  # the module, then its classes and functions
        for node in scope.body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                scopes.append(node)
                found[node.name, node.lineno] = node
    return found


def _find(fn):
    code = fn.__code__
    return _defs(code.co_filename).get((fn.__name__, code.co_firstlineno))


def _returned(fn):
    """The expression of a function that is one ``return <expression>``."""
    body = [stmt for stmt in getattr(_find(fn), "body", [])
            if not (isinstance(stmt, ast.Expr)  # a docstring
                    and isinstance(stmt.value, ast.Constant))]
    return body[0].value if len(body) == 1 \
        and isinstance(body[0], ast.Return) else None


def _self_chain(node) -> list:
    """``["a", "b"]`` for ``self.a.b``, else ``[]``."""
    chain = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    return chain[::-1] if getattr(node, "id", None) == "self" else []


def _self_attr(node):
    """``"a"`` for exactly ``self.a``, else ``None``."""
    chain = _self_chain(node)
    return chain[0] if len(chain) == 1 else None


def _raw(text: str) -> ast.Expr:
    """Kernel text as a statement: ``ast.unparse`` prints a ``Name``'s id verbatim."""
    return ast.Expr(ast.Name(id=text))


class _Template(ast.NodeTransformer):
    """One class's section as text: ``@x`` stands for the component alias,
    ``@<kind>:<name>@`` for a channel's index (k) / capacity (c), a channel
    list's length (n) / table (t) or an object-table reference (g). Which
    attributes are channels is read off ``comp``, the first instance seen."""

    def __init__(self, comp):
        self.cls = cls = type(comp)
        self.channels = {name for name, value in vars(comp).items()
                         if isinstance(value, Channel)}
        self.lists = {name for name, value in vars(comp).items()
                      if isinstance(value, (list, tuple)) and value
                      and all(isinstance(ch, Channel) for ch in value)}
        self.hoisted, self.globals, self.handles = {}, {}, set()
        self.scope, self.fn, self.method, self.line = {}, None, "", 0
        self.stack, self.stored = [], set()
        for klass in cls.__mro__[:cls.__mro__.index(Component)]:
            for name, fn in vars(klass).items():
                if isinstance(fn, FunctionType) and name != "__init__":
                    self.stored |= {  # attribute names some method assigns
                        n.attr for n in ast.walk(self.source(fn))
                        if isinstance(n, ast.Attribute)
                        and not isinstance(n.ctx, ast.Load)}
        for fn in (cls.is_busy, cls.next_wake):
            if _returned(fn) is None:
                self.source(fn)
                raise self.fail("anything but one `return <expression>`")
        tick = ["    " + line for line in self.derive(cls.tick, "cycle")]
        busy = self.derive(cls.is_busy)
        wake, = self.derive(cls.next_wake, "(cycle - 1)")
        skip = ["w = " + wake, "if w < tw:", "    tw = w"] * (wake not in [
            "@g:%s@" % name for name in self.globals
            if self.globals[name] == NEVER])  # no timer: nothing to clamp
        pre = ["%s = %s" % item for item in self.hoisted.items()]
        #: preamble, held-work terms, tick body and skip lines, NUL-separated
        self.text = "\0".join("\n".join(part) for part in (
            pre, busy * (busy != ["False"]), tick, skip))
        self.temps = dict.fromkeys(re.findall(r"\bz\d+_\w+", self.text))
        self.origin = "%s.%s (line %d)" % (
            cls.tick.__module__, cls.tick.__qualname__,
            cls.tick.__code__.co_firstlineno)

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
        channel = self.popped(value)
        if channel:  # a bare pop(): the side effect is all of it
            return [_raw(line % channel[1]) for line in _POP]
        channel = self.channel(getattr(func, "value", None))
        if channel and func.attr == "push" and len(value.args) == 1:
            return [_raw("CP[%s] = %s" % (channel[1],
                                          self.text(value.args[0]))),
                    _raw("dl.append(%s)" % channel[1])]
        helper = getattr(self.cls, _self_attr(func) or "", None)
        if isinstance(helper, FunctionType) and _returned(helper) is None \
                and self.touches(func.attr):  # the kernel owns the handshakes
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
        node = copy.deepcopy(self.source(fn))
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


def section(em, alias: str, comp):
    """``(tick lines, busy terms, skip lines)`` of one component, preamble and
    temporaries added to ``em``: its class's template (derived once per
    process) with this instance's channels, fan-ins and objects substituted.
    The tick lines: a comment naming their one definition, the no-op guard
    (work held, or an input to pop), then the derived body."""
    tpl = _TEMPLATES.get(type(comp)) \
        or _TEMPLATES.setdefault(type(comp), _Template(comp))
    ports = comp.ports()
    if ports is None:
        raise UnsupportedDesign(
            f"{type(comp).__name__} {comp.name} declares no ports")

    def fill(match):
        kind, name = match.groups()
        if kind == "g":
            return em.ref(tpl.globals[name])
        value = getattr(comp, name)
        if kind == "n":
            return str(len(value))
        if kind == "t":
            return "(%s)" % "".join("(c%di, %d, %d), " % (
                em.ci(ch), em.ci(ch), ch.capacity) for ch in value)
        return str(em.ci(value) if kind == "k" else value.capacity)

    text = re.sub(r"@(\w):(\w+)@", fill, tpl.text).replace("@x", alias)
    pre, held, tick, skip = (part.split("\n") if part else []
                             for part in text.split("\0"))
    em.pre.extend(pre)
    em.temps.update(tpl.temps)
    guard = ["(%s)" % term for term in held] \
        + ["c%di" % em.ci(ch) for ch in ports[0]]
    return (["# " + tpl.origin, "if %s:" % (" or ".join(guard) or "False")]
            + tick, held, skip)
