"""Module: the compilation unit handed to the TAPAS toolchain."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import IRError
from repro.ir.function import Function
from repro.ir.types import Type
from repro.ir.values import GlobalVariable


class Module:
    """A set of functions plus globals. One module = one accelerator."""

    def __init__(self, name: str):
        self.name = name
        self.functions: List[Function] = []
        self._functions_by_name: Dict[str, Function] = {}
        self.globals: List[GlobalVariable] = []
        self._globals_by_name: Dict[str, GlobalVariable] = {}

    def add_function(self, function: Function) -> Function:
        if function.name in self._functions_by_name:
            raise IRError(f"duplicate function: {function.name}")
        function.parent = self
        self.functions.append(function)
        self._functions_by_name[function.name] = function
        return function

    def add_global(self, name: str, type_: Type, size_bytes: int) -> GlobalVariable:
        if name in self._globals_by_name:
            raise IRError(f"duplicate global: {name}")
        var = GlobalVariable(type_, name, size_bytes)
        self.globals.append(var)
        self._globals_by_name[name] = var
        return var

    def function(self, name: str) -> Optional[Function]:
        return self._functions_by_name.get(name)

    def remove_function(self, function: Function):
        """Drop a function (used by the inliner's dead-function pruning)."""
        if self._functions_by_name.get(function.name) is not function:
            raise IRError(f"{function.name} is not in module {self.name}")
        self.functions.remove(function)
        del self._functions_by_name[function.name]
        function.parent = None

    def __repr__(self):
        return (f"<Module {self.name}: {len(self.functions)} functions, "
                f"{len(self.globals)} globals>")
