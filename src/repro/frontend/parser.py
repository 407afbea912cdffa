"""Recursive-descent parser for the Cilk-like language."""

from __future__ import annotations

from typing import List, Optional

from repro.errors import ParseError
from repro.frontend import ast
from repro.frontend.lexer import Token, tokenize
from repro.ir.types import F32, I8, I16, I32, I64, PointerType, Type

_BASE_TYPES = {"i8": I8, "i16": I16, "i32": I32, "i64": I64, "f32": F32}

#: binary operator precedence (higher binds tighter)
_PRECEDENCE = {
    "||": 1, "&&": 2,
    "|": 3, "^": 4, "&": 5,
    "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7,
    "<<": 8, ">>": 8,
    "+": 9, "-": 9,
    "*": 10, "/": 10, "%": 10,
}

#: the deepest nesting accepted: each statement that holds a body (a
#: block, ``if``, ``else if``, ``while``, ``for``, ``cilk_for`` or
#: ``spawn``), each parenthesis, bracket, call and unary operator of an
#: operand, and each operator linking operands, is one level until it
#: ends. Every later stage recurses over the syntax tree; this bound keeps
#: them all well under Python's default recursion limit
MAX_NESTING_DEPTH = 100

#: statements that open a nesting level (their first token's text)
_NESTING_STATEMENTS = ("{", "if", "while", "for", "cilk_for", "spawn")


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # statement and expression nesting levels open

    # -- token helpers ---------------------------------------------------------

    def _peek(self, offset=0) -> Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def _advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "eof":
            self.pos += 1
        return token

    def _check(self, kind: str, text: Optional[str] = None) -> bool:
        token = self._peek()
        return token.kind == kind and (text is None or token.text == text)

    def _match(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        token = self._peek()
        if not self._check(kind, text):
            want = text or kind
            raise ParseError(f"expected {want!r}, found {token.text!r}",
                             token.line, token.column)
        return self._advance()

    def _nest(self, token: Token, what: str = "expression"):
        """Open one more nesting level, at ``token``."""
        self.depth += 1
        if self.depth > MAX_NESTING_DEPTH:
            raise ParseError(f"{what} nested deeper than "
                             f"{MAX_NESTING_DEPTH} levels (statements and "
                             "expressions count together)",
                             token.line, token.column)

    # -- types --------------------------------------------------------------

    def parse_type(self) -> Type:
        token = self._peek()
        if token.kind == "keyword" and token.text in _BASE_TYPES:
            self._advance()
            type_ = _BASE_TYPES[token.text]
            while self._match("op", "*"):
                type_ = PointerType(type_)
            return type_
        raise ParseError(f"expected a type, found {token.text!r}",
                         token.line, token.column)

    # -- top level ----------------------------------------------------------

    def parse_program(self) -> ast.Program:
        program = ast.Program(line=1)
        while not self._check("eof"):
            if self._check("keyword", "global"):
                program.globals.append(self.parse_global())
            elif self._check("keyword", "func"):
                program.functions.append(self.parse_function())
            else:
                token = self._peek()
                raise ParseError(
                    f"expected 'func' or 'global', found {token.text!r}",
                    token.line, token.column)
        return program

    def parse_global(self) -> ast.GlobalDecl:
        start = self._expect("keyword", "global")
        name = self._expect("ident").text
        self._expect("op", ":")
        element = self.parse_type()
        self._expect("op", "[")
        count = int(self._expect("int").text, 0)
        self._expect("op", "]")
        self._expect("op", ";")
        return ast.GlobalDecl(line=start.line, name=name,
                              element_type=element, count=count)

    def parse_function(self) -> ast.FuncDecl:
        start = self._expect("keyword", "func")
        name = self._expect("ident").text
        self._expect("op", "(")
        params = []
        while not self._check("op", ")"):
            if params:
                self._expect("op", ",")
            p_name = self._expect("ident")
            self._expect("op", ":")
            params.append(ast.Param(line=p_name.line, name=p_name.text,
                                    type=self.parse_type()))
        self._expect("op", ")")
        return_type = None
        if self._match("op", "->"):
            return_type = self.parse_type()
        body = self.parse_block()
        return ast.FuncDecl(line=start.line, name=name, params=params,
                            return_type=return_type, body=body)

    # -- statements ---------------------------------------------------------

    def parse_block(self) -> ast.Block:
        start = self._expect("op", "{")
        block = ast.Block(line=start.line)
        while not self._check("op", "}"):
            block.statements.append(self.parse_statement())
        self._expect("op", "}")
        return block

    def parse_statement(self) -> ast.Stmt:
        token = self._peek()
        depth = self.depth
        if token.text in _NESTING_STATEMENTS:
            self._nest(token, "statement")
        # keywords and "{" are never an identifier's text
        stmt = {
            "{": self.parse_block,
            "var": self.parse_var_decl,
            "if": self.parse_if,
            "while": self.parse_while,
            "for": lambda: self.parse_for(parallel=False),
            "cilk_for": lambda: self.parse_for(parallel=True),
            "spawn": self.parse_spawn,
            "sync": self.parse_sync,
            "return": self.parse_return,
        }.get(token.text, self.parse_assign_or_call)()
        self.depth = depth
        return stmt

    def parse_var_decl(self) -> ast.VarDecl:
        start = self._expect("keyword", "var")
        name = self._expect("ident").text
        self._expect("op", ":")
        type_ = self.parse_type()
        init = None
        spawn_init = None
        if self._match("op", "="):
            if self._check("keyword", "spawn"):
                self._advance()
                call = self.parse_postfix()
                if not isinstance(call, ast.CallExpr):
                    raise ParseError("spawn initialiser must be a call",
                                     start.line, start.column)
                spawn_init = call
            else:
                init = self.parse_expression()
        self._expect("op", ";")
        return ast.VarDecl(line=start.line, name=name, declared_type=type_,
                           init=init, spawn_init=spawn_init)

    def parse_if(self) -> ast.If:
        start = self._expect("keyword", "if")
        self._expect("op", "(")
        condition = self.parse_expression()
        self._expect("op", ")")
        then_body = self.parse_block()
        else_body = None
        if self._match("keyword", "else"):
            if self._check("keyword", "if"):
                self._nest(self._peek(), "statement")
                else_body = self.parse_if()
            else:
                else_body = self.parse_block()
        return ast.If(line=start.line, condition=condition,
                      then_body=then_body, else_body=else_body)

    def parse_while(self) -> ast.While:
        start = self._expect("keyword", "while")
        self._expect("op", "(")
        condition = self.parse_expression()
        self._expect("op", ")")
        return ast.While(line=start.line, condition=condition,
                         body=self.parse_block())

    def parse_for(self, parallel: bool) -> ast.For:
        start = self._expect("keyword", "cilk_for" if parallel else "for")
        self._expect("op", "(")
        if self._check("keyword", "var"):
            init = self.parse_var_decl()  # consumes the ';'
        else:
            init = self.parse_simple_assign()
            self._expect("op", ";")
        condition = self.parse_expression()
        self._expect("op", ";")
        step = self.parse_simple_assign()
        self._expect("op", ")")
        body = self.parse_block()
        return ast.For(line=start.line, init=init, condition=condition,
                       step=step, body=body, parallel=parallel)

    def parse_simple_assign(self) -> ast.Assign:
        target = self.parse_postfix()
        eq = self._expect("op", "=")
        value = self.parse_expression()
        return ast.Assign(line=eq.line, target=target, value=value)

    def parse_spawn(self) -> ast.SpawnStmt:
        start = self._expect("keyword", "spawn")
        if self._check("op", "{"):
            return ast.SpawnStmt(line=start.line, block=self.parse_block())
        call = self.parse_postfix()
        if not isinstance(call, ast.CallExpr):
            raise ParseError("spawn target must be a call or a block",
                             start.line, start.column)
        self._expect("op", ";")
        return ast.SpawnStmt(line=start.line, call=call)

    def parse_sync(self) -> ast.SyncStmt:
        start = self._expect("keyword", "sync")
        self._expect("op", ";")
        return ast.SyncStmt(line=start.line)

    def parse_return(self) -> ast.Return:
        start = self._expect("keyword", "return")
        value = None
        if not self._check("op", ";"):
            value = self.parse_expression()
        self._expect("op", ";")
        return ast.Return(line=start.line, value=value)

    def parse_assign_or_call(self) -> ast.Stmt:
        expr = self.parse_postfix()
        if self._check("op", "="):
            eq = self._advance()
            value = self.parse_expression()
            self._expect("op", ";")
            return ast.Assign(line=eq.line, target=expr, value=value)
        self._expect("op", ";")
        return ast.ExprStmt(line=expr.line, expr=expr)

    # -- expressions -----------------------------------------------------------

    def parse_expression(self, min_precedence: int = 1) -> ast.Expr:
        depth = self.depth
        lhs = self.parse_unary()
        while True:
            token = self._peek()
            precedence = _PRECEDENCE.get(token.text) \
                if token.kind == "op" else None
            if precedence is None or precedence < min_precedence:
                self.depth = depth
                return lhs
            self._nest(self._advance())
            rhs = self.parse_expression(precedence + 1)
            lhs = ast.Binary(line=token.line, op=token.text, lhs=lhs, rhs=rhs)

    def parse_unary(self) -> ast.Expr:
        token = self._peek()
        if token.kind == "op" and token.text in ("-", "!"):
            self._nest(self._advance())
            operand = self.parse_unary()
            return ast.Unary(line=token.line, op=token.text, operand=operand)
        if token.kind == "op" and token.text == "&":
            self._nest(self._advance())
            target = self.parse_postfix()
            if not isinstance(target, (ast.Index, ast.VarRef)):
                raise ParseError("'&' needs a variable or array element",
                                 token.line, token.column)
            return ast.AddrOf(line=token.line, target=target)
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        depth = self.depth
        expr = self.parse_primary()
        while self._check("op", "["):
            bracket = self._advance()
            self._nest(bracket)  # released with the operand
            index = self.parse_expression()
            self._expect("op", "]")
            expr = ast.Index(line=bracket.line, base=expr, index=index)
        self.depth = depth
        return expr

    def parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind == "int":
            self._advance()
            return ast.IntLit(line=token.line, value=int(token.text, 0))
        if token.kind == "float":
            self._advance()
            return ast.FloatLit(line=token.line, value=float(token.text))
        if token.kind == "ident":
            self._advance()
            if self._check("op", "("):
                self._nest(self._advance())
                args = []
                while not self._check("op", ")"):
                    if args:
                        self._expect("op", ",")
                    args.append(self.parse_expression())
                self._expect("op", ")")
                return ast.CallExpr(line=token.line, callee=token.text, args=args)
            return ast.VarRef(line=token.line, name=token.text)
        if token.kind == "op" and token.text == "(":
            self._nest(self._advance())
            expr = self.parse_expression()
            self._expect("op", ")")
            return expr
        raise ParseError(f"unexpected token {token.text!r} in expression",
                         token.line, token.column)


def parse(source: str) -> ast.Program:
    return Parser(tokenize(source)).parse_program()
