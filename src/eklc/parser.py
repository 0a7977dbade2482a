"""Recursive-descent parser from EKL source text to syntactical IR.

A literal is typed from the parse on; every other expression value starts
out typed `expr`, and its concrete type is deduced later by the fix-point
checker. Constant expressions in type positions are built in an isolated
block, wrapped in an ephemeral `ekl.program` container, and folded
immediately by type checking that container and running the compiler's
exact local rewrites over it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .diagnostics import Diagnostic, Location, error
from .ir import Block, Operation, StringAttr, TypeAttr, Value
from .lexer import LexError, Token, tokenize
from .normalize import SIMPLIFY_RULES, _exact_value, _try_choice, rewrite
from .ops import (
    _literal_value,
    bool_literal,
    index_literal,
    make_assoc,
    make_subscript,
    make_sum,
    make_yield,
    number_literal,
)
from .types import (
    BOOL,
    EXPR,
    F32,
    F64,
    RATIONAL,
    SI8,
    SI16,
    SI32,
    SI64,
    ArrayType,
    IndexType,
    IntType,
    Type,
)
from .typecheck import type_check

SOURCE_SCALARS: dict[str, Type] = {
    "bool": BOOL,
    "si8": SI8,
    "si16": SI16,
    "si32": SI32,
    "si64": SI64,
    "f32": F32,
    "f64": F64,
    "rational": RATIONAL,
}

_CMP_TOKENS = {"==": "eq", "!=": "ne", "<": "lt", "<=": "le", ">": "gt", ">=": "ge"}
_ARITH = {"+": "ekl.add", "-": "ekl.sub", "*": "ekl.mul", "/": "ekl.div"}
# Binary operator text -> precedence; a higher one binds tighter.
_CMP = 0
_PRECEDENCE = {**dict.fromkeys(_CMP_TOKENS, _CMP), "+": 1, "-": 1, "*": 2, "/": 2}


class ParseError(Exception):
    """Unrecoverable within the current construct; the diagnostic is already
    recorded."""


class Parser:
    def __init__(self, source: str, filename: str = "<ekl>") -> None:
        self.source = source
        self.filename = filename
        self.diagnostics: list[Diagnostic] = []
        try:
            self.tokens = tokenize(source, filename)
        except LexError as exc:
            self.diagnostics.append(exc.diagnostic)
            self.tokens = tokenize("", filename)
        self.pos = 0
        self.block: Block | None = None  # current insertion point
        self.scopes: list[dict[str, Value]] = []
        self.outs: dict[str, Type] = {}  # declared outputs of current kernel

    # --- token helpers ------------------------------------------------------
    #
    # A token's text alone names a keyword or punctuation: no name, number
    # or index literal has such a text. The parser reads `self.tokens`
    # directly on its hot paths; `self.pos` never passes the end token.

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text

    def accept(self, text: str) -> Token | None:
        tok = self.tokens[self.pos]
        if tok.text == text:
            self.pos += 1
            return tok
        return None

    def expect(self, text: str, context: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text == text:
            self.pos += 1
            return tok
        shown = tok.text if tok.kind != "eof" else "end of input"
        self.error(tok.loc, f"expected '{text}' {context}, found '{shown}'")
        raise ParseError()

    def expect_ident(self, context: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "ident":
            self.error(tok.loc, f"expected a name {context}, found '{tok.text}'")
            raise ParseError()
        self.pos += 1
        return tok

    def error(self, loc: Location, message: str) -> None:
        self.diagnostics.append(error(loc, message))

    # --- scopes and emission ------------------------------------------------

    def emit(self, op: Operation) -> Value:
        assert self.block is not None
        self.block.append(op)
        return op.result

    def emit_expr(
        self, kind: str, operands: list[Value], loc: Location, **attrs
    ) -> Value:
        """Append an expression op whose result is still untyped."""
        return self.emit(
            Operation(kind, operands=operands, attrs=attrs, result_type=EXPR, location=loc)
        )

    def bind(self, name: str, value: Value, loc: Location) -> None:
        if name in self.scopes[-1]:
            self.error(loc, f"'{name}' is already defined in this scope")
        self.scopes[-1][name] = value

    def lookup(self, name: str) -> Value | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def _poison(self, loc: Location) -> Value:
        """Placeholder value so parsing can continue past a bad expression."""
        return self.emit(number_literal(0, loc))

    # --- error recovery -----------------------------------------------------

    def _sync_stmt(self) -> None:
        depth = 0
        while self.peek().kind != "eof":
            tok = self.peek()
            if depth == 0 and tok.text == ";":
                self.advance()
                return
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                if depth == 0:
                    return
                depth -= 1
            self.advance()

    def _sync_kernel(self) -> None:
        while self.peek().kind != "eof" and not self.at("kernel"):
            self.advance()

    # --- shared grammar -----------------------------------------------------

    def _parse_list(self, item: Callable, close: str, context: str) -> list:
        """`item (',' item)* close`, the items in order."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        self.expect(close, context)
        return items

    def _parse_stmts(self, block: Block, scope: dict[str, Value], context: str) -> None:
        """Statements into `block`, in `scope`, up to the closing brace."""
        saved = self.block
        self.block = block
        self.scopes.append(scope)
        try:
            while not self.at("}") and self.peek().kind != "eof":
                try:
                    self.parse_stmt()
                except ParseError:
                    self._sync_stmt()
            self.expect("}", context)
        finally:
            self.block = saved
            self.scopes.pop()

    def _parse_generator(
        self, names: list[Token], loc: Location, parse_body: Callable[[], Value]
    ) -> Value:
        """An assoc whose functor binds `names` and yields the value that
        `parse_body` parses inside it."""
        block = Block([EXPR] * len(names))
        saved = self.block
        self.block = block
        self.scopes.append({tok.text: arg for tok, arg in zip(names, block.args)})
        try:
            block.append(make_yield(parse_body(), loc))
        finally:
            self.block = saved
            self.scopes.pop()
        return self.emit(make_assoc(block, EXPR, loc))

    # --- program structure --------------------------------------------------

    def parse_program(self) -> Operation:
        loc = self.peek().loc
        program = Operation("ekl.program", regions=[Block()], location=loc)
        while self.peek().kind != "eof":
            if self.at("kernel"):
                try:
                    self.parse_kernel(program.body())
                except ParseError:
                    self._sync_kernel()
            else:
                tok = self.advance()
                self.error(tok.loc, f"expected 'kernel', found '{tok.text}'")
                self._sync_kernel()
        return program

    def parse_kernel(self, parent: Block) -> None:
        loc = self.expect("kernel", "to begin a kernel").loc
        name = self.expect_ident("for the kernel")
        block = Block()
        kernel = Operation(
            "ekl.kernel",
            attrs={"name": StringAttr(name.text)},
            regions=[block],
            location=loc,
        )
        parent.append(kernel)
        self.outs = {}
        scope: dict[str, Value] = {}
        self.expect("(", "after the kernel name")
        if not self.accept(")"):
            n_in = n_out = 0
            while True:
                n_in, n_out = self.parse_param(kernel, block, scope, n_in, n_out)
                if not self.accept(","):
                    break
            self.expect(")", "after the parameter list")
        self.expect("{", "to begin the kernel body")
        self._parse_stmts(block, scope, "to close the kernel body")

    def parse_param(
        self,
        kernel: Operation,
        block: Block,
        scope: dict[str, Value],
        n_in: int,
        n_out: int,
    ) -> tuple[int, int]:
        direction = self.peek()
        if direction.text not in ("in", "out"):
            self.error(direction.loc, "expected 'in' or 'out' before a parameter")
            raise ParseError()
        self.advance()
        name = self.expect_ident("for the parameter")
        if name.text in scope or name.text in self.outs:
            self.error(name.loc, f"duplicate parameter name '{name.text}'")
        self.expect(":", "after the parameter name")
        t = self.parse_type()
        if direction.text == "in":
            arg = block.add_arg(t)
            scope[name.text] = arg
            kernel.attrs[f"in{n_in}"] = StringAttr(name.text)
            n_in += 1
        else:
            self.outs[name.text] = t
            kernel.attrs[f"out{n_out}"] = StringAttr(name.text)
            kernel.attrs[f"out{n_out}_type"] = TypeAttr(t)
            n_out += 1
        return n_in, n_out

    # --- types and constant extents -----------------------------------------

    def parse_type(self) -> Type:
        tok = self.expect_ident("for a type")
        if tok.text == "index":
            self.expect("<", "after 'index'")
            bound = self.parse_extent()
            self.expect(">", "after the index bound")
            if bound < 1:
                self.error(tok.loc, f"index bound must be positive, got {bound}")
                bound = 1
            scalar: Type = IndexType(bound)
        elif tok.text in SOURCE_SCALARS:
            scalar = SOURCE_SCALARS[tok.text]
        else:
            self.error(tok.loc, f"unknown type name '{tok.text}'")
            raise ParseError()
        if self.accept("["):
            dims = self._parse_list(self.parse_extent, "]", "after the array extents")
            return ArrayType(scalar, tuple(dims))
        return scalar

    def parse_extent(self) -> int:
        """An array extent or index bound: a literal or a folded constant."""
        tok = self.tokens[self.pos]
        if (
            tok.kind == "number"
            and tok.value.denominator == 1
            and self.tokens[self.pos + 1].text in (",", "]", ">", ")")
        ):
            self.pos += 1
            return int(tok.value)  # a number token is never negative
        return self._fold_constant_extent(tok.loc)

    def _fold_constant_extent(self, loc: Location) -> int:
        # Build the expression in an isolated block: outer names are not
        # visible inside a constant expression.
        block = Block()
        saved_block, saved_scopes = self.block, self.scopes
        self.block, self.scopes = block, [{}]
        try:
            value = self.parse_expr(_CMP + 1)
            block.append(make_yield(value, loc))
        finally:
            self.block, self.scopes = saved_block, saved_scopes
        value = fold_constexpr(block, loc, self.diagnostics)
        if value is None:
            return 1
        if isinstance(value, bool) or value.denominator != 1 or value < 0:
            self.error(
                loc, f"constant extent must be a non-negative integer, got {value}"
            )
            return 1
        return int(value)

    # --- statements ---------------------------------------------------------

    def parse_stmt(self) -> None:
        if self.at("let"):
            self.parse_let()
        elif self.at("out"):
            self.parse_out()
        elif self.at("if"):
            self.parse_if_stmt()
        else:
            tok = self.peek()
            self.error(tok.loc, f"expected a statement, found '{tok.text}'")
            raise ParseError()

    def _maybe_output(self, name: str, value: Value, loc: Location) -> None:
        declared = self.outs.get(name)
        if declared is not None:
            self.block.append(
                Operation(
                    "ekl.output",
                    operands=[value],
                    attrs={"name": StringAttr(name), "type": TypeAttr(declared)},
                    location=loc,
                )
            )

    def parse_let(self) -> None:
        loc = self.expect("let", "to begin a binding").loc
        name = self.expect_ident("for the binding")
        if self.accept("["):
            index_names = self._parse_list(
                lambda: self.expect_ident("for an association index"),
                "]",
                "after the association indices",
            )
            if self.accept("=+"):
                self.expect("(", "after '=+'")
                reduction_names = self._parse_list(
                    lambda: self.expect_ident("for a reduction index"),
                    ")",
                    "after the reduction indices",
                )
                value = self._parse_generator(
                    index_names, loc, lambda: self._parse_sum(reduction_names, loc)
                )
            else:
                self.expect("=", "in the binding")
                value = self._parse_generator(index_names, loc, self.parse_expr)
        else:
            self.expect("=", "in the binding")
            value = self.parse_expr()
        self.expect(";", "after the binding")
        self.bind(name.text, value, name.loc)
        self._maybe_output(name.text, value, loc)

    def _parse_sum(self, reduction_names: list[Token], loc: Location) -> Value:
        """`=+ (r...) e`: a term array over the bound indices, summed."""
        terms = self._parse_generator(reduction_names, loc, self.parse_expr)
        return self.emit(make_sum(terms, EXPR, loc))

    def parse_out(self) -> None:
        loc = self.expect("out", "to begin an output").loc
        name = self.expect_ident("for the output")
        self.expect("=", "in the output statement")
        value = self.parse_expr()
        self.expect(";", "after the output statement")
        if name.text not in self.outs:
            self.error(name.loc, f"'{name.text}' is not a declared output")
            return
        self._maybe_output(name.text, value, loc)

    def parse_if_stmt(self) -> None:
        loc = self.expect("if", "to begin a conditional").loc
        self.expect("(", "after 'if'")
        cond = self.parse_expr()
        self.expect(")", "after the condition")
        op = Operation(
            "ekl.if_stmt",
            operands=[cond],
            regions=[Block(), Block()],
            location=loc,
        )
        self.block.append(op)
        self._parse_stmt_block(op.body(0))
        if self.accept("else"):
            self._parse_stmt_block(op.body(1))

    def _parse_stmt_block(self, block: Block) -> None:
        self.expect("{", "to begin a statement block")
        self._parse_stmts(block, {}, "to close the statement block")

    # --- expressions ---------------------------------------------------------

    def parse_expr(self, lowest: int = _CMP) -> Value:
        """Binary operators of precedence `lowest` and above over unary
        operands, in one operator-precedence loop. `* /` bind tighter than
        `+ -`, which bind tighter than one comparison; arithmetic associates
        to the left. An operator's op is emitted as soon as its right
        operand is complete, so it follows the ops of both operands."""
        tokens = self.tokens
        value = self.parse_unary()
        pending: list[tuple[int, Token, Value]] = []  # (precedence, operator, left)
        while True:
            tok = tokens[self.pos]
            prec = _PRECEDENCE.get(tok.text, -1)
            if prec < lowest:
                break
            self.pos += 1
            while pending and pending[-1][0] >= prec:
                value = self._emit_binary(*pending.pop(), value)
            pending.append((prec, tok, value))
            if prec == _CMP:
                lowest = _CMP + 1  # a comparison takes no comparison operand
            value = self.parse_unary()
        while pending:
            value = self._emit_binary(*pending.pop(), value)
        return value

    def _emit_binary(self, prec: int, tok: Token, left: Value, right: Value) -> Value:
        if prec == _CMP:
            pred = StringAttr(_CMP_TOKENS[tok.text])
            return self.emit_expr("ekl.cmp", [left, right], tok.loc, pred=pred)
        return self.emit_expr(_ARITH[tok.text], [left, right], tok.loc)

    def parse_unary(self) -> Value:
        """Prefix negations, a primary, then its subscripts."""
        tok = self.tokens[self.pos]
        if tok.text == "-":
            self.pos += 1
            return self.emit_expr("ekl.neg", [self.parse_unary()], tok.loc)
        value = self.parse_primary()
        while self.tokens[self.pos].text == "[":
            value = self._parse_subscript(value)
        return value

    def _parse_subscript(self, source: Value) -> Value:
        """`[slot, ...]` after `source`. A slot that is a bare name or index
        literal takes no expression parse."""
        tokens = self.tokens
        loc = tokens[self.pos].loc
        self.pos += 1
        indices: list[Value] = []
        marks = []
        while True:
            tok = tokens[self.pos]
            kind = tok.kind
            if tok.text in (":", "..."):
                self.pos += 1
                marks.append(tok.text[0])
            else:
                value = None
                if (kind == "ident" or kind == "indexlit") and tokens[self.pos + 1].text in (",", "]"):
                    # An unknown name is left to the expression parse,
                    # which reports it.
                    if kind == "ident":
                        value = self.lookup(tok.text)
                    else:
                        value = self.emit(index_literal(tok.value, tok.loc))
                if value is None:
                    value = self.parse_expr()
                else:
                    self.pos += 1
                indices.append(value)
                marks.append("i")
            if tokens[self.pos].text != ",":
                break
            self.pos += 1
        self.expect("]", "after the subscript")
        return self.emit(make_subscript(source, indices, EXPR, loc, "".join(marks)))

    def parse_primary(self) -> Value:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == "ident":
            self.pos += 1
            value = self.lookup(tok.text)
            if value is None:
                self.error(tok.loc, f"unknown name '{tok.text}'")
                return self._poison(tok.loc)
            return value
        if kind == "number":
            self.pos += 1
            return self.emit(number_literal(tok.value, tok.loc))
        if kind == "indexlit":
            self.pos += 1
            return self.emit(index_literal(tok.value, tok.loc))
        text = tok.text
        if text == "(":
            self.pos += 1
            first = self.parse_expr()
            if self.accept(","):
                rest = self._parse_list(self.parse_expr, ")", "after the stack elements")
                return self.emit_expr("ekl.stack", [first, *rest], tok.loc)
            self.expect(")", "after the expression")
            return first
        if text == "true" or text == "false":
            self.pos += 1
            return self.emit(bool_literal(text == "true", tok.loc))
        if text == "if":
            return self.parse_if_expr()
        self.error(tok.loc, f"expected an expression, found '{text}'")
        raise ParseError()

    def parse_if_expr(self) -> Value:
        loc = self.expect("if", "to begin a conditional expression").loc
        self.expect("(", "after 'if'")
        cond = self.parse_expr()
        self.expect(")", "after the condition")
        then_value = self.parse_expr()
        self.expect("else", "in the conditional expression")
        else_value = self.parse_expr()
        return self.emit_expr("ekl.choice", [cond, then_value, else_value], loc)


def fold_constexpr(
    block: Block, loc: Location, diagnostics: list[Diagnostic]
) -> Fraction | bool | None:
    """Type check an isolated constant-expression block and fold it with
    the compiler's exact local rewrites.

    Returns the yielded literal's value, or None after recording
    diagnostics prefixed with the constant expression's location.
    """
    container = Operation("ekl.program", regions=[block], location=loc)
    _, diags = type_check(container)
    if not diags:
        rewrite(container, SIMPLIFY_RULES + (_try_choice,))
        value = _literal_value(block.ops[-1].operands[0])
        if value is not None:
            return value
        diags = [_not_folded(block, loc)]
    head = error(loc, "in constant expression:")
    head.notes.extend(diags)
    diagnostics.append(head)
    return None


def _not_folded(block: Block, loc: Location) -> Diagnostic:
    """A note on the first op of a rewritten constant expression that
    did not fold into a literal."""
    op = next(op for op in block.ops if op.kind not in ("ekl.literal", "ekl.stack"))
    if op.kind == "ekl.div" and _literal_value(op.operands[1]) == 0:
        why = "division by zero"
    elif _exact_value(op) is not None and isinstance(
        op.result.type, (IndexType, IntType)
    ):
        why = f"value out of range for {op.result.type}"
    else:
        why = "value is not an exact constant"
    return error(op.location, why)


def parse_source(
    source: str, filename: str = "<ekl>"
) -> tuple[Operation, list[Diagnostic]]:
    """Parse EKL text into a syntactical ekl.program module."""
    parser = Parser(source, filename)
    module = parser.parse_program()
    return module, parser.diagnostics
