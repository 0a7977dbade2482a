"""Recursive-descent parser from EKL source text to syntactical IR.

Every expression value starts out typed `expr`; concrete types are deduced
later by the fix-point checker. Constant expressions in type positions are
built in an isolated block, wrapped in an ephemeral `ekl.program`
container, and folded immediately by type checking that container and
running the compiler's exact local rewrites over it.
"""

from __future__ import annotations

from fractions import Fraction

from .diagnostics import Diagnostic, Location, error
from .ir import (
    Block,
    Operation,
    RationalAttr,
    Region,
    StringAttr,
    TypeAttr,
    Value,
)
from .lexer import LexError, Token, tokenize
from .normalize import (
    SIMPLIFY_RULES,
    _exact_value,
    _literal_value,
    _try_choice,
    rewrite,
)
from .ops import (
    bool_literal,
    index_literal,
    make_yield,
    number_literal,
    pseudo_literal,
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
            self.tokens = [Token("eof", "", Location(filename, 1, 1))]
        self.pos = 0
        self.block: Block | None = None  # current insertion point
        self.scopes: list[dict[str, Value]] = []
        self.outs: dict[str, Type] = {}  # declared outputs of current kernel

    # --- token helpers ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        i = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[i]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind in ("punct", "kw") and tok.text == text

    def accept(self, text: str) -> Token | None:
        if self.at(text):
            return self.advance()
        return None

    def expect(self, text: str, context: str) -> Token:
        tok = self.accept(text)
        if tok is None:
            got = self.peek()
            shown = got.text if got.kind != "eof" else "end of input"
            self.error(got.loc, f"expected '{text}' {context}, found '{shown}'")
            raise ParseError()
        return tok

    def expect_ident(self, context: str) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            self.error(tok.loc, f"expected a name {context}, found '{tok.text}'")
            raise ParseError()
        return self.advance()

    def error(self, loc: Location, message: str) -> None:
        self.diagnostics.append(error(loc, message))

    # --- scopes and emission ------------------------------------------------

    def emit(self, op: Operation) -> Value:
        assert self.block is not None
        self.block.append(op)
        return op.result

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

    # --- program structure --------------------------------------------------

    def parse_program(self) -> Operation:
        loc = self.peek().loc
        program = Operation("ekl.program", regions=[Region(Block())], location=loc)
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
            regions=[Region(block)],
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
        self.scopes.append(scope)
        self.block = block
        try:
            while not self.at("}") and self.peek().kind != "eof":
                try:
                    self.parse_stmt()
                except ParseError:
                    self._sync_stmt()
            self.expect("}", "to close the kernel body")
        finally:
            self.scopes.pop()
            self.block = None

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
            dims = [self.parse_extent()]
            while self.accept(","):
                dims.append(self.parse_extent())
            self.expect("]", "after the array extents")
            return ArrayType(scalar, tuple(dims))
        return scalar

    def parse_extent(self) -> int:
        """An array extent or index bound: a literal or a folded constant."""
        tok = self.peek()
        nxt = self.peek(1)
        if (
            tok.kind == "number"
            and tok.value.denominator == 1
            and nxt.text in (",", "]", ">", ")")
        ):
            self.advance()
            return int(tok.value)  # a number token is never negative
        return self._fold_constant_extent(tok.loc)

    def _fold_constant_extent(self, loc: Location) -> int:
        # Build the expression in an isolated block: outer names are not
        # visible inside a constant expression.
        block = Block()
        saved_block, saved_scopes = self.block, self.scopes
        self.block, self.scopes = block, [{}]
        try:
            value = self.parse_addsub()
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
        index_names: list[Token] | None = None
        if self.accept("["):
            index_names = [self.expect_ident("for an association index")]
            while self.accept(","):
                index_names.append(self.expect_ident("for an association index"))
            self.expect("]", "after the association indices")
        if index_names is None:
            self.expect("=", "in the binding")
            value = self.parse_expr()
            self.expect(";", "after the binding")
            self.bind(name.text, value, name.loc)
            self._maybe_output(name.text, value, loc)
            return

        reduction_names: list[Token] | None = None
        if self.accept("=+"):
            self.expect("(", "after '=+'")
            reduction_names = [self.expect_ident("for a reduction index")]
            while self.accept(","):
                reduction_names.append(self.expect_ident("for a reduction index"))
            self.expect(")", "after the reduction indices")
        else:
            self.expect("=", "in the binding")

        outer_block = Block([EXPR] * len(index_names))
        assoc = Operation(
            "ekl.assoc",
            regions=[Region(outer_block)],
            result_types=[EXPR],
            location=loc,
        )
        self.scopes.append(
            {tok.text: arg for tok, arg in zip(index_names, outer_block.args)}
        )
        saved = self.block
        self.block = outer_block
        try:
            if reduction_names is None:
                value = self.parse_expr()
                outer_block.append(make_yield(value, loc))
            else:
                self._parse_reduction_body(outer_block, reduction_names, loc)
        finally:
            self.block = saved
            self.scopes.pop()
        self.block.append(assoc)
        self.expect(";", "after the binding")
        self.bind(name.text, assoc.result, name.loc)
        self._maybe_output(name.text, assoc.result, loc)

    def _parse_reduction_body(
        self, outer_block: Block, reduction_names: list[Token], loc: Location
    ) -> None:
        """`=+ (r...) e`: a term array over the bound indices, summed."""
        inner_block = Block([EXPR] * len(reduction_names))
        inner = Operation(
            "ekl.assoc",
            regions=[Region(inner_block)],
            result_types=[EXPR],
            location=loc,
        )
        self.scopes.append(
            {tok.text: arg for tok, arg in zip(reduction_names, inner_block.args)}
        )
        self.block = inner_block
        try:
            value = self.parse_expr()
            inner_block.append(make_yield(value, loc))
        finally:
            self.block = outer_block
            self.scopes.pop()
        outer_block.append(inner)
        combiner = Block([EXPR, EXPR])
        acc = Operation(
            "ekl.add",
            operands=[combiner.args[0], combiner.args[1]],
            result_types=[EXPR],
            location=loc,
        )
        combiner.append(acc)
        combiner.append(make_yield(acc.result, loc))
        reduce = Operation(
            "ekl.reduce",
            operands=[inner.result],
            attrs={"init": RationalAttr(Fraction(0))},
            regions=[Region(combiner)],
            result_types=[EXPR],
            location=loc,
        )
        outer_block.append(reduce)
        outer_block.append(make_yield(reduce.result, loc))

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
            regions=[Region(Block()), Region(Block())],
            location=loc,
        )
        self.block.append(op)
        self._parse_stmt_block(op.body(0))
        if self.accept("else"):
            self._parse_stmt_block(op.body(1))

    def _parse_stmt_block(self, block: Block) -> None:
        self.expect("{", "to begin a statement block")
        saved = self.block
        self.block = block
        self.scopes.append({})
        try:
            while not self.at("}") and self.peek().kind != "eof":
                try:
                    self.parse_stmt()
                except ParseError:
                    self._sync_stmt()
            self.expect("}", "to close the statement block")
        finally:
            self.block = saved
            self.scopes.pop()

    # --- expressions ---------------------------------------------------------

    def parse_expr(self) -> Value:
        return self.parse_cmp()

    def parse_cmp(self) -> Value:
        left = self.parse_addsub()
        tok = self.peek()
        if tok.kind == "punct" and tok.text in _CMP_TOKENS:
            self.advance()
            right = self.parse_addsub()
            return self.emit(
                Operation(
                    "ekl.cmp",
                    operands=[left, right],
                    attrs={"pred": StringAttr(_CMP_TOKENS[tok.text])},
                    result_types=[EXPR],
                    location=tok.loc,
                )
            )
        return left

    def parse_addsub(self) -> Value:
        left = self.parse_muldiv()
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.text in ("+", "-"):
                self.advance()
                right = self.parse_muldiv()
                kind = "ekl.add" if tok.text == "+" else "ekl.sub"
                left = self.emit(
                    Operation(
                        kind,
                        operands=[left, right],
                        result_types=[EXPR],
                        location=tok.loc,
                    )
                )
            else:
                return left

    def parse_muldiv(self) -> Value:
        left = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind == "punct" and tok.text in ("*", "/"):
                self.advance()
                right = self.parse_unary()
                kind = "ekl.mul" if tok.text == "*" else "ekl.div"
                left = self.emit(
                    Operation(
                        kind,
                        operands=[left, right],
                        result_types=[EXPR],
                        location=tok.loc,
                    )
                )
            else:
                return left

    def parse_unary(self) -> Value:
        tok = self.peek()
        if tok.kind == "punct" and tok.text == "-":
            self.advance()
            value = self.parse_unary()
            return self.emit(
                Operation(
                    "ekl.neg", operands=[value], result_types=[EXPR], location=tok.loc
                )
            )
        return self.parse_postfix()

    def parse_postfix(self) -> Value:
        value = self.parse_primary()
        while self.at("["):
            loc = self.advance().loc
            slots = [self.parse_subscript_slot()]
            while self.accept(","):
                slots.append(self.parse_subscript_slot())
            self.expect("]", "after the subscript")
            value = self.emit(
                Operation(
                    "ekl.subscript",
                    operands=[value] + slots,
                    result_types=[EXPR],
                    location=loc,
                )
            )
        return value

    def parse_subscript_slot(self) -> Value:
        tok = self.peek()
        if tok.kind == "punct" and tok.text in (":", "*", "..."):
            self.advance()
            return self.emit(pseudo_literal(tok.text, tok.loc))
        return self.parse_expr()

    def parse_primary(self) -> Value:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return self.emit(number_literal(tok.value, tok.loc))
        if tok.kind == "indexlit":
            self.advance()
            return self.emit(index_literal(tok.value, tok.loc))
        if tok.kind == "kw" and tok.text in ("true", "false"):
            self.advance()
            return self.emit(bool_literal(tok.text == "true", tok.loc))
        if tok.kind == "kw" and tok.text == "if":
            return self.parse_if_expr()
        if tok.kind == "ident":
            self.advance()
            value = self.lookup(tok.text)
            if value is None:
                self.error(tok.loc, f"unknown name '{tok.text}'")
                return self._poison(tok.loc)
            return value
        if tok.kind == "punct" and tok.text == "(":
            self.advance()
            first = self.parse_expr()
            if self.at(","):
                elements = [first]
                while self.accept(","):
                    elements.append(self.parse_expr())
                self.expect(")", "after the stack elements")
                return self.emit(
                    Operation(
                        "ekl.stack",
                        operands=elements,
                        result_types=[EXPR],
                        location=tok.loc,
                    )
                )
            self.expect(")", "after the expression")
            return first
        self.error(tok.loc, f"expected an expression, found '{tok.text}'")
        raise ParseError()

    def parse_if_expr(self) -> Value:
        loc = self.expect("if", "to begin a conditional expression").loc
        self.expect("(", "after 'if'")
        cond = self.parse_expr()
        self.expect(")", "after the condition")
        then_value = self.parse_expr()
        self.expect("else", "in the conditional expression")
        else_value = self.parse_expr()
        return self.emit(
            Operation(
                "ekl.choice",
                operands=[cond, then_value, else_value],
                result_types=[EXPR],
                location=loc,
            )
        )


def fold_constexpr(
    block: Block, loc: Location, diagnostics: list[Diagnostic]
) -> Fraction | bool | None:
    """Type check an isolated constant-expression block and fold it with
    the compiler's exact local rewrites.

    Returns the yielded literal's value, or None after recording
    diagnostics prefixed with the constant expression's location.
    """
    container = Operation("ekl.program", regions=[Region(block)], location=loc)
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
    return error(loc, f"{op.location}: {why}")


def parse_source(
    source: str, filename: str = "<ekl>"
) -> tuple[Operation, list[Diagnostic]]:
    """Parse EKL text into a syntactical ekl.program module."""
    parser = Parser(source, filename)
    module = parser.parse_program()
    return module, parser.diagnostics
