"""Textual IR format (.eklir): printing and parsing.

Ops print as `%r = ekl.kind(%a, %b) ({ region }) {attrs} : type`; the type
annotation is omitted for a result of the universal expression type. The
complete grammar ships in docs/ir-format.md. Parsing the printed form of a
module reconstructs it up to structural identity (locations are re-derived
from the text).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .diagnostics import Location
from .ir import (
    Attribute,
    Block,
    IntAttr,
    Operation,
    RationalAttr,
    StringAttr,
    TypeAttr,
    Value,
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
    Type,
)

# Types written as one name, keyed by how they print.
_SCALAR_NAMES = {
    str(t): t
    for t in (BOOL, SI8, SI16, SI32, SI64, F32, F64, RATIONAL, EXPR)
}


# --- printing ---------------------------------------------------------------


def _attr_to_text(attr: Attribute) -> str:
    if isinstance(attr, IntAttr):
        return str(attr.value)
    if isinstance(attr, RationalAttr):
        return f"{attr.value.numerator}/{attr.value.denominator}"
    if isinstance(attr, StringAttr):
        return '"' + attr.value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(attr, TypeAttr):
        return str(attr.value)
    raise TypeError(f"unknown attribute {attr!r}")


class _Printer:
    def __init__(self) -> None:
        self.names: dict[Value, str] = {}
        self.counter = 0
        self.lines: list[str] = []

    def name(self, v: Value) -> str:
        if v not in self.names:
            self.names[v] = f"%{self.counter}"
            self.counter += 1
        return self.names[v]

    def print_op(self, op: Operation, indent: int) -> None:
        pad = "  " * indent
        result = op.result
        head = pad if result is None else f"{pad}{self.name(result)} = "
        head += op.kind
        if op.operands:
            head += "(" + ", ".join(self.name(v) for v in op.operands) + ")"
        if op.regions:
            head += " ("
            self.lines.append(head)
            for i, block in enumerate(op.regions):
                self.print_block(block, indent)
                if i + 1 < len(op.regions):
                    self.lines[-1] += ","
            tail = pad + ")"
        else:
            tail = head
        if op.attrs:
            attrs = ", ".join(
                f"{k} = {_attr_to_text(v)}" for k, v in sorted(op.attrs.items())
            )
            tail += " {" + attrs + "}"
        if result is not None and result.type != EXPR:
            tail += f" : {result.type}"
        self.lines.append(tail)

    def print_block(self, block: Block, indent: int) -> None:
        pad = "  " * indent
        self.lines.append(pad + "{")
        if block.args:
            args = ", ".join(f"{self.name(a)}: {a.type}" for a in block.args)
            self.lines.append(pad + f"^({args}):")
        for op in block.ops:
            self.print_op(op, indent + 1)
        self.lines.append(pad + "}")


def print_ir(module: Operation) -> str:
    p = _Printer()
    p.print_op(module, 0)
    return "\n".join(p.lines) + "\n"


# --- parsing ----------------------------------------------------------------


class IrSyntaxError(Exception):
    def __init__(self, location: Location, message: str) -> None:
        super().__init__(f"{location}: {message}")
        self.location = location
        self.message = message


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>//[^\n]*)
    | (?P<string>"(\\.|[^"\\])*")
    | (?P<int>-?\d+)
    | (?P<value>%\d+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_.]*)
    | (?P<punct>\^|\(|\)|\{|\}|\[|\]|<|>|,|:|=|/)
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "loc")

    def __init__(self, kind: str, text: str, loc: Location) -> None:
        self.kind = kind
        self.text = text
        self.loc = loc


def _tokenize(text: str, filename: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise IrSyntaxError(
                Location(filename, line, col), f"unexpected character {text[pos]!r}"
            )
        kind = m.lastgroup
        lexeme = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, lexeme, Location(filename, line, col)))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("eof", "", Location(filename, line, col)))
    return tokens


def _checked(tok: _Token, make, *fields):
    """Build a type or attribute, reporting a field it rejects at `tok`."""
    try:
        return make(*fields)
    except ValueError as exc:
        raise IrSyntaxError(tok.loc, str(exc)) from None


class _IrParser:
    def __init__(self, text: str, filename: str) -> None:
        self.tokens = _tokenize(text, filename)
        self.pos = 0
        self.values: dict[str, Value] = {}

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise IrSyntaxError(tok.loc, f"expected {text!r}, found {tok.text!r}")
        return tok

    # -- types --

    def parse_type(self) -> Type:
        tok = self.next()
        if tok.kind != "ident":
            raise IrSyntaxError(tok.loc, f"expected a type, found {tok.text!r}")
        name = tok.text
        if name == "index":
            self.expect("<")
            bound = int(self.expect_int())
            self.expect(">")
            return _checked(tok, IndexType, bound)
        if name == "array":
            self.expect("<")
            scalar = self.parse_type()
            self.expect("[")
            shape = []
            while self.peek().text != "]":
                shape.append(int(self.expect_int()))
                if self.peek().text == ",":
                    self.next()
            self.expect("]")
            self.expect(">")
            return _checked(tok, ArrayType, scalar, tuple(shape))
        if name in _SCALAR_NAMES:
            return _SCALAR_NAMES[name]
        raise IrSyntaxError(tok.loc, f"unknown type {name!r}")

    def expect_int(self) -> int:
        tok = self.next()
        if tok.kind != "int":
            raise IrSyntaxError(tok.loc, f"expected an integer, found {tok.text!r}")
        return int(tok.text)

    # -- attributes --

    def parse_attr(self) -> Attribute:
        tok = self.peek()
        if tok.kind == "string":
            self.next()
            raw = tok.text[1:-1]
            return StringAttr(raw.replace('\\"', '"').replace("\\\\", "\\"))
        if tok.kind == "int":
            value = self.expect_int()
            if self.peek().text == "/":
                self.next()
                den = self.expect_int()
                if den == 0:
                    raise IrSyntaxError(tok.loc, f"zero denominator in {value}/{den}")
                return RationalAttr(Fraction(value, den))
            return IntAttr(value)
        if tok.kind == "ident":
            return TypeAttr(self.parse_type())
        raise IrSyntaxError(tok.loc, f"expected an attribute, found {tok.text!r}")

    # -- values, regions, ops --

    def ref_value(self, tok: _Token) -> Value:
        v = self.values.get(tok.text)
        if v is None:
            raise IrSyntaxError(tok.loc, f"undefined value {tok.text}")
        return v

    def parse_block(self) -> Block:
        self.expect("{")
        block = Block()
        if self.peek().text == "^":
            self.next()
            self.expect("(")
            while self.peek().text != ")":
                name_tok = self.next()
                if name_tok.kind != "value":
                    raise IrSyntaxError(
                        name_tok.loc, f"expected %N, found {name_tok.text!r}"
                    )
                self.expect(":")
                arg = block.add_arg(self.parse_type())
                if name_tok.text in self.values:
                    raise IrSyntaxError(
                        name_tok.loc, f"redefinition of {name_tok.text}"
                    )
                self.values[name_tok.text] = arg
                if self.peek().text == ",":
                    self.next()
            self.expect(")")
            self.expect(":")
        while self.peek().text != "}":
            block.append(self.parse_op())
        self.expect("}")
        return block

    def parse_op(self) -> Operation:
        result_name = None
        if self.peek().kind == "value":
            result_name = self.next()
            self.expect("=")
        kind_tok = self.next()
        if kind_tok.kind != "ident":
            raise IrSyntaxError(
                kind_tok.loc, f"expected an op kind, found {kind_tok.text!r}"
            )
        op = Operation(kind_tok.text, location=kind_tok.loc)
        if self.peek().text == "(" and self.peek(1).kind == "value":
            self.next()
            while self.peek().text != ")":
                tok = self.next()
                if tok.kind != "value":
                    raise IrSyntaxError(tok.loc, f"expected %N, found {tok.text!r}")
                op.add_operand(self.ref_value(tok))
                if self.peek().text == ",":
                    self.next()
            self.expect(")")
        elif self.peek().text == "(" and self.peek(1).text == ")":
            self.next()
            self.next()
        if self.peek().text == "(" and self.peek(1).text == "{":
            self.next()
            while True:
                op.add_region(self.parse_block())
                if self.peek().text == ",":
                    self.next()
                    continue
                break
            self.expect(")")
        if self.peek().text == "{":
            self.next()
            while self.peek().text != "}":
                name_tok = self.next()
                if name_tok.kind != "ident":
                    raise IrSyntaxError(
                        name_tok.loc, f"expected an attribute name"
                    )
                self.expect("=")
                op.attrs[name_tok.text] = self.parse_attr()
                if self.peek().text == ",":
                    self.next()
            self.expect("}")
        result_type = EXPR
        if self.peek().text == ":":
            self.next()
            result_type = self.parse_type()
        if result_name is not None:
            if result_name.text in self.values:
                raise IrSyntaxError(result_name.loc, f"redefinition of {result_name.text}")
            op.result = Value(result_type, op)
            self.values[result_name.text] = op.result
        return op


def parse_ir(text: str, filename: str = "<ir>") -> Operation:
    """Parse one top-level op from textual IR."""
    parser = _IrParser(text, filename)
    op = parser.parse_op()
    tok = parser.peek()
    if tok.kind != "eof":
        raise IrSyntaxError(tok.loc, f"trailing input starting at {tok.text!r}")
    return op
