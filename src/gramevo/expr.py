"""Formula trees: parsing, folding and canonical formatting.

The surface syntax is the one the mapper emits plus the handful of
conveniences needed for human-written formulas: ``np.sin``/``np.tanh``/
``np.exp`` as aliases, ``x[:, 0]`` as an alias of ``x``, ``log`` as an
alias of ``ln``, and juxtaposition of two factors as multiplication
(``0.97 x`` means ``0.97*x``).
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, FormulaSyntaxError, UnknownToken, shown

# Deepest nesting of parentheses, function calls and unary minus that
# parse_formula accepts.  Parsing recurses about four times per level, so
# this keeps it far inside Python's default recursion limit of 1000.  A
# grammar phenotype derived under max_depth=17 nests these fewer than 17
# deep.  Operator chains such as x+x+...+x are read in a loop and are not
# counted.
MAX_NESTING = 100


class UnaryOp(enum.Enum):
    SIN = "sin"
    TANH = "tanh"
    EXP = "exp"
    SQRT = "sqrt"
    LN = "ln"
    PSQRT = "psqrt"
    PLOG = "plog"
    NEG = "neg"


class BinaryOp(enum.Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    PDIV = "pdiv"


class _Node:
    """What the expression nodes share: each lists its fields in
    ``__slots__``, so a node holds no instance dict, and is pickled and
    copied through its constructor, as restoring slot state through
    setattr fails on a frozen class."""

    __slots__ = ()

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name)
                                     for name in self.__slots__)


@dataclass(frozen=True)
class Const(_Node):
    __slots__ = ("value",)
    value: float

    def __post_init__(self):
        try:
            v = float(self.value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"constants must be numbers, got {shown(self.value)}") from None
        if not math.isfinite(v):
            raise ConfigError("constants must be finite")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class Var(_Node):
    __slots__ = ()


class _Operator(_Node):
    """Equality, hashing and repr of the inner nodes, on explicit stacks.

    The methods a dataclass generates recurse once per level and raise
    RecursionError on a tree deeper than the recursion limit, such as a
    parsed 1 000-term sum.  These give the same answers at any depth.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = [(self, other)]
        while pairs:
            a, b = pairs.pop()
            if a is b:
                continue
            if a.__class__ is not b.__class__ or not isinstance(a, _Operator):
                # leaves, and nodes of different classes
                if not a == b:
                    return False
            elif not a.op == b.op:
                return False
            elif isinstance(a, Unary):
                pairs.append((a.child, b.child))
            else:
                pairs += ((a.right, b.right), (a.left, b.left))
        return True

    def __hash__(self):
        return _fold(self, hash, lambda node, a: hash((node.op, a)),
                     lambda node, a, b: hash((node.op, a, b)))

    def __repr__(self):
        return _fold(self, repr, _repr_unary, _repr_binary)


@dataclass(frozen=True, eq=False, repr=False)
class Unary(_Operator):
    __slots__ = ("op", "child")
    op: UnaryOp
    child: "ExprNode"


@dataclass(frozen=True, eq=False, repr=False)
class Binary(_Operator):
    __slots__ = ("op", "left", "right")
    op: BinaryOp
    left: "ExprNode"
    right: "ExprNode"


# The parser makes its nodes through the field descriptors, without the
# frozen __init__ and its object.__setattr__ call per field; it checks its
# numbers are finite itself, and every x it reads is one shared node.
_new = object.__new__
_set_value = Const.value.__set__
_set_unary_op, _set_child = Unary.op.__set__, Unary.child.__set__
_set_binary_op, _set_left, _set_right = (
    Binary.op.__set__, Binary.left.__set__, Binary.right.__set__)
_X = Var()


def _unary(op: UnaryOp, child: "ExprNode") -> Unary:
    node = _new(Unary)
    _set_unary_op(node, op)
    _set_child(node, child)
    return node


def _binary(op: BinaryOp, left: "ExprNode", right: "ExprNode") -> Binary:
    node = _new(Binary)
    _set_binary_op(node, op)
    _set_left(node, left)
    _set_right(node, right)
    return node


def _repr_unary(node: Unary, child: str) -> str:
    return f"{node.__class__.__qualname__}(op={node.op!r}, child={child})"


def _repr_binary(node: Binary, left: str, right: str) -> str:
    return (f"{node.__class__.__qualname__}(op={node.op!r}, "
            f"left={left}, right={right})")


ExprNode = Union[Const, Var, Unary, Binary]

_UNARY_NAMES = {
    "sin": UnaryOp.SIN,
    "np.sin": UnaryOp.SIN,
    "tanh": UnaryOp.TANH,
    "np.tanh": UnaryOp.TANH,
    "exp": UnaryOp.EXP,
    "np.exp": UnaryOp.EXP,
    "sqrt": UnaryOp.SQRT,
    "ln": UnaryOp.LN,
    "log": UnaryOp.LN,
    "psqrt": UnaryOp.PSQRT,
    "plog": UnaryOp.PLOG,
}

# whitespace between tokens: ASCII only, where \s in a str pattern would
# also take every Unicode space, such as U+00A0 and U+3000
_SPACE = " \t\n\r\f\v"
_SPACES = f"[{_SPACE}]*"


# --- tokenizer --------------------------------------------------------------

# each token with the whitespace before it: x with its verbatim subscript
# x[:, 0], an ASCII number, a name (dotted for the np. aliases), or any
# other one character; what follows the last token is whitespace
_TOKEN = re.compile(rf"""({_SPACES})(
    x\[{_SPACES}:{_SPACES},{_SPACES}0{_SPACES}\]
  | [0-9]+(?:\.[0-9]+)?
  | [A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)*
  | [^{_SPACE}])""", re.VERBOSE)

# a token's kind by its first character; any other character is an error
_KINDS = {
    **dict.fromkeys("0123456789", "number"),
    **dict.fromkeys("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_",
                    "name"),
    **{c: c for c in "-+*/(),"},
}

_Token = tuple[str, str, int]   # (kind, text, 0-based position)


def _tokenize(text: str) -> list[_Token]:
    """Tokens of ``text``, closed by an end token ``("", "", len(text))``.

    A token's kind is "number", "name", "x", or the operator or
    punctuation character itself.
    """
    tokens: list[_Token] = []
    pos = 0
    for space, word in _TOKEN.findall(text):
        pos += len(space)
        kind = _KINDS.get(word[0])
        if kind is None:
            if word == "[" and tokens and tokens[-1][1:] == ("x", pos - 1):
                raise FormulaSyntaxError(pos, "malformed subscript after x")
            raise FormulaSyntaxError(pos, f"unexpected character {word!r}")
        if word[0] == "x" and (word == "x" or word[1] == "["):
            kind = "x"
        tokens.append((kind, word, pos))
        pos += len(word)
    tokens.append(("", "", len(text)))
    return tokens


# --- parser ------------------------------------------------------------------

# token kinds that may open a factor; seeing one right after a factor
# means juxtaposed multiplication
_FACTOR_START = {"number", "name", "x", "("}


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.index = 0
        self.depth = 0      # open parentheses, calls and unary minus

    def nest(self, pos: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise FormulaSyntaxError(
                pos, f"formula nests deeper than {MAX_NESTING} levels")

    def expect(self, kind: str, what: str) -> None:
        got, text, pos = self.tokens[self.index]
        self.index += 1
        if got != kind:
            text = text or "end of input"
            raise FormulaSyntaxError(pos, f"expected {what}, got {text!r}")

    # The methods below read self.tokens[self.index] in place, without a
    # method call per token looked at.

    def expression(self) -> ExprNode:
        node = self.term()
        tokens = self.tokens
        while True:
            kind = tokens[self.index][0]
            if kind == "+":
                op = BinaryOp.ADD
            elif kind == "-":
                op = BinaryOp.SUB
            else:
                return node
            self.index += 1
            node = _binary(op, node, self.term())

    def term(self) -> ExprNode:
        node = self.factor()
        tokens = self.tokens
        while True:
            kind = tokens[self.index][0]
            if kind == "*":
                self.index += 1
                op = BinaryOp.MUL
            elif kind == "/":
                self.index += 1
                op = BinaryOp.DIV
            elif kind in _FACTOR_START:
                op = BinaryOp.MUL
            else:
                return node
            node = _binary(op, node, self.factor())

    def factor(self) -> ExprNode:
        kind, text, pos = self.tokens[self.index]
        self.index += 1
        if kind == "number":
            value = float(text)
            if value == math.inf:
                raise FormulaSyntaxError(pos, "number too large for a float")
            node = _new(Const)
            _set_value(node, value)
            return node
        if kind == "x":
            return _X
        if kind == "-":
            self.nest(pos)
            node = _unary(UnaryOp.NEG, self.factor())
            self.depth -= 1
            return node
        if kind == "(":
            self.nest(pos)
            inner = self.expression()
            self.expect(")", "')'")
            self.depth -= 1
            return inner
        if kind == "name":
            op = BinaryOp.PDIV if text == "pdiv" else _UNARY_NAMES.get(text)
            if op is None:
                raise UnknownToken(text, pos)
            self.nest(pos)
            self.expect("(", f"'(' after {text}")
            node = self.expression()
            if op is BinaryOp.PDIV:
                self.expect(",", "',' between pdiv arguments")
                node = _binary(op, node, self.expression())
            else:
                node = _unary(op, node)
            self.expect(")", "')'")
            self.depth -= 1
            return node
        text = text or "end of input"
        raise FormulaSyntaxError(pos, f"expected a value, got {text!r}")


def parse_formula(text: str) -> ExprNode:
    """Parse formula text into an expression tree.

    Raises FormulaSyntaxError for malformed text and for formulas that
    nest parentheses, calls or unary minus deeper than ``MAX_NESTING``.
    """
    if not isinstance(text, str):
        raise ConfigError(f"formula must be a str, not {type(text).__name__}")
    if not text.strip(_SPACE):
        raise FormulaSyntaxError(0, "empty formula")
    parser = _Parser(_tokenize(text))
    node = parser.expression()
    kind, trailing, pos = parser.tokens[parser.index]
    if kind:
        raise FormulaSyntaxError(pos, f"unexpected {trailing!r}")
    return node


# --- folding -----------------------------------------------------------------

def _fold(root: ExprNode, leaf, unary, binary):
    """Post-order fold of an expression tree on an explicit stack.

    ``leaf(node)`` gives the value of a constant or x; ``unary(node, a)``
    and ``binary(node, a, b)`` combine operand values, the left operand
    computed before the right.  Any depth folds without recursion.  A
    node is pushed once to visit its children and once more, marked
    ready, to combine their values, which are replaced in place on the
    value stack: a value's position on that stack is fixed from the
    moment it is computed until it is combined.
    """
    values = []
    stack: list[tuple[ExprNode, bool]] = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if isinstance(node, (Const, Var)):
            values.append(leaf(node))
        elif ready and isinstance(node, Unary):
            values[-1] = unary(node, values[-1])
        elif ready:
            values[-2:] = [binary(node, values[-2], values[-1])]
        elif isinstance(node, Unary):
            stack += ((node, True), (node.child, False))
        else:
            stack += ((node, True), (node.right, False), (node.left, False))
    return values[0]


def _check_expr(expr) -> None:
    """ConfigError unless ``expr`` is an expression tree."""
    if not isinstance(expr, _Node):
        raise ConfigError(
            f"expr must be of type ExprNode, not {type(expr).__name__}")



# --- formatting --------------------------------------------------------------

_BINARY_PREC = {BinaryOp.ADD: 1, BinaryOp.SUB: 1, BinaryOp.MUL: 2, BinaryOp.DIV: 2}
_NEG_PREC = 3
_ATOM_PREC = 9


def _prec(node: ExprNode) -> int:
    if isinstance(node, Binary) and node.op is not BinaryOp.PDIV:
        return _BINARY_PREC[node.op]
    if isinstance(node, Unary) and node.op is UnaryOp.NEG:
        return _NEG_PREC
    return _ATOM_PREC    # constants, x, and function calls bind tightest


def _format_leaf(node: Const | Var) -> str:
    if isinstance(node, Var):
        return "x"
    # shortest exact decimal, never scientific notation (tokenizer has no e-form)
    return np.format_float_positional(node.value, unique=True, trim="-")


def _format_unary(node: Unary, inner: str) -> str:
    if node.op is not UnaryOp.NEG:
        return f"{node.op.value}({inner})"
    if _prec(node.child) < _NEG_PREC:
        return f"-({inner})"
    return f"-{inner}"


def _format_binary(node: Binary, left: str, right: str) -> str:
    if node.op is BinaryOp.PDIV:
        return f"pdiv({left},{right})"
    p = _BINARY_PREC[node.op]
    if _prec(node.left) < p:
        left = f"({left})"
    # wrap equal precedence on the right to preserve left associativity
    if _prec(node.right) <= p:
        right = f"({right})"
    return f"{left}{node.op.value}{right}"


def format_expr(expr: ExprNode) -> str:
    """Canonical text: explicit `*`, canonical names, minimal parentheses.

    Reparsing the result evaluates identically to the input tree.
    """
    _check_expr(expr)
    return _fold(expr, _format_leaf, _format_unary, _format_binary)
