import copy
import dataclasses
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gramevo import (
    Binary,
    BinaryOp,
    ConfigError,
    Const,
    FormulaSyntaxError,
    Unary,
    UnaryOp,
    UnknownToken,
    Var,
    evaluate,
    evaluate_array,
    format_expr,
    parse_formula,
)
from gramevo.evaluation import PROTECTION_EPS
from gramevo.expr import MAX_NESTING, _tokenize
from conftest import PROSE_FORMULA, REFERENCE_FORMULA, TABLE_POINTS, TABLE_TOL


# --- parsing -----------------------------------------------------------------

def test_parse_addition():
    assert parse_formula("x+x") == Binary(BinaryOp.ADD, Var(), Var())


def test_parse_pdiv():
    assert parse_formula("pdiv(x, 12.34)") == Binary(
        BinaryOp.PDIV, Var(), Const(12.34)
    )


def test_parse_juxtaposition_fragment():
    expected = Unary(
        UnaryOp.SQRT,
        Binary(
            BinaryOp.MUL,
            Unary(UnaryOp.TANH, Const(78.45)),
            Unary(UnaryOp.SIN, Const(51.98)),
        ),
    )
    assert parse_formula("sqrt(tanh(78.45) sin(51.98))") == expected


def test_parse_reference_formula():
    parse_formula(REFERENCE_FORMULA)


def test_parse_prose_formula_with_juxtaposed_products():
    parse_formula(PROSE_FORMULA)


def test_precedence_and_associativity():
    assert evaluate(parse_formula("2+3*4"), 0.0) == 14.0
    assert evaluate(parse_formula("2*3+4"), 0.0) == 10.0
    assert evaluate(parse_formula("-2*3"), 0.0) == -6.0
    assert evaluate(parse_formula("8-3-2"), 0.0) == 3.0
    assert evaluate(parse_formula("8/4/2"), 0.0) == 1.0
    assert evaluate(parse_formula("2 x"), 5.0) == 10.0
    assert evaluate(parse_formula("(2+3)*4"), 0.0) == 20.0
    # unary minus binds tighter than subtraction chains
    assert evaluate(parse_formula("5--3"), 0.0) == 8.0


def test_leading_zero_constants():
    # the digit-pair grammar rule emits constants like 07.56
    assert parse_formula("07.56") == Const(7.56)


def test_aliases_accepted():
    for x in (0.5, 2.0, 100.0):
        assert evaluate(parse_formula("np.sin(x[:, 0])"), x) == evaluate(
            parse_formula("sin(x)"), x
        )
        assert evaluate(parse_formula("np.tanh(x)"), x) == evaluate(
            parse_formula("tanh(x)"), x
        )
        assert evaluate(parse_formula("np.exp(x)"), x) == evaluate(
            parse_formula("exp(x)"), x
        )
        assert evaluate(parse_formula("log(x)"), x) == evaluate(
            parse_formula("ln(x)"), x
        )
    # ASCII whitespace is tolerated between tokens and inside the subscript
    assert parse_formula("x[ : , 0 ]") == Var()
    assert parse_formula("x[\t:\n,\r0\f]") == Var()
    assert parse_formula("\tx\n+\v1\r") == parse_formula("x+1")


# every raise site of parse_formula: (text, class, 0-based position, message);
# end of input reports len(text)
_SYNTAX_ERRORS = [
    ("", FormulaSyntaxError, 0, "empty formula"),
    ("   ", FormulaSyntaxError, 0, "empty formula"),
    (" \t\n\r\f\v", FormulaSyntaxError, 0, "empty formula"),
    ("x+", FormulaSyntaxError, 2, "expected a value, got 'end of input'"),
    ("x+ ", FormulaSyntaxError, 3, "expected a value, got 'end of input'"),
    ("(x", FormulaSyntaxError, 2, "expected ')', got 'end of input'"),
    ("sin(x", FormulaSyntaxError, 5, "expected ')', got 'end of input'"),
    ("x 5 )", FormulaSyntaxError, 4, "unexpected ')'"),
    ("x,", FormulaSyntaxError, 1, "unexpected ','"),
    (")", FormulaSyntaxError, 0, "expected a value, got ')'"),
    ("12.", FormulaSyntaxError, 2, "unexpected character '.'"),
    ("x $", FormulaSyntaxError, 2, "unexpected character '$'"),
    ("xé", FormulaSyntaxError, 1, "unexpected character 'é'"),
    ("x٣", FormulaSyntaxError, 1, "unexpected character '٣'"),
    # whitespace is ASCII only
    ("\u3000", FormulaSyntaxError, 0, "unexpected character '\\u3000'"),
    ("x\u00a0+1", FormulaSyntaxError, 1, "unexpected character '\\xa0'"),
    ("x +\u20031", FormulaSyntaxError, 3, "unexpected character '\\u2003'"),
    ("x\x1c+1", FormulaSyntaxError, 1, "unexpected character '\\x1c'"),
    ("x[:, 1]", FormulaSyntaxError, 1, "malformed subscript after x"),
    # a subscript follows x at once, and only once
    ("x [:, 0]", FormulaSyntaxError, 2, "unexpected character '['"),
    ("x[:,0][:,0]", FormulaSyntaxError, 6, "unexpected character '['"),
    ("x[\u3000:,0]", FormulaSyntaxError, 1, "malformed subscript after x"),
    ("x[:\u00a0,0]", FormulaSyntaxError, 1, "malformed subscript after x"),
    ("foo(3)", UnknownToken, 0, "unknown token 'foo'"),
    ("sin x", FormulaSyntaxError, 4, "expected '(' after sin, got 'x'"),
    ("pdiv x", FormulaSyntaxError, 5, "expected '(' after pdiv, got 'x'"),
    ("pdiv(x)", FormulaSyntaxError, 6,
     "expected ',' between pdiv arguments, got ')'"),
    ("-" * (MAX_NESTING + 1) + "x", FormulaSyntaxError, MAX_NESTING,
     f"formula nests deeper than {MAX_NESTING} levels"),
]


def test_parse_formula_rejects_text_that_is_no_str():
    with pytest.raises(ConfigError) as caught:
        parse_formula(b"x")
    assert str(caught.value) == "formula must be a str, not bytes"


def test_syntax_error_positions():
    mismatches = []
    for text, cls, position, message in _SYNTAX_ERRORS:
        try:
            parse_formula(text)
        except FormulaSyntaxError as err:
            got = (type(err), err.position, err.message)
        else:
            got = None
        if got != (cls, position, message):
            mismatches.append((text, got))
    assert not mismatches

    with pytest.raises(UnknownToken) as err:
        parse_formula("foo(3)")
    assert err.value.token == "foo"


_REFERENCE_SPACES = "[ \t\n\r\f\v]*"
_REFERENCE_TOKEN = re.compile(_REFERENCE_SPACES + r"""(?:
    (?P<number>[0-9]+(?:\.[0-9]+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*(?:\.[A-Za-z_][A-Za-z_0-9]*)*)
  | (?P<punct>[-+*/(),])
  | (?P<other>.)
  | (?P<end>\Z))""", re.VERBOSE)
_REFERENCE_SUBSCRIPT = re.compile(
    rf"\[{_REFERENCE_SPACES}:{_REFERENCE_SPACES},{_REFERENCE_SPACES}0"
    rf"{_REFERENCE_SPACES}\]")


def reference_tokenize(text):
    """The tokenizer that reads one token per regex match: the tokens, or
    the (position, message) of the syntax error."""
    tokens, pos = [], 0
    while True:
        m = _REFERENCE_TOKEN.match(text, pos)
        kind = m.lastgroup
        start, pos = m.span(kind)
        word = m[kind]
        if kind == "other":
            return start, f"unexpected character {word!r}"
        if kind == "end":
            return tokens + [("", "", start)]
        if kind == "punct":
            kind = word
        elif word == "x":
            kind = "x"
            if text.startswith("[", pos):
                sub = _REFERENCE_SUBSCRIPT.match(text, pos)
                if not sub:
                    return pos, "malformed subscript after x"
                pos = sub.end()
                word = text[start:pos]
        tokens.append((kind, word, start))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from([
    "x", "x[:, 0]", "x[:,0]", "x[", "[", "]", ":", "0", "12", "3.5", ".",
    "np.sin", "pdiv", "xy", "_a1", "+", "-", "*", "/", "(", ")", ",", " ",
    "\t", "\n", "\u00a0", "\u00e9", "\u0663", "!"]), max_size=12))
def test_tokenize_matches_one_match_per_token(parts):
    text = "".join(parts)
    try:
        got = _tokenize(text)
    except FormulaSyntaxError as err:
        got = err.position, err.message
    assert got == reference_tokenize(text)


def test_const_must_be_finite():
    with pytest.raises(ValueError):
        Const(float("inf"))
    with pytest.raises(ValueError):
        Const(float("nan"))


@pytest.mark.parametrize("value", [
    math.inf, -math.inf, math.nan, np.float64("inf"), np.float64("-inf"),
    np.float64("nan"), "inf", "-inf", "nan"])
def test_const_rejects_non_finite_of_any_type(value):
    with pytest.raises(ValueError, match="constants must be finite"):
        Const(value)


def test_number_past_float_range_is_a_syntax_error():
    # float() of a 400-digit literal is inf, which no Const may hold
    with pytest.raises(FormulaSyntaxError) as err:
        parse_formula("x+" + "9" * 400)
    assert err.value.position == 2
    assert err.value.message == "number too large for a float"
    # the largest literals that stay finite still parse
    assert parse_formula("9" * 308) == Const(float("9" * 308))


_NESTED = {
    "parentheses": lambda n: "(" * n + "x" + ")" * n,
    "calls": lambda n: "sin(" * n + "x" + ")" * n,
    "pdiv": lambda n: "pdiv(" * n + "x" + ",2)" * n,
    "unary-minus": lambda n: "-" * n + "x",
}


@pytest.mark.parametrize("nested", _NESTED.values(), ids=_NESTED.keys())
def test_nesting_limit(nested):
    expr = parse_formula(nested(MAX_NESTING))
    assert parse_formula(format_expr(expr)) == expr
    assert math.isfinite(evaluate(expr, 2.0))
    with pytest.raises(FormulaSyntaxError, match="deeper than"):
        parse_formula(nested(MAX_NESTING + 1))


def test_long_operator_chain_is_not_nesting():
    # a sum is read in a loop, so its length does not count toward the
    # limit; a balanced derivation under max_depth=17 prints this flat
    terms = 128
    assert terms > MAX_NESTING
    expr = parse_formula("+".join(["x"] * terms))
    assert parse_formula(format_expr(expr)) == expr
    assert evaluate(expr, 2.0) == 2.0 * terms


def test_thousand_term_sum_evaluates_and_round_trips():
    # parse, evaluate and format all walk the 1 000-deep left spine of
    # this sum without recursion
    text = "+".join(["x"] * 1000)
    expr = parse_formula(text)
    assert evaluate(expr, 2.0) == 2000.0
    assert format_expr(expr) == text
    again = parse_formula(format_expr(expr))
    assert format_expr(again) == text
    assert evaluate(again, 2.0) == 2000.0
    # equality, hashing and repr walk it without recursion too
    assert again == expr and again is not expr
    assert hash(again) == hash(expr)
    assert repr(again) == repr(expr)
    assert repr(expr).count("Var()") == 1000
    assert expr != parse_formula(text + "+x")
    assert expr != parse_formula("2+" + text[2:])


def test_tree_built_in_code_past_recursion_limit():
    right_deep = Var()
    negated = Var()
    for _ in range(2000):
        right_deep = Binary(BinaryOp.ADD, Var(), right_deep)
        negated = Unary(UnaryOp.NEG, negated)
    assert evaluate(right_deep, 2.0) == 4002.0
    assert evaluate(negated, 2.0) == 2.0
    assert format_expr(right_deep) == "x+(" * 1999 + "x+x" + ")" * 1999
    assert format_expr(negated) == "-" * 2000 + "x"

    twin, other = Var(), Const(1.0)
    for _ in range(2000):
        twin = Binary(BinaryOp.ADD, Var(), twin)
        other = Binary(BinaryOp.ADD, Var(), other)
    assert twin == right_deep and hash(twin) == hash(right_deep)
    assert twin != other and right_deep != negated
    assert repr(right_deep) == (
        "Binary(op=<BinaryOp.ADD: '+'>, left=Var(), right=" * 2000
        + "Var()" + ")" * 2000)
    assert repr(negated) == (
        "Unary(op=<UnaryOp.NEG: 'neg'>, child=" * 2000 + "Var()" + ")" * 2000)


# --- evaluation --------------------------------------------------------------

def test_reference_formula_matches_quoted_values():
    expr = parse_formula(REFERENCE_FORMULA)
    for x, expected in TABLE_POINTS.items():
        assert abs(evaluate(expr, x) - expected) <= TABLE_TOL


def test_protection_rules():
    assert evaluate(Binary(BinaryOp.PDIV, Const(1.0), Const(0.0)), 0.0) == 1.0
    # pdiv's denominator: NaN, signed zeros and infinities, at and past
    # eps on both sides.  In pdiv(3, x*1) the quotient takes the slot of
    # its own denominator; on constants alone it is computed at a point
    eps = PROTECTION_EPS
    cases = {math.nan: 1.0, 0.0: 1.0, -0.0: 1.0, math.inf: 0.0,
             -math.inf: -0.0, eps: 1.0, -eps: 1.0, 2 * eps: 3 / (2 * eps),
             -2 * eps: 3 / (-2 * eps)}
    for formula in ("pdiv(3, x)", "pdiv(3, x*1)"):
        got = evaluate_array(parse_formula(formula), list(cases))
        assert got.tobytes() == np.array(list(cases.values())).tobytes()
        for b, want in cases.items():
            got = evaluate(parse_formula(formula), b)
            assert (got, math.copysign(1.0, got)) == (
                want, math.copysign(1.0, want))
            if math.isfinite(b):
                point = Binary(BinaryOp.PDIV, Const(3.0), Const(b))
                assert evaluate(point, 0.0) == want
    assert evaluate(parse_formula("pdiv(x, x)"), 0.0) == 1.0
    assert evaluate(parse_formula("plog(0.0)"), 0.0) == 0.0
    assert evaluate(parse_formula("plog(x)"), 0.0) == 0.0
    # protected log and sqrt act on the absolute value
    assert evaluate(parse_formula("plog(x)"), -math.e) == pytest.approx(1.0)
    assert evaluate(parse_formula("psqrt(x)"), -4.0) == 2.0


def test_unprotected_ops_follow_ieee():
    assert math.isnan(evaluate(parse_formula("ln(x)"), -1.0))
    assert math.isnan(evaluate(parse_formula("sqrt(x)"), -1.0))
    assert evaluate(parse_formula("x/0.0"), 1.0) == math.inf
    assert evaluate(parse_formula("exp(x)"), 1000.0) == math.inf
    assert evaluate(parse_formula("ln(x)"), 0.0) == -math.inf


def test_trig_uses_radians():
    assert evaluate(parse_formula("sin(x)"), math.pi / 2) == pytest.approx(
        1.0, abs=1e-12
    )


def test_simple_scalar_values():
    assert evaluate(parse_formula("x+x"), 3.0) == 6.0
    assert evaluate(parse_formula("12.34"), 777.0) == 12.34


def test_evaluate_batch():
    assert evaluate_array(Var(), [1, 2, 3]).tolist() == [1.0, 2.0, 3.0]
    assert evaluate_array(Const(5.0), [1, 2]).tolist() == [5.0, 5.0]
    expr = parse_formula(REFERENCE_FORMULA)
    batch = evaluate_array(expr, list(TABLE_POINTS)).tolist()
    for got, (_, expected) in zip(batch, TABLE_POINTS.items()):
        assert abs(got - expected) <= TABLE_TOL


def test_evaluate_array_shape_and_broadcast(pi_dataset):
    expr = parse_formula("2 sqrt(x) + 1")
    out = evaluate_array(expr, pi_dataset.xs)
    assert out.shape == pi_dataset.xs.shape
    const = evaluate_array(Const(5.0), pi_dataset.xs)
    assert const.shape == pi_dataset.xs.shape
    assert np.all(const == 5.0)


# --- formatting --------------------------------------------------------------

def test_format_golds():
    assert format_expr(Binary(BinaryOp.ADD, Var(), Var())) == "x+x"
    assert format_expr(Const(12.34)) == "12.34"
    assert format_expr(parse_formula("np.sin(x[:, 0])")) == "sin(x)"
    assert format_expr(parse_formula("2 x")) == "2*x"


def test_format_minimal_parentheses():
    assert format_expr(parse_formula("2+3*4")) == "2+3*4"
    assert format_expr(parse_formula("(2+3)*4")) == "(2+3)*4"
    assert format_expr(parse_formula("8-(3-2)")) == "8-(3-2)"


def _agree(a: float, b: float) -> bool:
    if math.isnan(a) and math.isnan(b):
        return True
    if math.isinf(a) or math.isinf(b):
        return a == b
    if a == b:
        return True
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def test_reference_formula_round_trip():
    expr = parse_formula(REFERENCE_FORMULA)
    again = parse_formula(format_expr(expr))
    for x in (10.0, 100.0, 1400.0):
        assert _agree(evaluate(expr, x), evaluate(again, x))


finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, width=64, min_value=-1e6,
    max_value=1e6,
)
leaves = st.one_of(st.builds(Var), st.builds(Const, finite_floats))


def _extend(children):
    return st.one_of(
        st.builds(Unary, st.sampled_from(list(UnaryOp)), children),
        st.builds(Binary, st.sampled_from(list(BinaryOp)), children, children),
    )


expr_trees = st.recursive(leaves, _extend, max_leaves=25)


@settings(max_examples=250, deadline=None)
@given(expr_trees, st.sampled_from([" ", "\t", "\n"]))
def test_format_parse_round_trip_evaluates_identically(tree, space):
    text = format_expr(tree)
    reparsed = parse_formula(text)
    # whitespace may stand between any two tokens
    spaced = "".join(space + c + space if c in "+-*/()," else c for c in text)
    assert parse_formula(spaced) == reparsed
    grid = np.array([-7.5, -1.0, 0.0, 0.5, 2.0, 100.0, 7919.0])
    got = evaluate_array(reparsed, grid)
    want = evaluate_array(tree, grid)
    for a, b in zip(want.tolist(), got.tolist()):
        assert _agree(a, b)
    # a second round trip is a fixpoint on the text
    assert format_expr(reparsed) == text


def rebuild(node):
    """``node`` made again through the public constructors."""
    if isinstance(node, Unary):
        return Unary(node.op, rebuild(node.child))
    if isinstance(node, Binary):
        return Binary(node.op, rebuild(node.left), rebuild(node.right))
    if isinstance(node, Const):
        return Const(node.value)
    return Var()


@settings(max_examples=250, deadline=None)
@given(expr_trees)
def test_parser_built_nodes_match_constructor_built(tree):
    # the parser makes its nodes without the dataclass __init__
    parsed = parse_formula(format_expr(tree))
    built = rebuild(parsed)
    assert parsed == built and built == parsed
    assert hash(parsed) == hash(built)
    assert repr(parsed) == repr(built)
    for twin in (copy.deepcopy(parsed),
                 pickle.loads(pickle.dumps(parsed)),
                 pickle.loads(pickle.dumps(parsed, protocol=0))):
        assert twin == parsed and hash(twin) == hash(parsed)
        assert repr(twin) == repr(parsed)
    with pytest.raises(dataclasses.FrozenInstanceError):
        parsed.value = 1.0 if isinstance(parsed, Const) else None


# --- equality, hashing and repr ---------------------------------------------

def reference_eq(a, b) -> bool:
    """The equality the generated dataclass methods give, recursively."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Unary):
        return a.op == b.op and reference_eq(a.child, b.child)
    if isinstance(a, Binary):
        return (a.op == b.op and reference_eq(a.left, b.left)
                and reference_eq(a.right, b.right))
    return a == b


def reference_repr(node) -> str:
    """The repr the generated dataclass methods give, recursively."""
    if isinstance(node, Unary):
        return f"Unary(op={node.op!r}, child={reference_repr(node.child)})"
    if isinstance(node, Binary):
        return (f"Binary(op={node.op!r}, left={reference_repr(node.left)}, "
                f"right={reference_repr(node.right)})")
    return repr(node)


def test_repr_text():
    assert repr(parse_formula("-x+pdiv(2.5,sin(x))")) == (
        "Binary(op=<BinaryOp.ADD: '+'>, "
        "left=Unary(op=<UnaryOp.NEG: 'neg'>, child=Var()), "
        "right=Binary(op=<BinaryOp.PDIV: 'pdiv'>, left=Const(value=2.5), "
        "right=Unary(op=<UnaryOp.SIN: 'sin'>, child=Var())))")


def test_equality_across_node_classes():
    assert Unary(UnaryOp.NEG, Var()) != Var()
    assert Var() != Unary(UnaryOp.NEG, Var())
    assert Binary(BinaryOp.ADD, Var(), Var()) != Unary(UnaryOp.NEG, Var())
    assert Unary(UnaryOp.NEG, Const(0.0)) == Unary(UnaryOp.NEG, Const(-0.0))
    assert Unary(UnaryOp.NEG, Var()) != "neg(x)"
    assert {Binary(BinaryOp.ADD, Var(), Const(1.0)),
            parse_formula("x+1")} == {parse_formula("x+1.0")}


@settings(max_examples=300, deadline=None)
@given(expr_trees, expr_trees)
def test_equality_hash_and_repr_match_dataclass_semantics(a, b):
    assert (a == b) == reference_eq(a, b)
    assert (a != b) == (not reference_eq(a, b))
    if a == b:
        assert hash(a) == hash(b)
    twin = copy.deepcopy(a)
    assert twin == a and hash(twin) == hash(a)
    assert repr(a) == reference_repr(a)


# --- deep trees built in code -----------------------------------------------

non_negative_leaves = st.one_of(
    st.builds(Var),
    st.builds(Const, st.floats(min_value=0.0, max_value=1e6, width=64)),
)

# one level of a deep tree: wrap the tree so far in a unary node, or make it
# the left or right operand of a binary node whose other operand is a leaf
levels = st.one_of(
    st.tuples(st.just("unary"), st.sampled_from(list(UnaryOp)),
              non_negative_leaves),
    st.tuples(st.sampled_from(["left", "right"]), st.sampled_from(list(BinaryOp)),
              non_negative_leaves),
)


def _deep_tree(root, pattern, depth):
    tree = root
    for i in range(depth):
        kind, op, leaf = pattern[i % len(pattern)]
        if kind == "unary":
            tree = Unary(op, tree)
        elif kind == "left":
            tree = Binary(op, tree, leaf)
        else:
            tree = Binary(op, leaf, tree)
    return tree


@settings(max_examples=60, deadline=None)
@given(non_negative_leaves, st.lists(levels, min_size=1, max_size=6),
       st.integers(1, 1500))
# operator chains past the recursion limit that must round-trip
@example(Var(), [("left", BinaryOp.ADD, Var()),
                 ("left", BinaryOp.SUB, Const(2.5))], 1500)
@example(Const(7.0), [("left", BinaryOp.MUL, Var()),
                      ("left", BinaryOp.DIV, Const(3.0))], 1499)
def test_deep_trees_round_trip_or_hit_the_nesting_limit(root, pattern, depth):
    # constants are non-negative because the parser reads -c as a negation
    tree = _deep_tree(root, pattern, depth)
    text = format_expr(tree)
    grid = np.array([-7.5, 0.0, 0.5, 2.0, 7919.0])
    want = evaluate_array(tree, grid)
    hash(tree)
    repr(tree)
    try:
        reparsed = parse_formula(text)
    except FormulaSyntaxError as err:
        assert "deeper than" in str(err)
        # each nesting level opens with a '(' or a '-' in the text
        assert text.count("(") + text.count("-") > MAX_NESTING
        return
    assert reparsed == tree
    assert hash(reparsed) == hash(tree)
    assert format_expr(reparsed) == text
    np.testing.assert_array_equal(evaluate_array(reparsed, grid), want)
