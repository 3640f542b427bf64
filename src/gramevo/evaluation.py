"""Evaluating formula trees on arrays of x values.

Every operator is numpy's, on IEEE doubles, with x in radians.  The
protected operators never fail: ``psqrt(a)`` is ``sqrt(|a|)``,
``plog(a)`` is ``ln(|a|)`` and 0.0 where ``|a|`` is within
``PROTECTION_EPS`` of zero or NaN, and ``pdiv(a, b)`` is ``a / b`` and
1.0 where ``b`` is within ``PROTECTION_EPS`` of zero or NaN.  The plain
``/``, ``ln`` and ``sqrt`` follow IEEE 754, so they may give inf or NaN.

Fitness is scored here too: :func:`fitness_mse` squares the residuals in
the slot where :func:`_evaluate_into` leaves the predictions.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigError, EmptyDataset, as_integer, check_types, shown
from .expr import (Binary, BinaryOp, Const, ExprNode, Unary, UnaryOp, Var,
                   _check_expr)
from .primes import Dataset

__all__ = ["WORST_FITNESS", "EvalBuffers", "evaluate", "evaluate_array",
           "fitness_mse"]

PROTECTION_EPS = 1e-9

# worst possible fitness: orders after every finite MSE under minimization
WORST_FITNESS = math.inf


class EvalBuffers:
    """Work arrays for evaluating expressions on x arrays of one shape.

    One float64 array per value an evaluation holds at once in a slot,
    made the first time that many are held, and two bool arrays, the
    masks of the protected operators; ``point`` holds a 0-d float array
    and a pair of 0-d bool arrays, for operators on constants alone.  An
    evaluation writes only into these, so one set serves any number of
    evaluations, one at a time; the value of the last one stays in slot 0
    until the next.

    ``of_x`` maps a unary operator to its value on ``xs``, the x array
    it was filled from, computed the first time an evaluation applies the
    operator to x itself; an evaluation on any other x array empties it
    first.  The arrays are the buffers' own and never written again, so
    ``xs`` must not be modified in place while these buffers serve it:
    make new buffers for modified x values.
    """

    __slots__ = ("shape", "slots", "masks", "point", "xs", "of_x")

    def __init__(self, shape):
        dims = shape if isinstance(shape, (tuple, list)) else (shape,)
        self.shape = tuple(as_integer(n, "shape") for n in dims)
        if any(n < 0 for n in self.shape):
            raise ConfigError(f"shape must be non-negative, got {shown(shape)}")
        self.masks = (np.empty(self.shape, dtype=bool),
                      np.empty(self.shape, dtype=bool))
        self.slots: list[np.ndarray] = []
        self.point = (np.empty(()), (np.empty((), dtype=bool),
                                     np.empty((), dtype=bool)))
        self.xs = None
        self.of_x: dict[UnaryOp, np.ndarray] = {}

    def slot(self, i: int) -> np.ndarray:
        while len(self.slots) <= i:
            self.slots.append(np.empty(self.shape))
        return self.slots[i]


# The operator rules: a plain operator is its ufunc, called as
# ufunc(*operands, out=out); a protected one is a rule, called as
# rule(out, masks, *operands).  Either writes the value into out, which
# may be the array of any one operand; the two masks are the caller's to
# overwrite.

def _psqrt(out, masks, a):
    np.sqrt(np.abs(a, out=out), out=out)


def _plog(out, masks, a):
    # 0.0 where the argument is within eps of zero (or NaN)
    mask = masks[0]
    np.abs(a, out=out)
    np.greater(out, PROTECTION_EPS, out=mask)
    np.log(out, out=out)
    np.copyto(out, 0.0, where=np.logical_not(mask, out=mask))


def _pdiv(out, masks, a, b):
    # 1.0 where the denominator is within eps of zero (or NaN): neither
    # above eps nor below -eps, so the two masks, never both true, are
    # equal.  They are made before the division, so out may be b.
    above, below = masks
    np.greater(b, PROTECTION_EPS, out=above)
    np.less(b, -PROTECTION_EPS, out=below)
    np.divide(a, b, out=out)
    np.copyto(out, 1.0, where=np.equal(above, below, out=above))


_RULES = {
    UnaryOp.NEG: np.negative,
    UnaryOp.SIN: np.sin,
    UnaryOp.TANH: np.tanh,
    UnaryOp.EXP: np.exp,
    UnaryOp.SQRT: np.sqrt,
    UnaryOp.LN: np.log,
    UnaryOp.PSQRT: _psqrt,
    UnaryOp.PLOG: _plog,
    BinaryOp.ADD: np.add,
    BinaryOp.SUB: np.subtract,
    BinaryOp.MUL: np.multiply,
    BinaryOp.DIV: np.divide,
    BinaryOp.PDIV: _pdiv,
}


def _evaluate_into(expr: ExprNode, xs: np.ndarray, buffers: EvalBuffers):
    """The value of ``expr`` on ``xs``; call it under
    ``np.errstate(all="ignore")``.

    That is ``xs`` itself for x, a float for an expression without x,
    ``buffers.of_x[op]`` for a unary operator on x itself, and otherwise
    ``buffers.slot(0)``.  An operator on floats alone gives a float,
    computed in ``buffers.point``.  A unary operator on x is computed into
    ``buffers.of_x`` the first time the buffers meet it for this ``xs``
    object and read from there after, so ``xs`` must not change in place
    between evaluations that share ``buffers``.  ``xs``, the ``of_x``
    arrays and the constants are only read.

    Slots go by Ershov (Sethi-Ullman) order.  A post-order pass on an
    explicit stack, as :func:`.expr._fold` walks, lays the tree out: a
    subtree's weight is the slots its evaluation needs, and of two
    operands the one needing more runs first, the left on a tie.  The
    layout then runs on a value stack.  An operator writes into whichever
    operand a slot holds, the lower slot if both do, and into the next
    free slot if neither does, so the slots in use are always the first
    ``used``, and ``buffers.slots`` grows only to the largest weight it
    meets: two for ``sin(x*x)-(sin(x*x)-(sin(x*x)-x*x))``, where the
    left operand first would hold four.
    """
    if buffers.xs is not xs:
        buffers.xs = xs
        buffers.of_x = {}
    # Per finished subtree, (weight, code).  The weight is -1 without x,
    # whose value is a float, 0 for x and an operator on x itself, whose
    # arrays no slot holds, and else the slots needed.  The code holds
    # leaf values and per operator (rule, arity, taken): arity -2 is a
    # binary operator run right operand first, and taken is None for
    # floats alone, the op for an operator on x itself, and else the
    # slots the operator adds to those in use.
    of_x = buffers.of_x
    done: list = []
    stack: list = [expr]
    while stack:
        node = stack.pop()
        kind = node.__class__
        if kind is Binary:
            stack += (node.op, node.right, node.left)
        elif kind is Unary:
            if node.child.__class__ is not Var:
                stack += (node.op, node.child)
            elif node.op in of_x:
                done.append((0, [of_x[node.op]]))
            else:
                done.append((0, [xs, (_RULES[node.op], 1, node.op)]))
        elif kind is Const:
            done.append((-1, [node.value]))
        elif kind is Var:
            done.append((0, [xs]))
        elif kind is UnaryOp:
            weight, code = done[-1]
            if weight < 0:
                code.append((_RULES[node], 1, None))
            else:
                code.append((_RULES[node], 1, 0 if weight else 1))
                done[-1] = (weight or 1, code)
        else:
            right_weight, right = done.pop()
            left_weight, left = done[-1]
            if left_weight < 0 and right_weight < 0:
                left += right
                left.append((_RULES[node], 2, None))
                continue
            taken = 1 - (left_weight > 0) - (right_weight > 0)
            left_weight = left_weight if left_weight > 0 else 0
            right_weight = right_weight if right_weight > 0 else 0
            if right_weight > left_weight:
                right += left
                right.append((_RULES[node], -2, taken))
                done[-1] = (right_weight, right)
            else:
                left += right
                left.append((_RULES[node], 2, taken))
                done[-1] = (left_weight + (left_weight == right_weight), left)
    weight, code = done[0]
    if weight > len(buffers.slots):
        buffers.slot(weight - 1)
    slots, masks = buffers.slots, buffers.masks
    values: list = []
    used = 0
    for item in code:
        if item.__class__ is not tuple:
            values.append(item)
            continue
        rule, arity, taken = item
        b = values.pop()
        if arity == 1:
            operands = (b,)
        elif arity == 2:
            operands = (values.pop(), b)
        else:
            operands = (b, values.pop())
        if taken.__class__ is int:
            used += taken
            out = slots[used - 1]
            rule_masks = masks
        elif taken is None:
            out, rule_masks = buffers.point
        else:
            out = of_x.get(taken)
            if out is not None:
                values.append(out)
                continue
            out = of_x[taken] = np.empty(buffers.shape)
            rule_masks = masks
        if rule.__class__ is np.ufunc:
            rule(*operands, out=out)
        else:
            rule(out, rule_masks, *operands)
        values.append(out if taken is not None else float(out))
    return values[0]


def evaluate_array(expr: ExprNode, xs: np.ndarray) -> np.ndarray:
    """Vectorized evaluation into a new array; non-finite outputs are
    legal, never an error.  ``xs`` must hold real numbers: text, even
    numeric text, is a ConfigError."""
    _check_expr(expr)
    arr = np.asarray(xs)
    if arr.dtype.kind not in "biuf":
        raise ConfigError(
            f"xs must hold real numbers, not {arr.dtype.type.__name__}")
    arr = arr.astype(np.float64, copy=False)
    buffers = EvalBuffers(arr.shape)
    with np.errstate(all="ignore"):
        value = _evaluate_into(expr, arr, buffers)
    out = buffers.slot(0)
    if value is not out:
        # x, an operator on x itself, or a constant
        np.copyto(out, value)
    return out


def evaluate(expr: ExprNode, x: float) -> float:
    """Evaluate at one point; radians, IEEE doubles, protected ops per module doc."""
    if not isinstance(x, numbers.Real):
        raise ConfigError(f"x must be a real number, got {shown(x)}")
    return float(evaluate_array(expr, np.array([x], dtype=np.float64))[0])


def fitness_mse(
    expr: ExprNode,
    dataset: Dataset,
    *,
    buffers: EvalBuffers | None = None,
) -> float:
    """Mean squared error over the dataset; WORST_FITNESS if non-finite.

    The predictions, residuals and their squares are computed in
    ``buffers``, made for arrays the shape of ``dataset.xs``, or in new
    ones if it is None; the dataset itself is only read.
    """
    _check_expr(expr)
    check_types(("dataset", dataset, Dataset))
    if len(dataset) == 0:
        raise EmptyDataset("cannot score against an empty dataset")
    if buffers is None:
        buffers = EvalBuffers(dataset.xs.shape)
    elif buffers.shape != dataset.xs.shape:
        raise ConfigError(f"buffers of shape {buffers.shape} cannot score "
                          f"{len(dataset)} points")
    with np.errstate(all="ignore"):
        predictions = _evaluate_into(expr, dataset.xs, buffers)
        # slot 0 holds the predictions or is free
        residuals = np.subtract(predictions, dataset.ys, out=buffers.slot(0))
        np.multiply(residuals, residuals, out=residuals)
        # np.mean's own sum and division, without its dispatch
        mse = float(np.add.reduce(residuals)) / residuals.size
    return mse if math.isfinite(mse) else WORST_FITNESS
