"""Tiny infix expression compiler for custom model definitions.

Grammar: numbers, one free variable, named parameters, binary + - * / ^,
unary minus, and the functions exp, log, sqrt, pow(a, b).  ``^`` means
power.  Compiled expressions evaluate with numpy semantics, so they accept
scalars and arrays alike.
"""

from __future__ import annotations

import ast

import numpy as np

from .errors import ConfigError

# fd_derivative's step relative to |v|: the cube root of the machine
# epsilon, which balances truncation against rounding in a central
# difference
_FD_STEP = float(np.cbrt(np.finfo(float).eps))

_FUNCS = {
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "pow": np.power,
}

_BINOPS = {
    ast.Add: np.add,
    ast.Sub: np.subtract,
    ast.Mult: np.multiply,
    ast.Div: np.true_divide,
    ast.Pow: np.power,
}


def compile_expression(text, variable, params=None):
    """Compile ``text`` into a callable of one variable.

    params maps extra names to numeric constants.  Raises ConfigError on
    anything outside the documented grammar.
    """
    params = dict(params or {})
    src = text.replace("^", "**").strip()
    if not src:
        raise ConfigError(["expression: empty"])
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ConfigError([f"expression: syntax error in {text!r}: {exc.msg}"]) from None

    def build(node):
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if isinstance(node.value, (int, float)):
                val = float(node.value)
                return lambda v: val
            raise ConfigError([f"expression: literal {node.value!r} not numeric"])
        if isinstance(node, ast.Name):
            if node.id == variable:
                return lambda v: v
            if node.id in params:
                val = float(params[node.id])
                return lambda v: val
            raise ConfigError([f"expression: unknown name {node.id!r}"])
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            inner = build(node.operand)
            if isinstance(node.op, ast.UAdd):
                return inner
            return lambda v: np.negative(inner(v))
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            op = _BINOPS[type(node.op)]
            left = build(node.left)
            right = build(node.right)
            return lambda v: op(left(v), right(v))
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                raise ConfigError(["expression: only exp, log, sqrt, pow calls allowed"])
            fn = _FUNCS[node.func.id]
            arity = 2 if node.func.id == "pow" else 1
            if len(node.args) != arity or node.keywords:
                raise ConfigError([f"expression: {node.func.id} takes {arity} argument(s)"])
            args = [build(a) for a in node.args]
            if arity == 1:
                inner = args[0]
                return lambda v: fn(inner(v))
            a0, a1 = args
            return lambda v: fn(a0(v), a1(v))
        raise ConfigError([f"expression: construct {type(node).__name__} not in grammar"])

    fn = build(tree)

    def evaluate(v):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out = fn(np.asarray(v, dtype=float))
        if np.ndim(v) == 0:
            return float(out)
        return out

    return evaluate


def fd_derivative(f):
    """Central finite-difference derivative of a compiled expression.

    The step is _FD_STEP relative to |v|, so it never crosses the origin;
    at v = 0 it is the bare relative step.
    """

    def deriv(v):
        v = np.asarray(v, dtype=float)
        h = _FD_STEP * np.where(v == 0.0, 1.0, np.abs(v))
        out = (np.asarray(f(v + h)) - np.asarray(f(v - h))) / (2.0 * h)
        if v.ndim == 0:
            return float(out)
        return out

    return deriv
