"""Small expression language for user-defined coefficients and profiles.

Expressions are functions of the time variable ``t`` and the radius
``r``.  Supported: ``+ - * / ^`` (``^`` right associative), unary minus,
``sin cos exp log sqrt abs min max tanh``, and the constants ``pi`` and
``e``; any other name is an UnknownIdentifier.  An expression nests at
most MAX_DEPTH levels.  ExprFunction is the one evaluation entry: it
compiles its expression once, into a tree of closures, and each call runs
only the numpy operations, on scalars or arrays ``t`` and ``r``, and
returns floats of their broadcast shape.  Evaluation raises
EvalDomainError for log/sqrt of negative arguments, division by zero and
non-finite results instead of propagating NaN/inf.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import EvalDomainError, ExprSyntaxError, UnknownIdentifier

FUNCTIONS = {
    "sin": 1, "cos": 1, "exp": 1, "log": 1, "sqrt": 1,
    "abs": 1, "tanh": 1, "min": 2, "max": 2,
}
CONSTANTS = {"pi": math.pi, "e": math.e}
VARIABLES = ("t", "r")

MAX_SOURCE_BYTES = 64 * 1024
MAX_DEPTH = 100   # deepest syntax tree; a parenthesised group is a level


# --- AST nodes ---

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "t" or "r"


@dataclass(frozen=True)
class Const:
    name: str  # "pi" or "e"


@dataclass(frozen=True)
class Unary:
    op: str  # "-"
    child: object


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple


def _children(ast):
    """The operands of ``ast``; () for a leaf."""
    if isinstance(ast, Unary):
        return (ast.child,)
    if isinstance(ast, Bin):
        return (ast.left, ast.right)
    if isinstance(ast, Call):
        return ast.args
    return ()


def _depth(ast):
    """Levels of the syntax tree ``ast``, counted without recursion."""
    level, depth = [ast], 0
    while level:
        depth += 1
        level = [child for node in level for child in _children(node)]
    return depth


# --- tokenizer ---

_TOK_OPS = set("+-*/^(),")


def _tokenize(text):
    """Yield (kind, value, offset) triples; kind in num/ident/op/end."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in _TOK_OPS:
            toks.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            # scientific notation tail
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ExprSyntaxError(i, ["number"], "malformed number %r at offset %d" % (lit, i))
            toks.append(("num", value, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(i, ["expression"], "unexpected character %r at offset %d" % (c, i))
    toks.append(("end", None, n))
    return toks


def _too_deep(off):
    return ExprSyntaxError(off, ["expression"], "expression nested deeper "
                           "than %d levels at offset %d" % (MAX_DEPTH, off))


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.depth = 0    # groups, calls, minuses and exponents now open

    def nested(self, parse, off):
        """parse() one level down: the parser recurses only through here."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise _too_deep(off)
        node = parse()
        self.depth -= 1
        return node

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value, off = self.peek()
        if kind != "op" or value != op:
            raise ExprSyntaxError(off, [op])
        return self.next()

    # expr := term (("+"|"-") term)*
    def expr(self):
        node = self.term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.next()
                node = Bin(value, node, self.term())
            else:
                return node

    # term := unary (("*"|"/") unary)*
    def term(self):
        node = self.unary()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.next()
                node = Bin(value, node, self.unary())
            else:
                return node

    # unary := "-" unary | power
    def unary(self):
        kind, value, off = self.peek()
        if kind == "op" and value == "-":
            self.next()
            return Unary("-", self.nested(self.unary, off))
        return self.power()

    # power := atom ("^" unary)?   (right associative, binds above unary "-")
    def power(self):
        node = self.atom()
        kind, value, off = self.peek()
        if kind == "op" and value == "^":
            self.next()
            return Bin("^", node, self.nested(self.unary, off))
        return node

    def atom(self):
        kind, value, off = self.next()
        if kind == "num":
            return Num(value)
        if kind == "op" and value == "(":
            node = self.nested(self.expr, off)
            self.expect_op(")")
            return node
        if kind == "ident":
            if value in FUNCTIONS:
                self.expect_op("(")
                args = [self.nested(self.expr, off)]
                while FUNCTIONS[value] > len(args):
                    self.expect_op(",")
                    args.append(self.nested(self.expr, off))
                self.expect_op(")")
                return Call(value, tuple(args))
            if value in CONSTANTS:
                return Const(value)
            if value in VARIABLES:
                return Var(value)
            raise UnknownIdentifier(value, off)
        raise ExprSyntaxError(off, ["number", "identifier", "("])


def parse(text):
    """Parse ``text`` into an AST.

    Raises ExprSyntaxError when the expression nests deeper than MAX_DEPTH
    levels: its syntax tree, or its parenthesised groups, function calls,
    unary minuses and exponents (the parser recurses through these).
    """
    if not text or not text.strip():
        raise ExprSyntaxError(0, ["expression"], "empty expression")
    if len(text.encode()) > MAX_SOURCE_BYTES:
        raise ExprSyntaxError(0, ["expression"],
                              "expression longer than %d bytes" % MAX_SOURCE_BYTES)
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    kind, _, off = parser.peek()
    if kind != "end":
        raise ExprSyntaxError(off, ["end of input"])
    if _depth(node) > MAX_DEPTH:
        raise _too_deep(0)
    return node


# --- evaluation ---

def _domain_error(node, value, bad):
    """EvalDomainError naming ``node`` and the first ``value`` where ``bad``."""
    first = np.broadcast_to(np.asarray(value, dtype=float), np.shape(bad))[bad]
    return EvalDomainError(node, value, "domain error in %s at value %r"
                           % (pretty(node), float(first.flat[0])))


def _check_finite(node, arg, out):
    if not np.all(np.isfinite(out)):
        raise _domain_error(node, arg, ~np.isfinite(out))


_ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul}
_UFUNCS = {"sin": np.sin, "cos": np.cos, "tanh": np.tanh, "abs": np.abs,
           "min": np.minimum, "max": np.maximum}


def _compile(ast):
    """``ast`` as a function f(t, r): a tree of closures built once.

    Each closure evaluates its children left to right and then applies
    its own numpy operation, so a call does the arithmetic of a recursive
    walk of the tree, in the same order.  The domain checks run at every
    call.
    """
    if isinstance(ast, (Num, Const)):
        value = ast.value if isinstance(ast, Num) else CONSTANTS[ast.name]
        return lambda t, r: value
    if isinstance(ast, Var):
        return (lambda t, r: t) if ast.name == "t" else (lambda t, r: r)
    if isinstance(ast, Unary):
        child = _compile(ast.child)
        return lambda t, r: -child(t, r)
    if isinstance(ast, Bin):
        left, right = _compile(ast.left), _compile(ast.right)
        if ast.op in _ARITH:
            op = _ARITH[ast.op]
            return lambda t, r: op(left(t, r), right(t, r))
        if ast.op == "/":
            def divide(t, r):
                a, b = left(t, r), right(t, r)
                zero = np.asarray(b) == 0
                if zero.any():
                    raise _domain_error(ast, b, zero)
                return a / b
            return divide

        def power(t, r):
            a, b = left(t, r), right(t, r)
            with np.errstate(invalid="ignore", divide="ignore"):
                out = np.power(np.asarray(a, dtype=float), b)
            _check_finite(ast, a, out)
            return out if np.ndim(out) else float(out)
        return power
    if isinstance(ast, Call):
        args = [_compile(child) for child in ast.args]
        if ast.fn in ("min", "max"):
            fn, (first, second) = _UFUNCS[ast.fn], args
            return lambda t, r: fn(first(t, r), second(t, r))
        arg, = args
        if ast.fn in _UFUNCS:
            fn = _UFUNCS[ast.fn]
            return lambda t, r: fn(arg(t, r))
        if ast.fn == "sqrt":
            def sqrt(t, r):
                x = arg(t, r)
                bad = np.asarray(x) < 0
                if bad.any():
                    raise _domain_error(ast, x, bad)
                return np.sqrt(x)
            return sqrt
        if ast.fn == "log":
            def log(t, r):
                x = arg(t, r)
                bad = np.asarray(x) <= 0
                if bad.any():
                    raise _domain_error(ast, x, bad)
                return np.log(x)
            return log
        if ast.fn == "exp":
            def exp(t, r):
                x = arg(t, r)
                with np.errstate(over="ignore"):
                    out = np.exp(x)
                _check_finite(ast, x, out)
                return out
            return exp
    raise TypeError("not an AST node: %r" % (ast,))


def variables(ast):
    """The set of variable names (``t``, ``r``) that ``ast`` reads."""
    if isinstance(ast, Var):
        return {ast.name}
    return set().union(*map(variables, _children(ast)))


def pretty(ast):
    """Render an AST back to source. Fully parenthesized so that
    parse(pretty(a)) is structurally identical to ``a`` while the rendered
    groups, calls and minuses nest at most MAX_DEPTH levels."""
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, (Var, Const)):
        return ast.name
    if isinstance(ast, Unary):
        return "(-%s)" % pretty(ast.child)
    if isinstance(ast, Bin):
        return "(%s %s %s)" % (pretty(ast.left), ast.op, pretty(ast.right))
    if isinstance(ast, Call):
        return "%s(%s)" % (ast.fn, ", ".join(pretty(a) for a in ast.args))
    raise TypeError("not an AST node: %r" % (ast,))


class ExprFunction:
    """Picklable callable wrapping a parsed expression: f(t, r) -> value."""

    def __init__(self, text):
        self.text = text
        self.ast = parse(text)
        self._fn = _compile(self.ast)

    def __call__(self, t, r=0.0):
        """Value at (t, r) with the broadcast shape of t and r, also when
        the expression does not depend on one (or both) of them."""
        out = self._fn(t, r)
        shape = np.broadcast(t, r).shape
        if getattr(out, "shape", ()) != shape:
            full = np.empty(shape)
            full[...] = out
            out = full
        return out

    def __repr__(self):
        return "ExprFunction(%r)" % self.text

    def __reduce__(self):
        # a copy recompiles its text: the closures do not pickle
        return ExprFunction, (self.text,)
