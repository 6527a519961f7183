"""Programmatic AST construction and unparsing for MPL.

The corpus generator (:mod:`repro.corpus.generator`) and the divergence
shrinker (:mod:`repro.corpus.sweep`) both manipulate programs as ASTs
rather than strings: the generator composes statement templates along its
grammar axes, and the shrinker deletes/hoists statements while preserving
well-formedness.  This module provides the two halves of that workflow:

* tiny builder functions (:func:`num`, :func:`var`, :func:`add`,
  :func:`if_`, :func:`send`, ...) that read like the grammar, and
* :func:`to_source`, an unparser whose output is guaranteed to re-parse
  to an equal AST (``parse(to_source(p)) == p``), which is what lets a
  generated or minimized program be persisted as ordinary ``.mpl`` text.

Expressions unparse through ``Expr.__str__`` (already fully
parenthesized, hence re-parseable) and simple statements through
``Stmt.__str__``; compound statements are emitted with the
``if/elif/else/end`` surface syntax the recursive-descent parser accepts.
"""

from __future__ import annotations

from typing import Iterable, Union

from repro.lang.ast import (
    Assert,
    Assign,
    BinOp,
    Compare,
    Expr,
    For,
    If,
    Num,
    Print,
    Program,
    Recv,
    Send,
    Skip,
    Stmt,
    Var,
    While,
)

ExprLike = Union[Expr, int, str]


# ---------------------------------------------------------------------------
# Expression builders
# ---------------------------------------------------------------------------


def expr(value: ExprLike) -> Expr:
    """Coerce an int (literal) or str (variable name) into an expression."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("MPL has no boolean literals; use 0/1")
    if isinstance(value, int):
        return Num(value)
    if isinstance(value, str):
        return Var(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to an MPL expression")


def num(value: int) -> Num:
    """Integer literal."""
    return Num(value)


def var(name: str) -> Var:
    """Variable reference (``id`` and ``np`` included)."""
    return Var(name)


ID = Var("id")
NP = Var("np")


def binop(op: str, left: ExprLike, right: ExprLike) -> BinOp:
    """Binary operation over coerced operands."""
    return BinOp(op, expr(left), expr(right))


def add(left: ExprLike, right: ExprLike) -> BinOp:
    return binop("+", left, right)


def sub(left: ExprLike, right: ExprLike) -> BinOp:
    return binop("-", left, right)


def mul(left: ExprLike, right: ExprLike) -> BinOp:
    return binop("*", left, right)


def div(left: ExprLike, right: ExprLike) -> BinOp:
    return binop("/", left, right)


def mod(left: ExprLike, right: ExprLike) -> BinOp:
    return binop("%", left, right)


def cmp(op: str, left: ExprLike, right: ExprLike) -> Compare:
    """Comparison producing 0/1."""
    return Compare(op, expr(left), expr(right))


def eq(left: ExprLike, right: ExprLike) -> Compare:
    return cmp("==", left, right)


def lt(left: ExprLike, right: ExprLike) -> Compare:
    return cmp("<", left, right)


def gt(left: ExprLike, right: ExprLike) -> Compare:
    return cmp(">", left, right)


# ---------------------------------------------------------------------------
# Statement builders
# ---------------------------------------------------------------------------


def skip() -> Skip:
    return Skip()


def assign(target: str, value: ExprLike) -> Assign:
    return Assign(target, expr(value))


def if_(cond: ExprLike, then_body: Iterable[Stmt], else_body: Iterable[Stmt] = ()) -> If:
    return If(expr(cond), tuple(then_body), tuple(else_body))


def while_(cond: ExprLike, body: Iterable[Stmt]) -> While:
    return While(expr(cond), tuple(body))


def for_(loop_var: str, start: ExprLike, stop: ExprLike, body: Iterable[Stmt]) -> For:
    return For(loop_var, expr(start), expr(stop), tuple(body))


def send(value: ExprLike, dest: ExprLike, mtype: str = "int") -> Send:
    return Send(expr(value), expr(dest), mtype)


def recv(target: str, src: ExprLike, mtype: str = "int") -> Recv:
    return Recv(target, expr(src), mtype)


def print_(value: ExprLike) -> Print:
    return Print(expr(value))


def assert_(cond: ExprLike) -> Assert:
    return Assert(expr(cond))


def program(*stmts: Stmt) -> Program:
    """A whole program from top-level statements."""
    return Program(tuple(stmts))


# ---------------------------------------------------------------------------
# Unparser
# ---------------------------------------------------------------------------

_INDENT = "    "


def _emit_stmt(stmt: Stmt, depth: int, lines: list) -> None:
    pad = _INDENT * depth
    if isinstance(stmt, If):
        _emit_if(stmt, depth, lines)
    elif isinstance(stmt, While):
        lines.append(f"{pad}while {stmt.cond} do")
        for inner in stmt.body:
            _emit_stmt(inner, depth + 1, lines)
        lines.append(f"{pad}end")
    elif isinstance(stmt, For):
        lines.append(f"{pad}for {stmt.var} = {stmt.start} to {stmt.stop} do")
        for inner in stmt.body:
            _emit_stmt(inner, depth + 1, lines)
        lines.append(f"{pad}end")
    else:
        # a simple statement's ``__str__`` is its source text
        lines.append(f"{pad}{stmt}")


def _emit_if(stmt: If, depth: int, lines: list) -> None:
    pad = _INDENT * depth
    lines.append(f"{pad}if {stmt.cond} then")
    for inner in stmt.then_body:
        _emit_stmt(inner, depth + 1, lines)
    branch = stmt
    # flatten `else (if ...)` chains into elif arms, mirroring the parser,
    # which re-nests them identically on the way back in
    while len(branch.else_body) == 1 and isinstance(branch.else_body[0], If):
        branch = branch.else_body[0]
        lines.append(f"{pad}elif {branch.cond} then")
        for inner in branch.then_body:
            _emit_stmt(inner, depth + 1, lines)
    if branch.else_body:
        lines.append(f"{pad}else")
        for inner in branch.else_body:
            _emit_stmt(inner, depth + 1, lines)
    lines.append(f"{pad}end")


def to_source(node: Union[Program, Stmt]) -> str:
    """Unparse a program (or single statement) to re-parseable MPL source."""
    lines: list = []
    if isinstance(node, Program):
        for stmt in node.body:
            _emit_stmt(stmt, 0, lines)
    else:
        _emit_stmt(node, 0, lines)
    return "\n".join(lines) + "\n"
