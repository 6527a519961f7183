"""Concrete interpreter for MPL programs.

All ``np`` processes execute the same CFG.  Sends are buffered
(non-blocking), receives block until the designated sender's next message is
available — exactly the Section III model.  The machine runs under a
pluggable :class:`~repro.runtime.scheduler.Scheduler` and records a
:class:`~repro.runtime.trace.Trace` of matches, prints and leaked messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.lang.ast import (
    Assert,
    Assign,
    BinOp,
    Compare,
    Expr,
    InputExpr,
    Num,
    Print,
    Program,
    Recv,
    Send,
    UnaryOp,
    Var,
)
from repro.lang.cfg import CFG, NodeKind, build_cfg
from repro.runtime.channels import ChannelNetwork
from repro.runtime.scheduler import RoundRobinScheduler, Scheduler
from repro.runtime.trace import MatchEvent, Trace


class DeadlockError(RuntimeError):
    """Raised when no process can make progress but some are not finished."""


class MPLAssertionError(AssertionError):
    """An ``assert`` statement evaluated to false at runtime."""


class StepLimitError(RuntimeError):
    """The machine exceeded its step budget (probable livelock)."""


class InputExhaustedError(RuntimeError):
    """An ``input()`` call found no input left."""


@dataclass
class _ProcessState:
    rank: int
    pc: int
    env: Dict[str, int] = field(default_factory=dict)
    inputs: List[int] = field(default_factory=list)
    done: bool = False


class _Evaluator:
    """Expression evaluation for one process."""

    def __init__(self, state: _ProcessState, num_procs: int):
        self._state = state
        self._num_procs = num_procs

    def eval(self, expr: Expr) -> int:
        if isinstance(expr, Num):
            return expr.value
        if isinstance(expr, Var):
            if expr.name == "id":
                return self._state.rank
            if expr.name == "np":
                return self._num_procs
            if expr.name not in self._state.env:
                raise NameError(
                    f"process {self._state.rank}: variable {expr.name!r} "
                    "read before assignment"
                )
            return self._state.env[expr.name]
        if isinstance(expr, InputExpr):
            if not self._state.inputs:
                raise InputExhaustedError(
                    f"process {self._state.rank}: input() exhausted"
                )
            return self._state.inputs.pop(0)
        if isinstance(expr, UnaryOp):
            value = self.eval(expr.operand)
            if expr.op == "-":
                return -value
            if expr.op == "not":
                return 0 if value else 1
            raise ValueError(f"unknown unary op {expr.op!r}")
        if isinstance(expr, Compare):
            left = self.eval(expr.left)
            right = self.eval(expr.right)
            result = {
                "==": left == right,
                "!=": left != right,
                "<": left < right,
                "<=": left <= right,
                ">": left > right,
                ">=": left >= right,
            }[expr.op]
            return 1 if result else 0
        if isinstance(expr, BinOp):
            if expr.op == "and":
                return self.eval(expr.right) if self.eval(expr.left) else 0
            if expr.op == "or":
                left = self.eval(expr.left)
                return left if left else self.eval(expr.right)
            left = self.eval(expr.left)
            right = self.eval(expr.right)
            if expr.op == "+":
                return left + right
            if expr.op == "-":
                return left - right
            if expr.op == "*":
                return left * right
            if expr.op == "/":
                if right == 0:
                    raise ZeroDivisionError(
                        f"process {self._state.rank}: division by zero"
                    )
                return left // right
            if expr.op == "%":
                if right == 0:
                    raise ZeroDivisionError(
                        f"process {self._state.rank}: modulo by zero"
                    )
                return left % right
            raise ValueError(f"unknown binary op {expr.op!r}")
        raise TypeError(f"cannot evaluate {type(expr).__name__}")


class Machine:
    """An ``np``-process MPL machine.

    Parameters
    ----------
    program:
        The MPL program (every process runs the same code).
    num_procs:
        The concrete value of ``np``.
    inputs:
        Values returned by successive ``input()`` calls.  Every process gets
        its own copy of this list (the usual way runtime parameters such as
        grid extents reach all processes).
    scheduler:
        Interleaving policy; defaults to round-robin.
    max_steps:
        Global step budget guarding against livelock.
    """

    def __init__(
        self,
        program: Program,
        num_procs: int,
        inputs: Optional[Sequence[int]] = None,
        scheduler: Optional[Scheduler] = None,
        max_steps: int = 1_000_000,
        cfg: Optional[CFG] = None,
    ):
        self.program = program
        self.cfg = cfg if cfg is not None else build_cfg(program)
        self.num_procs = num_procs
        self.network = ChannelNetwork(num_procs)
        self.scheduler = scheduler or RoundRobinScheduler()
        self.scheduler.reset()
        self.max_steps = max_steps
        self.trace = Trace(num_procs)
        self._procs = [
            _ProcessState(rank, self.cfg.entry, {}, list(inputs or []))
            for rank in range(num_procs)
        ]

    # -- runnability ---------------------------------------------------------

    def _is_runnable(self, state: _ProcessState) -> bool:
        if state.done:
            return False
        node = self.cfg.node(state.pc)
        if node.kind == NodeKind.RECV:
            assert isinstance(node.stmt, Recv)
            src = _Evaluator(state, self.num_procs).eval(node.stmt.src)
            if not 0 <= src < self.num_procs:
                raise ValueError(
                    f"process {state.rank}: receive from invalid rank {src}"
                )
            return self.network.poll(src, state.rank) is not None
        return True

    def runnable_ranks(self) -> List[int]:
        """Ranks that can take a step right now."""
        return [state.rank for state in self._procs if self._is_runnable(state)]

    def all_done(self) -> bool:
        """True iff every process reached the CFG exit."""
        return all(state.done for state in self._procs)

    # -- stepping -------------------------------------------------------------

    def step(self, rank: int) -> None:
        """Execute one CFG node on the given process."""
        state = self._procs[rank]
        node = self.cfg.node(state.pc)
        evaluator = _Evaluator(state, self.num_procs)
        self.trace.steps[rank] = self.trace.steps.get(rank, 0) + 1

        if node.kind == NodeKind.EXIT:
            state.done = True
            return
        if node.kind in (NodeKind.ENTRY, NodeKind.SKIP):
            self._advance(state)
            return
        if node.kind == NodeKind.ASSIGN:
            assert isinstance(node.stmt, Assign)
            state.env[node.stmt.target] = evaluator.eval(node.stmt.value)
            self._advance(state)
            return
        if node.kind == NodeKind.PRINT:
            assert isinstance(node.stmt, Print)
            self.trace.record_print(rank, evaluator.eval(node.stmt.value))
            self._advance(state)
            return
        if node.kind == NodeKind.ASSERT:
            assert isinstance(node.stmt, Assert)
            if not evaluator.eval(node.stmt.cond):
                raise MPLAssertionError(
                    f"process {rank}: assertion failed: {node.stmt.cond}"
                )
            self._advance(state)
            return
        if node.kind == NodeKind.BRANCH:
            taken = bool(evaluator.eval(node.cond))
            self._advance(state, label=taken)
            return
        if node.kind == NodeKind.SEND:
            assert isinstance(node.stmt, Send)
            dest = evaluator.eval(node.stmt.dest)
            if not 0 <= dest < self.num_procs:
                raise ValueError(f"process {rank}: send to invalid rank {dest}")
            value = evaluator.eval(node.stmt.value)
            self.network.send(rank, dest, value, node.node_id, node.stmt.mtype)
            self._advance(state)
            return
        if node.kind == NodeKind.RECV:
            assert isinstance(node.stmt, Recv)
            src = evaluator.eval(node.stmt.src)
            message = self.network.receive(src, rank)
            if message is None:
                raise RuntimeError(
                    f"process {rank}: stepped a non-runnable receive"
                )
            state.env[node.stmt.target] = message.value
            self.trace.record_match(
                MatchEvent(
                    src=message.src,
                    dst=rank,
                    value=message.value,
                    send_node=message.send_node,
                    recv_node=node.node_id,
                    mtype_sent=message.mtype,
                    mtype_received=node.stmt.mtype,
                )
            )
            self._advance(state)
            return
        raise TypeError(f"unhandled node kind {node.kind}")

    def _advance(self, state: _ProcessState, label: Optional[bool] = None) -> None:
        successors = self.cfg.successors(state.pc)
        if label is None:
            targets = [dst for dst, lbl in successors if lbl is None]
        else:
            targets = [dst for dst, lbl in successors if lbl is label]
        if len(targets) != 1:
            raise RuntimeError(
                f"node {state.pc} has {len(targets)} successors for label {label}"
            )
        state.pc = targets[0]
        if self.cfg.node(state.pc).kind == NodeKind.EXIT:
            state.done = True

    # -- driving ---------------------------------------------------------------

    def run(self) -> Trace:
        """Run to completion (or raise on deadlock / step-limit)."""
        steps = 0
        while not self.all_done():
            runnable = self.runnable_ranks()
            if not runnable:
                blocked = [
                    (state.rank, self.cfg.node(state.pc).describe())
                    for state in self._procs
                    if not state.done
                ]
                raise DeadlockError(f"deadlock; blocked processes: {blocked}")
            rank = self.scheduler.choose(runnable)
            self.step(rank)
            steps += 1
            if steps > self.max_steps:
                raise StepLimitError(f"exceeded {self.max_steps} steps")
        self.trace.leaked = [
            (msg.src, msg.dst, msg.value) for msg in self.network.undelivered()
        ]
        return self.trace


def run_program(
    program: Program,
    num_procs: int,
    inputs: Optional[Sequence[int]] = None,
    scheduler: Optional[Scheduler] = None,
    cfg: Optional[CFG] = None,
) -> Trace:
    """Parse-and-go helper: execute and return the trace."""
    machine = Machine(program, num_procs, inputs=inputs, scheduler=scheduler, cfg=cfg)
    return machine.run()


@dataclass
class Observation:
    """The oracle-facing view of one execution: trace plus terminal status.

    Unlike :func:`run_program`, a failed execution is a *result*, not an
    exception: the matches a deadlocked or limit-tripped run established
    before stalling are real concrete behavior, and the differential sweep
    (:mod:`repro.corpus.sweep`) must still hold the static analysis to
    covering them.
    """

    trace: Trace
    #: ``ok`` | ``deadlock`` | ``step_limit`` | ``assertion``
    status: str
    detail: str = ""

    @property
    def completed(self) -> bool:
        return self.status == "ok"


def observe_program(
    program: Program,
    num_procs: int,
    inputs: Optional[Sequence[int]] = None,
    scheduler: Optional[Scheduler] = None,
    cfg: Optional[CFG] = None,
    max_steps: int = 1_000_000,
) -> Observation:
    """Execute and capture the trace even when the run does not complete."""
    machine = Machine(
        program, num_procs, inputs=inputs, scheduler=scheduler,
        max_steps=max_steps, cfg=cfg,
    )
    status, detail = "ok", ""
    try:
        machine.run()
    except DeadlockError as exc:
        status, detail = "deadlock", str(exc)
    except StepLimitError as exc:
        status, detail = "step_limit", str(exc)
    except MPLAssertionError as exc:
        status, detail = "assertion", str(exc)
    # run() only records leaks on clean completion; the partial trace needs
    # them too (undelivered messages are observable sends)
    machine.trace.leaked = [
        (msg.src, msg.dst, msg.value) for msg in machine.network.undelivered()
    ]
    return Observation(trace=machine.trace, status=status, detail=detail)
