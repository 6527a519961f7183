"""The correctness gate: every answer is checked against the runtime
oracle outside the timed window.

An answer fails when it is unsound (the interpreter observes a match the
answer does not claim), when it carries ``BUDGET_DEADLINE`` (the answer
then depends on timing), or when the attempt raised, was refused or
timed out.  A program whose answers differ between attempts of one run
is *drift*: the run is then not correct, whatever the shares say.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, List, Optional, Sequence

from common import Answer, Item


class Tally:
    """Per-attempt outcomes of one run, keyed by program name."""

    def __init__(self) -> None:
        self.answers: Dict[str, Answer] = {}
        self.attempts: Counter = Counter()
        self.errors: Dict[str, List[str]] = defaultdict(list)
        self.drift: Dict[str, List[str]] = {}

    def add(self, name: str, answer: Optional[Answer], error: str = "") -> None:
        self.attempts[name] += 1
        if answer is None:
            self.errors[name].append(error or "no answer")
            return
        first = self.answers.setdefault(name, answer)
        if first != answer:
            self.drift.setdefault(name, [first.digest()]).append(answer.digest())

    @property
    def attempted(self) -> int:
        return sum(self.attempts.values())

    def check(self, items: Sequence[Item]) -> dict:
        """Run the oracle on each answered program; summarize the run."""
        from repro.corpus.sweep import ORACLE_MAX_STEPS
        from repro.runtime.interpreter import observe_program

        unsound: Dict[str, str] = {}
        confirmed = claimed = exact = 0
        for item in items:
            answer = self.answers.get(item.name)
            if answer is None:
                continue
            if "BUDGET_DEADLINE" in answer.codes:
                unsound[item.name] = "answer carries BUDGET_DEADLINE"
            try:
                program = item.parse()
                dynamic = set()
                for num_procs in item.np_values:
                    inputs = (item.inputs or {}).get(num_procs)
                    observation = observe_program(
                        program, num_procs, inputs=inputs, max_steps=ORACLE_MAX_STEPS
                    )
                    dynamic |= set(observation.trace.topology().node_edges)
            except Exception as exc:  # an oracle crash fails the program, not the run
                unsound[item.name] = f"oracle raised {type(exc).__name__}: {exc}"
                continue
            missing = dynamic - answer.matches
            if missing:
                unsound[item.name] = f"unsound: observed {sorted(missing)} not claimed"
            # answers of one program are identical (else drift), so each
            # attempt carries the same edges: weight by attempts
            weight = self.attempts[item.name] - len(self.errors.get(item.name, ()))
            confirmed += weight * len(answer.matches & dynamic)
            claimed += weight * len(answer.matches)
            if answer.confidence == "exact":
                exact += weight
        failures = {name: f"{len(errs)} attempt(s): {errs[0]}"
                    for name, errs in self.errors.items()}
        failed = sum(len(errs) for errs in self.errors.values())
        for name, reason in unsound.items():
            failures[name] = reason
            failed += self.attempts[name] - len(self.errors.get(name, ()))
        attempted = self.attempted
        return {
            "attempted": attempted,
            "failed": failed,
            "failures": failures,
            "drift": self.drift,
            "correct": not failures and not self.drift,
            "exact_share": exact / attempted,
            "confirmed_edge_share": confirmed / claimed if claimed else 1.0,
            "ok_share": (attempted - failed) / attempted,
            "digests": {name: a.digest() for name, a in sorted(self.answers.items())},
        }
