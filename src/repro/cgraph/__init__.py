"""Constraint-graph (difference-bound) program state abstraction.

This is the Section VII-A state analysis: application state is a conjunction
of inequalities of the form ``j <= i + c`` over program variables, stored as
a weighted graph (equivalently, a difference-bound matrix).  Key operations —
transitive closure, meet, join, widening, affine assignment — follow CLR
chapter 24.4/25.5 and Shaham et al., as the paper prescribes.

Process-set namespaces: each process set owns a private copy of every
variable (including ``id``); helpers in :mod:`repro.cgraph.namespaces`
qualify, copy, rename and drop whole namespaces as sets split and merge.

Instrumentation: every transitive closure and copy-on-write event reports
to :mod:`repro.obs` (``cgraph.closure.*``, ``cgraph.cow.*``);
:func:`repro.obs.profile.build_profile` folds those into the Section IX
performance profile (closure counts, average variable counts, closure time
share).
"""

from repro.cgraph.constraint_graph import ConstraintGraph, INF
from repro.cgraph.namespaces import (
    GLOBALS,
    drop_namespace,
    namespace_of,
    qualify,
    rename_namespace,
    unqualify,
)

__all__ = [
    "ConstraintGraph",
    "INF",
    "qualify",
    "unqualify",
    "namespace_of",
    "rename_namespace",
    "drop_namespace",
    "GLOBALS",
]
