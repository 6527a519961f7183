"""Process-set variable namespaces.

The Section VII-A state analysis annotates every variable with the id of the
process set it lives on, so invariants *between* process sets (e.g. "the
value received by set B equals variable x on set A") are ordinary
constraints in one shared graph.  ``np`` is the one global: the process
count is identical on every process, so it lives unqualified.
"""

from __future__ import annotations

from typing import Iterable, Set

#: variables shared by all process sets (same value everywhere)
GLOBALS: Set[str] = {"np"}

_SEPARATOR = "::"


def namespace_prefix(set_id: object) -> str:
    """The prefix of every qualified name on process set ``set_id``."""
    return f"ps{set_id}{_SEPARATOR}"


def qualify(set_id: object, var: str) -> str:
    """Qualified name of ``var`` on process set ``set_id``.

    Globals pass through unqualified.
    """
    if var in GLOBALS:
        return var
    return namespace_prefix(set_id) + var


def unqualify(name: str) -> str:
    """Strip the namespace prefix from a qualified name."""
    if _SEPARATOR in name:
        return name.split(_SEPARATOR, 1)[1]
    return name


def namespace_of(name: str) -> str:
    """The ``psN`` namespace tag of a qualified name ('' for globals)."""
    if _SEPARATOR in name:
        return name.split(_SEPARATOR, 1)[0]
    return ""


def is_in_namespace(name: str, set_id: object) -> bool:
    """True iff the qualified name belongs to process set ``set_id``."""
    return namespace_of(name) == f"ps{set_id}"


def namespace_vars(names: Iterable[str], set_id: object) -> Set[str]:
    """All names among ``names`` belonging to ``set_id``."""
    return {name for name in names if is_in_namespace(name, set_id)}


def rename_namespace(name: str, old_id: object, new_id: object) -> str:
    """Move a qualified name from one process-set namespace to another."""
    if is_in_namespace(name, old_id):
        return qualify(new_id, unqualify(name))
    return name


def drop_namespace(names: Iterable[str], set_id: object) -> Set[str]:
    """Names that remain after deleting a whole namespace."""
    return {name for name in names if not is_in_namespace(name, set_id)}
