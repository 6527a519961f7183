"""Kept only for the frozen benchmark harness, which imports it.

Closure and copy-on-write events are counted by :mod:`repro.obs` alone
(``cgraph.closure.*`` and ``cgraph.cow.*``); the Section IX profile is
built from a recorder by :func:`repro.obs.profile.build_profile`.
"""


def reset_global_stats() -> None:
    """No-op: there are no process-wide closure statistics any more."""
