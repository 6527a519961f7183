"""Analysis-as-a-service: the long-running daemon behind ``repro serve``.

Layering (each module testable without the ones above it):

* :mod:`repro.serve.cache` — content-addressed result cache keyed on
  CFG fingerprint + ladder + effective limits, with warm-start snapshots;
* :mod:`repro.serve.journal` — crash-safe append-only job journal
  (journal-first admission, replay-on-restart recovery);
* :mod:`repro.serve.retry` — retry policy (backoff + jitter) and
  per-rung circuit breaker (reported, never used to skip a rung);
* :mod:`repro.serve.daemon` — the scheduler: admission control, tenant
  QoS budgets, worker-process isolation, degraded-mode answers, drain;
* :mod:`repro.serve.http` — the stdlib HTTP surface;
* :mod:`repro.serve.loadgen` — the corpus-replay load generator.
"""

from repro.serve.cache import ResultCache, compute_key, render_report
from repro.serve.daemon import (
    AnalysisService,
    AnalyzeRequest,
    ServiceConfig,
    TenantBudget,
)
from repro.serve.http import discover, run_server
from repro.serve.journal import JobJournal
from repro.serve.retry import CircuitBreaker, RetryPolicy, TransientJobError

__all__ = [
    "AnalysisService",
    "AnalyzeRequest",
    "CircuitBreaker",
    "JobJournal",
    "ResultCache",
    "RetryPolicy",
    "ServiceConfig",
    "TenantBudget",
    "TransientJobError",
    "compute_key",
    "discover",
    "render_report",
    "run_server",
]
