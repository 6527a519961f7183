"""Analysis-as-a-service: the long-running daemon behind ``repro serve``.

Layering (each module testable without the ones above it):

* :mod:`repro.serve.cache` — content-addressed result cache keyed on
  CFG fingerprint + ladder + effective limits;
* :mod:`repro.serve.journal` — crash-safe append-only job journal
  (journal-first admission, replay-on-restart recovery);
* :mod:`repro.serve.retry` — the attempt retry policy (backoff + jitter);
* :mod:`repro.serve.daemon` — the scheduler: admission control, tenant
  QoS budgets, one job kind (one program) run through one attempt body,
  worker-process isolation, degraded-mode answers, drain;
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
from repro.serve.retry import RetryPolicy, TransientJobError

__all__ = [
    "AnalysisService",
    "AnalyzeRequest",
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
