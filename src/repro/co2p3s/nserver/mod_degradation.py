"""N-Server template: the ``degradation`` module (option O17).

Extends the template with a declared graceful-degradation option,
following the O13 resilience extension: when O17=Yes the template
generates a ``Degradation`` component holding the shedding policy (the
explicit replacement for O9's silent accept/postpone latch), the
per-client rate limiter, and the file-I/O circuit breaker with its
retry budget.  The component is a plain holder: it starts no thread.
When O17=No the module is not emitted and no degradation call site
appears anywhere in the generated framework — the ``audit:o17-purity``
check enforces this down to the vocabulary level.

Table 2 extension row:

===========  =====================================================
Degradation  exists iff O17; its body depends on no other option
===========  =====================================================
"""

from __future__ import annotations

from repro.co2p3s.codegen import ClassSpec, Fragment, ModuleSpec
from repro.co2p3s.nserver.options import enabled

__all__ = ["MODULE_DEGRADATION"]


MODULE_DEGRADATION = ModuleSpec(
    name="degradation",
    doc="Graceful-degradation plane generated by option O17: explicit "
        "load shedding with per-client rate limiting, cheap 503 + "
        "Retry-After rejection and a circuit-broken file-I/O plane.",
    imports=[
        Fragment("from repro import runtime as rt"),
    ],
    classes=[
        ClassSpec(
            name="Degradation",
            doc="Holds the degradation runtime for the generated server: "
                "shedding policy, rate limiter, breaker and retry budget, "
                "assembled from the configuration's tuning values.",
            exists=enabled("O17"),
            exists_options=("O17",),
            fragments=[
                Fragment(
                    '''
                    def __init__(self, reactor):
                        configuration = reactor.configuration
                        self.reject_payload = rt.rejection_response(
                            configuration.shed_retry_after)
                        self.shedding = rt.SheddingPolicy(
                            overload=reactor.overload,
                            limiter=rt.ClientRateLimiter(
                                rate=configuration.shed_rate,
                                burst=configuration.shed_burst,
                                max_clients=configuration.shed_max_clients),
                            retry_after=configuration.shed_retry_after,
                            reject_payload=self.reject_payload,
                            on_overload=configuration.shed_on_overload)
                        self.breaker = rt.CircuitBreaker(
                            name="file-io",
                            failure_threshold=configuration.breaker_failures,
                            recovery_time=configuration.breaker_recovery,
                            probe_quota=configuration.breaker_probes)
                        self.retry_budget = rt.RetryBudget(
                            ratio=configuration.retry_budget_ratio)
                    '''
                ),
                Fragment(
                    '''
                    def status(self):
                        """Snapshot of the whole plane (the application's
                        status surfaces render this)."""
                        return {"shed": self.shedding.status(),
                                "breaker": self.breaker.status()}
                    '''
                ),
            ],
        ),
    ],
)
