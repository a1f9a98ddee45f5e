"""Robustness toolkit: fault injection, race detection, ε-hardening.

The paper's static scheduler eliminates run-time synchronization by
*proving* orderings from ``[min,max]`` latency intervals.  This package
asks -- and answers -- the adversarial question: what happens when the
hardware violates those intervals?

:mod:`repro.faults.model`
    :class:`FaultPlan` (the bounded fault envelope), the
    :class:`FaultySampler` / :class:`FaultyController` injectors, and
    :func:`inflate_dag`.
:mod:`repro.faults.margin`
    Static robustness margins: per-edge slack and the schedule-level
    ``ε*`` bound (:func:`robustness_margin`).
:mod:`repro.faults.campaign`
    Seeded Monte-Carlo fault campaigns with per-edge blame reports
    (:func:`run_campaign`).
:mod:`repro.faults.harden`
    Constructive ε-hardening: re-prove the schedule against the
    inflated timing model, inserting barriers where slack ran out
    (:func:`harden_schedule`).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.faults.model": (
            "FaultPlan",
            "FaultySampler",
            "FaultyController",
            "inflate_dag",
        ),
        "repro.faults.margin": ("EdgeMargin", "MarginReport", "robustness_margin"),
        "repro.faults.campaign": (
            "EdgeBlame",
            "CampaignReport",
            "campaign_digest",
            "run_campaign",
        ),
        "repro.faults.harden": (
            "HardeningReport",
            "harden_schedule",
            "straggler_nodes",
        ),
    },
)
