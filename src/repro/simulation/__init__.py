"""Online-behaviour simulation: drifting clickstreams and the A/B test harness."""

from __future__ import annotations

from .ab_test import ABTestConfig, ABTestHarness, ABTestResult, BucketOutcome
from .clickstream import ClickstreamConfig, ClickstreamSimulator, simulate_clickstream

__all__ = [
    "ClickstreamConfig",
    "ClickstreamSimulator",
    "simulate_clickstream",
    "ABTestConfig",
    "ABTestHarness",
    "ABTestResult",
    "BucketOutcome",
]
