"""Admission control: sliding window, token buckets, adaptive shedding."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs import Observability
from repro.sched.admission import (
    REASON_OK,
    REASON_QUOTA,
    REASON_SHED,
    REASON_TENANT_QUOTA,
    AdaptiveShedder,
    AdmissionControllerV2,
    SlidingWindowAdmission,
    TokenBucket,
)
from repro.sched.queue import PriorityClass


# ----------------------------------------------------------------------
# Sliding window (and the proxy compat shim)
# ----------------------------------------------------------------------


def test_sliding_window_enforces_global_qps():
    admission = SlidingWindowAdmission(max_qps=3.0, window=1.0)
    assert all(admission.admit(0.0) for __ in range(3))
    assert not admission.admit(0.5)
    # Window slides: the t=0 arrivals age out.
    assert admission.admit(1.0)


def test_sliding_window_table_quota_is_independent():
    admission = SlidingWindowAdmission(max_qps=100.0)
    admission.set_table_quota("hot", 2.0)
    assert admission.admit(0.0, "hot")
    assert admission.admit(0.0, "hot")
    assert not admission.admit(0.0, "hot")
    assert admission.admit(0.0, "cold")  # other tables unaffected
    with pytest.raises(ValueError):
        admission.set_table_quota("hot", 0.0)


def test_fast_path_regression_arrivals_recorded_without_limit():
    """Tightening max_qps mid-run must see the true recent rate.

    The old fast path skipped recording while ``max_qps`` was infinite,
    so an operator clamping the limit during an incident started from an
    empty window and over-admitted a full window's worth of traffic.
    """
    admission = SlidingWindowAdmission()  # max_qps=inf
    for i in range(10):
        assert admission.admit(i * 0.05)  # 10 arrivals inside one window
    admission.max_qps = 5.0
    # The window already holds 10 recent arrivals — well over the new
    # limit — so the very next arrival is rejected.
    assert not admission.admit(0.5)


def test_proxy_admission_shares_the_fix(tiny_deployment):
    controller = tiny_deployment.proxy.admission
    assert type(controller) is SlidingWindowAdmission
    for i in range(10):
        assert controller.admit(i * 0.05)
    controller.max_qps = 5.0
    assert not controller.admit(0.5)


# ----------------------------------------------------------------------
# Token buckets
# ----------------------------------------------------------------------


def test_token_bucket_starts_full_then_rate_limits():
    bucket = TokenBucket(rate=2.0, burst=4.0)
    assert all(bucket.take(0.0) for __ in range(4))
    assert not bucket.take(0.0)
    # 1 virtual second at 2 tokens/s refills two.
    assert bucket.take(1.0)
    assert bucket.take(1.0)
    assert not bucket.take(1.0)


def test_token_bucket_peek_does_not_consume():
    bucket = TokenBucket(rate=1.0, burst=1.0)
    assert bucket.peek(0.0)
    assert bucket.peek(0.0)
    assert bucket.take(0.0)
    assert not bucket.peek(0.0)


def test_token_bucket_refill_caps_at_burst():
    bucket = TokenBucket(rate=10.0, burst=2.0)
    assert bucket.take(0.0)
    bucket.peek(100.0)  # long idle: refill must clamp to burst
    assert bucket.tokens == pytest.approx(2.0)


def test_token_bucket_validation():
    with pytest.raises(ConfigurationError):
        TokenBucket(rate=0.0)
    with pytest.raises(ConfigurationError):
        TokenBucket(rate=1.0, burst=0.0)


# ----------------------------------------------------------------------
# Adaptive shedding
# ----------------------------------------------------------------------


def make_shedder(**kwargs):
    obs = Observability()
    kwargs.setdefault("min_samples", 4)
    shedder = AdaptiveShedder(obs.metrics, **kwargs)
    return obs, shedder


def test_shedder_needs_min_samples_before_reacting():
    __, shedder = make_shedder(min_samples=10)
    assert shedder.update(0.0) == 0.0  # baseline snapshot
    shedder._miss.inc(5)  # 0% success, but below min_samples
    assert shedder.observed_success_ratio(0.1) is None
    assert shedder.update(0.2) == 0.0


def test_shedder_escalates_on_sla_breach_and_recovers():
    __, shedder = make_shedder(
        window=1.0, step_up=0.25, recovery_per_second=0.1
    )
    assert shedder.update(0.0) == 0.0  # baseline snapshot, no outcomes yet
    shedder._miss.inc(10)
    assert shedder.update(0.1) == pytest.approx(0.25)
    assert shedder.update(0.2) == pytest.approx(0.5)
    # The bad outcomes age out of the 1s window; with a healthy window
    # the level decays linearly in virtual time (and never below zero).
    assert shedder.update(1.5) == pytest.approx(0.5 - 1.3 * 0.1)
    assert shedder.update(20.0) == 0.0
    assert shedder.max_level == pytest.approx(0.5)  # high-water mark kept


def test_shedder_sheds_lowest_priority_first():
    __, shedder = make_shedder()
    shedder.level = 0.3
    shedder._last_update = 0.0
    assert shedder.should_shed(0.0, PriorityClass.BACKGROUND)
    assert not shedder.should_shed(0.0, PriorityClass.BATCH)
    shedder.level = 0.6
    assert shedder.should_shed(0.0, PriorityClass.BATCH)
    # INTERACTIVE is the class the SLA defends: never shed, even at 1.0.
    shedder.level = 1.0
    assert not shedder.should_shed(0.0, PriorityClass.INTERACTIVE)


def test_shedder_reacts_to_queue_pressure_without_sla_data():
    __, shedder = make_shedder(pressure_fn=lambda: 0.9, pressure_trigger=0.8)
    assert shedder.update(0.0) == pytest.approx(0.25)


def test_shedder_validation():
    obs = Observability()
    with pytest.raises(ConfigurationError):
        AdaptiveShedder(obs.metrics, sla_target=0.0)
    with pytest.raises(ConfigurationError):
        AdaptiveShedder(obs.metrics, window=0.0)


# ----------------------------------------------------------------------
# AdmissionControllerV2
# ----------------------------------------------------------------------


def test_v2_global_bucket_rejects_with_quota_reason():
    controller = AdmissionControllerV2(global_rate=1.0, global_burst=2.0)
    assert controller.decide(0.0).reason == REASON_OK
    assert controller.decide(0.0).reason == REASON_OK
    decision = controller.decide(0.0)
    assert not decision.admitted
    assert decision.reason == REASON_QUOTA


def test_v2_tenant_buckets_isolate_tenants():
    controller = AdmissionControllerV2(default_tenant_rate=1.0)
    assert controller.decide(0.0, tenant="a").admitted
    rejected = controller.decide(0.0, tenant="a")
    assert rejected.reason == REASON_TENANT_QUOTA
    # Tenant b has its own untouched bucket.
    assert controller.decide(0.0, tenant="b").admitted


def test_v2_rejection_never_burns_global_tokens():
    controller = AdmissionControllerV2(
        global_rate=10.0, global_burst=5.0, default_tenant_rate=1.0
    )
    assert controller.decide(0.0, tenant="a").admitted  # burns both tokens
    # Tenant a is now out of quota; the *tenant* rejection must not
    # consume a global token.
    before = controller.global_bucket.tokens
    assert controller.decide(0.0, tenant="a").reason == REASON_TENANT_QUOTA
    assert controller.global_bucket.tokens == pytest.approx(before)


def test_v2_shed_check_runs_first():
    obs = Observability()
    shedder = AdaptiveShedder(obs.metrics, min_samples=1)
    shedder.level = 1.0
    shedder._last_update = 0.0
    controller = AdmissionControllerV2(global_rate=100.0, shedder=shedder)
    decision = controller.decide(0.0, priority=PriorityClass.BACKGROUND)
    assert decision.reason == REASON_SHED
    # INTERACTIVE passes the shedder and the bucket.
    assert controller.decide(0.0, priority=PriorityClass.INTERACTIVE).admitted


def test_v2_explicit_tenant_rate_overrides_default():
    controller = AdmissionControllerV2(
        tenant_rates={"vip": 100.0}, default_tenant_rate=1.0
    )
    for __ in range(10):
        assert controller.decide(0.0, tenant="vip").admitted
    controller.set_tenant_rate("vip", 1.0)
    assert controller.decide(0.0, tenant="vip").admitted
    assert not controller.decide(0.0, tenant="vip").admitted


def test_v2_no_config_admits_everything():
    controller = AdmissionControllerV2()
    for i in range(100):
        assert controller.decide(float(i)).admitted
