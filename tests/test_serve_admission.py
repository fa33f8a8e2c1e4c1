"""Tests for SLO-aware admission control (``repro.serve.admission``).

The headline property: the SLO feasibility gate is conservative in the
client's favour — on an **idle** device, any request whose batch-1
latency plus the batching timeout fits its SLO is admitted.  With
``max_batch == 1`` (no co-batching slack) that sharpens to: admission
never sheds a request an idle fleet would have served within SLO.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import (
    MultiTenantWorkload,
    PoissonWorkload,
    ServeConfig,
    ServeDevice,
    ServeSim,
    Tenant,
    make_admission,
)
from repro.serve.admission import (
    SHED_OVERFLOW,
    SHED_PRIORITY,
    SHED_SLO,
    NullAdmission,
    SloAwareAdmission,
)
from repro.serve.batching import Request
from repro.serve.devices import DeviceState
from repro.serve.profiles import KernelTerm, LatencyProfile


def make_profile(network, platform, base_ms, per_item_ms=0.0):
    terms = (
        (KernelTerm(per_item_ms * 1e6, 1, 1, 1),) if per_item_ms else ()
    )
    return LatencyProfile(network, platform, 1.0, base_ms * 1e6, terms)


def idle_state(tiny_gpu, base_ms, max_batch=1, timeout_ms=0.0):
    profile = make_profile("net", "Dev", base_ms, 0.1)
    device = ServeDevice("dev#0", replace(tiny_gpu, name="Dev"))
    return DeviceState(
        device, {"net": profile}, max_batch, timeout_ms, max_queue=64,
    )


class TestRegistry:
    def test_make_admission_by_name(self):
        assert isinstance(make_admission("none"), NullAdmission)
        assert isinstance(make_admission("slo-aware"), SloAwareAdmission)

    def test_unknown_policy_names_available(self):
        with pytest.raises(KeyError, match="slo-aware"):
            make_admission("optimistic")

    def test_bad_kwargs_rejected(self):
        with pytest.raises(ValueError, match="priority_fill"):
            SloAwareAdmission(priority_fill=())
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            SloAwareAdmission(priority_fill=(1.0, 0.0))
        with pytest.raises(ValueError, match="slo_slack"):
            SloAwareAdmission(slo_slack=-0.1)


class TestClassGate:
    def test_null_policy_admits_everything(self):
        policy = NullAdmission()
        request = Request(0, "net", 0.0)
        tenant = Tenant("t", slo_ms=1.0, priority=9)
        assert policy.assess(request, tenant, 10**9, 1, 0.0) is None

    def test_priority_fill_ordering(self):
        policy = SloAwareAdmission(priority_fill=(1.0, 0.75, 0.5))
        request = Request(0, "net", 0.0)
        capacity = 100

        def shed_at(priority, pending):
            tenant = Tenant("t", slo_ms=50.0, priority=priority)
            return policy.assess(request, tenant, pending, capacity, 0.0)

        # At 60% fill only the p>=2 classes shed.
        assert shed_at(0, 60) is None
        assert shed_at(1, 60) is None
        assert shed_at(2, 60) == SHED_PRIORITY
        # At 80% fill p1 joins them; p0 sheds only at hard overflow.
        assert shed_at(0, 80) is None
        assert shed_at(1, 80) == SHED_PRIORITY
        assert shed_at(0, 100) == SHED_PRIORITY

    def test_priorities_beyond_tuple_share_last_threshold(self):
        policy = SloAwareAdmission(priority_fill=(1.0, 0.5))
        request = Request(0, "net", 0.0)
        t9 = Tenant("t", slo_ms=50.0, priority=9)
        assert policy.assess(request, t9, 50, 100, 0.0) == SHED_PRIORITY
        assert policy.assess(request, t9, 49, 100, 0.0) is None

    def test_zero_capacity_is_overflow(self):
        policy = SloAwareAdmission()
        request = Request(0, "net", 0.0)
        tenant = Tenant("t", slo_ms=50.0)
        assert policy.assess(request, tenant, 0, 0, 0.0) == SHED_OVERFLOW


class TestSloGate:
    def test_sheds_doomed_request_on_busy_device(self, tiny_gpu):
        policy = SloAwareAdmission()
        state = idle_state(tiny_gpu, base_ms=5.0)
        state.busy = True
        state.busy_until = 100.0
        request = Request(0, "net", 0.0)
        tenant = Tenant("t", slo_ms=10.0)
        assert policy.place(request, tenant, state, 0.0) == SHED_SLO

    def test_admits_feasible_request_on_busy_device(self, tiny_gpu):
        policy = SloAwareAdmission()
        state = idle_state(tiny_gpu, base_ms=5.0)
        state.busy = True
        state.busy_until = 2.0
        request = Request(0, "net", 0.0)
        tenant = Tenant("t", slo_ms=50.0)
        assert policy.place(request, tenant, state, 0.0) is None

    @settings(max_examples=100, deadline=None)
    @given(
        base_ms=st.floats(0.01, 50.0),
        slo_ms=st.floats(0.01, 200.0),
        arrival_ms=st.floats(0.0, 1e6),
        slo_slack=st.floats(0.0, 4.0),
    )
    def test_never_sheds_feasible_request_on_idle_fleet(
        self, tiny_gpu, base_ms, slo_ms, arrival_ms, slo_slack
    ):
        """With max_batch=1 the feasibility estimate on an idle device
        is exactly latency(1); any request with latency(1) <= slo must
        be admitted, whatever the slack knob says."""
        policy = SloAwareAdmission(slo_slack=slo_slack)
        state = idle_state(tiny_gpu, base_ms, max_batch=1, timeout_ms=3.0)
        latency = state.profiles["net"].latency_ms(1)
        request = Request(0, "net", arrival_ms)
        tenant = Tenant("t", slo_ms=slo_ms)
        verdict = policy.place(request, tenant, state, arrival_ms)
        if latency <= slo_ms:
            assert verdict is None
        else:
            assert verdict == SHED_SLO


class TestEngineIntegration:
    def fleet_profiles(self, tiny_gpu):
        fleet = [
            ServeDevice(f"dev#{i}", replace(tiny_gpu, name="Dev"))
            for i in range(2)
        ]
        profiles = {("net", "Dev"): make_profile("net", "Dev", 2.0, 0.4)}
        return fleet, profiles

    def run(self, tiny_gpu, admission):
        fleet, profiles = self.fleet_profiles(tiny_gpu)
        config = ServeConfig(
            slo_ms=6.0, max_batch=2, max_queue=8,
            scheduler="least-loaded", seed=11, admission=admission,
        )
        workload = MultiTenantWorkload([
            (Tenant("gold", slo_ms=25.0, priority=0),
             PoissonWorkload(500.0, 300, ["net"])),
            (Tenant("bronze", slo_ms=6.0, priority=2),
             PoissonWorkload(500.0, 300, ["net"])),
        ])
        return ServeSim(fleet, profiles, workload, config).run()

    def test_shed_reasons_populated_and_consistent(self, tiny_gpu):
        stats = self.run(tiny_gpu, "slo-aware")
        assert stats.shed > 0
        assert sum(stats.shed_reasons.values()) == stats.shed
        assert set(stats.shed_reasons) <= {
            SHED_OVERFLOW, SHED_PRIORITY, SHED_SLO
        }
        # The low-priority tight-SLO tenant bears the brunt.
        per_tenant = stats.per_tenant
        assert per_tenant["bronze"].shed > per_tenant["gold"].shed

    def test_admission_beats_null_policy_on_attainment(self, tiny_gpu):
        """Shedding doomed work early must not *hurt* the completed
        requests' SLO attainment relative to admitting everything."""
        gated = self.run(tiny_gpu, "slo-aware")
        ungated = self.run(tiny_gpu, "none")
        assert gated.slo_attainment >= ungated.slo_attainment

    def test_shed_excluded_from_latency_but_in_goodput(self, tiny_gpu):
        stats = self.run(tiny_gpu, "slo-aware")
        for tenant in stats.per_tenant.values():
            assert tenant.offered == tenant.completed + tenant.shed
            # Goodput is over *offered* (sheds count against it);
            # attainment is over completed only.
            good = round(tenant.slo_attainment * tenant.completed)
            assert tenant.goodput_ratio == pytest.approx(
                good / tenant.offered, abs=1e-9
            )
            if tenant.completed:
                # Percentiles come from completed requests only, so
                # they stay finite and below the max completed latency.
                assert 0.0 <= tenant.latency_p50_ms <= tenant.latency_max_ms
