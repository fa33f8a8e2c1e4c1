"""Tests for latency-profile derivation and fleet-wide profile building."""

from __future__ import annotations

import pytest

import repro.runs.executor as executor_mod
from repro.gpu.simulator import simulate_network
from repro.obs import capture_trace
from repro.runs import ResultStore
from repro.platforms import GP102, TX1, make_config
from repro.serve.profiles import (
    LatencyProfile,
    ProfileError,
    build_profiles,
    profile_from_result,
    profiles_for_platform,
)


@pytest.fixture(scope="module")
def gru_result(light_options):
    return simulate_network("gru", GP102, light_options)


class TestProfileFromResult:
    def test_batch1_matches_simulated_total(self, gru_result):
        profile = profile_from_result(gru_result)
        assert profile.latency_ms(1) == pytest.approx(gru_result.total_time_ms)

    def test_latency_monotone_in_batch(self, gru_result):
        profile = profile_from_result(gru_result)
        latencies = [profile.latency_ms(b) for b in range(1, 33)]
        assert all(b >= a for a, b in zip(latencies, latencies[1:]))

    def test_batching_amortizes_overhead(self, gru_result):
        # Sublinear latency growth: a batch of 8 is cheaper than 8
        # batch-1 inferences (launch overhead amortizes).
        profile = profile_from_result(gru_result)
        assert profile.latency_ms(8) < 8 * profile.latency_ms(1)
        assert profile.throughput_rps(8) > profile.throughput_rps(1)

    def test_terms_collapse_repeated_signatures(self, gru_result):
        profile = profile_from_result(gru_result)
        assert sum(t.count for t in profile.terms) == len(gru_result.kernels)
        assert len(profile.terms) <= len(gru_result.kernels)

    def test_roundtrip_to_dict(self, gru_result):
        profile = profile_from_result(gru_result)
        clone = LatencyProfile.from_dict(profile.to_dict())
        for batch in (1, 3, 8):
            assert clone.latency_ms(batch) == profile.latency_ms(batch)

    def test_rejects_batch_zero(self, gru_result):
        with pytest.raises(ValueError):
            profile_from_result(gru_result).latency_ms(0)


class TestBuildProfiles:
    def test_build_uses_store(self, light_options, tmp_path):
        store = ResultStore(tmp_path)
        first = build_profiles(["gru"], [GP102], light_options, store)
        assert store.run_stores > 0
        warm = ResultStore(tmp_path)
        second = build_profiles(["gru"], [GP102], light_options, warm)
        assert warm.run_hits > 0 and warm.run_stores == 0
        key = ("gru", "GP102")
        assert second[key].latency_ms(4) == first[key].latency_ms(4)

    def test_refresh_keeps_decoded_programs_across_platforms(self, light_options, tmp_path):
        # One attempt loop covers the refreshed pairs, so TX1's run of
        # CifarNet takes GP102's nine decoded programs.
        store = ResultStore(tmp_path)
        build_profiles(["cifarnet"], [GP102, TX1], light_options, store)
        with capture_trace(warps=False) as tracer:
            build_profiles(["cifarnet"], [GP102, TX1], light_options, store, refresh=True)
        assert tracer.metrics.counter("runs.fresh").value == 2
        assert tracer.metrics.counter("gpu.program_reused").value == 9

    def test_extension_networks_are_first_class(self, light_options):
        # The satellite requirement: mobilenet profiles build exactly
        # like the paper's seven.
        profiles = build_profiles(["mobilenet"], [GP102], light_options)
        profile = profiles[("mobilenet", "GP102")]
        assert profile.network == "mobilenet"
        assert profile.latency_ms(1) > 0

    def test_platform_slice(self, light_options):
        profiles = build_profiles(["gru", "lstm"], [GP102], light_options)
        sliced = profiles_for_platform(profiles, "GP102")
        assert set(sliced) == {"gru", "lstm"}
        assert profiles_for_platform(profiles, "TX1") == {}

    def test_failed_run_raises_once_naming_the_run(
        self, light_options, hopeless_platform, monkeypatch
    ):
        real = executor_mod._simulate_spec
        simulated = []

        def counted(spec, *args):
            simulated.append(spec.describe())
            return real(spec, *args)

        monkeypatch.setattr(executor_mod, "_simulate_spec", counted)
        with pytest.raises(ProfileError) as raised:
            build_profiles(
                ["cifarnet"], [hopeless_platform, make_config("s2npu")],
                light_options,
            )
        assert str(raised.value) == (
            "cifarnet on Hopeless: MappingError: conv1: a 1-channel, 1-row, "
            "1-input-channel conv tile still exceeds 64 bytes on Hopeless"
        )
        assert simulated == ["cifarnet on Hopeless", "cifarnet on S2NPU"]
