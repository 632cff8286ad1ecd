"""Tests for the host-speed normalization of host times."""

import pytest

import hostspeed


def test_host_clock_scales_segments_by_the_calibration_slices(monkeypatch):
    # Every slice takes twice the reference time: the host runs at half
    # the reference speed, so reference seconds are half the raw ones.
    monkeypatch.setattr(hostspeed, "slice_s",
                        lambda: 2 * hostspeed.REFERENCE_S)
    segments = []
    clock = hostspeed.HostClock(segments.append)
    sum(range(10_000))
    clock.split()
    clock.split()
    assert len(segments) == 2 and all(ns >= 0 for ns in segments)
    assert clock.raw_s == pytest.approx(sum(segments) * 1e-9)
    assert clock.reference_s == pytest.approx(clock.raw_s / 2)
