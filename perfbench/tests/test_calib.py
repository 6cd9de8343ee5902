"""Tests of the host-speed calibration.

    python3 -m pytest perfbench/tests -q
"""

import signal

import pytest

import calib


def test_gaps_are_scaled_by_the_speed_around_them():
    # kernel runs 0-1, 3-4 and 10-12: program gaps of 2 s (kernel 1 s on
    # both sides) and 6 s (kernel 1 s before, 2 s after); with so few runs
    # the running median over SMOOTH of them reads 1 s throughout
    assert calib.SMOOTH == 5
    raw, cal = calib.integrate([(0.0, 1.0), (3.0, 4.0), (10.0, 12.0)])
    assert raw == 8.0 and cal == pytest.approx(8 * calib.REF_S)
    # a host that slows from 1 s to 2 s kernel runs for good
    runs = [(10.0 * i, 10.0 * i + (1.0 if i < 5 else 2.0)) for i in range(10)]
    raw, cal = calib.integrate(runs)
    gaps = [runs[i + 1][0] - runs[i][1] for i in range(9)]
    assert raw == pytest.approx(sum(gaps)) == 5 * 9.0 + 4 * 8.0
    speed = [1.0] * 5 + [2.0] * 5
    assert cal == pytest.approx(sum(g * calib.REF_S / (0.5 * (speed[i] + speed[i + 1]))
                                    for i, g in enumerate(gaps)))


def test_one_slow_kernel_run_is_not_a_slow_host():
    runs = [(10.0 * i, 10.0 * i + (5.0 if i == 2 else 1.0)) for i in range(5)]
    raw, cal = calib.integrate(runs)
    assert cal == pytest.approx(raw * calib.REF_S)


def test_uncontended_host_reads_raw_time():
    ref = calib.REF_S
    raw, cal = calib.integrate([(0.0, ref), (1.0, 1.0 + ref), (3.0, 3.0 + ref)])
    assert cal == pytest.approx(raw)
    assert calib.calibrated(0.5, 2 * ref, 2 * ref) == pytest.approx(0.25)


def test_sampler_leaves_its_own_time_out_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    sampler = calib.Sampler()
    with sampler.running():
        pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) == 2
    (a0, a1), (b0, b1) = sampler.samples
    assert sampler.busy_s == pytest.approx((a1 - a0) + (b1 - b0))
    raw, _ = sampler.times()
    assert raw == pytest.approx(b0 - a1)


def test_signal_inside_a_sample_is_dropped():
    sampler = calib.Sampler()
    sampler._inside = True
    sampler.sample(signal.SIGALRM, None)
    assert sampler.samples == [] and sampler.busy_s == 0.0
