import signal
import time

import pytest

from speed import PROBE_REFERENCE_S, SpeedProbe


def probe_at(times, seconds):
    probe = SpeedProbe()
    probe.at, probe.seconds = list(times), list(seconds)
    return probe


def test_scale_uses_the_probes_inside_the_span():
    probe = probe_at([1, 2, 3, 4], [0.01, 0.02, 0.01, 0.04])
    assert probe.scale(1.5, 3.5) == pytest.approx(PROBE_REFERENCE_S / 0.015)


def test_scale_widens_to_the_nearest_probes():
    probe = probe_at([1, 2, 3, 4], [0.01, 0.02, 0.01, 0.04])
    assert probe.scale(2.1, 2.2) == pytest.approx(PROBE_REFERENCE_S / 0.015)
    assert probe.scale(0.0, 0.5) == pytest.approx(PROBE_REFERENCE_S / 0.015)
    assert probe.scale(9.0, 9.5) == pytest.approx(PROBE_REFERENCE_S / 0.025)


def test_rescale_multiplies_each_span_by_its_scale():
    probe = probe_at([1, 2], [PROBE_REFERENCE_S / 2] * 2)
    assert probe.rescale([(0.5, 2.5, 3.0), (3, 4, 1.0)]) \
        == pytest.approx([6.0, 2.0])


def test_running_probes_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    with probe.running():
        end = time.perf_counter() + 1.2
        while time.perf_counter() < end:
            pass
    assert len(probe.seconds) >= 2
    assert probe.spent == pytest.approx(sum(probe.seconds))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
