"""Workload curves, arrival generation, email structure sampling."""

import numpy as np
import pytest

from archscale import Diurnal, Steps, Trace, WorkloadSpec, generate_arrivals, rate_curve
from archscale.model import EmailProfile
from archscale.workload import WorkloadError, sample_email_batch


def test_steps_exact_one_second_is_exact():
    spec = WorkloadSpec(Steps(((0, 30.0),)))
    counts = generate_arrivals(spec, seed=1, duration_ticks=30, ticks_per_second=30, exact=True)
    assert counts.sum() == 30
    assert counts.max() == 1


def test_steps_exact_longer_run_matches_integral():
    spec = WorkloadSpec(Steps(((0, 50.0),)))
    counts = generate_arrivals(spec, seed=1, duration_ticks=600 * 30, ticks_per_second=30, exact=True)
    assert counts.sum() == 50 * 600


def test_steps_piecewise_changes():
    spec = WorkloadSpec(Steps(((0, 10.0), (60, 40.0))))
    rates = rate_curve(spec, 120, 30)
    assert rates[0] == 10.0
    assert rates[59] == 10.0
    assert rates[60] == 40.0


def test_diurnal_peak_value():
    spec = WorkloadSpec(Diurnal(base=60, peak=380, period_s=7200))
    rates = rate_curve(spec, 7200 * 30, 30)
    assert float(rates.max()) == pytest.approx(380.0, abs=1e-9)
    assert float(rates.min()) == pytest.approx(60.0, abs=1e-9)
    assert int(np.argmax(rates)) == 3600 * 30  # half a period in


def test_same_seed_same_arrivals():
    spec = WorkloadSpec(Diurnal(base=10, peak=50, period_s=600), jitter=0.1)
    a = generate_arrivals(spec, seed=99, duration_ticks=9000, ticks_per_second=30)
    b = generate_arrivals(spec, seed=99, duration_ticks=9000, ticks_per_second=30)
    assert np.array_equal(a, b)
    c = generate_arrivals(spec, seed=100, duration_ticks=9000, ticks_per_second=30)
    assert not np.array_equal(a, c)


def test_poisson_mode_mean_tracks_rate():
    spec = WorkloadSpec(Steps(((0, 120.0),)))
    counts = generate_arrivals(spec, seed=5, duration_ticks=300 * 30, ticks_per_second=30)
    assert counts.sum() == pytest.approx(120 * 300, rel=0.02)


def test_trace_replay(tmp_path):
    trace = tmp_path / "trace.csv"
    trace.write_text("tick,rate\n0,5\n30,10\n", encoding="utf-8")
    spec = WorkloadSpec(Trace(str(trace)))
    rates = rate_curve(spec, 60, 30)
    assert rates[0] == 5.0 and rates[30] == 10.0


def test_trace_missing_file():
    with pytest.raises(WorkloadError, match="cannot read"):
        rate_curve(WorkloadSpec(Trace("/nonexistent/file.csv")), 10, 30)


def test_trace_malformed(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0,notanumber\n", encoding="utf-8")
    with pytest.raises(WorkloadError, match="malformed"):
        rate_curve(WorkloadSpec(Trace(str(bad))), 10, 30)


@pytest.mark.parametrize("rows, line, tick, before", [
    ("0,100\n300,50\n0,20\n", 3, 0, 300),
    ("tick,rate\n0,5\n30,10\n30,20\n", 4, 30, 30),
])
def test_trace_ticks_must_strictly_increase(tmp_path, rows, line, tick, before):
    # Sorting the rows would let the higher of two rates at one tick win
    # without a word; the trace is refused instead, at the offending row.
    trace = tmp_path / "trace.csv"
    trace.write_text(rows, encoding="utf-8")
    with pytest.raises(WorkloadError) as err:
        rate_curve(WorkloadSpec(Trace(str(trace))), 600, 30)
    assert str(err.value) == (
        f"{trace}:{line}: trace ticks must strictly increase: {tick} follows {before}")


def test_negative_rate_rejected():
    with pytest.raises(WorkloadError):
        rate_curve(WorkloadSpec(Steps(((0, -5.0),))), 10, 30)


def test_jitter_bound_validated():
    with pytest.raises(WorkloadError):
        WorkloadSpec(Steps(((0, 5.0),)), jitter=1.5)


@pytest.mark.parametrize("points, named", [
    (((300, 50.0), (0, 100.0)), "0 follows 300"),  # every tick ran at 100/s
    (((0, 10.0), (60, 40.0), (60, 20.0), (90, 5.0)), "60 follows 60"),  # dropped 40/s
])
def test_steps_out_of_order_start_rejected(points, named):
    with pytest.raises(WorkloadError, match=named):
        Steps(points)


# -- email structure ----------------------------------------------------------

def test_sample_email_zero_virus_probability():
    profile = EmailProfile(p_virus=0)
    rng = np.random.Generator(np.random.PCG64(0))
    batch = sample_email_batch(profile, rng, 200)
    assert batch.attachments.sum() > 0
    assert not batch.virus_masks.any()


def test_sample_email_statistics():
    profile = EmailProfile()
    rng = np.random.Generator(np.random.PCG64(42))
    batch = sample_email_batch(profile, rng, 100_000)
    assert batch.blocks.mean() == pytest.approx(2.5, abs=0.02)
    assert batch.attachments.mean() == pytest.approx(2.0, abs=0.02)
    total_atts = int(batch.attachments.sum())
    infected = sum(
        int(((batch.virus_masks >> j) & 1 & (batch.attachments > j)).sum())
        for j in range(4)
    )
    assert infected / total_atts == pytest.approx(0.25, abs=0.005)


def test_sample_email_zero_attachments_possible():
    profile = EmailProfile()
    rng = np.random.Generator(np.random.PCG64(7))
    batch = sample_email_batch(profile, rng, 10_000)
    assert (batch.attachments == 0).any()
    assert batch.attachments.min() >= 0
    assert batch.attachments.max() <= 4
    assert batch.blocks.min() >= 1


def test_sample_email_supports_respected():
    profile = EmailProfile(
        n_blocks=3, n_attachments=1,
        block_count_support=(2, 4), attachment_count_support=(0, 2))
    rng = np.random.Generator(np.random.PCG64(3))
    batch = sample_email_batch(profile, rng, 5000)
    assert set(np.unique(batch.blocks)) <= {2, 3, 4}
    assert set(np.unique(batch.attachments)) <= {0, 1, 2}
