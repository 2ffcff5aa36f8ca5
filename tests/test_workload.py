"""Workload curves, arrival generation, email structure sampling."""

import tracemalloc
from fractions import Fraction

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

def sampled_emails(profile, seed, count):
    """Per-email (blocks, attachments, virus mask) columns of a sample, each
    email read as ``shapes[shape_of[i]]``."""
    shapes, shape_of = sample_email_batch(profile, np.random.Generator(np.random.PCG64(seed)),
                                          count)
    return np.array([shapes[i] for i in shape_of], dtype=np.int64).T


def whole_array_emails(profile, seed, count):
    """Per-email triples drawn from the same seeded generator in one go:
    blocks, attachments, then one ``rng.random((count, a_hi))`` draw."""
    rng = np.random.Generator(np.random.PCG64(seed))
    (b_lo, b_hi), (a_lo, a_hi) = profile.block_count_support, profile.attachment_count_support
    blocks = rng.integers(b_lo, b_hi + 1, size=count, dtype=np.int64).tolist()
    atts = rng.integers(a_lo, a_hi + 1, size=count, dtype=np.int64).tolist()
    infected = (rng.random((count, a_hi)) < float(profile.p_virus)).tolist()
    return [(b, a, sum(1 << j for j in range(a) if row[j]))
            for b, a, row in zip(blocks, atts, infected)]


def assert_matches_whole_array(profile, seed, count):
    shapes, shape_of = sample_email_batch(profile, np.random.Generator(np.random.PCG64(seed)),
                                          count)
    reference = whole_array_emails(profile, seed, count)
    first_seen = list(dict.fromkeys(reference))
    assert shapes == first_seen
    index = {shape: i for i, shape in enumerate(first_seen)}
    assert shape_of == [index[email] for email in reference]
    return shapes


def test_sample_email_zero_virus_probability():
    profile = EmailProfile(p_virus=0)
    _, attachments, masks = sampled_emails(profile, 0, 200)
    assert attachments.sum() > 0
    assert not masks.any()


def test_sample_email_statistics():
    profile = EmailProfile()
    blocks, attachments, masks = sampled_emails(profile, 42, 100_000)
    assert blocks.mean() == pytest.approx(2.5, abs=0.02)
    assert attachments.mean() == pytest.approx(2.0, abs=0.02)
    total_atts = int(attachments.sum())
    infected = sum(
        int(((masks >> j) & 1 & (attachments > j)).sum())
        for j in range(4)
    )
    assert infected / total_atts == pytest.approx(0.25, abs=0.005)


def test_sample_email_zero_attachments_possible():
    profile = EmailProfile()
    blocks, attachments, _ = sampled_emails(profile, 7, 10_000)
    assert (attachments == 0).any()
    assert attachments.min() >= 0
    assert attachments.max() <= 4
    assert blocks.min() >= 1


def test_sample_email_supports_respected():
    profile = EmailProfile(
        n_blocks=3, n_attachments=1,
        block_count_support=(2, 4), attachment_count_support=(0, 2))
    blocks, attachments, _ = sampled_emails(profile, 3, 5000)
    assert set(np.unique(blocks)) <= {2, 3, 4}
    assert set(np.unique(attachments)) <= {0, 1, 2}


def test_chunked_sample_equals_whole_array_draw():
    # Three full chunks of 2^16 emails and a partial one.
    assert_matches_whole_array(EmailProfile(), 11, 3 * 2 ** 16 + 5)


def test_widest_attachment_support_decodes_exactly():
    # Default blocks take 3 bits, so 54 slots fill a 63-bit shape code: every
    # attachment is infected and each mask is all ones up to its count.
    profile = EmailProfile(n_attachments=Fraction(27), attachment_count_support=(0, 54),
                           p_virus=Fraction(1))
    shapes = assert_matches_whole_array(profile, 5, 3000)
    assert any(mask == (1 << 54) - 1 for _, _, mask in shapes)
    assert all(mask == (1 << a) - 1 for _, a, mask in shapes)


@pytest.mark.parametrize("a_hi", [55, 70])
def test_attachment_support_past_the_shape_code_refused(a_hi):
    # Else a code wider than 63 bits overflows int64: at 70 with p_virus 1,
    # 63 of the 64 shapes decode wrongly, with no error.
    profile = EmailProfile(n_attachments=Fraction(a_hi, 2), attachment_count_support=(0, a_hi),
                           p_virus=Fraction(1))
    rng = np.random.Generator(np.random.PCG64(5))
    with pytest.raises(WorkloadError, match=r"attachment_count_support .* exceeds 54"):
        sample_email_batch(profile, rng, 100)


def test_no_uniform_drawn_without_attachment_slots():
    profile = EmailProfile(n_attachments=Fraction(0), attachment_count_support=(0, 0))
    rng = np.random.Generator(np.random.PCG64(9))
    shapes, shape_of = sample_email_batch(profile, rng, 1000)
    reference = np.random.Generator(np.random.PCG64(9))
    reference.integers(1, 5, size=1000, dtype=np.int64)
    reference.integers(0, 1, size=1000, dtype=np.int64)
    assert rng.bit_generator.state == reference.bit_generator.state
    assert {(a, mask) for _, a, mask in shapes} == {(0, 0)}
    assert len(shape_of) == 1000


def test_sample_memory_stays_below_64_bytes_per_email():
    # The whole-array draw held N x 4 uniforms and int64 temporaries at
    # once, about 96 B per email.
    count = 2 ** 18
    rng = np.random.Generator(np.random.PCG64(1))
    tracemalloc.start()
    try:
        sample_email_batch(EmailProfile(), rng, count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / count < 64
