import json
from fractions import Fraction
from importlib import metadata

import pytest
from hypothesis import settings

from archscale import (
    build_capacity_table,
    load_architecture,
    synthesize_scale_ladder,
    workload,
)
from archscale.document import parse_architecture_data
from archscale.cli import reference_architecture_path


# A deeper, reproducible run of the kernel properties, chosen with
# ``--hypothesis-profile=kernel-deep``.
settings.register_profile("kernel-deep", max_examples=1000, derandomize=True, deadline=None)


def pytest_report_header(config):
    """The numpy whose ``Generator`` streams drew the traffic that the golden
    digests pin, read from its metadata so that numpy is not imported."""
    try:
        return f"numpy: {metadata.version('numpy')}"
    except metadata.PackageNotFoundError:
        return "numpy: not installed"


@pytest.fixture
def draws(monkeypatch):
    """Calls of the two traffic draws, counted through the module attributes
    that ``workload.draw_traffic`` reads."""
    calls = dict.fromkeys(("generate_arrivals", "sample_email_batch"), 0)
    for name in calls:
        def counted(*args, _name=name, _draw=getattr(workload, name), **kwargs):
            calls[_name] += 1
            return _draw(*args, **kwargs)
        monkeypatch.setattr(workload, name, counted)
    return calls


@pytest.fixture(scope="session")
def reference_arch():
    return load_architecture(reference_architecture_path())


@pytest.fixture(scope="session")
def reference_table(reference_arch):
    return build_capacity_table(reference_arch)


@pytest.fixture(scope="session")
def all_virus_arch():
    """The reference architecture with every attachment infected: the
    services behind the clean-attachment edges receive no requests."""
    doc = json.loads(reference_architecture_path().read_text(encoding="utf-8"))
    doc["profile"]["p_virus"] = 1
    return parse_architecture_data(doc)


@pytest.fixture(scope="session")
def reference_ladder(reference_table):
    return synthesize_scale_ladder(
        Fraction(60), [Fraction(x) for x in (60, 150, 240, 330)], reference_table)


# Instance counts of the reference deployment ladder: per service, the base
# count followed by the four delta increments.  Frozen here as the oracle
# for table-reproduction tests.
REFERENCE_COUNTS = {
    "MessageReceiver": (1, 1, 0, 1, 1),
    "MessageParser": (1, 1, 0, 1, 1),
    "HeaderAnalyser": (1, 0, 0, 0, 0),
    "LinkAnalyser": (1, 0, 0, 0, 0),
    "TextAnalyser": (1, 0, 0, 0, 0),
    "SentimentAnalyser": (2, 1, 3, 2, 2),
    "VirusScanner": (1, 1, 2, 1, 2),
    "AttachmentManager": (1, 0, 1, 0, 1),
    "ImageAnalyser": (1, 0, 1, 0, 1),
    "NSFWDetector": (1, 1, 2, 1, 2),
    "ImageRecognizer": (1, 1, 2, 1, 2),
    "MessageAnalyser": (1, 1, 2, 1, 2),
}

SCALE_TARGETS = (Fraction(60), Fraction(120), Fraction(210), Fraction(300), Fraction(390))
