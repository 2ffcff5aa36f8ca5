"""Command-line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from archscale import Steps, WorkloadSpec, generate_arrivals
from archscale.cli import main, reference_architecture_path

from conftest import REFERENCE_COUNTS


def test_validate_reference(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out


def test_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "services": [{"name": "A", "cost": {"Cores": 0, "Memory": 0}}],
        "vm_catalog": [], "profile": {}, "pipeline": [],
    }), encoding="utf-8")
    assert main(["validate", "--arch", str(bad)]) == 1
    assert "cores_required" in capsys.readouterr().out


def test_validate_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["validate", "--arch", str(bad)]) == 1
    assert "error" in capsys.readouterr().err


def ladder_section(out: str) -> list[str]:
    lines = out.splitlines()
    start = next(i for i, l in enumerate(lines) if l.split()[:3] == ["service", "B", "D1"])
    return lines[start:]


def test_ladder_matches_reference_counts(capsys):
    assert main(["ladder"]) == 0
    out = capsys.readouterr().out
    section = ladder_section(out)
    for name, row in REFERENCE_COUNTS.items():
        line = next(l for l in section if l.startswith(name))
        cells = line.split()
        assert cells[1] == str(row[0])
        assert cells[2:6] == [f"+{d}" for d in row[1:]], name
    assert "Scale4 (+330 emails/sec) = D1 + D2 + D3 + D4" in out


def test_ladder_image_recognizer_row(capsys):
    main(["ladder"])
    line = next(l for l in ladder_section(capsys.readouterr().out)
                if l.startswith("ImageRecognizer"))
    assert line.split() == ["ImageRecognizer", "1", "+1", "+2", "+1", "+2"]


def test_ladder_single_infinite_service(tmp_path, capsys):
    doc = tmp_path / "one.json"
    doc.write_text(json.dumps({
        "services": [{"name": "Free", "cost": {"Cores": 1, "Memory": 0},
                      "mcl": {"attachments_per_request": 0, "penalty_factor": 0}}],
        "vm_catalog": [{"name": "v", "cores": 2, "memory": 100,
                        "speed_per_core": 1, "startup_time": 0, "cost": 1}],
        "profile": {}, "pipeline": [],
    }), encoding="utf-8")
    assert main(["ladder", "--arch", str(doc)]) == 0
    line = next(l for l in ladder_section(capsys.readouterr().out) if l.startswith("Free"))
    assert line.split() == ["Free", "1", "+0", "+0", "+0", "+0"]


def test_plan_delta_index(capsys):
    assert main(["plan", "--delta-index", "1"]) == 0
    out = capsys.readouterr().out
    assert "placement cost" in out
    assert "set-startup 450" in out
    assert "undeployment orchestration" in out
    assert "release vm-" in out


def test_plan_explicit_delta(capsys):
    assert main(["plan", "--delta", "VirusScanner=2,MessageAnalyser=1"]) == 0
    out = capsys.readouterr().out
    assert out.count("create VirusScanner") == 2


def test_simulate_single_policy(tmp_path, capsys):
    spec = tmp_path / "exp.json"
    spec.write_text(json.dumps({
        "architecture": str(reference_architecture_path()),
        "scenario": {"duration_s": 20, "workload": {"kind": "steps", "points": [[0, 30]]}},
    }), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["simulate", "--spec", str(spec), "--policy", "global",
                 "--out", str(out_dir), "--seed", "3", "--exact-arrivals"]) == 0
    assert (out_dir / "metrics_global.csv").exists()
    assert not (out_dir / "metrics_local.csv").exists()
    assert "global: generated=600" in capsys.readouterr().out


def test_compare_runs_both(tmp_path, capsys):
    spec = tmp_path / "exp.json"
    spec.write_text(json.dumps({
        "architecture": str(reference_architecture_path()),
        "scenario": {"duration_s": 20, "seed": 4, "exact_arrivals": True,
                     "workload": {"kind": "steps", "points": [[0, 50]]}},
    }), encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["compare", "--spec", str(spec), "--out", str(out_dir)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["policies"]["global"]["dropped_requests"] == 0
    assert report["policies"]["local"]["dropped_requests"] == 0
    assert "policy" in capsys.readouterr().out


def test_compare_byte_identical(tmp_path):
    spec = tmp_path / "exp.json"
    spec.write_text(json.dumps({
        "architecture": str(reference_architecture_path()),
        "scenario": {"duration_s": 15, "seed": 8,
                     "workload": {"kind": "diurnal", "base": 20, "peak": 90, "period_s": 15}},
    }), encoding="utf-8")
    assert main(["compare", "--spec", str(spec), "--out", str(tmp_path / "a")]) == 0
    assert main(["compare", "--spec", str(spec), "--out", str(tmp_path / "b")]) == 0
    for name in ("metrics_global.csv", "metrics_local.csv", "report.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("policy", ["global", "local"])
def test_compare_refuses_a_single_policy(capsys, policy):
    # Else it ran both policies and exited 0, the option silently ignored.
    with pytest.raises(SystemExit) as exited:
        main(["compare", "--policy", policy])
    assert exited.value.code == 2
    assert f"argument --policy: invalid choice: '{policy}'" in capsys.readouterr().err


def test_cli_error_is_nonzero(tmp_path, capsys):
    assert main(["simulate", "--spec", str(tmp_path / "missing.json")]) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ladder", "plan"])
@pytest.mark.parametrize("option,value,expected", [
    ("--base", "-60", "a number at least 0"),
    ("--base", "nan", "a finite number"),
    ("--base", "inf", "a finite number"),
    ("--increments", "60,nan", "a finite number"),
    ("--increments", "60,1/0", "a finite number"),
])
def test_ladder_rates_named_by_option(capsys, command, option, value, expected):
    # Else a negative base prints a ladder whose D1 adds no instance, and a
    # NaN fails as an invalid Fraction literal that names no option.
    with pytest.raises(SystemExit) as exited:
        main([command, option, value])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: expected {expected}, got " in err


@pytest.mark.parametrize("value,expected", [
    ("VirusScanner=x", "expected an integer count for VirusScanner, got 'x'"),
    ("VirusScanner", "expected 'Service=count', got 'VirusScanner'"),
    ("VirusScanner=2,", "expected 'Service=count', got ''"),
    ("VirusScanner=1,VirusScanner=2", "VirusScanner is given more than once"),
])
def test_plan_delta_named_by_option(capsys, value, expected):
    # Else the first three fail as an int() literal that names no option,
    # and a repeated service silently keeps its last count.
    with pytest.raises(SystemExit) as exited:
        main(["plan", "--delta", value])
    assert exited.value.code == 2
    assert f"argument --delta: {expected}" in capsys.readouterr().err


def test_ladder_accepts_base_zero(capsys):
    assert main(["ladder", "--base", "0", "--increments", "60"]) == 0
    assert "Scale1 (+60 emails/sec) = D1" in capsys.readouterr().out


COLD_START = """
import contextlib, io, json, sys
import archscale, archscale.cli, archscale.experiment
for argv in (["validate"], ["ladder"], ["plan", "--delta-index", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert archscale.cli.main(argv) == 0, argv
assert "numpy" not in sys.modules, "numpy loaded before any traffic was drawn"
counts = archscale.generate_arrivals(
    archscale.WorkloadSpec(archscale.Steps(((0, 40.0), (150, 90.0)))), 3, 300, 30)
assert "numpy" in sys.modules
print(json.dumps(counts.tolist()))
"""


def test_cold_commands_never_import_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert done.returncode == 0, done.stderr
    direct = generate_arrivals(WorkloadSpec(Steps(((0, 40.0), (150, 90.0)))), 3, 300, 30)
    assert json.loads(done.stdout) == direct.tolist()


LAZY_START = """
import contextlib, io, sys
import archscale

def heavy():
    return [m for m in ("archscale.planner", "archscale.simulator") if m in sys.modules]

assert heavy() == [], "import archscale"
import archscale.cli
for argv in (["validate"], ["ladder"], ["plan", "--delta-index", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert archscale.cli.main(argv) == 0, argv
    assert heavy() == (["archscale.planner"] if argv[0] == "plan" else []), (argv, heavy())
for name in archscale.__all__:
    getattr(archscale, name)
assert set(archscale.__all__) <= set(dir(archscale))
assert archscale.simulator.Policy is archscale.Policy
try:
    archscale.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("archscale.no_such_name resolved")
original, marker = archscale.capacity.system_mcl, object()
archscale.capacity.system_mcl = marker
assert archscale.system_mcl is marker, "a patched export reads back through the package"
archscale.capacity.system_mcl = original
assert archscale.system_mcl is original
"""


def test_cold_commands_load_only_what_they_run():
    # The set-up commands never compile the simulator or the planner, and
    # the package reads each export from its module on every access.
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", LAZY_START], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert done.returncode == 0, done.stderr
