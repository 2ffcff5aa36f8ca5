"""Names, units and workloads, read from ``BENCHMARK.json``, the one list
of what a run must print."""

from __future__ import annotations

import json
from pathlib import Path

MANIFEST = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                      .read_text(encoding="utf-8"))

RUN_SECONDS = MANIFEST["run_seconds"]
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
# Runnable by name and by ``--workload all``, but left out of BENCHMARK.json:
# one pass takes 23-45 s here, so a run holds two passes, too few for the
# segment bests, and its times spread by up to 26 % from run to run.
EXTRA_WORKLOADS = ("diurnal-ref",)

END_TO_END = [m["name"] for m in MANIFEST["end_to_end"]]
PER_LAYER = [m["name"] for m in MANIFEST["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}

POLICIES = ("global", "local")
# The per-policy simulator metrics, without their ``simulator.<policy>.`` prefix.
SIMULATOR_PER_POLICY = [name.split(".", 2)[2] for name in PER_LAYER
                        if name.startswith("simulator.global.")]
