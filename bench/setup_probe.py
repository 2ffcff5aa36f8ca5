"""Cold set-up as every CLI run pays it: import, load, capacity table, ladder.

Run by ``run.py`` in a fresh interpreter; prints one line of four
millisecond figures once the first operation could start.
"""

import sys
import time

start = time.perf_counter()

from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import archscale  # noqa: E402
from archscale.cli import reference_architecture_path  # noqa: E402
from archscale.experiment import DEFAULT_INCREMENTS  # noqa: E402

imported = time.perf_counter()
arch = archscale.load_architecture(reference_architecture_path())
loaded = time.perf_counter()
table = archscale.build_capacity_table(arch)
tabled = time.perf_counter()
archscale.synthesize_scale_ladder(Fraction(60), [Fraction(x) for x in DEFAULT_INCREMENTS], table)
laddered = time.perf_counter()
marks = (start, imported, loaded, tabled, laddered)
print(" ".join(f"{(b - a) * 1e3:.6f}" for a, b in zip(marks, marks[1:])), flush=True)
