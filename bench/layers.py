"""Traced runs: wrap the public functions each layer exports, then read the
per-layer numbers back from the recorded spans.

Every ``archscale`` module that imported a wrapped function gets the
wrapper, and wrapped methods are replaced on their class, so calls made by
the simulator, by the experiment runner and by the benchmark's own
control-plane loop are all recorded.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

import archscale
from archscale import capacity, document, experiment, planner, scaler, simulator, workload

from .measure import Calibration, Tracer, percentile, self_times

MODULES = (capacity, document, experiment, planner, scaler, simulator, workload,
           archscale)

# (defining module, function, span name)
TARGETS = (
    (document, "load_architecture", "document.load"),
    (capacity, "build_capacity_table", "capacity.table"),
    (capacity, "synthesize_scale_ladder", "capacity.ladder"),
    (capacity, "system_mcl", "capacity.system_mcl"),
    (capacity, "request_cost", "capacity.request_cost"),
    (workload, "rate_curve", "workload.rate_curve"),
    (workload, "generate_arrivals", "workload.arrivals"),
    (workload, "sample_email_batch", "workload.sample"),
    (experiment, "read_metrics_csv", "experiment.read_csv"),
    (experiment, "summarize_metrics_rows", "experiment.summarize"),
    (planner, "synthesize_undeployment", "planner.synth_undeployment"),
    (planner, "synthesize_removal", "planner.synth_removal"),
    (scaler, "scaling_trigger", "scaler.trigger"),
    (scaler, "select_global_configuration", "scaler.select"),
    (scaler, "diff_reconfiguration", "scaler.diff"),
    (scaler, "local_target_instances", "scaler.local_target"),
)
# (class, method, span name)
METHOD_TARGETS = (
    (planner.DeploymentRegistry, "apply", "planner.apply"),
    (simulator.MetricsTimeline, "to_csv", "experiment.to_csv"),
    (simulator.MetricsTimeline, "events_to_csv", "experiment.events_to_csv"),
)
SYNTH_SPANS = ("planner.synth_orchestration", "planner.synth_undeployment",
               "planner.synth_removal")
# The scaler and planner calls the simulator's monitors make. A decision is
# the time spent in them from one ``scaling_trigger`` call to the next.
DECISION_CALLS = (
    (scaler, "scaling_trigger"), (scaler, "select_global_configuration"),
    (scaler, "diff_reconfiguration"), (scaler, "local_target_instances"),
    (planner, "plan_placement"), (planner, "synthesize_orchestration"),
    (planner, "synthesize_undeployment"), (planner, "synthesize_removal"),
    (planner.DeploymentRegistry, "apply"),
)


def _patch_everywhere(tracer: Tracer, original, replacement) -> None:
    name = original.__name__
    for module in MODULES:
        if getattr(module, name, None) is original:
            tracer.patch(module, name, replacement)


class Segments:
    """Cuts a pass at each ``run_simulation`` entry and exit and at each
    monitor decision, so that passes can be compared segment by segment.

    A segment runs from one mark to the next and belongs to the policy
    whose run it lies in, or to none (``""``): arrivals, artifacts and
    the work between the runs.
    """

    def __init__(self):
        self.marks = array("q")
        self.owners: list[str] = []
        self.policy = ""
        self.skipped_ns = 0  # calibration time, left out of every segment

    def mark(self, now_ns: int) -> None:
        self.marks.append(now_ns - self.skipped_ns)
        self.owners.append(self.policy)

    def durations_ns(self) -> np.ndarray:
        return np.diff(np.asarray(self.marks, dtype=np.int64))


class Decisions:
    """Host time of each decision the simulator's monitors make.

    A decision opens at a ``scaling_trigger`` call and collects the time of
    every ``DECISION_CALLS`` call until the next one or the end of the run.
    Calls outside a decision, such as the base deployment, are not counted.
    Each decision opens a segment too.
    """

    def __init__(self, segments: Segments, calibration: Calibration | None):
        self.latencies_ns = array("q")
        self.segments = segments
        self.calibration = calibration
        self._open: int | None = None

    def close(self) -> None:
        if self._open is not None:
            self.latencies_ns.append(self._open)
        self._open = None

    def timed(self, fn, opens: bool):
        def wrapper(*args, **kwargs):
            if opens and self.calibration is not None:
                self.segments.skipped_ns += self.calibration.tick()
            start = time.perf_counter_ns()
            if opens:
                self.segments.mark(start)
                self.close()
                self._open = 0
            try:
                return fn(*args, **kwargs)
            finally:
                if self._open is not None:
                    self._open += time.perf_counter_ns() - start
        return wrapper


class Instrumented:
    """Wrappers installed for the duration of a ``with`` block.

    ``run_simulation`` is always timed per policy and marks ``segments``,
    which an untraced pass needs for its per-policy times. Without
    ``layers``, the monitors' decisions are timed too, which adds two clock
    reads to each of their calls, and each decision marks a segment. With
    ``layers`` set, every function in ``TARGETS`` and method in
    ``METHOD_TARGETS`` is traced instead, and each placement is followed to
    the orchestrations synthesized from it.
    """

    def __init__(self, layers: bool, calibration: Calibration | None = None):
        self.tracer = Tracer()
        self.segments = Segments()
        self.decisions = Decisions(self.segments, calibration)
        self.placements: dict[int, list] = {}  # id -> [placement, orchestrations made from it]
        self.run_cpu_s: dict[str, float] = {}
        self._layers = layers

    def __enter__(self) -> "Instrumented":
        try:
            self._install()
        except BaseException:
            self.tracer.restore()
            raise
        return self

    def _install(self) -> None:
        tracer = self.tracer
        run_simulation = simulator.run_simulation

        def labelled_run(arch, ladder, config):
            cpu = time.process_time()
            self.segments.policy = f"{config.policy}"
            self.segments.mark(time.perf_counter_ns())
            try:
                return tracer.call(f"simulator.{config.policy}", run_simulation, arch, ladder, config)
            finally:
                self.segments.policy = ""
                self.segments.mark(time.perf_counter_ns())
                self.run_cpu_s[config.policy] = time.process_time() - cpu
                self.decisions.close()

        _patch_everywhere(tracer, run_simulation, labelled_run)
        if not self._layers:
            for owner, attr in DECISION_CALLS:
                original = getattr(owner, attr)
                timed = self.decisions.timed(original, opens=attr == "scaling_trigger")
                if isinstance(owner, type):
                    tracer.patch(owner, attr, timed)
                else:
                    _patch_everywhere(tracer, original, timed)
            return
        for module, attr, span_name in TARGETS:
            original = getattr(module, attr)
            _patch_everywhere(tracer, original, tracer.wrap(span_name, original))
        for owner, attr, span_name in METHOD_TARGETS:
            tracer.patch(owner, attr, tracer.wrap(span_name, getattr(owner, attr)))
        plan_placement = planner.plan_placement
        synthesize = planner.synthesize_orchestration

        def observed_place(*args):
            placement = tracer.call("planner.place", plan_placement, *args)
            self.placements[id(placement)] = [placement, 0]
            return placement

        def observed_synthesize(placement, *args):
            if id(placement) in self.placements:
                self.placements[id(placement)][1] += 1
            return tracer.call("planner.synth_orchestration", synthesize, placement, *args)

        _patch_everywhere(tracer, plan_placement, observed_place)
        _patch_everywhere(tracer, synthesize, observed_synthesize)

    def __exit__(self, *exc) -> None:
        self.tracer.restore()

    def policy_seconds(self, policy: str) -> float:
        return self.tracer.total_ns(f"simulator.{policy}") / 1e9

    def policy_self_seconds(self, policy: str) -> float:
        spans = self.tracer.spans
        own = self_times(spans)
        return sum(t for s, t in zip(spans, own) if s.name == f"simulator.{policy}") / 1e9

    def placement_requests(self) -> tuple[int, int]:
        """(fresh, repeated) placement requests.

        A ``plan_placement`` call is a fresh request. Each orchestration
        synthesized from a placement after its first is a repeated request:
        the delta was placed before, and the placement was reused.
        """
        uses = [n for _, n in self.placements.values()]
        return len(uses), sum(max(0, n - 1) for n in uses)

    def layer_metrics(self) -> dict[str, float]:
        """Counts and inclusive times per layer, read from the spans."""
        t = self.tracer
        ms = lambda name: t.total_ns(name) / 1e6  # noqa: E731
        calls = lambda name: len(t.named(name))  # noqa: E731
        place = sorted(s.end - s.start for s in t.named("planner.place"))
        places = len(place)
        fresh, repeated = self.placement_requests()
        requests = fresh + repeated
        return {
            "capacity.system_mcl_calls": calls("capacity.system_mcl"),
            "capacity.system_mcl_ms": ms("capacity.system_mcl"),
            "workload.rate_curve_ms": ms("workload.rate_curve"),
            "workload.arrivals_ms": ms("workload.arrivals"),
            "workload.sample_ms": ms("workload.sample"),
            "planner.place_calls": places,
            "planner.place_ms": ms("planner.place"),
            "planner.place_p99_ms": percentile(place, 99) / 1e6 if place else 0.0,
            "planner.synth_ms": sum(ms(n) for n in SYNTH_SPANS),
            "planner.apply_calls": calls("planner.apply"),
            "planner.apply_ms": ms("planner.apply"),
            "planner.deploys_per_place":
                calls("planner.synth_orchestration") / places if places else 0.0,
            "planner.repeated_delta_share": repeated / requests if requests else 0.0,
            "planner.fresh_delta_share": fresh / requests if requests else 0.0,
            "scaler.trigger_calls": calls("scaler.trigger"),
            "scaler.trigger_ms": ms("scaler.trigger"),
            "scaler.select_calls": calls("scaler.select"),
            "scaler.select_ms": ms("scaler.select"),
            "scaler.local_target_calls": calls("scaler.local_target"),
            "experiment.csv_write_ms": ms("experiment.to_csv") + ms("experiment.events_to_csv"),
            "experiment.summary_ms": ms("experiment.read_csv") + ms("experiment.summarize"),
        }
