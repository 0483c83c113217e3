#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload frames-bonsai --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched, and
reports their times and rates for a nominal host (``perfbench/hostspeed.py``);
``--trace 1`` installs span wrappers around each layer's entry points on
every other op and reports the per-layer metrics plus the tracing overhead.
Human-readable lines come first; the last line of standard output is the
JSON result.  Spans and the exact-count record are written under
``perfbench/.state/``.
"""

from __future__ import annotations

import argparse
import os
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Tuple

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / "perfbench" / ".state"
WORKLOADS = ("frames-bonsai", "map-serve")
#: Set-ups per run; ``setup_s`` is their median.  They are spread over the
#: run (the host's speed drifts over seconds, so set-ups made back to back
#: would all see the same moment): frames set up again between cycles,
#: map-serve at the start, halfway and at the end.  A map-serve set-up costs
#: about three times a frames one.
SETUP_REPEATS = {"frames-bonsai": 5, "map-serve": 3}
#: Kernel samples (``perfbench.hostspeed``) just before and just after each
#: set-up, which is scaled by the slowdown they give.  Ops are scaled the
#: same way, by the samples on either side of them: frames samples the
#: kernel between ops, map-serve's clients at every cycle boundary.
SETUP_KERNEL_RUNS = 2
#: Op ids of the traced run's hardware pass start here.
HARDWARE_OP_BASE = 1_000_000


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; run it from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import report
    from perfbench.tracing import Tracer

    tracer = Tracer() if args.trace else None
    try:
        if args.workload == "map-serve":
            outcome = run_map_serve(args, tracer)
        else:
            outcome = run_frames(args, tracer)
    finally:
        stop_children()
    values, notes, counts, repeats, attempted, failed = outcome
    # Read after the run: it imports scipy, which map-serve keeps out of
    # its workers by importing it only after they are forked.
    context = report.machine_context()

    key = (f"{args.workload} seed={args.seed} trace={args.trace} "
           f"code={report.source_digest(ROOT / 'src', ROOT / 'perfbench')}")
    digest = report.counts_digest(counts)
    earlier = report.check_recorded(STATE / "counts.json", key, digest)
    drift = []
    if repeats:
        drift.append(f"exact counts of ops {repeats} differ from the same ops one cycle earlier")
    if earlier is not None:
        drift.append(f"exact counts {digest} differ from an earlier run's {earlier}")
    if tracer is not None:
        tracer.write(STATE / f"spans-{args.workload}-seed{args.seed}.jsonl")

    units = report.PER_LAYER if args.trace else report.END_TO_END
    aliases = report.OP_ALIASES["map-serve" if args.workload == "map-serve" else "frames"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"context {context}")
    print(f"  ops attempted {attempted}, failed {failed}, fail_ratio "
          f"{failed / attempted:.4f}; exact-count digest {digest}"
          + ("" if not drift else " DRIFT: " + "; ".join(drift)))
    print(f"  host slowdown {values['bench.host_slowdown']:.4f}: times and rates below "
          "are for the nominal host (raw figures in brackets)")
    report.print_table(values, units, notes, aliases)
    extra = {**report.END_TO_END, **report.PER_LAYER}
    for name in sorted(set(values) - set(units)):
        print(f"  {name:<44} {values[name]:>14.4f} {extra[name]}")
    for line in drift:
        print(f"perfbench: {line}", file=sys.stderr)
    print(report.result_line(failed == 0 and not drift, attempted, failed, values, units))
    return 0


def stop_children() -> None:
    """Stop every process the run started and wait until each has ended.

    Closing the service already joins its workers.  Shared memory also
    starts multiprocessing's resource tracker, which is left to notice this
    process's exit on its own and so outlives it (as an orphan, or a zombie
    nobody reaps); stopping it here closes its pipe and waits for it.  Any
    other child still alive is terminated and waited for.
    """
    from multiprocessing import resource_tracker

    from perfbench import memory

    resource_tracker._resource_tracker._stop()
    for pid in memory.child_pids(os.getpid()):
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):  # ended meanwhile
            pass


def timed_setup(host, setup) -> Tuple[float, float]:
    """Seconds ``setup()`` took, and the host's slowdown around it."""
    from perfbench.hostspeed import slowdown_of

    around = host.sample(SETUP_KERNEL_RUNS)
    seconds = setup()
    around += host.sample(SETUP_KERNEL_RUNS)
    return seconds, slowdown_of(around)


def nominal_setup_s(setups, notes) -> float:
    """Median of the ``(seconds, slowdown)`` set-ups, each for the nominal
    host; the raw median goes into the notes."""
    raw = statistics.median(seconds for seconds, _ in setups)
    notes["setup_s"] = (f"median of {len(setups)} set-ups, each scaled by the slowdown "
                        f"around it; raw {raw:.4f}")
    return statistics.median(seconds / slowdown for seconds, slowdown in setups)


def nominal_ops(latencies_ms, slowdowns, notes) -> Dict[str, float]:
    """``op_p50_ms`` and ``op_tail_ms`` for the nominal host of
    ``perfbench.hostspeed``: each op's latency divided by the slowdown
    measured around it.  The raw figures go into the notes."""
    from perfbench.stats import distribution

    raw = distribution(latencies_ms)
    nominal = distribution([t / s for t, s in zip(latencies_ms, slowdowns)])
    notes["op_p50_ms"] = f"raw {raw.p50:.4f}"
    notes["op_tail_ms"] = f"{nominal.note}; raw {raw.tail:.4f}"
    return {"op_p50_ms": nominal.p50, "op_tail_ms": nominal.tail}


# ----------------------------------------------------------------------
def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_times(tracer, op_ids, values):
    """Set the mean self time per op of every traced span (ms); returns the
    per-op self-time totals."""
    from perfbench import report
    from perfbench.tracing import per_op_totals

    totals = per_op_totals(tracer.spans)
    for span, metric in report.SPAN_TIMES.items():
        values[metric] = _mean(totals[k].get(span, 0) for k in op_ids) / 1e6
    return totals


def _overhead_pct(latencies, traced) -> float:
    on = [t for t, flag in zip(latencies, traced) if flag]
    off = [t for t, flag in zip(latencies, traced) if not flag]
    if not on or not off:
        return 0.0
    return 100.0 * (statistics.median(on) / statistics.median(off) - 1.0)


# ----------------------------------------------------------------------
def run_frames(args, tracer):
    from perfbench import layers, memory, report
    from perfbench.frames import FramesWorkload
    from perfbench.hostspeed import HostSpeed, slowdown_of
    from perfbench.tracing import call_counts

    n_setups = SETUP_REPEATS[args.workload]
    workload = FramesWorkload(args.seed)
    host = HostSpeed()
    baseline_mb = memory.rss_mb()
    setups = [timed_setup(host, workload.setup)]
    workload.build_references()
    cycle = workload.cycle
    outcomes, slowdowns, traced, hardware = [], [], [], []
    # The kernel sample taken after the last op, which is also the one
    # before the next: every op is scaled by the samples on either side.
    between = None
    with workload:
        workload.op(0)  # warm-up: lazy imports and first calls, untimed
        start = time.perf_counter()
        k = 0
        # Frames differ in cost, so a run measures whole cycles only: it
        # stops at the cycle boundary nearest to the deadline.
        while k % cycle or k == 0 or (
                start + args.seconds - time.perf_counter()
                > 0.5 * cycle * (time.perf_counter() - start) / k):
            if k and k % cycle == 0 and len(setups) < n_setups:
                # Set up again between cycles; the deadline moves by the
                # set-up's time, which the ops do not see.
                setup_start = time.perf_counter()
                setups.append(timed_setup(host, workload.setup))
                start += time.perf_counter() - setup_start
                between = None
            # Trace every other op, flipping the parity each cycle so every
            # frame is seen both traced and untraced.
            trace_op = tracer is not None and (k + k // cycle) % 2 == 1
            before = between or host.sample()
            if trace_op:
                with tracer.installed(layers.frame_targets()), tracer.op(k):
                    outcome = workload.op(k)
            else:
                outcome = workload.op(k)
            between = host.sample()
            workload.check(k, outcome)
            outcomes.append(outcome)
            slowdowns.append(slowdown_of(before + between))
            traced.append(trace_op)
            k += 1
        if tracer is not None:
            # The hardware pass over one cycle, after the timed ops: the
            # hwmodel layer and the paper's modelled savings.
            for j in range(cycle):
                with tracer.installed(layers.frame_targets()), \
                        tracer.op(HARDWARE_OP_BASE + j):
                    outcome = workload.hardware_op(j)
                workload.check(j, outcome)
                hardware.append(outcome)
    while len(setups) < n_setups:
        setups.append(timed_setup(host, workload.setup))

    attempted = len(outcomes) + len(hardware)
    failed = sum(o.error is not None for o in outcomes + hardware)
    for k, o in enumerate(outcomes + hardware):
        if o.error is not None:
            print(f"perfbench: op {k} failed: {o.error}", file=sys.stderr)
    latencies = [o.seconds * 1e3 for o in outcomes]
    window = outcomes[:cycle]
    counts = [dict(o.counts) for o in window]
    repeats = report.repeat_drift([dict(o.counts) for o in outcomes[:2 * cycle]], cycle)

    points = sum(o.points for o in outcomes)
    notes = {"points_per_s": f"raw {_ratio(points, sum(o.seconds for o in outcomes)):.4f}",
             "peak_rss_mb": f"peak over the {baseline_mb:.1f} MB before set-up"}
    values = {
        "setup_s": nominal_setup_s(setups, notes),
        **nominal_ops(latencies, slowdowns, notes),
        "points_per_s": _ratio(points, sum(o.seconds / s for o, s in zip(outcomes, slowdowns))),
        "peak_rss_mb": memory.peak_rss_mb() - baseline_mb,
    }
    values.update(_frame_counts(window))
    values["bench.fail_ratio"] = failed / attempted
    values["bench.host_slowdown"] = host.slowdown

    if tracer is not None:
        traced_ids = [k for k, flag in enumerate(traced) if flag]
        totals = _layer_times(tracer, traced_ids, values)
        values["bench.op_self_ms"] = _mean(totals[k].get("op", 0) for k in traced_ids) / 1e6
        values["bench.trace_overhead_pct"] = _overhead_pct(
            [t / s for t, s in zip(latencies, slowdowns)], traced)
        # Calls per op over the traced ops of the first cycle: a fixed set
        # of frames, so the counts repeat exactly.
        calls = call_counts(tracer.spans)
        counted = [k for k in traced_ids if k < cycle]
        for span, metric in report.SPAN_CALLS.items():
            values[metric] = _mean(calls[k].get(span, 0) for k in counted)
        values["runtime.queries_per_call"] = _ratio(
            sum(outcomes[k].queries for k in counted),
            sum(calls[k].get("runtime.radius", 0) + calls[k].get("runtime.knn", 0)
                for k in counted))
        counts.append({span: [calls[k].get(span, 0) for k in counted]
                       for span in report.SPAN_CALLS})
        hardware_ids = [HARDWARE_OP_BASE + j for j in range(cycle)]
        values["hwmodel.recorded_ms"] = _mean(
            totals[k].get("hwmodel.recorded", 0) for k in hardware_ids) / 1e6
        values.update(_hardware_counts(hardware))
        counts.extend(dict(o.counts) for o in hardware)
        for name in report.PER_LAYER:
            values.setdefault(name, 0.0)
    return values, notes, counts, repeats, attempted, failed


def _frame_counts(window):
    """Per-op means of the exact counts over the first cycle."""
    def total(key):
        return sum(o.counts.get(key, 0) for o in window)

    n = len(window)
    values = {name: total(name) / n for name in (
        "core.compress_passes", "core.leaf_visits", "core.compressed_bytes_loaded",
        "core.recompute_bytes_loaded", "runtime.leaves_visited", "runtime.points_examined",
        "runtime.point_bytes_loaded", "perception.clusters", "perception.ndt_iterations",
        "perception.ndt_error_m")}
    values["core.inconclusive_ratio"] = _ratio(total("core.inconclusive"),
                                               total("core.points_classified"))
    values["core.compressed_bytes_ratio"] = _ratio(total("core.compressed_bytes"),
                                                   total("core.baseline_bytes"))
    return values


def _hardware_counts(frames):
    """Per-frame means of the hardware pass's counts, and the modelled savings."""
    def total(key):
        return sum(o.counts.get(key, 0) for o in frames)

    values = {name: total(name) / len(frames) for name in (
        "hwmodel.baseline_l1_misses", "hwmodel.bonsai_l1_misses",
        "hwmodel.baseline_l2_misses", "hwmodel.bonsai_l2_misses",
        "hwmodel.baseline_dram_bytes", "hwmodel.bonsai_dram_bytes")}
    if all(o.error is None for o in frames):
        values.update(model_savings(
            [o.counts["model.baseline_latency_s"] for o in frames],
            [o.counts["model.bonsai_latency_s"] for o in frames],
            total("model.baseline_energy_j"), total("model.bonsai_energy_j")))
    return values


def model_savings(baseline_s, bonsai_s, baseline_j, bonsai_j):
    """The paper's three headline figures, Bonsai against baseline (%).

    Mean and tail (p95 over the cycle's frames) of the modelled end-to-end
    frame latency, and the modelled extract-kernel energy.
    """
    import numpy as np

    return {
        "hwmodel.model_latency_saving_pct": 100.0 * (1.0 - sum(bonsai_s) / sum(baseline_s)),
        "hwmodel.model_tail_saving_pct": 100.0 * (
            1.0 - np.percentile(bonsai_s, 95) / np.percentile(baseline_s, 95)),
        "hwmodel.model_energy_saving_pct": 100.0 * (1.0 - bonsai_j / baseline_j),
    }


# ----------------------------------------------------------------------
def run_map_serve(args, tracer):
    from perfbench import inputs, layers, memory, report
    from perfbench.hostspeed import HostSpeed
    from perfbench.mapserve import N_WORKERS, REPLAY_OP_BASE, MapServeWorkload
    from perfbench.tracing import call_counts, per_op_totals
    from repro import serve  # noqa: F401  (imported before the baseline)
    from repro.core.compressed_leaf import compression_pass_count

    setups = []
    host = HostSpeed()

    def set_up(target):
        if tracer is None:
            return timed_setup(host, target.setup)
        with tracer.installed(layers.store_targets()), \
                tracer.op(-1 - len(setups), name="setup"):
            return timed_setup(host, lambda: target.setup(tracer))

    def spare_setup():
        # A whole second store and service, timed and closed again: the
        # served one must stay the one forked before scipy was imported.
        spare = MapServeWorkload(args.seed)
        try:
            setups.append(set_up(spare))
        finally:
            spare.close()

    workload = MapServeWorkload(args.seed)
    replay = None
    baseline_mb = memory.rss_mb()
    try:
        setups.append(set_up(workload))
        # The client side's memory is the set-up (build, compression, the
        # published store); the oracle built next is the benchmark's.
        setup_mb = memory.peak_rss_mb() - baseline_mb
        workload.build_references()
        # The clients pause halfway for the middle set-up.
        served, wall, nominal_wall, passes = [], 0.0, 0.0, 0
        for half in range(2):
            if half:
                spare_setup()
            before = compression_pass_count()
            more, seconds, nominal_seconds = workload.run(args.seconds / 2, tracer, host)
            passes += compression_pass_count() - before
            served += more
            wall += seconds
            nominal_wall += nominal_seconds
        children_mb = memory.children_unique_mb()
        if tracer is not None:
            replay = workload.replay(tracer)
        ratio = workload.compression_ratio()
        while len(setups) < SETUP_REPEATS["map-serve"]:
            spare_setup()
    finally:
        workload.close()

    attempted = len(served)
    failed = sum(s.error is not None for s in served)
    for s in served:
        if s.error is not None:
            print(f"perfbench: client {s.client} request {s.number} failed: {s.error}",
                  file=sys.stderr)
    latencies = [s.seconds * 1e3 for s in served]
    cycle = len(inputs.REQUEST_CYCLE)
    stream = len(workload.requests["A"])
    first = [s for s in served if s.number < cycle]
    counts = [{f"{s.client}{s.number}": s.response_bytes} for s in first]
    by_id = {(s.client, s.number): s.response_bytes for s in served}
    repeats = [f"{c}{n}" for (c, n), size in by_id.items()
               if n >= stream and by_id.get((c, n - stream)) != size]

    queries = sum(s.size for s in served if s.error is None)
    notes = {"points_per_s": f"raw {queries / wall:.4f}",
             "peak_rss_mb": f"set-up peak over the {baseline_mb:.1f} MB before it "
                            f"{setup_mb:.1f} MB + unique memory of the "
                            f"{N_WORKERS} workers and helpers {children_mb:.1f} MB"}
    slowdowns = [s.slowdown for s in served]
    values = {
        "setup_s": nominal_setup_s(setups, notes),
        **nominal_ops(latencies, slowdowns, notes),
        "points_per_s": queries / nominal_wall,
        "peak_rss_mb": setup_mb + children_mb,
        "bench.fail_ratio": failed / attempted,
        "core.compress_passes": passes / attempted,
        "core.compressed_bytes_ratio": ratio,
        "serve.response_bytes": _mean(s.response_bytes for s in first),
        "serve.worker_mb": children_mb,
        "bench.host_slowdown": host.slowdown,
    }

    if tracer is not None:
        replay_ids = [REPLAY_OP_BASE + i for i in range(replay["replayed"])]
        totals = _layer_times(tracer, replay_ids, values)
        full = per_op_totals(tracer.spans, use_self_time=False)
        setup_ids = [-1 - r for r in range(len(setups))]
        values["kdtree.setup_build_ms"] = _mean(full[k].get("kdtree.build", 0) for k in setup_ids) / 1e6
        values["core.setup_compress_ms"] = _mean(full[k].get("core.compress", 0) for k in setup_ids) / 1e6
        values["serve.setup_pool_ms"] = _mean(full[k].get("serve.pool_start", 0) for k in setup_ids) / 1e6
        values["serve.inproc_ms"] = _mean(full[k].get("serve.inproc", 0) for k in replay_ids) / 1e6
        values["bench.op_self_ms"] = _mean(totals[k].get("serve.inproc", 0) for k in replay_ids) / 1e6
        # The replay answers one request per (client, cycle position);
        # weight the served requests the same way.
        groups = {}
        for s in served:
            groups.setdefault((s.client, s.number % cycle), []).append(s.seconds * 1e3)
        values["serve.request_ms"] = _mean(_mean(g) for g in groups.values())
        values["serve.overhead_ms"] = values["serve.request_ms"] - values["serve.inproc_ms"]
        values["bench.trace_overhead_pct"] = _overhead_pct(
            [t / s for t, s in zip(latencies, slowdowns)], [s.traced for s in served])
        calls = call_counts(tracer.spans)
        for span, metric in report.SPAN_CALLS.items():
            values[metric] = _mean(calls[k].get(span, 0) for k in replay_ids)
        n = replay["replayed"]
        for name in ("runtime.leaves_visited", "runtime.points_examined",
                     "runtime.point_bytes_loaded", "core.leaf_visits",
                     "core.compressed_bytes_loaded", "core.recompute_bytes_loaded"):
            values[name] = replay[name] / n
        values["core.inconclusive_ratio"] = _ratio(replay["core.inconclusive"],
                                                   replay["core.points_classified"])
        values["runtime.queries_per_call"] = _ratio(
            replay["runtime.queries"],
            sum(calls[k].get("runtime.radius", 0) + calls[k].get("runtime.knn", 0)
                for k in replay_ids))
        counts.append(replay)
        for name in report.PER_LAYER:
            values.setdefault(name, 0.0)
    return values, notes, counts, repeats, attempted, failed


if __name__ == "__main__":
    sys.exit(main())
