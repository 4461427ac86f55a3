"""The run loop shared by every workload.

A workload module provides:

* ``setup(seed, size) -> state`` — input generation and honest baseline;
  the harness runs it once for the rounds and again between rounds
  (the same seed gives the same inputs) and reports the median as
  ``setup_s``;
* ``run_round(state, clock) -> int`` — one round of the workload's
  operations; every program call is made inside ``with clock:`` so that
  the benchmark's own checks between calls are not timed.  Returns the
  number of operations the round attempted; an exception fails the
  whole round's operations;
* ``check(state) -> dict[str, bool]`` — the independent correctness
  checks, run after the timed phase;
* ``ops_per_round(state) -> int`` — what a failed round counts as failed;
* ``cert_sizes(state) -> list[(n, max_bits, total_bits)]`` — for each
  network the run certified with a compact scheme: its size, its largest
  and its summed encoded honest certificate sizes;
* ``report(state) -> dict`` — the workload's own figures, printed but
  not gated;
* ``WORKERS`` — pool width, for the per-layer pool accounting.

Untraced runs measure whole rounds until at least ``seconds`` of program
time has passed.  Traced runs alternate untraced and traced rounds, so
the tracing overhead is measured in the same run, and build the
per-layer metrics from the traced set-up and traced rounds only.
"""
from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import sys
import time
import traceback

from repro.observability.tracer import Tracer, install, stop_tracing

#: set-up runs once before the first round and again between rounds,
#: each time until ``SETUP_GAP_SECONDS`` have passed there (its result is
#: then discarded); ``setup_s`` is the median of all these set-ups, so it
#: samples the machine over the whole run, as the rounds do
SETUP_GAP_SECONDS = 0.5

#: a repeat set-up comes before a round only while the set-ups so far took
#: less than this share of the rounds' program time, so a workload with a
#: slow set-up keeps most of its run for the rounds
SETUP_SHARE = 0.2

#: upper bound on ``cert_bits_max / ceil(log2 n)`` (see README)
BITS_PER_LOG2_N = 200

#: end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "round_s": ("s", "lower"),
    "cert_bits_mean": ("bits", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}


def _per_layer() -> dict[str, tuple[str, str]]:
    from layers import KERNEL_SCHEMES, PLANARITY_PHASES

    s, lower = "s", "lower"
    metrics = {
        "graphs.generate_s": (s, lower),
        "graphs.indexed_build_s": (s, lower),
        "core.prove_s": (s, lower),
        "core.prove_us_per_node": ("us", lower),
        "verifier.size_accounting_s": (s, lower),
        "verifier.certificate_bits_total": ("bits", lower),
        "compiler.compile_s": (s, lower),
        "compiler.batch_build_s": (s, lower),
        "compiler.batch_concat_s": (s, lower),
    }
    metrics.update({f"kernels.{name}_s": (s, lower) for name in KERNEL_SCHEMES})
    metrics.update({f"kernels.planarity-pls.{phase}_s": (s, lower)
                    for phase in PLANARITY_PHASES})
    metrics.update({
        "kernels.calls": ("count", lower),
        "kernels.nodes": ("count", lower),
        "engine.fallback_nodes": ("count", lower),
        "engine.fallback_s": (s, lower),
        "engine.reference_loop_s": (s, lower),
        "engine.delta_compile_s": (s, lower),
        "engine.verify_untraced_s": (s, lower),
        "views.materialize_s": (s, lower),
        "dynamic.repair_s": (s, lower),
        "dynamic.repair_fallbacks": ("count", lower),
        "dynamic.changed_per_event": ("count", lower),
        "dynamic.radius1_verify_s": (s, lower),
        "dynamic.redecided_per_event": ("count", lower),
        "pool.run_trials_s": (s, lower),
        "pool.worker_busy_s": (s, lower),
        "pool.start_s": (s, lower),
        "shm.attach_s": (s, lower),
        "shm.bytes_pickled": ("bytes", lower),
        "adversary.corrupt_s": (s, lower),
        "dmam.interactive_round_s": (s, lower),
        "dmam.first_turn_s": (s, lower),
        "untraced_s": (s, lower),
    })
    return metrics


PER_LAYER = _per_layer()


class Clock:
    """Accumulates the wall time spent inside ``with clock:`` blocks.

    A clock given a tracer installs it for the duration of each block, so
    a traced round traces the program calls and not the checks between
    them.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.seconds = 0.0
        self.laps: list[float] = []
        self._start = 0.0

    def __enter__(self) -> "Clock":
        if self.tracer is not None:
            install(self.tracer)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        lap = time.perf_counter() - self._start
        if self.tracer is not None:
            stop_tracing()
        self.seconds += lap
        self.laps.append(lap)
        return False


def peak_rss_mib() -> float:
    """Peak resident set of this process or of any pool child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _setup(workload, seed: int, size: str, clock: "Clock", least: float):
    """Set up until ``least`` seconds have passed on ``clock`` (at least
    once); returns the last state."""
    start = clock.seconds
    state = None
    while state is None or clock.seconds - start < least:
        state = None  # free the previous set-up before building the next
        gc.collect()
        with clock:
            state = workload.setup(seed, size)
    return state


def _rounds(workload, state, seed: int, size: str, seconds: float,
            setup_clock: "Clock", tracer=None):
    """Run whole rounds until ``seconds`` of program time, with set-ups
    timed in between (see ``SETUP_SHARE``); with a tracer, alternate
    untraced and traced rounds (untraced first)."""
    clocks = {False: Clock(), True: Clock(tracer)}
    attempted = failed = rounds = 0
    round_times = {False: [], True: []}
    # at least one round, and with a tracer one traced round as well
    least = 1 if tracer is None else 2
    while clocks[False].seconds + clocks[True].seconds < seconds or rounds < least:
        if setup_clock.seconds < SETUP_SHARE * (clocks[False].seconds
                                                + clocks[True].seconds):
            _setup(workload, seed, size, setup_clock, SETUP_GAP_SECONDS)
        traced = tracer is not None and rounds % 2 == 1
        clock = clocks[traced]
        before = clock.seconds
        gc.collect()
        try:
            attempted += workload.run_round(state, clock)
        except Exception:  # one failed round: count its operations, go on
            traceback.print_exc(file=sys.stderr)
            ops = workload.ops_per_round(state)
            attempted += ops
            failed += ops
        round_times[traced].append(clock.seconds - before)
        rounds += 1
    return attempted, failed, round_times, clocks


def run(workload, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """One benchmark run; returns the result object printed as JSON."""
    # first imports happen before any timing: networkx (the checks and
    # the prover) and scipy.spatial (the first Delaunay triangulation)
    import networkx  # noqa: F401
    import scipy.spatial  # noqa: F401

    tracer = None
    if trace:
        import layers

        layers.instrument()
        tracer = Tracer(enabled=True, max_spans=1_000_000)
    setup_clock = Clock(tracer)
    state = _setup(workload, seed, size, setup_clock, 0.0)
    attempted, failed, round_times, clocks = _rounds(
        workload, state, seed, size, seconds, setup_clock, tracer)
    setup_times = setup_clock.laps

    print("figure: set-up times (s) = " + " ".join(f"{t:.3f}" for t in setup_times))
    checks = workload.check(state)
    sizes = workload.cert_sizes(state)
    # the paper's O(log n) label claim, with the constant from the README
    checks["cert_bits_within_c_log_n"] = all(
        largest <= BITS_PER_LOG2_N * math.ceil(math.log2(n))
        for n, largest, _ in sizes)
    correct = all(checks.values())
    print(f"checks: {sum(checks.values())}/{len(checks)} passed "
          + " ".join(f"{name}={'ok' if ok else 'FAIL'}" for name, ok in checks.items()))
    for name, value in workload.report(state).items():
        print(f"figure: {name} = {value}")
    print(f"figure: cert_bits_max = {max(largest for _, largest, _ in sizes)}")
    print(f"figure: effective_cpus = {len(os.sched_getaffinity(0))}")
    print("figure: round times (s) = "
          + " ".join(f"{t:.3f}" for t in round_times[False]))

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "round_s": statistics.median(round_times[False]),
            "cert_bits_mean": (sum(total for _, _, total in sizes)
                               / sum(n for n, _, _ in sizes)),
            "peak_rss_mib": peak_rss_mib(),
        }
        units = END_TO_END
    else:
        import layers

        wall = sum(setup_times) + clocks[True].seconds
        metrics = layers.layer_metrics(tracer, wall, workload.WORKERS)
        units = PER_LAYER
        untraced = statistics.fmean(round_times[False])
        traced = statistics.fmean(round_times[True]) if round_times[True] else untraced
        print(f"traced wall {wall:.3f} s over {len(setup_times)} set-ups and "
              f"{len(round_times[True])} traced rounds "
              f"(spans {len(tracer.spans)}, dropped {tracer.dropped_spans})")
        print(f"tracing overhead: traced round {traced:.3f} s vs untraced "
              f"{untraced:.3f} s ({100 * (traced - untraced) / untraced:+.1f}%)")
        print(f"{'layer':<12} {'self s':>10} {'share':>7}")
        for layer, self_s in layers.layer_table(tracer, wall):
            print(f"{layer:<12} {self_s:>10.3f} {100 * self_s / wall:>6.1f}%")
        busy = layers.worker_table(tracer)
        if busy:
            total = sum(self_s for _, self_s in busy)
            print(f"{'in workers':<12} {'self s':>10} {'share':>7}")
            for layer, self_s in busy:
                print(f"{layer:<12} {self_s:>10.3f} {100 * self_s / total:>6.1f}%")
    for name, value in metrics.items():
        unit, better = units[name]
        print(f"metric: {name} = {value:.6g} {unit} ({better} is better)")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name][0]}
                    for name in units},
    }
