"""Traced mode: spans around the benchmark's calls into each layer, and the
per-layer table built from them.

The program already opens spans inside the engine, the compiler, the
kernels, the view layer and the dynamic layer (see docs/OBSERVABILITY.md).
Four layers emit no span of their own: graph generation, the honest
prover, certificate-size accounting and the adversary's corruption
operators.  :func:`instrument` wraps their public entry points for the
lifetime of the process so that, while a tracer is enabled, each call
opens a span named after its layer (``core.prove``,
``verifier.size_accounting``, ``adversary.corrupt``).  The wrappers test
``current().enabled`` first, so an untraced pass pays one flag check per
call.  Calls the benchmark makes itself (generation, CSR build,
``engine.verify``, pooled calls, the cheating prover's first turn, edge
events) are wrapped at the call site with :func:`span`.

:func:`layer_metrics` turns the tracer's spans and counters into the
``per_layer`` metrics named in ``BENCHMARK.json``; :func:`layer_table`
renders the wall-time decomposition with its ``untraced`` remainder.
"""
from __future__ import annotations

import functools
from collections import defaultdict
from typing import Any

from repro.observability.tracer import current

#: kernels registered by ``default_registry()``; one metric each
KERNEL_SCHEMES = (
    "non-planarity-pls", "path-graph-pls", "path-outerplanarity-pls",
    "planarity-dmam", "planarity-pls", "tree-pls", "universal-map-pls",
)
#: the planarity kernel's phase spans (``kernel:planarity-pls/<phase>``)
PLANARITY_PHASES = (
    "spanning_tree", "visibility_join", "collection", "interval_map",
    "euler_tour", "chords", "algorithm1",
)

_INSTALLED = False


def span(name: str):
    """A span on the current tracer (the shared null span when untraced)."""
    return current().span(name)


def _traced(function, name: str, attrs):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        tracer = current()
        if not tracer.enabled:
            return function(*args, **kwargs)
        with tracer.span(name) as sp:
            result = function(*args, **kwargs)
            sp.set(**attrs(args, result))
            return result
    return wrapper


def _prove_attrs(args, result):
    return {"nodes": len(result)}


def _size_attrs(args, result):
    return {"nodes": len(result), "bits": sum(result.values())}


def _no_attrs(args, result):
    return {}


def instrument() -> None:
    """Wrap the layers that emit no span of their own (idempotent).

    Runs in the benchmark process and, through :func:`campaign_cell`, in
    pool workers, so worker-side prover and corruption time is traced too.
    """
    global _INSTALLED
    if _INSTALLED:
        return
    _INSTALLED = True
    from repro.adversary.strategies import STRATEGIES
    from repro.distributed import engine as engine_module
    from repro.distributed.registry import default_registry

    registry = default_registry()
    classes = {type(registry.create(name)) for name in registry.names(kind="pls")}
    for cls in classes:
        cls.prove = _traced(cls.prove, "core.prove", _prove_attrs)
    # the engine calls the name it imported, so wrap it there
    engine_module.certificate_statistics = _traced(
        engine_module.certificate_statistics, "verifier.size_accounting",
        _size_attrs)
    for cls in STRATEGIES.values():
        cls.corrupt = _traced(cls.corrupt, "adversary.corrupt", _no_attrs)


def campaign_cell(spec: tuple) -> dict[str, Any]:
    """Pool worker for traced campaigns: instrument this process, then run
    the library's own cell worker unchanged."""
    from repro.adversary.campaign import run_campaign_cell

    instrument()
    return run_campaign_cell(spec)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _layer_of(name: str) -> str:
    """The table row a span's self time is charged to."""
    if name.startswith("kernel:"):
        return "kernels"
    if name.startswith("compile") or name.startswith("batch_build"):
        return "compiler"
    if name in ("fallback", "reference_loop", "delta_compile", "engine.verify"):
        return "engine"
    if name == "view_materialize":
        return "views"
    if name in ("repair", "radius1_verify") or name.startswith("dynamic."):
        return "dynamic"
    if name in ("pool.run_trials", "shm_attach", "shm_export"):
        return "pool+shm"
    if name == "interactive_round" or name.startswith("dmam."):
        return "dmam"
    if name == "core.prove":
        return "core"
    if name.startswith("graphs."):
        return "graphs"
    if name == "verifier.size_accounting":
        return "verifier"
    if name == "adversary.corrupt":
        return "adversary"
    return "other"


def _self_times(spans) -> dict[int, float]:
    child = defaultdict(float)
    for sp in spans:
        if sp.parent_id is not None:
            child[sp.parent_id] += sp.duration
    return {sp.span_id: sp.duration - child[sp.span_id] for sp in spans}


def _busiest(durations: list[float], workers: int) -> float:
    """Busy time of the most loaded worker when ``durations`` are handed,
    in order, to whichever worker frees up first (the pool's own policy;
    absorbed spans carry the spec index, not the worker process)."""
    loads = [0.0] * workers
    for duration in durations:
        loads[loads.index(min(loads))] += duration
    return max(loads)


def layer_metrics(tracer, wall_s: float, workers: int) -> dict[str, float]:
    """Every per-layer metric, computed from one traced phase.

    ``wall_s`` is the traced phase's wall time (set-up plus traced
    rounds) and ``workers`` the pool width.  Edge events are counted by
    the benchmark's ``dynamic.apply_events`` spans, one per event.
    Layers a workload bypasses read 0.
    """
    spans = tracer.spans
    local = [sp for sp in spans if sp.worker is None]
    selfs = _self_times(spans)
    total = defaultdict(float)
    count = defaultdict(int)
    attr = defaultdict(float)
    for sp in spans:
        total[sp.name] += sp.duration
        count[sp.name] += 1
        if sp.attributes:
            for key in ("nodes", "bits", "changed"):
                value = sp.attributes.get(key)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    attr[(sp.name, key)] += value
    counters = tracer.metrics.counters
    events = count["dynamic.apply_events"]

    m: dict[str, float] = {}
    m["graphs.generate_s"] = total["graphs.generate"]
    m["graphs.indexed_build_s"] = total["graphs.indexed_build"]
    m["core.prove_s"] = total["core.prove"]
    proved = attr[("core.prove", "nodes")]
    m["core.prove_us_per_node"] = 1e6 * total["core.prove"] / proved if proved else 0.0
    m["verifier.size_accounting_s"] = total["verifier.size_accounting"]
    m["verifier.certificate_bits_total"] = attr[("verifier.size_accounting", "bits")]
    m["compiler.compile_s"] = sum(selfs[sp.span_id] for sp in spans
                                  if sp.name.startswith("compile"))
    m["compiler.batch_build_s"] = total["batch_build"]
    m["compiler.batch_concat_s"] = total["batch_build/concat"]
    for scheme in KERNEL_SCHEMES:
        m[f"kernels.{scheme}_s"] = total["kernel:" + scheme]
    for phase in PLANARITY_PHASES:
        m[f"kernels.planarity-pls.{phase}_s"] = total[f"kernel:planarity-pls/{phase}"]
    m["kernels.calls"] = sum(count["kernel:" + s] for s in KERNEL_SCHEMES)
    m["kernels.nodes"] = sum(attr[("kernel:" + s, "nodes")] for s in KERNEL_SCHEMES)
    m["engine.fallback_nodes"] = sum(value for name, value in counters.items()
                                     if name.startswith("fallback_nodes."))
    m["engine.fallback_s"] = total["fallback"]
    m["engine.reference_loop_s"] = total["reference_loop"]
    m["engine.delta_compile_s"] = total["delta_compile"]
    m["engine.verify_untraced_s"] = sum(selfs[sp.span_id] for sp in local
                                        if sp.name == "engine.verify")
    m["views.materialize_s"] = total["view_materialize"]
    m["dynamic.repair_s"] = total["repair"]
    m["dynamic.repair_fallbacks"] = counters.get("repair_fallbacks", 0)
    m["dynamic.changed_per_event"] = (attr[("repair", "changed")] / events
                                      if events else 0.0)
    m["dynamic.radius1_verify_s"] = total["radius1_verify"]
    m["dynamic.redecided_per_event"] = (attr[("radius1_verify", "nodes")] / events
                                        if events else 0.0)
    # pooled calls: parent wall, worker-side busy time, and the start-up
    # share (wall minus the busiest worker's busy time), call by call.
    # Worker payloads are absorbed while the call's span is open, so their
    # ids sit above that span's id and below the next call's.
    calls = sorted((sp for sp in local if sp.name == "pool.run_trials"),
                   key=lambda sp: sp.span_id)
    worker_trials = [sp for sp in spans if sp.worker is not None
                     and sp.name == "trial" and sp.parent_id is None]
    trials_by_call = defaultdict(list)
    for trial in worker_trials:
        owner = max((call for call in calls if call.span_id < trial.span_id),
                    key=lambda call: call.span_id, default=None)
        if owner is not None:
            trials_by_call[owner.span_id].append(trial.duration)
    m["pool.run_trials_s"] = sum(call.duration for call in calls)
    m["pool.worker_busy_s"] = sum(sp.duration for sp in worker_trials)
    m["pool.start_s"] = sum(
        max(0.0, call.duration - _busiest(trials_by_call[call.span_id], workers))
        for call in calls)
    m["shm.attach_s"] = total["shm_attach"]
    m["shm.bytes_pickled"] = counters.get("bytes_pickled.specs", 0)
    m["adversary.corrupt_s"] = total["adversary.corrupt"]
    m["dmam.interactive_round_s"] = total["interactive_round"]
    m["dmam.first_turn_s"] = total["dmam.first_turn"]
    m["untraced_s"] = layer_table(tracer, wall_s)[-1][1]
    return m


def layer_table(tracer, wall_s: float) -> list[tuple[str, float]]:
    """Rows ``(layer, self seconds)`` of the traced wall time, ending with
    the ``untraced`` remainder; worker-side spans are excluded because
    they ran beside the parent, not inside its wall time."""
    rows = _rows([sp for sp in tracer.spans if sp.worker is None])
    covered = sum(seconds for _, seconds in rows)
    rows.append(("untraced", max(0.0, wall_s - covered)))
    return rows


def worker_table(tracer) -> list[tuple[str, float]]:
    """Rows ``(layer, self seconds)`` of the time pool workers were busy;
    a worker's ``trial`` root span covers the whole trial, so its self
    time is the trial's untraced remainder."""
    return _rows([sp for sp in tracer.spans if sp.worker is not None],
                 trial="untraced")


def _rows(spans, trial: str = "pool+shm") -> list[tuple[str, float]]:
    selfs = _self_times(spans)
    rows = defaultdict(float)
    for sp in spans:
        layer = trial if sp.name == "trial" else _layer_of(sp.name)
        rows[layer] += selfs[sp.span_id]
    return sorted(rows.items(), key=lambda item: -item[1])
