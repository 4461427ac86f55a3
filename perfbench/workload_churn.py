"""``churn``: re-auditing an overlay as it changes, edge by edge.

A ``DynamicAuditor`` runs ``planarity-pls`` on a Delaunay mesh of about
2000 nodes.  A round is 15 chord flaps (remove, then re-add, a cotree
edge: the topology stays planar), then an epoch that re-verifies the
whole live network on one warm vectorized engine; then one trunk flap
(a spanning-tree edge: its repair falls back to a counted full
re-prove), one miswired long link (added, then removed: it makes the
mesh non-planar and must alarm) and a last epoch.
Repair, the radius-1 re-decide and the engine's delta invalidation
dominate; the prover runs only on fallbacks.
"""
from __future__ import annotations

import random
import statistics

from layers import span
from repro.core.planarity_scheme import CotreeEdgeCertificate, PlanarityScheme
from repro.distributed.engine import SimulationEngine
from repro.distributed.network import Network
from repro.dynamic import DynamicAuditor
from repro.graphs.generators import delaunay_planar_graph

import checks

WORKERS = 1

#: chord flaps between two epochs: 30 edge deltas, within the 32 the
#: engine patches its caches through (more and it recompiles from scratch)
BLOCK_FLAPS = 15

SIZES = {
    "full": {"mesh_n": 2000},
    "smoke": {"mesh_n": 200},
}


class State:
    pass



def setup(seed: int, size: str) -> State:
    params = SIZES[size]
    rng = random.Random(seed)
    with span("graphs.generate"):
        graph = delaunay_planar_graph(params["mesh_n"], seed=rng.randrange(2 ** 31))
    network = Network(graph, seed=rng.randrange(2 ** 31))
    with span("graphs.indexed_build"):
        graph.indexed()
    scheme = PlanarityScheme()
    auditor = DynamicAuditor(network, scheme)
    with span("dynamic.baseline"):
        auditor.baseline()
    engine = SimulationEngine(backend="vectorized")
    with span("engine.verify"):
        engine.verify(scheme, network, auditor.certificates)
    state = State()
    state.params = params
    state.rng = random.Random(rng.randrange(2 ** 31))
    state.network, state.scheme = network, scheme
    state.auditor, state.engine = auditor, engine
    state.chords, state.trunk = _split_edges(auditor)
    state.event_ms: list[float] = []
    state.epoch_s: list[float] = []
    state.failures: dict[str, int] = {
        "chord_flap_alarmed": 0, "trunk_flap_alarmed": 0,
        "nonplanar_link_silent": 0, "planar_link_alarmed": 0,
        "removed_link_still_alarmed": 0, "epoch_differs_from_auditor": 0,
        "digest_differs_from_reference": 0, "verdict_differs_from_networkx": 0,
    }
    state.links = state.nonplanar_links = state.fallbacks = 0
    return state


def _split_edges(auditor):
    """Cotree (chord) and spanning-tree edges of the current assignment."""
    chords = set()
    for certificate in auditor.certificates.values():
        for edge in certificate.edge_certificates:
            if isinstance(edge, CotreeEdgeCertificate):
                chords.add(tuple(sorted((edge.a_id, edge.b_id))))
    network = auditor.network
    id_of = network.id_of
    edges = {tuple(sorted((id_of(u), id_of(v)))) for u, v in network.graph.edges()}
    return sorted(chords), sorted(edges - chords)


def ops_per_round(state: State) -> int:
    return 2 * BLOCK_FLAPS + 4 + 2


def _event(state: State, clock, op: str, a: int, b: int):
    node_of = state.network.node_of
    with clock:
        with span("dynamic.apply_events"):
            report = state.auditor.apply_event(op, node_of(a), node_of(b))
    state.event_ms.append(1e3 * clock.laps[-1])
    state.fallbacks += report.fallback
    return report


def _flap(state: State, clock, edge, failure: str) -> None:
    a, b = edge
    removed = _event(state, clock, "remove_edge", a, b)
    added = _event(state, clock, "add_edge", a, b)
    if not (removed.accept_all and added.accept_all):
        state.failures[failure] += 1
    if removed.fallback or added.fallback:
        state.chords, state.trunk = _split_edges(state.auditor)


def _long_link(state: State) -> tuple[int, int]:
    network = state.network
    ids = network.ids()
    while True:
        a, b = state.rng.sample(ids, 2)
        if not network.graph.has_edge(network.node_of(a), network.node_of(b)):
            return a, b


def _epoch(state: State, clock) -> None:
    """Re-verify the whole live network on the warm engine."""
    auditor = state.auditor
    with clock:
        with span("engine.verify"):
            epoch = state.engine.verify(state.scheme, state.network,
                                        auditor.certificates)
    state.epoch_s.append(clock.laps[-1])
    state.last_epoch = epoch
    state.failures["epoch_differs_from_auditor"] += epoch.decisions != auditor.decisions


def run_round(state: State, clock) -> int:
    rng = state.rng
    for _ in range(BLOCK_FLAPS):
        _flap(state, clock, rng.choice(state.chords), "chord_flap_alarmed")
    _epoch(state, clock)
    _flap(state, clock, rng.choice(state.trunk), "trunk_flap_alarmed")

    a, b = _long_link(state)
    landed = _event(state, clock, "add_edge", a, b)
    state.links += 1
    if checks.planar_by_networkx(state.network.graph):
        state.failures["planar_link_alarmed"] += not landed.accept_all
    else:
        state.nonplanar_links += 1
        state.failures["nonplanar_link_silent"] += not landed.alarms
    restored = _event(state, clock, "remove_edge", a, b)
    state.failures["removed_link_still_alarmed"] += not restored.accept_all
    if landed.fallback or restored.fallback:
        state.chords, state.trunk = _split_edges(state.auditor)

    _epoch(state, clock)
    auditor = state.auditor
    # checkpoint: the incremental state against a from-scratch reference
    expected = checks.reference_digest(state.scheme, state.network,
                                       auditor.certificates)
    state.failures["digest_differs_from_reference"] += (
        auditor.decisions_digest() != expected)
    state.failures["verdict_differs_from_networkx"] += (
        auditor.accepts_all != checks.planar_by_networkx(state.network.graph))
    return ops_per_round(state)


def check(state: State) -> dict[str, bool]:
    results = {name: count == 0 for name, count in state.failures.items()}
    # the last epoch verified the final live assignment
    certificates = state.auditor.certificates
    reported = state.last_epoch.certificate_bits
    sample = random.Random(0).sample(sorted(certificates), 50)
    results["reported_size_equals_encoding"] = checks.encoded_sizes_match(
        certificates, reported, sample)
    return results


def cert_sizes(state: State) -> list[tuple[int, int, int]]:
    return [checks.size_row(state.last_epoch.certificate_bits)]


def report(state: State) -> dict[str, float]:
    events = sorted(state.event_ms)
    cuts = statistics.quantiles(events, n=100)
    return {
        "events": len(events),
        "events_per_s": round(1e3 * len(events) / sum(events), 2),
        "event_p50_ms": round(statistics.median(events), 3),
        "event_p95_ms": round(cuts[94], 3),
        "event_p99_ms": round(cuts[98], 3),
        "epoch_verify_s (median)": round(statistics.median(state.epoch_s), 4),
        "repair_fallbacks": state.fallbacks,
        "miswired_links": f"{state.nonplanar_links} non-planar of {state.links}",
    }
