"""``certify``: one-shot certification of large yes- and no-instances.

A round certifies the whole network set on a cold vectorized engine:
``certify`` (the honest prover) then ``verify`` (kernels plus exact
certificate-size accounting) for each network.  The yes-instance is a
Delaunay triangulation of about 10^4 nodes under ``planarity-pls``; the
no-instances are Apollonian triangulations of a few hundred nodes with
three extra edges under ``non-planarity-pls``.  The prover, the
compiler, the planarity kernel's phases and size accounting do nearly
all the work; the pool, repair and batching layers are bypassed.
"""
from __future__ import annotations

import random
import statistics

from layers import span
from repro.adversary.strategies import RandomCorruption
from repro.distributed.engine import SimulationEngine
from repro.distributed.network import Network
from repro.distributed.registry import default_registry
from repro.graphs.generators import delaunay_planar_graph, planar_plus_random_edges

import checks

WORKERS = 1

SIZES = {
    "full": {"yes_n": (10_000,), "no_n": (200, 250, 300), "sample": 200},
    "smoke": {"yes_n": (300,), "no_n": (30,), "sample": 30},
}


class State:
    def __init__(self, items, sample: int) -> None:
        #: (scheme, network, is yes-instance) in round order
        self.items = items
        self.sample = sample
        self.rng_seed = 0
        self.outputs: list = []
        self.all_accepted = True
        self.prove_s: list[float] = []
        self.verify_s: list[float] = []



def setup(seed: int, size: str) -> State:
    params = SIZES[size]
    rng = random.Random(seed)
    registry = default_registry()
    items = []
    for n in params["yes_n"]:
        with span("graphs.generate"):
            graph = delaunay_planar_graph(n, seed=rng.randrange(2 ** 31))
        items.append(("planarity-pls", graph, True))
    for n in params["no_n"]:
        with span("graphs.generate"):
            graph = planar_plus_random_edges(n, extra_edges=3,
                                             seed=rng.randrange(2 ** 31))
        items.append(("non-planarity-pls", graph, False))
    built = []
    for name, graph, member in items:
        network = Network(graph, seed=rng.randrange(2 ** 31))
        with span("graphs.indexed_build"):
            graph.indexed()
        built.append((registry.create(name), network, member))
    state = State(built, params["sample"])
    state.rng_seed = rng.randrange(2 ** 31)
    return state


def ops_per_round(state: State) -> int:
    return len(state.items)


def run_round(state: State, clock) -> int:
    engine = SimulationEngine(backend="vectorized")
    outputs = []
    prove = verify = 0.0
    for scheme, network, member in state.items:
        with clock:
            certificates = engine.certify(scheme, network)
        prove += clock.laps[-1]
        with clock:
            with span("engine.verify"):
                result = engine.verify(scheme, network, certificates)
        verify += clock.laps[-1]
        state.all_accepted &= result.accepted
        outputs.append((scheme, network, member, certificates, result))
    state.outputs = outputs
    state.prove_s.append(prove)
    state.verify_s.append(verify)
    return len(state.items)


def check(state: State) -> dict[str, bool]:
    rng = random.Random(state.rng_seed)
    membership = size_exact = agree = refused = True
    for scheme, network, member, certificates, result in state.outputs:
        graph = network.graph
        membership &= checks.planar_by_networkx(graph) == member
        euler = checks.euler_decides_nonplanar(graph)
        membership &= not (euler and member)
        if not member:
            refused &= checks.planarity_prover_refuses(network)
        sample = rng.sample(network.nodes(), min(state.sample, network.size))
        agree &= checks.reference_agrees(scheme, network, certificates,
                                         result.decisions, sample)
        size_exact &= checks.encoded_sizes_match(certificates,
                                                 result.certificate_bits, sample)
        # honest labels are accepted everywhere, so also compare decisions
        # on corrupted labels, around the corrupted nodes where they reject
        corrupted = RandomCorruption().corrupt(network, certificates, rng)
        decisions = SimulationEngine(backend="vectorized").verify(
            scheme, network, corrupted).decisions
        around = {w for v in network.nodes() if corrupted[v] is not certificates[v]
                  for w in (v, *network.graph.neighbors(v))}
        agree &= checks.reference_agrees(scheme, network, corrupted, decisions,
                                         sorted(around) + sample)
    return {
        "membership_matches_networkx_and_euler": membership,
        "honest_labels_accepted_everywhere": state.all_accepted,
        "planarity_prover_refuses_no_instances": refused,
        "reference_verifier_agrees_on_sample_and_corruption": agree,
        "reported_size_equals_encoding": size_exact,
    }


def cert_sizes(state: State) -> list[tuple[int, int, int]]:
    return [checks.size_row(result.certificate_bits)
            for _, _, _, _, result in state.outputs]


def report(state: State) -> dict[str, float]:
    return {
        "prove_s (median round)": round(statistics.median(state.prove_s), 4),
        "verify_s (median round)": round(statistics.median(state.verify_s), 4),
        "rounds": len(state.prove_s),
        "nodes_per_round": sum(network.size for _, network, _ in state.items),
    }
