"""``soundness``: corrupted labels must be rejected.

A round runs the ``adversary.default_cells`` campaign (every strategy x
every proof-labeling scheme x two small sizes, 100 corruption trials per
cell) through ``CampaignRunner(workers=2)``, then the dMAM fingerprint
sweep: ``estimate_soundness_error`` of a ``CheatingDMAMProver`` at each
of four small primes on a 2-worker engine, one pooled ``run_trials``
call per prime.  Reject-heavy batched kernels run on many small
networks; the pool starts once per call; the prover runs only on the
tiny campaign cells and size accounting is skipped.
"""
from __future__ import annotations

import random

from layers import campaign_cell, span
from repro.adversary import (CampaignRunner, CheatingDMAMProver, default_cells,
                             nonplanar_cheating_instance)
from repro.adversary.campaign import campaign_graph
from repro.baselines.dmam import PlanarityDMAMProtocol
from repro.distributed.engine import SimulationEngine, derive_seed
from repro.distributed.network import Network
from repro.distributed.registry import default_registry
from repro.observability.tracer import current

import checks

WORKERS = 2

#: the O(n log n) baseline the paper's compact schemes improve on; its
#: labels are exempt from the O(log n) size guard and from cert_bits_mean
UNIVERSAL = "universal-map-pls"

SIZES = {
    "full": {"sizes": (16, 24), "trials": 100, "primes": (127, 251, 521, 1031),
             "draws": 1500, "dmam_n": 16, "replayed": 4, "sample": 8},
    "smoke": {"sizes": (8,), "trials": 8, "primes": (127,),
              "draws": 100, "dmam_n": 12, "replayed": 2, "sample": 4},
}


class State:
    pass



def _cheating_setup(seed: int, prime: int, n: int):
    """The first non-degenerate cheating instance derived from ``seed``.

    A degenerate instance (push and pop event multisets equal mod p) makes
    every draw fool every node and lies outside the (c - 1) / p bound, so
    the sweep skips to the next derived instance seed.
    """
    protocol = PlanarityDMAMProtocol(field_prime=prime)
    for attempt in range(64):
        instance_seed = derive_seed(seed, attempt)
        with span("graphs.generate"):
            graph = nonplanar_cheating_instance(n, seed=instance_seed)
        network = Network(graph, seed=instance_seed)
        with span("dmam.first_turn"):
            prover = CheatingDMAMProver(protocol, network)
            first = prover.first_messages()
            strategy = prover.second_strategy()
        if not prover.is_degenerate():
            return protocol, network, prover, first, strategy
    raise RuntimeError(f"no non-degenerate cheating instance at p={prime}")


def setup(seed: int, size: str) -> State:
    params = SIZES[size]
    state = State()
    state.params = params
    state.seed = seed
    state.cells = default_cells(sizes=params["sizes"], trials=params["trials"],
                                seed=seed)
    # the honest baseline: every cell's network and honest assignment,
    # exactly as the campaign worker builds them
    registry = default_registry()
    state.honest = []
    for cell in state.cells:
        scheme = registry.create(cell.scheme)
        with span("graphs.generate"):
            graph = campaign_graph(cell.scheme, cell.n)
        network = Network(graph, seed=cell.seed)
        state.honest.append((scheme, network, scheme.prove(network)))
    state.sweep = [_cheating_setup(derive_seed(seed, 1000 + i), prime,
                                   params["dmam_n"])
                   for i, prime in enumerate(params["primes"])]
    state.draw_seed = derive_seed(seed, 2000)
    state.rows = None
    state.rows_stable = True
    state.estimates = []
    state.campaign_s = []
    state.sweep_s = []
    return state


def ops_per_round(state: State) -> int:
    params = state.params
    return (len(state.cells) * params["trials"]
            + len(params["primes"]) * params["draws"])


def run_round(state: State, clock) -> int:
    params = state.params
    runner = CampaignRunner(backend="vectorized", workers=WORKERS, seed=state.seed)
    with clock:
        with span("pool.run_trials"):
            if current().enabled:
                # same call as runner.run, with a worker that also traces
                # the prover and the corruption operators
                rows = runner.engine.run_trials(
                    campaign_cell, [cell.spec("vectorized") for cell in state.cells])
            else:
                rows = runner.run(state.cells)
    state.campaign_s.append(clock.laps[-1])
    if state.rows is not None:
        state.rows_stable &= rows == state.rows
    state.rows = rows
    estimates = []
    sweep = 0.0
    for protocol, network, _, first, strategy in state.sweep:
        with clock:
            engine = SimulationEngine(backend="vectorized", workers=WORKERS)
            with span("pool.run_trials"):
                estimate = engine.estimate_soundness_error(
                    protocol, network, trials=params["draws"],
                    seed=state.draw_seed, first=first, second_strategy=strategy)
        sweep += clock.laps[-1]
        estimates.append(estimate)
    state.sweep_s.append(sweep)
    state.estimates = estimates
    return ops_per_round(state)


def check(state: State) -> dict[str, bool]:
    params = state.params
    verifier = SimulationEngine(backend="vectorized")
    honest_ok = size_exact = True
    rng = random.Random(state.draw_seed)
    state.sizes = []
    for scheme, network, certificates in state.honest:
        result = verifier.verify(scheme, network, certificates)
        honest_ok &= result.accepted
        sample = rng.sample(network.nodes(), min(params["sample"], network.size))
        size_exact &= checks.encoded_sizes_match(certificates,
                                                 result.certificate_bits, sample)
        if scheme.name != UNIVERSAL:
            state.sizes.append(checks.size_row(result.certificate_bits))
    picked = sorted(rng.sample(range(len(state.cells)), params["replayed"]))
    replay = CampaignRunner(backend="reference", workers=1, seed=state.seed).run(
        [state.cells[i] for i in picked])
    replay_ok = replay == [state.rows[i] for i in picked]
    exact = bounded = True
    for (protocol, network, prover, _, _), estimate in zip(state.sweep,
                                                          state.estimates):
        predicted = prover.predict_all_accept_draws(params["draws"],
                                                    state.draw_seed)
        exact &= estimate.all_accept_count == len(predicted)
        bounded &= estimate.error_rate <= prover.analytic_bound()
    return {
        "honest_cell_labels_accepted_everywhere": honest_ok,
        "reported_size_equals_encoding": size_exact,
        "reference_replay_matches_pooled_rows": replay_ok,
        "campaign_rows_identical_every_round": state.rows_stable,
        "dmam_all_accept_equals_prediction": exact,
        "dmam_error_within_analytic_bound": bounded,
    }


def cert_sizes(state: State) -> list[tuple[int, int, int]]:
    return state.sizes


def report(state: State) -> dict[str, float]:
    params = state.params
    trials = len(state.cells) * params["trials"]
    draws = len(params["primes"]) * params["draws"]
    figures = {
        "trials_per_s": round(trials * len(state.campaign_s) / sum(state.campaign_s), 2),
        "draws_per_s": round(draws * len(state.sweep_s) / sum(state.sweep_s), 2),
        "rounds": len(state.campaign_s),
        "cells": len(state.cells),
    }
    for (protocol, _, prover, _, _), estimate in zip(state.sweep, state.estimates):
        figures[f"dmam_error_p{protocol.field_prime}"] = (
            f"{estimate.error_rate:.4f} (bound {prover.analytic_bound():.4f})")
    return figures
