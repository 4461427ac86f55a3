"""Correctness checks computed apart from the program under test.

Membership comes from networkx's planarity test, called here on a graph
built edge by edge from the program's graph, and from Euler's bound
(a simple planar graph on n >= 3 nodes has at most 3n - 6 edges).
Decisions are re-derived one node at a time with the reference verifier
(``structure_at`` + ``assemble_view`` + ``scheme.verify``), the path the
vectorized backend must agree with.  Certificate sizes are re-measured
by a real ``encode()`` into a ``BitWriter``.
"""
from __future__ import annotations

import hashlib

import networkx as nx

from repro.distributed.certificates import BitWriter
from repro.distributed.views import assemble_view, structure_at
from repro.exceptions import NotInClassError


def planar_by_networkx(graph) -> bool:
    copy = nx.Graph()
    copy.add_nodes_from(graph.nodes())
    copy.add_edges_from(graph.edges())
    planar, _ = nx.check_planarity(copy)
    return planar


def euler_decides_nonplanar(graph) -> bool:
    """True when m > 3n - 6 proves the graph non-planar on its own."""
    n = graph.number_of_nodes()
    return n >= 3 and graph.number_of_edges() > 3 * n - 6


def planarity_prover_refuses(network) -> bool:
    from repro.core.planarity_scheme import PlanarityScheme

    try:
        PlanarityScheme().prove(network)
    except NotInClassError:
        return True
    return False


def reference_decision(scheme, network, certificates, node) -> bool:
    return bool(scheme.verify(assemble_view(structure_at(network, node, 1),
                                            certificates, 1)))


def reference_agrees(scheme, network, certificates, decisions, nodes) -> bool:
    return all(reference_decision(scheme, network, certificates, node)
               == decisions[node] for node in nodes)


def reference_digest(scheme, network, certificates) -> str:
    """Digest of a from-scratch reference verification, in the format of
    ``DynamicAuditor.decisions_digest``."""
    id_of = network.id_of
    blob = "\n".join(
        f"{identifier}:{int(decision)}"
        for identifier, decision in sorted(
            (id_of(node), reference_decision(scheme, network, certificates, node))
            for node in network.nodes()))
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def encoded_sizes_match(certificates, reported, nodes) -> bool:
    """The size the program reported equals a real encoding's length."""
    for node in nodes:
        writer = BitWriter()
        certificate = certificates[node]
        if certificate is None:
            writer.write_bit(0)
        else:
            certificate.encode(writer)
        if len(writer) != reported[node]:
            return False
    return True


def size_row(bits: dict) -> tuple[int, int, int]:
    """``(n, largest, total)`` of one network's per-node certificate sizes."""
    return len(bits), max(bits.values()), sum(bits.values())
