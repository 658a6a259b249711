"""Hamiltonian cycle search by smooth determinant minimization over
stochastic and doubly stochastic relaxations of the cycle polytope."""

from dipa.graph import (
    ArcVarMap,
    CycleCertificate,
    DeflationRecord,
    Graph,
    GraphError,
    build_arc_map,
    deflate,
    delete_arc,
    enumerate_hc,
    expand_cycle,
    gen_random_graph,
    is_connected,
    petersen,
    read_graph,
    write_graph,
)

__all__ = [
    "ArcVarMap",
    "CycleCertificate",
    "DeflationRecord",
    "Graph",
    "GraphError",
    "build_arc_map",
    "deflate",
    "delete_arc",
    "enumerate_hc",
    "expand_cycle",
    "gen_random_graph",
    "is_connected",
    "petersen",
    "read_graph",
    "write_graph",
]

__version__ = "0.1.0"
