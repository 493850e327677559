"""JanusGraph-style distributed graph database simulator."""

from repro.database.access_log import AccessLog, record_workload
from repro.database.cluster import Cluster, ServiceModel, Worker, WorkerStats
from repro.database.mutations import (
    MUTATION_KINDS,
    GraphMutationLog,
    delete_edge_plan,
    insert_edge_plan,
    mixed_read_write_bindings,
    remove_vertex_plan,
    update_vertex_plan,
)
from repro.database.queries import (
    QUERY_KINDS,
    QueryPlan,
    QueryPlanner,
    one_hop,
    plan_query,
    shortest_path,
    two_hop,
)
from repro.database.router import (
    FailoverRouter,
    PhaseRequests,
    RoutedQuery,
    route_plan,
)
from repro.database.simulation import (
    ClosedLoopSimulation,
    SimulationResult,
    simulate_workload,
)
from repro.database.workload import QueryBinding, WorkloadGenerator

# Fault-injection API, re-exported here because the database simulator is
# its primary consumer (see docs/fault_tolerance.md).
from repro.faults import (
    ChaosHarness,
    ChaosReport,
    CrashInterval,
    FaultSchedule,
    ReplicaMap,
    RetryPolicy,
    SlowdownInterval,
)

__all__ = [
    "QueryPlan",
    "QueryPlanner",
    "one_hop",
    "two_hop",
    "shortest_path",
    "plan_query",
    "QUERY_KINDS",
    "QueryBinding",
    "WorkloadGenerator",
    "Cluster",
    "Worker",
    "WorkerStats",
    "ServiceModel",
    "RoutedQuery",
    "PhaseRequests",
    "route_plan",
    "FailoverRouter",
    "FaultSchedule",
    "CrashInterval",
    "SlowdownInterval",
    "RetryPolicy",
    "ReplicaMap",
    "ChaosHarness",
    "ChaosReport",
    "ClosedLoopSimulation",
    "SimulationResult",
    "simulate_workload",
    "AccessLog",
    "record_workload",
    "GraphMutationLog",
    "insert_edge_plan",
    "update_vertex_plan",
    "delete_edge_plan",
    "remove_vertex_plan",
    "mixed_read_write_bindings",
    "MUTATION_KINDS",
]
