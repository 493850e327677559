"""Synchronous GAS engine with exact communication accounting.

This is the repo's stand-in for PowerLyra's analytics engine.  Each
super-step of a workload is executed on the full graph (the numerical
result of a BSP vertex program is independent of placement), while the
*distributed* quantities — who stores which edge, which replicas exchange
which messages — are derived exactly from the
:class:`~repro.analytics.placement.Placement`:

**Gather** — partial aggregates are computed where edges live.  For every
receiving vertex ``v``, each partition holding at least one active
in-coming edge of ``v`` produces one partial-aggregate message to ``v``'s
master (none if that partition *is* the master).  This is PowerGraph's
mirror→master sync, and — per Appendix B — also the cost of edge-cut
systems with sender-side aggregation, because the Appendix-B placement
stores out-edges at their source's master.

**Apply** — masters combine partials and update the vertex value.

**Scatter/mirror update** — every vertex whose value changed must refresh
the replicas that will read it next step: the partitions holding its
out-edges for uni-directional workloads (PageRank, SSSP), all its
partitions for bi-directional ones (WCC).  For the Appendix-B edge-cut
placement and a uni-directional workload this count is exactly zero —
out-edges are master-local — which is why "edge-cut partitioning has less
network communication for the same replication factor ... for PageRank"
(Section 6.2.1): the behaviour *emerges from the geometry* here rather
than being special-cased.

Superstep execution
-------------------
The accounting passes are organised around two structures that the old
per-step loop recomputed from scratch (see ``repro.analytics._reference``
for that loop, against which this engine is held byte-identical by
``tests/test_substrate_equivalence.py``):

* **Presorted edge keys** (:class:`_DirectionPasses`) — each direction's
  ``receiver * k + part`` keys are sorted once per run, by the radix
  :func:`~repro.graph.sorting.stable_argsort`, so a step's pair set is
  the *order-preserving subset* of an already-sorted array: a linear
  run-length dedupe gives the distinct pairs, in the order a sort-based
  unique would.
* **Activity-keyed caches** — gather, apply and scatter results are
  memoised against a copy of the activity mask (compared by content, so
  a hit is exactly the case where the old loop recomputed identical
  values).  All-active workloads like 20-iteration PageRank hit on every
  step after the first; shrinking-activity workloads (WCC, k-core) miss
  and pay only the sort-free pass.

Bi-directional workloads unite the two directions' gather targets on a
boolean vertex mask before apply counts them per master: the same
vertex set as a sorted union, without a sort.  Every array here lives
for one :meth:`GasEngine.run`; nothing is kept on the placement.
"""

from __future__ import annotations

import numpy as np

from repro.analytics.cost import DEFAULT_COST_MODEL, CostModel
from repro.analytics.placement import Placement
from repro.analytics.result import AnalyticsRun, IterationStats, RecoveryEvent
from repro.analytics.workloads.base import Workload
from repro.errors import FaultInjectionError, SimulationError
from repro.faults import NO_FAULTS, FaultSchedule
from repro.graph.digraph import Graph
from repro.graph.sorting import dedupe_sorted, stable_argsort
from repro.partitioning.base import VertexPartition
from repro.partitioning.dynamic import reassign_lost_vertices
from repro.telemetry import get_tracer
from repro.telemetry.tracer import SimClock, Tracer


class _DirectionPasses:
    """One gather direction: presorted keys + last-activity memo.

    ``keys = receiver * k + part`` over all edges, argsorted once; a
    step's active subset selected in that order is itself sorted, so the
    distinct (receiver, partition) pair set falls out of a linear dedupe.
    The memo caches the full gather pass keyed on the sender mask's
    *content* — a hit is precisely a step the reference loop would spend
    recomputing identical arrays.
    """

    __slots__ = ("sender_sorted", "keys_sorted", "parts_sorted", "master",
                 "k", "mask", "version", "edge_counts", "gather_msgs",
                 "master_counts", "targets")

    def __init__(self, sender_index: np.ndarray, keys: np.ndarray,
                 edge_parts: np.ndarray, master: np.ndarray, k: int):
        order = stable_argsort(keys)
        self.sender_sorted = sender_index[order]
        self.keys_sorted = keys[order]
        self.parts_sorted = edge_parts[order]
        self.master = master
        self.k = k
        self.mask: np.ndarray | None = None
        self.version = -1
        self.edge_counts: np.ndarray | None = None
        self.gather_msgs = 0
        self.master_counts: np.ndarray | None = None
        self.targets: np.ndarray | None = None

    def gather(self, senders: np.ndarray) -> None:
        """Run (or recall) the gather pass for this step's sender mask."""
        if self.mask is not None and np.array_equal(self.mask, senders):
            return
        active_sorted = senders[self.sender_sorted]
        selected = self.keys_sorted[active_sorted]
        self.edge_counts = np.bincount(self.parts_sorted[active_sorted],
                                       minlength=self.k)
        pairs = dedupe_sorted(selected)
        pair_vertices, pair_parts = np.divmod(pairs, self.k)
        remote = pair_parts != self.master[pair_vertices]
        self.gather_msgs = int(remote.sum())
        self.master_counts = np.bincount(
            self.master[pair_vertices[remote]], minlength=self.k)
        self.targets = dedupe_sorted(pair_vertices)
        self.mask = senders.copy()
        self.version += 1


class _ScatterPasses:
    """Mirror-update geometry: static remote mask + last-changed memo."""

    __slots__ = ("vertices", "parts", "masters", "remote_static", "k",
                 "mask", "update_msgs", "part_counts", "master_counts")

    def __init__(self, pairs: np.ndarray, master: np.ndarray, k: int):
        self.vertices, self.parts = np.divmod(pairs, k)
        self.masters = master[self.vertices]
        self.remote_static = self.parts != self.masters
        self.k = k
        self.mask: np.ndarray | None = None
        self.update_msgs = 0
        self.part_counts: np.ndarray | None = None
        self.master_counts: np.ndarray | None = None

    def scatter(self, changed: np.ndarray) -> None:
        if self.mask is not None and np.array_equal(self.mask, changed):
            return
        remote = changed[self.vertices] & self.remote_static
        self.update_msgs = int(remote.sum())
        self.part_counts = np.bincount(self.parts[remote], minlength=self.k)
        self.master_counts = np.bincount(self.masters[remote],
                                         minlength=self.k)
        self.mask = changed.copy()


class GasEngine:
    """Synchronous (BSP) Gather-Apply-Scatter execution simulator.

    Parameters
    ----------
    cost_model:
        Converts counts into seconds/bytes; defaults shared by the whole
        experiment harness so runs are comparable.
    tracer:
        Span tracer for the run (``gas.*`` spans on the simulated clock);
        ``None`` resolves the global :func:`repro.telemetry.get_tracer`
        at run time, which is disabled by default.
    """

    def __init__(self, cost_model: CostModel = DEFAULT_COST_MODEL,
                 tracer: Tracer | None = None):
        self.cost_model = cost_model
        self.tracer = tracer

    def run(self, graph: Graph, placement: Placement,
            workload: Workload, *,
            fault_schedule: FaultSchedule | None = None,
            checkpoint_interval: int = 4,
            sampler=None) -> AnalyticsRun:
        """Execute *workload* over *placement* and return the full trace.

        Parameters
        ----------
        fault_schedule:
            Optional :class:`~repro.faults.FaultSchedule`.  A worker crash
            whose onset falls inside a superstep's wall-clock window
            forces checkpoint-restart: every superstep since the last
            checkpoint is re-executed and the dead machine's vertices are
            re-homed onto the survivors via
            :func:`repro.partitioning.dynamic.reassign_lost_vertices`.
            ``None`` or the empty schedule leaves the run bit-identical to
            the fault-free engine (the ChaosHarness invariant).
        checkpoint_interval:
            Write a coordinated checkpoint every this many supersteps
            (only when a fault schedule is active).
        sampler:
            Optional :class:`~repro.telemetry.timeseries.TimeSeriesSampler`;
            rebound to the run's registry and sampled once per superstep
            at the simulated clock (after any recovery/checkpoint time),
            turning gather/mirror traffic and recovery cost into
            per-superstep series.  Disabled/absent samplers add zero
            registry calls.
        """
        if placement.graph is not graph:
            raise SimulationError("placement was built for a different graph")
        schedule = fault_schedule or NO_FAULTS
        faulty = not schedule.is_empty
        if checkpoint_interval < 1:
            raise FaultInjectionError(
                f"checkpoint_interval must be >= 1, got {checkpoint_interval}")
        k = placement.num_partitions
        n = graph.num_vertices
        src, dst = graph.src, graph.dst
        edge_parts = placement.edge_parts
        master = placement.master
        cost = self.cost_model
        bytes_per_message = cost.bytes_per_message
        seconds_per_edge = cost.seconds_per_edge
        seconds_per_vertex_op = cost.seconds_per_vertex_op

        run = AnalyticsRun(
            workload=workload.name,
            algorithm=placement.algorithm,
            num_partitions=k,
            replication_factor=placement.replication_factor(),
            checkpoint_interval=checkpoint_interval if faulty else None,
        )
        metrics = run.metrics
        m_steps = metrics.counter("gas.supersteps")
        m_gather = metrics.counter("gas.gather_messages")
        m_mirror = metrics.counter("gas.mirror_update_messages")
        m_bytes = metrics.counter("gas.network_bytes")
        m_recoveries = metrics.counter("gas.recoveries")
        m_reexec = metrics.counter("gas.reexecuted_supersteps")
        m_ckpts = metrics.counter("gas.checkpoints")
        m_ckpt_secs = metrics.counter("gas.checkpoint_seconds_total")
        tracer = self.tracer if self.tracer is not None else get_tracer()
        tracing = tracer.enabled
        sampling = sampler is not None and sampler.enabled
        if sampling:
            sampler.registry = metrics
        #: Simulated wall clock: superstep windows decide which crash
        #: onsets strike which superstep, and give spans their timestamps.
        clock = SimClock()
        covered_until = 0.0
        last_checkpoint_step = 0
        root = tracer.begin("gas.run", 0.0, parent=None,
                            workload=workload.name,
                            algorithm=placement.algorithm,
                            num_partitions=k) if tracing else 0

        # Per-run pass state: presorted direction keys (built lazily —
        # uni-directional workloads never touch "rev"), scatter geometry,
        # the apply memo, and the preallocated accumulator buffers.
        passes: dict[str, _DirectionPasses] = {}
        scatter_passes: _ScatterPasses | None = None
        apply_key: tuple | None = None
        apply_counts: np.ndarray | None = None
        edge_ops = np.zeros(k, dtype=np.float64)
        vertex_ops = np.zeros(k, dtype=np.float64)
        bytes_in = np.zeros(k, dtype=np.float64)

        def direction_passes(direction: str) -> _DirectionPasses:
            built = passes.get(direction)
            if built is None:
                if direction == "fwd":
                    sender_index, receivers = src, dst
                else:
                    sender_index, receivers = dst, src
                built = _DirectionPasses(sender_index,
                                         receivers * k + edge_parts,
                                         edge_parts, master, k)
                passes[direction] = built
            return built

        for step, activity in enumerate(workload.iterations(graph)):
            gather_msgs = 0
            edge_ops.fill(0.0)
            vertex_ops.fill(0.0)
            bytes_in.fill(0.0)
            apply_parts: list[tuple] = []

            for direction, senders in (("fwd", activity.sends_forward),
                                       ("rev", activity.sends_reverse)):
                if senders is None or not senders.any():
                    continue
                d = direction_passes(direction)
                d.gather(senders)
                # Edge work happens where the edges are stored; one
                # partial-aggregate message per distinct (receiver,
                # partition) pair whose partition != master.
                edge_ops += d.edge_counts
                gather_msgs += d.gather_msgs
                bytes_in += d.master_counts * bytes_per_message
                apply_parts.append((direction, d.version, d.targets))

            # Apply: masters combine partials and run the vertex update.
            # The per-partition target counts are memoised on the
            # contributing directions' cache versions — unchanged gather
            # masks imply an unchanged target union (a vertex mask when
            # both directions gather).
            if apply_parts:
                key = tuple(part[:2] for part in apply_parts)
                if key != apply_key:
                    if len(apply_parts) == 1:
                        targets = apply_parts[0][2]
                    else:
                        targets = np.zeros(n, dtype=bool)
                        for part in apply_parts:
                            targets[part[2]] = True
                    apply_counts = np.bincount(master[targets], minlength=k)
                    apply_key = key
                vertex_ops += apply_counts

            # Scatter / mirror update for changed vertices.  A
            # locality-aware engine (PowerLyra's edge-cut emulation and
            # hybrid engine) refreshes only the mirrors whose partitions
            # will read the value — the out-edge hosts for uni-directional
            # workloads; a PowerGraph-style engine updates every mirror.
            changed = activity.changed
            update_msgs = 0
            if changed is not None and changed.any():
                if scatter_passes is None:
                    uni = workload.direction == "uni"
                    scatter_passes = _ScatterPasses(
                        placement.out_pairs
                        if uni and placement.locality_aware
                        else placement.all_pairs, master, k)
                scatter_passes.scatter(changed)
                update_msgs = scatter_passes.update_msgs
                bytes_in += scatter_passes.part_counts * bytes_per_message
                # Masters do the sending work.
                vertex_ops += scatter_passes.master_counts

            compute = (edge_ops * seconds_per_edge
                       + vertex_ops * seconds_per_vertex_op)
            network_bytes = float(bytes_in.sum())
            compute_max = float(compute.max(initial=0.0))
            wall = (compute_max
                    + cost.network_seconds(float(bytes_in.max(initial=0.0)))
                    + cost.barrier_seconds)
            run.iterations.append(IterationStats(
                iteration=step,
                gather_messages=gather_msgs,
                mirror_update_messages=update_msgs,
                network_bytes=network_bytes,
                compute_seconds=compute,
                wall_seconds=wall,
            ))
            m_steps.inc()
            m_gather.inc(gather_msgs)
            m_mirror.inc(update_msgs)
            m_bytes.inc(network_bytes)

            step_start = clock.now
            if tracing:
                sid = tracer.begin("gas.superstep", step_start, parent=root,
                                   iteration=step,
                                   gather_messages=gather_msgs,
                                   mirror_update_messages=update_msgs,
                                   network_bytes=network_bytes)
                tracer.emit_closed("gas.compute", step_start,
                                   step_start + compute, parent=sid,
                                   attr_name="machine")
                syncid = tracer.begin("gas.sync", step_start + compute_max,
                                      parent=sid,
                                      network_bytes=network_bytes)
                tracer.end(syncid, step_start + wall)
                tracer.end(sid, step_start + wall)
            clock.advance(wall)

            if faulty:
                # Each window starts where the previous one ended (before
                # any recovery/checkpoint time was appended), so those
                # periods are covered by the next window and no crash
                # onset can fall between windows unnoticed.
                window_end = clock.now
                for crash in schedule.crash_starts_in(covered_until,
                                                      window_end):
                    if crash.worker >= k:
                        continue
                    event = self._recover(graph, placement, run, schedule,
                                          crash, step, last_checkpoint_step)
                    m_recoveries.inc()
                    m_reexec.inc(event.reexecuted_supersteps)
                    if tracing:
                        rid = tracer.begin(
                            "gas.recovery", clock.now, parent=root,
                            step=step, worker=crash.worker,
                            lost_vertices=event.lost_vertices,
                            lost_edges=event.lost_edges,
                            reexecuted_supersteps=event.reexecuted_supersteps,
                            migration_bytes=event.migration_bytes)
                        tracer.end(rid, clock.now + event.recovery_seconds)
                    clock.advance(event.recovery_seconds)
                covered_until = window_end
                if (step + 1) % checkpoint_interval == 0:
                    if tracing:
                        kid = tracer.begin("gas.checkpoint", clock.now,
                                           parent=root, step=step)
                        tracer.end(kid, clock.now
                                   + cost.checkpoint_seconds)
                    clock.advance(cost.checkpoint_seconds)
                    m_ckpts.inc()
                    m_ckpt_secs.inc(cost.checkpoint_seconds)
                    last_checkpoint_step = step + 1
            if sampling:
                # One sample per superstep, stamped after recovery and
                # checkpoint time so the series aligns with the spans.
                sampler.sample(clock.now, index=step)
        metrics.histogram("gas.machine.compute_seconds").observe_many(
            run.compute_seconds_per_machine())
        if tracing:
            tracer.end(root, clock.now, supersteps=run.num_iterations,
                       recoveries=len(run.recovery_events))
        return run

    # ------------------------------------------------------------------
    def _recover(self, graph: Graph, placement: Placement, run: AnalyticsRun,
                 schedule: FaultSchedule, crash, step: int,
                 last_checkpoint_step: int) -> RecoveryEvent:
        """Checkpoint-restart recovery for a crash during superstep *step*.

        Two cost components, both functions of the partitioning under
        test:

        * **re-execution** — every superstep since the last checkpoint is
          lost and re-run (their already-modelled wall times recur);
        * **rebalancing** — the dead machine's master vertices are
          re-homed onto the survivors with the LDG objective
          (:func:`~repro.partitioning.dynamic.reassign_lost_vertices`);
          its state is re-fetched from replicas, and every re-homed edge
          that still crosses partitions needs a mirror re-registration
          message.  Balance decides how much state is lost; locality
          decides how cheaply it re-homes.
        """
        cost = self.cost_model
        k = placement.num_partitions
        lost_mask = placement.master == crash.worker
        lost_vertices = int(np.count_nonzero(lost_mask))
        lost_edges = int(np.count_nonzero(placement.edge_parts == crash.worker))
        cross_edges = 0
        if k > 1 and lost_vertices:
            master_partition = VertexPartition(
                k, placement.master, algorithm=placement.algorithm)
            recovered = reassign_lost_vertices(
                graph, master_partition, crash.worker, seed=schedule.seed)
            touches = lost_mask[graph.src] | lost_mask[graph.dst]
            cross = (recovered.assignment[graph.src[touches]]
                     != recovered.assignment[graph.dst[touches]])
            cross_edges = int(np.count_nonzero(cross))
        migration_bytes = (cost.recovery_bytes(lost_vertices, lost_edges)
                           + cross_edges * cost.bytes_per_message)
        rebalance_seconds = cost.network_seconds(migration_bytes)
        reexecuted = step - last_checkpoint_step + 1
        reexec_seconds = float(sum(
            it.wall_seconds
            for it in run.iterations[last_checkpoint_step:step + 1]))
        event = RecoveryEvent(
            step=step,
            worker=crash.worker,
            time=crash.start,
            reexecuted_supersteps=reexecuted,
            lost_vertices=lost_vertices,
            lost_edges=lost_edges,
            migration_bytes=migration_bytes,
            rebalance_seconds=rebalance_seconds,
            recovery_seconds=reexec_seconds + rebalance_seconds,
        )
        run.recovery_events.append(event)
        return event


def run_workload(graph: Graph, partition, workload: Workload, *,
                 cost_model: CostModel = DEFAULT_COST_MODEL,
                 fault_schedule: FaultSchedule | None = None,
                 checkpoint_interval: int = 4,
                 sampler=None) -> AnalyticsRun:
    """One-shot convenience: build the placement and run the workload."""
    placement = Placement(graph, partition)
    return GasEngine(cost_model).run(graph, placement, workload,
                                     fault_schedule=fault_schedule,
                                     checkpoint_interval=checkpoint_interval,
                                     sampler=sampler)
