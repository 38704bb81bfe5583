"""Hand-wired mini clusters for scenario tests.

The experiment builder covers config-driven setups; these helpers give tests
direct control over partition layout, shares, and arrival timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from fedsched.core import ResourceVector, TaskRequest, WorkerNode
from fedsched.engine import CostModel, DelayModel, EventLoop, Network
from fedsched.fairness import QueueSet, UserQueue
from fedsched.global_master import GlobalMaster
from fedsched.local_master import LocalMaster
from fedsched.metrics import MetricsCollector
from fedsched.state import ClusterView

ZERO_COSTS = CostModel(
    gm_request_overhead=0.0, gm_word_op=0.0, gm_node_check=0.0,
    gm_merge_per_node=0.0, lm_validate=0.0, lm_repartition=0.0,
    lm_preempt_per_victim=0.0, lm_heartbeat_per_node=0.0, probe_handling=0.0,
)


def rv(*qs: int) -> ResourceVector:
    return ResourceVector.of(*qs)


def cs(*ids: int) -> frozenset[int]:
    return frozenset(ids)


def task(task_id: str, *, user="u0", demand=None, constraints=(), arrival=0.0,
         duration=1.0, job_id=None) -> TaskRequest:
    return TaskRequest(
        task_id=task_id, job_id=job_id or f"j-{task_id}", user_id=user,
        demand=demand if demand is not None else rv(2, 4096),
        constraints=cs(*constraints), arrival_time=arrival, duration=duration,
    )


@dataclass
class MiniCluster:
    """One LM cluster with explicit partitions, plus fully wired GMs."""

    loop: EventLoop
    network: Network
    collector: MetricsCollector
    lms: list[LocalMaster]
    gms: list[GlobalMaster]
    arrivals: list = field(default_factory=list)

    def submit(self, request: TaskRequest, gm: GlobalMaster) -> None:
        """Have `request` arrive at `gm` at its arrival time once the run starts."""
        self.arrivals.append((request.arrival_time, gm.on_task_arrival, request))

    def record(self, task_id: str):
        """The task's allocation record, or None if it never started."""
        return next((r for r in self.collector.records if r.task_id == task_id), None)

    def start(self) -> None:
        self.collector.admitted = len(self.arrivals)
        self.loop.feed(self.arrivals)
        for lm in self.lms:
            lm.start_heartbeats()

    def run_all(self) -> None:
        self.start()
        self.loop.run()


def build_cluster(
    lm_specs: dict[str, dict[str, list[tuple[str, ResourceVector, frozenset[int]]]]],
    users: dict[str, tuple[str, float]],
    *,
    constraint_count: int = 21,
    costs: CostModel = ZERO_COSTS,
    delays: DelayModel | None = None,
    heartbeat_period: float = 10.0,
    retry_limit: int = 5,
    violation_metric: str = "cpu",
    resource_dim: int = 2,
) -> MiniCluster:
    """Wire LMs and GMs by hand.

    lm_specs: lm_id -> {owner_gm_id: [(node_id, capacity, machine_constraints)]}
    users: user_id -> (gm_id, share_fraction)
    Every LM must list every GM exactly once, even with an empty node list.
    """
    loop = EventLoop()
    network = Network(loop, delays or DelayModel())
    collector = MetricsCollector(audit=True)

    gm_ids = sorted({gm_id for spec in lm_specs.values() for gm_id in spec})
    lms = []
    total = ResourceVector.zeros(resource_dim)
    for lm_id in sorted(lm_specs):
        lm = LocalMaster(lm_id, loop, network, costs, collector,
                         heartbeat_period=heartbeat_period)
        for j, gm_id in enumerate(gm_ids):
            partition_id = f"{lm_id}-p{j}"
            members = [WorkerNode(node_id=node_id, lm_id=lm_id, partition_id=partition_id,
                                  capacity=capacity, machine_constraints=machine)
                       for node_id, capacity, machine in lm_specs[lm_id].get(gm_id, [])]
            for node in members:
                total = total + node.capacity
            lm.add_partition(partition_id, gm_id, members, constraint_count)
        lms.append(lm)

    shares = {uid: tuple(frac * q for q in total)
              for uid, (_, frac) in users.items()}
    gms = []
    for gm_id in gm_ids:
        owned = [UserQueue(user_id=uid, share=shares[uid])
                 for uid, (home, _) in sorted(users.items()) if home == gm_id]
        gm = GlobalMaster(gm_id, loop, network, costs, collector,
                          retry_limit=retry_limit,
                          violation_metric=violation_metric)
        initial = [lm.snapshot(0.0) for lm in lms]
        gm.seed(ClusterView(initial, resource_dim), QueueSet(owned), lms, shares)
        gms.append(gm)
    for lm in lms:
        lm.wire_gms(gms)
    return MiniCluster(loop=loop, network=network, collector=collector,
                       lms=lms, gms=gms)


def build_race_cluster(*, costs: CostModel = ZERO_COSTS,
                       duration: float = 2.0) -> tuple[MiniCluster, TaskRequest, TaskRequest]:
    """Two GMs, one LM, two nodes both in gm0's partition.

    Both GMs view both nodes free.  gm0's task takes n0 internally; gm1 only
    sees the nodes as external and its repartition race on n0 loses, forcing
    the failure-with-snapshot path and an immediate retry onto n1.
    """
    cap = rv(2, 4096)
    cluster = build_cluster(
        {"lm0": {"gm0": [("n0", cap, cs()), ("n1", cap, cs())], "gm1": []}},
        {"u0": ("gm0", 0.5), "u1": ("gm1", 0.5)},
        costs=costs,
    )
    t0 = task("t0", user="u0", demand=cap, arrival=0.0, duration=duration)
    t1 = task("t1", user="u1", demand=cap, arrival=0.0, duration=duration)
    cluster.submit(t0, cluster.gms[0])
    cluster.submit(t1, cluster.gms[1])
    return cluster, t0, t1
