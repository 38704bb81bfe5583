"""Snapshots, the per-GM cluster view, and view merge monotonicity."""

import random

from fedsched.core import ResourceVector, WorkerNode, constraint_bits
from fedsched.engine import DelayModel, EventLoop, Network
from fedsched.local_master import LocalMaster
from fedsched.metrics import TaskRun
from fedsched.state import (_EMPTY, FIT_MASKS, ClusterView, LMStateSnapshot, NodeSnapshot,
                            PartitionSnapshot, ViewPartition)

from oracles import brute_force_match
from scenarios import task


def rv(*qs):
    return ResourceVector.of(*qs)


def make_partition_snapshot(partition_id="p0", lm_id="lm0", owner="gm0",
                            nodes=(), m=8):
    """nodes: list of (node_id, constraints, available[, running, is_logical])."""
    node_snaps = []
    for spec in nodes:
        node_id, _, available = spec[:3]
        running = spec[3] if len(spec) > 3 else ()
        logical = spec[4] if len(spec) > 4 else False
        node_snaps.append(NodeSnapshot(
            node_id=node_id, available=available, is_logical=logical,
            parent_node=None, running=tuple(running),
        ))
    return PartitionSnapshot(
        partition_id=partition_id, lm_id=lm_id, owner_gm_id=owner,
        nodes=tuple(node_snaps), bits=constraint_bits(m, [n[1] for n in nodes]),
        log=[], version=0,
    )


def make_lm_snapshot(lm_id="lm0", ts=0.0, partitions=(), consumed=()):
    return LMStateSnapshot(lm_id=lm_id, timestamp=ts,
                           partitions=tuple(partitions),
                           user_consumed=dict(consumed),
                           node_count=sum(len(p.nodes) for p in partitions))


class TestViewPartitionMatch:
    def test_first_qualifying_ordinal(self):
        part = ViewPartition(make_partition_snapshot(nodes=[
            ("a", frozenset({1}), rv(1, 100)),
            ("b", frozenset({1}), rv(8, 800)),
            ("c", frozenset({1}), rv(8, 800)),
        ]))
        ordinal, _, checked = part.match(frozenset({1}), rv(4, 400))
        assert ordinal == 1
        assert checked == 2  # a failed the resource check, b passed

    def test_empty_constraints_but_no_resources(self):
        part = ViewPartition(make_partition_snapshot(nodes=[
            ("a", frozenset(), rv(1, 100)),
            ("b", frozenset(), rv(1, 100)),
        ]))
        ordinal, _, checked = part.match(frozenset(), rv(4, 400))
        assert ordinal is None
        assert checked == 2

    def test_constraint_filter_excludes_nodes(self):
        part = ViewPartition(make_partition_snapshot(nodes=[
            ("a", frozenset(), rv(8, 800)),
            ("b", frozenset({2}), rv(8, 800)),
        ]))
        ordinal, _, _ = part.match(frozenset({2}), rv(1, 1))
        assert ordinal == 1

    def test_random_instances_match_brute_force_oracle(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(0, 64)
            sets = [frozenset([c for c in range(8) if rng.random() < 0.4])
                    for _ in range(n)]
            avail = [rv(rng.randint(0, 16), rng.randint(0, 4096)) for _ in range(n)]
            nodes = [(f"n{i}", sets[i], avail[i]) for i in range(n)]
            part = ViewPartition(make_partition_snapshot(nodes=nodes))
            t_cs = frozenset([c for c in range(8) if rng.random() < 0.25])
            demand = rv(rng.randint(1, 16), rng.randint(1, 4096))
            got, _, _ = part.match(t_cs, demand)
            assert got == brute_force_match(sets, avail, t_cs, demand)

    def test_word_op_telemetry_tracks_bitmap_width(self):
        # one AND pass per requested constraint plus one scan pass, each
        # touching ceil(n / 64) words
        rng = random.Random(4)
        m = 21
        for _ in range(200):
            n = rng.randint(1, 300)
            nodes = [(f"n{i}",
                      frozenset(c for c in range(m) if rng.random() < 0.4),
                      rv(rng.randint(0, 4), rng.randint(0, 4)))
                     for i in range(n)]
            part = ViewPartition(make_partition_snapshot(nodes=nodes, m=m))
            wanted = frozenset(rng.randrange(m) for _ in range(rng.randint(0, 3)))
            _, word_ops, checked = part.match(wanted, rv(2, 2))
            words = -(-n // 64)
            assert word_ops == (len(wanted) + 1) * words
            assert word_ops <= (m + 1) * words
            assert checked <= n

    def test_deduct_shrinks_viewed_availability(self):
        part = ViewPartition(make_partition_snapshot(nodes=[
            ("a", frozenset(), rv(8, 800)),
        ]))
        part.deduct(0, rv(3, 300))
        assert part.available(0).quantities == (5, 500)
        ordinal, _, _ = part.match(frozenset(), rv(6, 100))
        assert ordinal is None


def first_fit_walk(sets, avail, constraints, demand):
    """(ordinal, checked) of a naive walk: every node in ordinal order, counting
    the candidates looked at until the first that fits."""
    checked = 0
    for ordinal, (machine, have) in enumerate(zip(sets, avail)):
        if machine >= constraints:
            checked += 1
            if have.geq(demand):
                return ordinal, checked
    return None, checked


def viewed(part):
    """Every node's viewed availability, in ordinal order."""
    return [part.available(ordinal) for ordinal in range(len(part.nodes))]


def assert_matches_oracles(part, sets, avail, queries):
    """The viewed availability is `avail`, `match` agrees with the
    brute-force oracle and the naive walk's count, and the columns, built by
    the first match if not before, hold `avail`."""
    assert viewed(part) == avail
    columns = [list(c) for c in zip(*(a.quantities for a in avail))]
    assert part.columns is None or part.columns == columns
    for constraints, demand in queries:
        ordinal, _, checked = part.match(constraints, demand)
        assert ordinal == brute_force_match(sets, avail, constraints, demand)
        assert (ordinal, checked) == first_fit_walk(sets, avail, constraints, demand)
    assert part.columns == columns


INDEX_SETS = [frozenset({1}), frozenset(), frozenset({1, 2}),
              frozenset({2}), frozenset({1})]
INDEX_QUERIES = [(c, rv(*d)) for c in (frozenset(), frozenset({1}),
                                      frozenset({1, 2}), frozenset({3}))
                 for d in ((1, 100), (3, 300), (4, 400), (9, 900))]


def index_snapshot(avail, sets=INDEX_SETS):
    return make_partition_snapshot(
        nodes=[(f"n{i}", c, a) for i, (c, a) in enumerate(zip(sets, avail))])


class TestViewPartitionIndex:
    """`match` over the kept fit and candidate masks equals a fresh walk."""

    AVAIL = [rv(2, 200), rv(8, 800), rv(3, 300), rv(4, 400), rv(1, 100)]

    def test_hits_and_misses(self):
        part = ViewPartition(index_snapshot(self.AVAIL))
        hit = part.match(frozenset({1}), rv(3, 300))
        miss = part.match(frozenset({1}), rv(4, 400))
        assert (hit[0], hit[2]) == (2, 2)  # n0 too small, n2 fits
        assert (miss[0], miss[2]) == (None, 3)  # n0, n2 and n4 checked
        assert_matches_oracles(part, INDEX_SETS, self.AVAIL, INDEX_QUERIES)

    def test_empty_constraints_check_every_node_in_order(self):
        part = ViewPartition(index_snapshot(self.AVAIL))
        ordinal, word_ops, checked = part.match(frozenset(), rv(4, 400))
        assert (ordinal, word_ops, checked) == (1, 1, 2)  # no AND, one scan word
        assert part.match(frozenset(), rv(9, 900))[1:] == (1, 5)

    def test_two_demands_share_one_partition(self):
        part = ViewPartition(index_snapshot(self.AVAIL))
        assert part.match(frozenset(), rv(3, 300))[0] == 1
        assert part.match(frozenset(), rv(1, 100))[0] == 0
        assert list(part.fits) == [rv(3, 300), rv(1, 100)]
        part.deduct(1, rv(6, 600))  # n1 now covers (1, 100) but not (3, 300)
        avail = [*self.AVAIL[:1], rv(2, 200), *self.AVAIL[2:]]
        assert part.match(frozenset(), rv(3, 300))[0] == 2
        assert part.match(frozenset(), rv(1, 100))[0] == 0
        assert_matches_oracles(part, INDEX_SETS, avail, INDEX_QUERIES)

    def test_deduct_clears_the_bit_in_every_fit_mask(self):
        part = ViewPartition(index_snapshot(self.AVAIL))
        assert_matches_oracles(part, INDEX_SETS, self.AVAIL, INDEX_QUERIES)
        part.deduct(2, rv(3, 300))
        part.deduct(1, rv(5, 500))
        assert part.deducted == {1: rv(3, 300), 2: rv(0, 0)}
        avail = [rv(2, 200), rv(3, 300), rv(0, 0), rv(4, 400), rv(1, 100)]
        assert viewed(part) == avail
        assert_matches_oracles(part, INDEX_SETS, avail, INDEX_QUERIES)

    def test_more_demands_than_fit_masks_evict_the_oldest(self):
        part = ViewPartition(index_snapshot(self.AVAIL))
        demands = [rv(d, 100 * d) for d in range(1, FIT_MASKS + 4)]
        queries = [(c, d) for c in (frozenset(), frozenset({1}))
                   for d in demands]
        assert_matches_oracles(part, INDEX_SETS, self.AVAIL, queries)
        assert list(part.fits) == demands[-FIT_MASKS:]
        part.deduct(1, rv(5, 500))
        avail = [self.AVAIL[0], rv(3, 300), *self.AVAIL[2:]]
        assert_matches_oracles(part, INDEX_SETS, avail, queries)
        assert len(part.fits) == FIT_MASKS

    def test_refresh_rereads_a_changed_node(self):
        first = index_snapshot(self.AVAIL)
        part = ViewPartition(first)
        assert_matches_oracles(part, INDEX_SETS, self.AVAIL, INDEX_QUERIES)
        part.refresh(logged(first, {4: rv(9, 900)}))
        avail = self.AVAIL[:4] + [rv(9, 900)]
        assert viewed(part) == avail
        assert part.match(frozenset({1}), rv(9, 900))[0] == 4
        assert_matches_oracles(part, INDEX_SETS, avail, INDEX_QUERIES)

    def test_refresh_without_changed_nodes_undoes_deductions(self):
        first = index_snapshot(self.AVAIL)
        part = ViewPartition(first)
        assert part.match(frozenset({1}), rv(3, 300))[0] == 2
        part.deduct(2, rv(3, 300))
        assert part.match(frozenset({1}), rv(3, 300))[0] is None
        # the same node objects again: only the overlay is re-read
        part.refresh(first._replace(nodes=tuple(first.nodes)))
        assert part.deducted == {}
        assert viewed(part) == self.AVAIL
        assert part.match(frozenset({1}), rv(3, 300))[0] == 2
        assert_matches_oracles(part, INDEX_SETS, self.AVAIL, INDEX_QUERIES)

    def test_refresh_drops_the_overlay(self):
        first = index_snapshot(self.AVAIL)
        part = ViewPartition(first)
        assert_matches_oracles(part, INDEX_SETS, self.AVAIL, INDEX_QUERIES)
        part.deduct(1, rv(5, 500))  # the LM will not touch n1
        part.deduct(3, rv(4, 400))  # the LM will publish n3 anew
        assert part.deducted == {1: rv(3, 300), 3: rv(0, 0)}
        part.refresh(logged(first, {3: rv(1, 100)}))
        assert part.deducted == {}
        assert part.nodes[1] is first.nodes[1]
        avail = [rv(2, 200), rv(8, 800), rv(3, 300), rv(1, 100), rv(1, 100)]
        assert [n.available for n in part.nodes] == avail
        assert_matches_oracles(part, INDEX_SETS, avail, INDEX_QUERIES)

    def test_refresh_with_a_new_node_count_rebuilds(self):
        part = ViewPartition(index_snapshot(self.AVAIL))
        assert_matches_oracles(part, INDEX_SETS, self.AVAIL, INDEX_QUERIES)
        part.deduct(0, rv(1, 100))
        sets = INDEX_SETS + [frozenset({3})]
        avail = self.AVAIL + [rv(9, 900)]
        part.refresh(index_snapshot(avail, sets))
        assert part.deducted == {} and part.fits == {} and part.cands == {}
        assert part.match(frozenset({3}), rv(9, 900))[0] == 5
        assert_matches_oracles(part, sets, avail, INDEX_QUERIES)
        part.refresh(index_snapshot(avail[:3], sets[:3]))
        assert_matches_oracles(part, sets[:3], avail[:3], INDEX_QUERIES)

    def test_refresh_with_new_constraint_bits_rebuilds(self):
        part = ViewPartition(index_snapshot(self.AVAIL))
        assert_matches_oracles(part, INDEX_SETS, self.AVAIL, INDEX_QUERIES)
        sets = INDEX_SETS[::-1]  # same node count, other constraint bits
        part.refresh(index_snapshot(self.AVAIL, sets))
        assert part.cands == {}
        assert_matches_oracles(part, sets, self.AVAIL, INDEX_QUERIES)

    def test_random_refresh_and_deduct_sequences_match_the_oracles(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(1, 70)
            sets = [frozenset([c for c in range(4) if rng.random() < 0.4])
                    for _ in range(n)]
            avail = [rv(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(n)]
            snap = make_partition_snapshot(
                nodes=[(f"n{i}", sets[i], avail[i]) for i in range(n)])
            part = ViewPartition(snap)
            queries = [(frozenset([c for c in range(4) if rng.random() < 0.3]),
                        rv(rng.randint(1, 8), rng.randint(1, 8)))
                       for _ in range(rng.randint(1, FIT_MASKS + 4))]
            for _ in range(6):
                assert_matches_oracles(part, sets, avail, queries)
                for _ in range(rng.randint(0, 3)):
                    constraints, demand = rng.choice(queries)
                    ordinal = part.match(constraints, demand)[0]
                    if ordinal is not None:
                        part.deduct(ordinal, demand)
                        avail[ordinal] = avail[ordinal] - demand
                assert_matches_oracles(part, sets, avail, queries)
                # the LM's next snapshot: a few nodes change and are logged,
                # the rest are the same objects, and every deduction is overwritten
                snap = logged(snap, {
                    ordinal: rv(rng.randint(0, 8), rng.randint(0, 8))
                    for ordinal in rng.sample(range(n), rng.randint(0, min(n, 3)))})
                avail = [node.available for node in snap.nodes]
                part.refresh(snap)


def assert_fresh(part, snap, queries=INDEX_QUERIES):
    """The view holds what a view built from `snap` alone holds: its nodes and
    log, no overlay, the same columns, every kept fit mask rebuilt, and the
    same `match` answers."""
    fresh = ViewPartition(snap)
    assert part.nodes is snap.nodes and part.deducted == {}
    assert part.log is snap.log and part.seen == snap.version
    for demand, fit in part.fits.items():
        assert fit == fresh._fit_mask(demand), demand
    for constraints, demand in queries:
        assert part.match(constraints, demand) == fresh.match(constraints, demand)
    assert part.columns == fresh.columns


def logged(snap, changes):
    """`snap` after the LM replaced each node in `changes` ({ordinal: available}),
    logging each ordinal on the snapshot's log."""
    nodes = list(snap.nodes)
    for ordinal, available in changes.items():
        nodes[ordinal] = nodes[ordinal]._replace(available=available)
        snap.log.append(ordinal)
    return snap._replace(nodes=tuple(nodes), version=len(snap.log))


def spy_on_set(monkeypatch):
    """Record the ordinal of every `ViewPartition._set` call from now on."""
    calls = []
    inner = ViewPartition._set

    def spy(self, ordinal, have):
        calls.append(ordinal)
        inner(self, ordinal, have)

    monkeypatch.setattr(ViewPartition, "_set", spy)
    return calls


class TestViewPartitionLogWindow:
    """`refresh` re-reads the logged window and the overlay, not every node."""

    AVAIL = TestViewPartitionIndex.AVAIL

    def start(self):
        snap = index_snapshot(self.AVAIL)
        part = ViewPartition(snap)
        for constraints, demand in INDEX_QUERIES:
            part.match(constraints, demand)  # keep every fit mask it can
        return part, snap

    def test_a_window_refresh_equals_a_fresh_build(self):
        part, first = self.start()
        part.deduct(1, rv(2, 200))
        second = logged(first, {3: rv(1, 100), 0: rv(7, 700)})
        part.refresh(second)
        assert_fresh(part, second)
        third = logged(second, {3: rv(4, 400)})
        part.refresh(third)
        assert part.seen == 3
        assert_fresh(part, third)

    def test_an_older_snapshot_runs_the_window_backwards(self):
        # same-timestamp messages pass the merge's staleness check, so an
        # older version of the log can arrive after a newer one
        part, first = self.start()
        second = logged(first, {2: rv(0, 0)})
        third = logged(second, {4: rv(9, 900), 2: rv(1, 100)})
        part.refresh(third)
        part.deduct(1, rv(8, 800))
        part.refresh(second)
        assert part.seen == 1
        assert_fresh(part, second)
        part.refresh(first)
        assert_fresh(part, first)
        part.refresh(third)
        assert_fresh(part, third)

    def test_another_log_object_rebuilds(self, monkeypatch):
        part, first = self.start()
        part.deduct(1, rv(2, 200))
        nodes = list(first.nodes)
        nodes[3] = nodes[3]._replace(available=rv(0, 0))
        # a new, empty log: a window over it would read nothing, yet node 3 changed
        second = first._replace(nodes=tuple(nodes), log=[], version=0)
        reread = spy_on_set(monkeypatch)
        part.refresh(second)
        assert reread == [] and part.fits == {} and part.cands == {}
        assert_fresh(part, second)
        part.refresh(first)  # the first log again, but the view now holds the second
        assert_fresh(part, first)

    def test_a_one_entry_window_rereads_only_the_logged_and_overlay_nodes(
            self, monkeypatch):
        n = 2000
        snap = make_partition_snapshot(
            nodes=[(f"n{i}", frozenset(), rv(8, 800)) for i in range(n)])
        part = ViewPartition(snap)
        part.match(frozenset(), rv(8, 800))
        part.deduct(7, rv(8, 800))  # the LM will not touch n7
        part.deduct(1500, rv(3, 300))  # the LM launches there, as deducted
        reread = spy_on_set(monkeypatch)
        second = logged(snap, {1500: rv(5, 500)})
        part.refresh(second)
        assert reread == [7]  # n1500 reads what it viewed: no _set
        queries = [(frozenset(), rv(8, 800)), (frozenset(), rv(5, 500))]
        assert_fresh(part, second, queries)
        reread.clear()
        third = logged(second, {42: rv(0, 0)})
        part.refresh(third)
        assert reread == [42]
        assert_fresh(part, third, queries)

    def test_random_publishes_and_deliveries_leave_each_view_fresh(self):
        # a real LM's partition, two GM views, and messages delivered late,
        # twice or out of order; nodes are carved out and destroyed on the way
        rng = random.Random(20)
        queries = [(frozenset(c), rv(*d)) for c in ((), (1,), (1, 2))
                   for d in ((1, 1), (3, 3), (6, 6))]
        for _ in range(30):
            lm = LocalMaster("lm0", None, None, None, None)
            n = rng.randint(1, 24)
            nodes = [WorkerNode(f"n{i}", "lm0", "p0", rv(8, 8),
                                frozenset(c for c in (1, 2) if rng.random() < 0.5))
                     for i in range(n)]
            lm.add_partition("p0", "gm0", nodes, 4)
            partition = lm.partitions["p0"]
            sent = [lm.partition_snapshot("p0")]
            views = [ViewPartition(sent[0]), ViewPartition(sent[0])]
            logical = []
            for step in range(80):
                roll = rng.random()
                if roll < 0.05:
                    node = WorkerNode(f"l{step}", "lm0", "p0", rv(2, 2), frozenset({1}),
                                      is_logical=True, parent_node="n0")
                    logical.append(node)
                    lm.nodes[node.node_id] = node
                    partition.append_node(node.node_id, node.machine_constraints,
                                          NodeSnapshot(node.node_id, node.capacity,
                                                       True, "n0", ()))
                elif roll < 0.1 and logical:
                    node = logical.pop(rng.randrange(len(logical)))
                    partition.remove_node(node.node_id)
                    del lm.nodes[node.node_id]
                else:
                    node_id = rng.choice(list(partition.node_ids))
                    node = lm.nodes[node_id]
                    lm._publish(node, rv(rng.randint(0, 8), rng.randint(0, 8)))
                sent.append(lm.partition_snapshot("p0"))
                assert not sent[-1].log or len(sent[-1].log) < len(sent[-1].nodes)
                for view in views:
                    if rng.random() < 0.6:
                        for _ in range(rng.randint(0, 2)):
                            constraints, demand = rng.choice(queries)
                            ordinal = view.match(constraints, demand)[0]
                            if ordinal is not None:
                                view.deduct(ordinal, demand)
                        snap = rng.choice(sent[-4:])
                        view.refresh(snap)
                        assert_fresh(view, snap, queries)


class TestViewPartitionOnFirstUse:
    """What only a search reads is built by the first search, not on arrival."""

    AVAIL = TestViewPartitionIndex.AVAIL

    def test_a_new_view_holds_the_snapshot_and_the_shared_empty_mapping(self):
        part = ViewPartition(index_snapshot(self.AVAIL))
        assert part.columns is None
        assert part.deducted is part.fits is part.cands is _EMPTY
        part.match(frozenset({1}), rv(3, 300))
        assert part.columns == [[2, 8, 3, 4, 1], [200, 800, 300, 400, 100]]
        assert list(part.fits) == [rv(3, 300)] and list(part.cands) == [frozenset({1})]
        assert part.deducted is _EMPTY and _EMPTY == {}

    def test_columns_built_after_a_deduction_read_the_overlay(self):
        part = ViewPartition(index_snapshot(self.AVAIL))
        part.deduct(1, rv(6, 600))
        assert part.deducted == {1: rv(2, 200)} and part.deducted is not _EMPTY
        assert part.columns is None and part.fits is _EMPTY and _EMPTY == {}
        avail = [self.AVAIL[0], rv(2, 200), *self.AVAIL[2:]]
        assert_matches_oracles(part, INDEX_SETS, avail, INDEX_QUERIES)

    def test_a_refresh_of_an_unsearched_view_rereads_nothing(self, monkeypatch):
        first = index_snapshot(self.AVAIL)
        part = ViewPartition(first)
        part.deduct(2, rv(3, 300))
        reread = spy_on_set(monkeypatch)
        second = logged(first, {4: rv(9, 900), 0: rv(0, 0)})
        part.refresh(second)
        assert reread == [] and part.columns is None
        assert part.deducted is _EMPTY and part.seen == 2
        assert_fresh(part, second)
        assert part.columns is not None  # built by assert_fresh's matches
        third = logged(second, {3: rv(1, 100)})
        part.refresh(third)
        assert reread == [3]
        assert_fresh(part, third)

    def test_a_rebuild_hands_everything_back(self):
        part = ViewPartition(index_snapshot(self.AVAIL))
        part.match(frozenset(), rv(1, 100))
        part.deduct(0, rv(1, 100))
        part.refresh(index_snapshot(self.AVAIL, INDEX_SETS[::-1]))
        assert part.columns is None
        assert part.deducted is part.fits is part.cands is _EMPTY


def two_node_snapshot(ts, avail_a, avail_b):
    part = make_partition_snapshot(nodes=[
        ("a", frozenset(), avail_a),
        ("b", frozenset(), avail_b),
    ])
    return make_lm_snapshot(ts=ts, partitions=[part],
                            consumed=[("u0", rv(1, 100))])


class TestClusterViewMerges:
    def test_partitions_in_key_order_whatever_the_snapshot_order(self):
        # the victim scan visits view.partitions in their insertion order
        snaps = [make_lm_snapshot(lm_id, 0.0, [make_partition_snapshot(pid, lm_id)
                                               for pid in ("p1", "p0")])
                 for lm_id in ("lm2", "lm10", "lm1")]
        view = ClusterView(snaps, 2)
        assert list(view.partitions) == [
            ("lm1", "p0"), ("lm1", "p1"), ("lm10", "p0"), ("lm10", "p1"),
            ("lm2", "p0"), ("lm2", "p1")]

    def test_heartbeat_replaces_lm_slice(self):
        view = ClusterView([two_node_snapshot(0.0, rv(8, 800), rv(8, 800))], 2)
        assert view.apply_heartbeat(two_node_snapshot(10.0, rv(1, 100), rv(2, 200)))
        assert view.partitions[("lm0", "p0")].available(0).quantities == (1, 100)
        assert view.last_update_time["lm0"] == 10.0

    def test_newer_then_older_discards_older(self):
        view = ClusterView([two_node_snapshot(0.0, rv(8, 800), rv(8, 800))], 2)
        assert view.apply_heartbeat(two_node_snapshot(20.0, rv(2, 200), rv(2, 200)))
        assert not view.apply_heartbeat(two_node_snapshot(10.0, rv(7, 700), rv(7, 700)))
        assert view.partitions[("lm0", "p0")].available(0).quantities == (2, 200)
        assert view.last_update_time["lm0"] == 20.0

    def test_heartbeat_sequence_reflects_latest(self):
        view = ClusterView([two_node_snapshot(0.0, rv(8, 800), rv(8, 800))], 2)
        view.apply_heartbeat(two_node_snapshot(10.0, rv(5, 500), rv(5, 500)))
        view.apply_heartbeat(two_node_snapshot(20.0, rv(3, 300), rv(3, 300)))
        assert view.partitions[("lm0", "p0")].available(1).quantities == (3, 300)

    def test_partial_merge_updates_only_named_partitions(self):
        p0 = make_partition_snapshot("p0", nodes=[("a", frozenset(), rv(8, 800))])
        p1 = make_partition_snapshot("p1", nodes=[("b", frozenset(), rv(8, 800))])
        view = ClusterView([make_lm_snapshot(ts=0.0, partitions=[p0, p1])], 2)
        newer_p0 = make_partition_snapshot("p0", nodes=[("a", frozenset(), rv(1, 100))])
        assert view.merge_partitions("lm0", 5.0, (newer_p0,), {})
        assert view.partitions[("lm0", "p0")].available(0).quantities == (1, 100)
        assert view.partitions[("lm0", "p1")].available(0).quantities == (8, 800)
        assert view.last_update_time["lm0"] == 5.0

    def test_heartbeat_cannot_regress_piggybacked_state(self):
        """A full snapshot taken before an already-merged response is dropped."""
        view = ClusterView([two_node_snapshot(0.0, rv(8, 800), rv(8, 800))], 2)
        newer = make_partition_snapshot("p0", nodes=[
            ("a", frozenset(), rv(0, 0)),
            ("b", frozenset(), rv(8, 800)),
        ])
        assert view.merge_partitions("lm0", 15.0, (newer,), {})
        stale_heartbeat = two_node_snapshot(12.0, rv(8, 800), rv(8, 800))
        assert not view.apply_heartbeat(stale_heartbeat)
        assert view.partitions[("lm0", "p0")].available(0).quantities == (0, 0)
        later = two_node_snapshot(16.0, rv(4, 400), rv(4, 400))
        assert view.apply_heartbeat(later)
        assert view.partitions[("lm0", "p0")].available(0).quantities == (4, 400)
        assert view.last_update_time["lm0"] == 16.0

    def test_stale_partial_merge_discarded(self):
        view = ClusterView([two_node_snapshot(10.0, rv(8, 800), rv(8, 800))], 2)
        older = make_partition_snapshot("p0", nodes=[("a", frozenset(), rv(1, 1))])
        assert not view.merge_partitions("lm0", 9.0, (older,), {})
        assert view.partitions[("lm0", "p0")].available(0).quantities == (8, 800)

    def test_equal_timestamp_applies(self):
        view = ClusterView([two_node_snapshot(10.0, rv(8, 800), rv(8, 800))], 2)
        assert view.apply_heartbeat(two_node_snapshot(10.0, rv(2, 2), rv(2, 2)))

    def test_viewed_consumed_sums_across_lms(self):
        snaps = [
            make_lm_snapshot("lm0", 0.0,
                             [make_partition_snapshot("p0", "lm0")],
                             [("u0", rv(2, 200))]),
            make_lm_snapshot("lm1", 0.0,
                             [make_partition_snapshot("p1", "lm1")],
                             [("u0", rv(3, 300)), ("u1", rv(1, 100))]),
        ]
        view = ClusterView(snaps, 2)
        assert view.viewed_consumed("u0").quantities == (5, 500)
        assert view.viewed_consumed("u1").quantities == (1, 100)
        assert view.viewed_consumed("nobody").quantities == (0, 0)

    def test_consumed_replaced_by_merge(self):
        view = ClusterView([two_node_snapshot(0.0, rv(8, 800), rv(8, 800))], 2)
        assert view.viewed_consumed("u0").quantities == (1, 100)
        p = make_partition_snapshot("p0", nodes=[("a", frozenset(), rv(8, 800))])
        view.merge_partitions("lm0", 1.0, (p,), user_consumed={"u0": rv(9, 900)})
        assert view.viewed_consumed("u0").quantities == (9, 900)


def wired_lm(*capacities):
    """A real LM with one partition p0, owned by gm0, of nodes n0, n1, ..."""
    loop = EventLoop()
    lm = LocalMaster("lm0", loop, Network(loop, DelayModel()), None, None)
    nodes = [WorkerNode(f"n{i}", "lm0", "p0", capacity, frozenset({1}))
             for i, capacity in enumerate(capacities)]
    lm.add_partition("p0", "gm0", nodes, 4)
    return lm


class TestWireContract:
    def test_an_lm_state_reads_back_by_field_name(self):
        lm = wired_lm(rv(8, 800), rv(4, 400))
        state = lm.snapshot(3.0)
        assert (state.lm_id, state.timestamp, state.node_count) == ("lm0", 3.0, 2)
        assert state.user_consumed is lm.consumed
        part, = state.partitions
        assert (part.partition_id, part.lm_id, part.owner_gm_id) == ("p0", "lm0", "gm0")
        assert part.bits is lm.partitions["p0"].bits
        assert part.log is lm.partitions["p0"].log and part.version == 0
        assert [(n.node_id, n.available, n.is_logical, n.parent_node, n.running)
                for n in part.nodes] == [("n0", rv(8, 800), False, None, ()),
                                         ("n1", rv(4, 400), False, None, ())]

    def test_a_merged_consumption_map_is_kept_as_received(self):
        view = ClusterView([two_node_snapshot(0.0, rv(8, 800), rv(8, 800))], 2)
        consumed = {"u0": rv(9, 900)}
        assert view.merge_partitions("lm0", 1.0, (), user_consumed=consumed)
        assert view.lm_user_consumed["lm0"] is consumed

    def test_a_view_keeps_the_consumption_it_merged_while_the_lm_moves_on(self):
        lm = wired_lm(rv(8, 800), rv(8, 800))
        view = ClusterView([lm.snapshot(0.0)], 2)
        node, gm = lm.nodes["n0"], object()  # the GM handle is only kept
        lm._launch(TaskRun(task("a", user="u0", demand=rv(2, 200))), node, gm, 0.0)
        assert view.apply_heartbeat(lm.snapshot(1.0))
        # the LM releases u0's task and launches one of u1's
        lm._release(lm.running["a"])
        lm._launch(TaskRun(task("b", user="u1", demand=rv(3, 300))), node, gm, 0.0)
        assert view.viewed_consumed("u0") == rv(2, 200)
        assert view.viewed_consumed("u1") == rv(0, 0)
        assert view.apply_heartbeat(lm.snapshot(2.0))
        assert view.viewed_consumed("u0") == rv(0, 0)
        assert view.viewed_consumed("u1") == rv(3, 300)
