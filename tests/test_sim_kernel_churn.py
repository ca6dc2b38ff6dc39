"""The timer-churn fix: heap compaction, cancel bookkeeping,
deadline-bumping timers, FIFO-floor pruning, and tap routing edges.

The headline regression test models timer churn: a long-lived TCP flow
re-arms its retransmission timer on every advancing ACK (cancel +
re-push).  A queue without compaction strands one dead event per
cycle, so its heap grows without bound over a fleet-length run; the
compacting queue stays within a small constant factor of the live
count.  A model-based property test checks the queue against a sorted
list of live entries, so compaction cannot change what pops, or when.
The guard event stream end to end is pinned by
``tests/test_seven_day_stream.py``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.net.addresses import Endpoint, IPv4Address
from repro.net.link import Host, Network, TapHost
from repro.net.packet import Packet, Protocol
from repro.sim.events import EventQueue
from repro.sim.process import DeadlineTimer
from repro.sim.random import RngHub


def _churn(queue, cycles, rearm_gap=1.0, rto=30.0):
    """A long-lived flow's RTO pattern: each segment's ACK cancels the
    pending retransmission and re-arms it ``rto`` ahead.  Returns the
    last (still-armed) handle."""
    handle = queue.push(rto, lambda: None)
    for i in range(1, cycles + 1):
        handle.cancel()
        handle = queue.push(i * rearm_gap + rto, lambda: None)
    return handle


class TestHeapStaysBounded:
    CYCLES = 5000

    def test_rearming_flow_keeps_heap_small(self):
        queue = EventQueue()
        _churn(queue, self.CYCLES)
        assert len(queue) == 1  # only the last re-arm is live
        # The regression bar: dead entries must not accumulate.  The
        # compaction threshold allows a handful, never thousands.
        assert len(queue._heap) <= 16

    def test_pop_order_unchanged_by_compaction(self):
        # Interleave churn with unrelated events; the survivors must pop
        # in (time, sequence) order: the seven unrelated events and the
        # last re-arm, whose sequence follows 7 pushes and 200 re-arms.
        queue = EventQueue()
        times = [7.0, 3.0, 11.0, 5.0, 2.0, 13.0, 0.5]
        for t in times:
            queue.push(t, lambda: None)
        _churn(queue, 200, rearm_gap=0.01, rto=4.0)
        order = []
        while (event := queue.pop()) is not None:
            order.append((event.time, event.sequence))
        survivors = [(t, seq) for seq, t in enumerate(times)]
        survivors.append((200 * 0.01 + 4.0, len(times) + 200))
        assert order == sorted(survivors)

    def test_compaction_spares_handle_free_posts(self):
        queue = EventQueue()
        for i in range(20):
            queue.post(float(i), lambda: None)
        _churn(queue, 100)
        # All 20 posts plus the one live timer survive compaction.
        assert len(queue) == 21
        popped = [queue.pop_entry() for _ in range(21)]
        assert [entry[0] for entry in popped[:20]] == [float(i) for i in range(20)]


# One queue operation: (name, time or limit, handle pick, burst size).
QUEUE_OPS = st.tuples(
    st.sampled_from(["push", "post", "cancel", "burst", "pop", "pop_entry",
                     "pop_entry_before", "peek_time"]),
    st.integers(min_value=0, max_value=12).map(float),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=12),
)


class TestEventQueueModel:
    """:class:`EventQueue` against a sorted list of live ``(time, seq)``.

    Random push, post, cancel (including re-cancels and cancels after
    the event fired or was compacted away), pop, ``pop_entry``,
    ``pop_entry_before`` and ``peek_time``.  ``burst`` pushes a run of
    events at one instant and cancels them all, which drives the queue
    across its compaction threshold.  Every entry carries its model
    sequence number as its argument, so pops identify what they return.
    """

    @staticmethod
    def _sink(seq):
        return None

    @settings(max_examples=200, deadline=None)
    @given(ops=st.lists(QUEUE_OPS, max_size=120))
    def test_matches_sorted_live_list(self, ops):
        queue = EventQueue()
        live = []  # sorted (time, seq) of scheduled, uncancelled entries
        handles = []  # (seq, handle) of every push, cancelled or not
        next_seq = 0

        def schedule(time, cancellable):
            nonlocal next_seq
            seq = next_seq
            next_seq += 1
            if cancellable:
                handles.append((seq, queue.push(time, self._sink, (seq,))))
            else:
                queue.post(time, self._sink, (seq,))
            live.append((time, seq))
            live.sort()

        def cancel(seq, handle):
            handle.cancel()
            live[:] = [entry for entry in live if entry[1] != seq]
            # Right after a cancel, dead entries never outnumber live
            # ones by more than the compaction allowance.
            assert len(queue._heap) <= 2 * len(queue) + 7

        for name, time, pick, burst in ops:
            if name in ("push", "post"):
                schedule(time, name == "push")
            elif name == "cancel" and handles:
                cancel(*handles[pick % len(handles)])
            elif name == "burst":
                first = len(handles)
                for _ in range(burst):
                    schedule(time, True)
                for seq, handle in handles[first:]:
                    cancel(seq, handle)
            elif name == "pop":
                event = queue.pop()
                expected = live.pop(0) if live else None
                got = None if event is None else (event.time, event.args[0])
                assert got == expected
            elif name == "pop_entry":
                entry = queue.pop_entry()
                expected = live.pop(0) if live else None
                got = None if entry is None else (entry[0], entry[2][0])
                assert got == expected
            elif name == "pop_entry_before":
                entry = queue.pop_entry_before(time)
                expected = live.pop(0) if live and live[0][0] <= time else None
                got = None if entry is None else (entry[0], entry[2][0])
                assert got == expected
            elif name == "peek_time":
                assert queue.peek_time() == (live[0][0] if live else None)
            assert len(queue) == len(live)
            assert len(queue._heap) == len(queue) + queue._dead
        drained = []
        while (entry := queue.pop_entry()) is not None:
            drained.append((entry[0], entry[2][0]))
        assert drained == live


class TestCancelBookkeeping:
    def test_cancel_after_pop_is_a_no_op(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.pop().time == 1.0
        handle.cancel()  # already fired: must not decrement again
        assert len(queue) == 1
        assert queue.pop().time == 2.0
        assert len(queue) == 0

    def test_cancel_after_compact_is_a_no_op(self):
        queue = EventQueue()
        keeper = queue.push(100.0, lambda: None)
        doomed = [queue.push(float(i), lambda: None) for i in range(30)]
        for handle in doomed:
            handle.cancel()  # crosses the compaction threshold (twice)
        assert len(queue._heap) < 10  # compaction ran; 30 dead entries gone
        snapshot = (queue._live, queue._dead, len(queue._heap))
        for handle in doomed:
            handle.cancel()  # re-cancel events compaction already removed
        assert (queue._live, queue._dead, len(queue._heap)) == snapshot
        assert len(queue) == 1
        assert not keeper.cancelled
        assert queue.pop().time == 100.0
        assert queue.pop() is None

    def test_double_cancel_while_queued(self):
        queue = EventQueue()
        handle = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert len(queue) == 1
        assert queue.pop().time == 2.0

    def test_peek_prunes_dead_head_exactly_once(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        assert queue.peek_time() == 2.0
        first.cancel()  # head already pruned by peek
        assert len(queue) == 1


class TestDeadlineTimer:
    def test_fires_exactly_at_deadline(self, sim):
        fired = []
        timer = DeadlineTimer(sim, lambda: fired.append(sim.now))
        timer.schedule_in(5.0)
        sim.run()
        assert fired == [5.0]
        assert not timer.armed

    def test_bumping_later_adds_no_heap_entries(self, sim):
        timer = DeadlineTimer(sim, lambda: None)
        timer.schedule_in(30.0)
        baseline = len(sim._queue._heap)
        for i in range(1, 500):
            sim._clock._now = float(i)  # segments arriving, RTO pushed out
            timer.schedule_in(30.0)
        # The whole churn storm rides the single outstanding wakeup.
        assert len(sim._queue._heap) == baseline

    def test_bumped_deadline_fires_at_new_time_only(self, sim):
        fired = []
        timer = DeadlineTimer(sim, lambda: fired.append(sim.now))
        timer.schedule_at(10.0)
        sim.schedule(5.0, lambda: timer.schedule_at(20.0))
        sim.run()
        assert fired == [20.0]

    def test_cancel_turns_pending_wakeup_into_no_op(self, sim):
        fired = []
        timer = DeadlineTimer(sim, lambda: fired.append(sim.now))
        timer.schedule_at(10.0)
        sim.schedule(5.0, timer.cancel)
        sim.run()
        assert fired == []
        assert not timer.armed

    def test_rescheduling_earlier_fires_earlier(self, sim):
        fired = []
        timer = DeadlineTimer(sim, lambda: fired.append(sim.now))
        timer.schedule_at(50.0)
        sim.schedule(1.0, lambda: timer.schedule_at(8.0))
        sim.run()
        assert fired == [8.0]

    def test_cancel_then_rearm_fires_once(self, sim):
        fired = []
        timer = DeadlineTimer(sim, lambda: fired.append(sim.now))
        timer.schedule_at(10.0)
        sim.schedule(2.0, timer.cancel)
        sim.schedule(3.0, lambda: timer.schedule_at(12.0))
        sim.run()
        assert fired == [12.0]

    def test_periodic_rearm_from_callback(self, sim):
        fired = []

        def beat():
            fired.append(sim.now)
            if len(fired) < 4:
                timer.schedule_in(30.0)

        timer = DeadlineTimer(sim, beat)
        timer.schedule_in(30.0)
        sim.run()
        assert fired == [30.0, 60.0, 90.0, 120.0]


class TestJitterBufferEquivalence:
    def test_block_draws_match_scalar_draws_bitwise(self):
        # Network.send buffers jitter draws 256 at a time; golden-trace
        # identity relies on random(n) yielding the exact doubles n
        # scalar random() calls would.
        block = np.random.default_rng(1234).random(256).tolist()
        scalar_rng = np.random.default_rng(1234)
        scalars = [float(scalar_rng.random()) for _ in range(256)]
        assert block == scalars
        assert all(isinstance(value, float) for value in block)


class TestDeliveryFloorPruning:
    PATHS = 200  # distinct (src_ip, dst_ip, protocol) paths over the run

    def _flood(self, network, sim):
        """A fleet of devices talking to one sink, in bursts with idle
        time in between — each device is a new (src, dst, protocol)
        floor entry, and every drain makes the previous burst's floors
        stale.  Without pruning the dict would keep all of them."""
        sink = Host("sink", IPv4Address("10.0.1.1"))
        network.attach(sink)
        sink.register_udp_any(lambda packet: None)
        for index in range(self.PATHS):
            device = Host(f"d{index}", IPv4Address(f"10.0.0.{1 + index}"))
            network.attach(device)
            device.send(Packet(src=Endpoint(device.ip, 1),
                               dst=Endpoint(sink.ip, 9),
                               protocol=Protocol.UDP, payload_len=1))
            if index % 40 == 39:
                sim.run()  # drain the burst: time passes every floor
        sim.run()
        return network

    def test_floors_do_not_accumulate_per_path(self, sim):
        network = Network(sim, RngHub(5))
        self._flood(network, sim)
        # 200 distinct paths were used; stale floors must have been
        # pruned instead of retained one-per-path forever.
        assert len(network._last_delivery) < self.PATHS / 2

    def test_path_cache_is_bounded_under_ephemeral_ports(self, sim):
        # The routing cache is keyed by (origin, src, dst) endpoints;
        # ephemeral ports make that key space unbounded, so the cache
        # must wipe itself rather than grow one entry per flow.
        network = Network(sim, RngHub(9))
        a = Host("a", IPv4Address("192.168.1.10"))
        b = Host("b", IPv4Address("192.168.1.11"))
        network.attach(a)
        network.attach(b)
        b.register_udp_any(lambda packet: None)
        for port in range(1024, 1024 + 5000):
            a.send(Packet(src=Endpoint(a.ip, port), dst=Endpoint(b.ip, 9),
                          protocol=Protocol.UDP, payload_len=1))
            if port % 500 == 0:
                sim.run()
        sim.run()
        assert len(network._path_cache) <= 4096

    def test_fifo_still_holds_across_prunes(self, sim):
        network = Network(sim, RngHub(7))
        network._prune_at = 1  # prune on every send
        a = Host("a", IPv4Address("192.168.1.10"))
        b = Host("b", IPv4Address("192.168.1.11"))
        network.attach(a)
        network.attach(b)
        order = []
        b.register_udp_handler(9, lambda p: order.append(p.payload_len))
        for size in range(1, 40):
            a.send(Packet(src=Endpoint(a.ip, 1), dst=Endpoint(b.ip, 9),
                          protocol=Protocol.UDP, payload_len=size))
        sim.run()
        assert order == list(range(1, 40))


class TestTapRoutingEdges:
    def _fabric(self, sim):
        network = Network(sim, RngHub(3))
        speaker = Host("speaker", IPv4Address("192.168.1.200"))
        cloud = Host("cloud", IPv4Address("54.1.1.1"))
        tap = TapHost("tap", IPv4Address("192.168.1.50"))
        for host in (speaker, cloud, tap):
            network.attach(host)
        return network, speaker, cloud, tap

    def test_tap_reinjection_reaches_true_destination(self, sim):
        network, speaker, cloud, tap = self._fabric(sim)
        network.install_tap(speaker.ip, tap)
        received = []
        cloud.register_udp_handler(9, received.append)
        held = []

        def hold_then_release(packet):
            held.append(packet)
            sim.post(0.5, tap.bridge, packet)  # re-inject later

        tap.intercept = hold_then_release  # type: ignore[assignment]
        speaker.send(Packet(src=Endpoint(speaker.ip, 1),
                            dst=Endpoint(cloud.ip, 9),
                            protocol=Protocol.UDP, payload_len=3))
        sim.run()
        # Intercepted exactly once; the re-injected copy bypasses the
        # tap (origin is the tap) and lands on the real destination.
        assert len(held) == 1
        assert [p.payload_len for p in received] == [3]

    def test_remove_tap_with_packet_in_flight(self, sim):
        network, speaker, cloud, tap = self._fabric(sim)
        network.install_tap(speaker.ip, tap)
        intercepted, received = [], []
        tap.intercept = intercepted.append  # type: ignore[assignment]
        cloud.register_udp_handler(9, received.append)
        # Packet 1 departs while the tap is installed...
        speaker.send(Packet(src=Endpoint(speaker.ip, 1),
                            dst=Endpoint(cloud.ip, 9),
                            protocol=Protocol.UDP, payload_len=1))
        # ...the tap is unplugged before it arrives...
        network.remove_tap(speaker.ip)
        # ...and packet 2 departs after removal.
        speaker.send(Packet(src=Endpoint(speaker.ip, 1),
                            dst=Endpoint(cloud.ip, 9),
                            protocol=Protocol.UDP, payload_len=2))
        sim.run()
        # Routing was resolved at send time: the in-flight packet still
        # lands on the tap, the later one goes direct.
        assert [p.payload_len for p in intercepted] == [1]
        assert [p.payload_len for p in received] == [2]

    def test_reinstalled_tap_invalidates_cached_paths(self, sim):
        network, speaker, cloud, tap = self._fabric(sim)
        received, intercepted = [], []
        cloud.register_udp_handler(9, received.append)
        tap.intercept = intercepted.append  # type: ignore[assignment]

        def shoot(size):
            speaker.send(Packet(src=Endpoint(speaker.ip, 1),
                                dst=Endpoint(cloud.ip, 9),
                                protocol=Protocol.UDP, payload_len=size))
            sim.run()

        shoot(1)  # no tap: direct (and the path is now cached)
        network.install_tap(speaker.ip, tap)
        shoot(2)  # cache must have been invalidated by install_tap
        network.remove_tap(speaker.ip)
        shoot(3)  # and again by remove_tap
        assert [p.payload_len for p in received] == [1, 3]
        assert [p.payload_len for p in intercepted] == [2]

    def test_udp_any_shadows_per_port_handlers(self, sim):
        network, speaker, cloud, tap = self._fabric(sim)
        per_port, catch_all = [], []
        cloud.register_udp_handler(9, per_port.append)
        speaker.send(Packet(src=Endpoint(speaker.ip, 1),
                            dst=Endpoint(cloud.ip, 9),
                            protocol=Protocol.UDP, payload_len=1))
        sim.run()
        cloud.register_udp_any(catch_all.append)
        for port in (9, 10):  # registered port and an unregistered one
            speaker.send(Packet(src=Endpoint(speaker.ip, 1),
                                dst=Endpoint(cloud.ip, port),
                                protocol=Protocol.UDP, payload_len=port))
        sim.run()
        # Once the catch-all is installed it takes every UDP packet,
        # including ones a per-port handler would otherwise claim.
        assert [p.payload_len for p in per_port] == [1]
        assert sorted(p.payload_len for p in catch_all) == [9, 10]

