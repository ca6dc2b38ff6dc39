"""Idle epochs: an Echo's quiet heartbeat periods in one array pass.

Between command episodes the Echo's AVS connection carries only its
41 B heartbeat, every 30 s.  Through the guard's proxy one such period
is 8 packets, 18 kernel events and 18 queue sequence numbers, in this
order (``a<i>`` is the arrival of the period's i-th packet, ``+i`` the
sequence number a step takes, counted from the period's first):

====  =============================================================
H     the heartbeat wakeup: the Echo sends the record (+0 delivery,
      +1 RTO wakeup) and re-arms the heartbeat (+2)
a0    the proxy's downstream gets it, forwards it upstream (+3, +4
      RTO) and ACKs the Echo (+5)
a2    the Echo gets that ACK
a1    the cloud gets the heartbeat, schedules its reply 4 ms later
      (+6) and ACKs (+7)
t     the cloud sends the reply (+8, +9 RTO)
a3    the proxy's upstream gets the cloud's ACK
a4    the upstream gets the reply, relays it downstream (+10, +11
      RTO) and ACKs the cloud (+12)
a5    the Echo gets the reply and ACKs it (+13)
a6    the cloud gets the upstream's ACK
a7    the downstream gets the Echo's ACK
1 s   four RTO wakeups find nothing unacknowledged
~15 s four keepalive wakeups re-arm 45 s after each connection's last
      arrival (+14..+17, in time order)
====  =============================================================

:func:`advance_idle_epoch`, entered from the heartbeat wakeup, applies
N whole periods at once.  It takes the ``8·N`` ``net.jitter`` variates
in whole 256-blocks from one ``random()`` call (the doubles ticking
would draw, leaving ``_jitter_buf`` and ``_jitter_idx`` where ticking
leaves them), builds the 30 s heartbeat chain with a sequential
``np.add.accumulate``, and computes each hop for all periods as one
array expression in the ticked float order, raised to its path's FIFO
floor.  The floor binds every period: the Echo's ACK ``a7`` shares the
``(speaker, AVS)`` path with the upstream's ACK ``a6`` sent over the
WAN just before it.  Then it advances everything the skipped events
would have changed (connection sequence numbers, byte counts and last
arrival, every timer's deadline, the TLS record counters, the cloud's
stats, the proxy's forwarded counts, the network's delivery count and
floors, the packet numbers) and leaves queued exactly the entries
ticking would leave, under the sequence numbers ticking would have
given them (:meth:`repro.sim.events.EventQueue.post_reserved`).

A home is quiet only when all of these hold; otherwise the heartbeat
ticks:

* the proxy relays a single flow, the Echo's AVS connection, holding
  nothing, with no record shim, and a record policy whose idle check
  passes (no open recognizer window, settled signature tracking, no
  signature learner);
* the Echo, both proxy connections and the cloud's are ESTABLISHED on
  the fast path with nothing unacknowledged or out of order, their
  routes are current, and their keepalive wakeups are the only queued
  entries of the pattern;
* no capture observer watches the network and ``wan_loss`` is 0;
* every other live queue entry is strictly after the last skipped
  event, which is also at or before the running ``run_until`` limit.

Each period's orderings the model assumes (ACKs before RTO wakeups,
keepalives between one period's last arrival and the next heartbeat,
FIFO floors across periods not binding) are checked on the arrays; the
first period that fails one, and every later one, is left to tick.
So is a stretch of fewer than ``_MIN_PERIODS`` periods, which ticks
faster than a pass runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.net.link import FIFO_GAP, JITTER_BLOCK
from repro.net.packet import peek_packet_number, reset_packet_numbers
from repro.net.proxy import TransparentProxy
from repro.net.tcp import TcpConnection, TcpState
from repro.speakers.cloud import AvsCloud
from repro.speakers.signatures import HEARTBEAT_LEN, HEARTBEAT_PERIOD

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.speakers.echo_dot import EchoDot

# Per ticked period: packets sent, queue sequence numbers taken, and the
# offsets of the next heartbeat's wakeup and of the first keepalive
# re-arm among those numbers (see the module docstring).
_PACKETS = 8
_SEQS = 18
_HEARTBEAT_SEQ = 2
_KEEPALIVE_SEQ = 14
# Below this many periods ticking is cheaper than a pass: measured on
# freshly copied house, apartment and office worlds, a pass costs about
# as much as ticking five or six periods (see CHANGES.md).
_MIN_PERIODS = 6
# Cap on one pass (about 34 simulated hours); the next heartbeat
# starts another.
_MAX_PERIODS = 4096


def advance_idle_epoch(echo: "EchoDot") -> bool:
    """Apply the quiet heartbeat periods starting now in one pass.

    Called from the Echo's heartbeat wakeup before it sends anything.
    Returns False, having changed nothing, when the home is not quiet
    or fewer than ``_MIN_PERIODS`` whole periods fit before the next
    foreign event and the ``run_until`` limit; the heartbeat then ticks.
    """
    sim = echo.sim
    h0 = sim._clock._now
    limit = sim.run_limit  # -inf outside run_until
    if limit - h0 < (_MIN_PERIODS - 1) * HEARTBEAT_PERIOD:
        return False
    links = _quiet_links(echo)
    if links is None:
        return False
    conns, proxy, flow, cloud, session = links
    queue = sim._queue
    keepalives = [conn._keepalive_timer for conn in conns]
    pending, foreign = _scan_queue(queue._heap, keepalives)
    if pending is None:
        return False
    # A period ends with its keepalive wakeups: the queued ones in the
    # first, then ones later than keepalive_idle after the previous
    # heartbeat.  That bounds how many periods can end in time.
    bound = min(foreign, limit)
    if max(entry[0] for entry in pending) > bound:
        return False
    keepalive_idle = max(conn.tuning.keepalive_idle for conn in conns)
    reach = min(bound - h0 - keepalive_idle, _MAX_PERIODS * HEARTBEAT_PERIOD)
    periods = min(1 + (int(reach // HEARTBEAT_PERIOD) + 1 if reach > 0 else 0),
                  _MAX_PERIODS)
    if periods < _MIN_PERIODS:
        return False

    network = echo.network
    rng = network._rng
    buffered = len(network._jitter_buf) - network._jitter_idx
    blocks = max(0, -(-(_PACKETS * periods - buffered) // JITTER_BLOCK))
    saved = rng.bit_generator.state if blocks else None
    fresh = rng.random(JITTER_BLOCK * blocks) if blocks else None
    plan = _plan(network, conns, pending, h0, periods, fresh, foreign, limit)
    count = plan.count
    # Keepalives tied in the last period would re-arm in the order of
    # sequence numbers the arrays do not track; that period ticks.
    # (Ties in earlier periods only reorder numbers no state keeps.)
    while (count >= _MIN_PERIODS
           and len(set(plan.keepalives[:, count - 1].tolist())) < len(conns)):
        count -= 1
    if count < _MIN_PERIODS:
        if saved is not None:
            rng.bit_generator.state = saved
        return False
    used = _PACKETS * count
    if used <= buffered:
        if saved is not None:
            rng.bit_generator.state = saved
        network._jitter_idx += used
    else:
        needed = -(-(used - buffered) // JITTER_BLOCK)
        if needed != blocks:
            # The prefix of the same stream: redraw just those blocks.
            rng.bit_generator.state = saved
            fresh = rng.random(JITTER_BLOCK * needed)
        network._jitter_buf = fresh[-JITTER_BLOCK:].tolist()
        network._jitter_idx = used - buffered - JITTER_BLOCK * (needed - 1)

    last = count - 1
    network.delivered_count += used
    for fifo_id, arrivals in plan.floors.items():
        network._last_delivery[fifo_id] = float(arrivals[last])
    reset_packet_numbers(peek_packet_number() + used)
    # Every connection sends one 41 B record per period and receives one:
    # the heartbeat one way, the cloud's reply of the same length back.
    payload = HEARTBEAT_LEN * count
    for index, conn in enumerate(conns):
        conn.snd_next += payload
        conn.bytes_sent += payload
        conn.rcv_next += payload
        conn.bytes_received += payload
        conn._last_rx_time = float(plan.last_rx[index, last])
        conn._probes_sent = 0
        conn._head_retries = 0
        conn._recovering = False
    echo._tls._send_seq += count
    session.tls._recv_expected += count
    session.tls._send_seq += count
    cloud.stats.records_received += count
    cloud.stats.heartbeats_answered += count
    proxy.count_forwarded(flow, count)

    first = queue._next_seq + _SEQS * last
    heartbeat = echo._heartbeat_timer
    wake = float(plan.heartbeats[count])
    heartbeat._deadline = heartbeat._next_fire = wake
    entries = [(wake, first + _HEARTBEAT_SEQ, heartbeat._fire, ())]
    rearms = plan.rearms[:, last]
    for rank, index in enumerate(np.argsort(plan.keepalives[:, last])):
        timer = keepalives[index]
        due = float(rearms[index])
        timer._deadline = timer._next_fire = due
        entries.append((due, first + _KEEPALIVE_SEQ + rank, timer._fire, ()))
    queue.post_reserved(_SEQS * count, entries, fired=pending)
    sim._clock._now = float(plan.ends[last])
    return True


def _quiet_links(echo: "EchoDot") -> Optional[Tuple]:
    """The epoch's four connections ``(echo, upstream, cloud,
    downstream)`` with the proxy, flow, cloud and cloud session, or
    ``None`` when the home is not quiet."""
    network = echo.network
    echo_conn, tls = echo._conn, echo._tls
    if (network is None or network._observers or network.wan_loss > 0.0
            or tls is None or echo._heartbeat_timer._next_fire is not None
            or echo_conn.on_record != echo._on_avs_record):
        return None
    route = echo_conn._route
    proxy = route.target if route is not None else None
    if not isinstance(proxy, TransparentProxy) or route.peer is None:
        return None
    flow = proxy.idle_flow(route.peer, HEARTBEAT_LEN)
    if flow is None:
        return None
    down, up = flow.downstream, flow.upstream
    cloud = up._route.target if up._route is not None else None
    cloud_conn = up._route.peer if cloud is not None else None
    if not isinstance(cloud, AvsCloud) or cloud_conn is None:
        return None
    session = cloud.heartbeat_session(cloud_conn)
    if session is None or session.tls._recv_expected != tls._send_seq:
        return None
    # Each connection's own route must be current and deliver to the
    # next connection of the chain, as the ticked send would find it.
    conns = (echo_conn, up, cloud_conn, down)
    receivers = (down, cloud_conn, up, echo_conn)
    epoch = network._epoch
    floors = network._last_delivery
    if len(floors) >= network._prune_at:
        return None
    for conn, receiver in zip(conns, receivers):
        route = conn._route
        if (route is None or route.epoch != epoch
                or route.origin is not conn.stack.host
                or route.peer is not receiver or not receiver.registered
                or route.fifo_id not in floors or not _settled(conn)):
            return None
    return conns, proxy, flow, cloud, session


def _settled(conn: TcpConnection) -> bool:
    """ESTABLISHED on the fast path, nothing in flight, no RTO wakeup
    queued, and one keepalive wakeup queued at its deadline."""
    rto, keepalive = conn._rto_timer, conn._keepalive_timer
    return (conn._fast and conn.state is TcpState.ESTABLISHED
            and not conn._unacked and not conn._out_of_order
            and rto is not None and rto._deadline is None
            and rto._next_fire is None
            and keepalive is not None and keepalive._deadline is not None
            and keepalive._next_fire == keepalive._deadline)


def _scan_queue(heap: list, keepalives: List) -> Tuple[Optional[List], float]:
    """The queued wakeup of each keepalive timer (``None`` if one is
    missing), and the earliest other live entry's time."""
    slots = {id(timer): index for index, timer in enumerate(keepalives)}
    pending = [None] * len(keepalives)
    foreign = float("inf")
    for entry in heap:
        event = entry[2]
        if event is None:
            index = slots.get(id(getattr(entry[3], "__self__", None)))
            if (index is not None and pending[index] is None
                    and entry[0] == keepalives[index]._next_fire):
                pending[index] = entry
                continue
        elif event.cancelled:
            continue
        if entry[0] < foreign:
            foreign = entry[0]
    if any(entry is None for entry in pending):
        return None, foreign
    return pending, foreign


class _Plan(NamedTuple):
    """Every period's instants, as arrays over periods.

    ``heartbeats`` has one more entry than there are periods (the next
    heartbeat after the last); ``last_rx``, ``keepalives`` and
    ``rearms`` have one row per connection, in the order of ``conns``;
    ``floors`` maps each FIFO path to its last arrival per period;
    ``ends`` is each period's last event; ``count`` is how many leading
    periods are exact to apply.
    """

    heartbeats: np.ndarray
    last_rx: np.ndarray
    keepalives: np.ndarray
    rearms: np.ndarray
    floors: dict
    ends: np.ndarray
    count: int


def _plan(network, conns, pending, h0: float, periods: int, fresh,
          foreign: float, limit: float) -> _Plan:
    """Compute ``periods`` periods from the variates at hand, and how
    many of them are exact to apply."""
    echo_conn, up, cloud_conn, down = conns
    # The period's packets in send order, by the connection sending each.
    senders = (echo_conn, up, down, cloud_conn, cloud_conn, down, up, echo_conn)
    variates = np.asarray(network._jitter_buf[network._jitter_idx:], dtype=float)
    if fresh is not None:
        variates = np.concatenate((variates, fresh))
    u = variates[:_PACKETS * periods].reshape(periods, _PACKETS).T
    # Network.send's latency, base·(1 + jitter·u), one row per packet.
    bases = np.array([conn._route.base for conn in senders])
    latency = bases[:, None] * (1.0 + network.jitter * u)
    start = network._last_delivery
    floors = {}
    carried = []  # (fifo id, arrivals) of each path's first packet

    def hop(sent, packet: int):
        # Arrival = send + latency, raised to FIFO_GAP past the path's
        # previous arrival (Network.send's floor).
        fifo_id = senders[packet]._route.fifo_id
        arrival = sent + latency[packet]
        previous = floors.get(fifo_id)
        if previous is None:
            carried.append((fifo_id, arrival))
            floor = start[fifo_id] + FIFO_GAP
            if arrival[0] < floor:
                arrival[0] = floor
        else:
            np.maximum(arrival, previous + FIFO_GAP, out=arrival)
        floors[fifo_id] = arrival
        return arrival

    heartbeats = np.full(periods + 1, HEARTBEAT_PERIOD)
    heartbeats[0] = h0
    np.add.accumulate(heartbeats, out=heartbeats)
    h = heartbeats[:-1]
    a0 = hop(h, 0)   # heartbeat -> downstream
    a1 = hop(a0, 1)  # forwarded -> cloud
    a2 = hop(a0, 2)  # downstream ACK -> Echo
    a3 = hop(a1, 3)  # cloud ACK -> upstream
    t = a1 + AvsCloud.HEARTBEAT_REPLY_DELAY
    a4 = hop(t, 4)   # reply -> upstream
    a5 = hop(a4, 5)  # relayed reply -> Echo
    a6 = hop(a4, 6)  # upstream ACK -> cloud
    a7 = hop(a5, 7)  # Echo ACK -> downstream

    # Per connection (rows in ``conns`` order): its last arrival, the
    # RTO wakeup of its data segment, and the first ACK of that segment,
    # which must come before the wakeup.
    last_rx = np.empty((4, periods))
    np.maximum(a2, a5, out=last_rx[0])
    np.maximum(a3, a4, out=last_rx[1])
    np.maximum(a1, a6, out=last_rx[2])
    np.maximum(a0, a7, out=last_rx[3])
    rtos = np.empty((4, periods))
    np.add(h, echo_conn.tuning.rto, out=rtos[0])
    np.add(a0, up.tuning.rto, out=rtos[1])
    np.add(t, cloud_conn.tuning.rto, out=rtos[2])
    np.add(a4, down.tuning.rto, out=rtos[3])
    acks = np.empty((4, periods))
    np.minimum(a2, a5, out=acks[0])
    np.minimum(a3, a4, out=acks[1])
    acks[2] = a6
    acks[3] = a7
    # Keepalive wakeups: the queued one in the first period, then
    # keepalive_idle after the previous period's last arrival; each
    # re-arms keepalive_idle after its own period's.  They must fall
    # between the period's last arrival and the next heartbeat.
    keepalive_idle = np.array([[conn.tuning.keepalive_idle] for conn in conns])
    rearms = last_rx + keepalive_idle
    keepalives = np.empty_like(rearms)
    keepalives[:, 0] = [entry[0] for entry in pending]
    keepalives[:, 1:] = rearms[:, :-1]
    following = heartbeats[1:]
    ends = np.maximum(keepalives.max(axis=0), rtos.max(axis=0))
    valid = (((acks < rtos) & (rtos < following)
              & (keepalives > last_rx.max(axis=0)) & (keepalives < following)
              & (rearms > keepalives)).all(axis=0)
             & (ends < foreign) & (ends <= limit))
    # A path's first packet of a period was floored by the previous
    # period's last arrival, which the arrays left out: exact only
    # where that floor does not bind.
    for fifo_id, arrival in carried:
        valid[1:] &= arrival[1:] >= floors[fifo_id][:-1] + FIFO_GAP

    count = periods if valid.all() else int(np.argmin(valid))
    return _Plan(heartbeats, last_rx, keepalives, rearms, floors, ends, count)
