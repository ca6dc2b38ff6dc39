"""Simplified but stateful TCP.

The model keeps exactly the machinery the paper's Traffic Handler
depends on:

* a three-way handshake, so connection establishment is observable as
  packets (the AVS *connection signature* rides on the first data
  segments after the handshake);
* sequence/acknowledgement numbers with retransmission and a bounded
  number of retries, so a middlebox that silently drops packets (the
  firewall baseline) kills the connection, while one that ACKs locally
  (the transparent proxy) keeps it alive for dozens of seconds;
* keepalive probes, which the proxy must answer during a hold;
* FIN/RST teardown, so a TLS-level violation can close the session and
  the speaker can observably reconnect.

Endpoints communicate only through packets on the network — there is no
shared connection object — which is what allows a transparent proxy to
terminate one side and impersonate the other.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import ConnectionClosedError, NetworkError
from repro.net.addresses import Endpoint
from repro.net.link import Host
from repro.net.packet import Packet, Protocol, TcpFlags, TlsRecordType
from repro.sim.process import DeadlineTimer

# Integer flag masks and pre-built combinations: ``enum.Flag``'s
# ``__contains__`` / ``__or__`` dominate the per-segment profile, while
# one ``.value`` read plus int ``&`` per check does not.
_SYN = TcpFlags.SYN.value
_ACK = TcpFlags.ACK.value
_FIN = TcpFlags.FIN.value
_RST = TcpFlags.RST.value
_KEEPALIVE = TcpFlags.KEEPALIVE.value
# Flag combinations are interned enum members, so the established-flow
# path recognises a pure ACK or a data segment by identity alone.
_ACK_ONLY = TcpFlags.ACK
_SYN_ACK = TcpFlags.SYN | TcpFlags.ACK
_PSH_ACK = TcpFlags.PSH | TcpFlags.ACK
_FIN_ACK = TcpFlags.FIN | TcpFlags.ACK
_KEEPALIVE_ACK = TcpFlags.KEEPALIVE | TcpFlags.ACK
_TCP = Protocol.TCP
_NO_TLS = TlsRecordType.NONE
# Ephemeral ports for outgoing connections.
EPHEMERAL_FIRST = 49201
EPHEMERAL_LAST = 65000


class TcpState(enum.Enum):
    """Connection states (simplified TCP)."""
    CLOSED = "closed"
    LISTEN = "listen"
    SYN_SENT = "syn_sent"
    SYN_RCVD = "syn_rcvd"
    ESTABLISHED = "established"
    FIN_WAIT = "fin_wait"
    CLOSE_WAIT = "close_wait"


@dataclass
class TcpTuning:
    """Timer knobs; defaults approximate consumer-device stacks."""

    rto: float = 1.0
    max_retries: int = 5
    keepalive_idle: float = 45.0
    keepalive_interval: float = 5.0
    keepalive_probes: int = 3
    delayed_ack: float = 0.0005


class TcpConnection:
    """One side of a TCP connection.

    Application hooks:

    ``on_established(conn)``
        fired when the handshake completes,
    ``on_record(conn, packet)``
        fired for every received data segment,
    ``on_close(conn, reason)``
        fired once when the connection leaves ESTABLISHED for good.
        ``reason`` is one of ``"fin"``, ``"rst"``, ``"timeout"``,
        ``"local"``.

    An ESTABLISHED connection takes the *established-flow path* for the
    two segments that make up nearly all traffic, a pure ACK and an
    in-order data segment with nothing buffered out of order: it
    handles them inline, without the general state machine.  Every
    other segment and state takes the general path in :meth:`handle`.
    The retransmission and keepalive timers are
    :class:`~repro.sim.process.DeadlineTimer` objects, so re-arming
    one on an advancing ACK moves a deadline instead of pushing a heap
    entry.  The keepalive deadline is never bumped per segment: the
    keepalive callback re-arms itself at ``_last_rx_time +
    keepalive_idle`` when traffic arrived since, the same instant a
    per-segment bump would have produced.
    """

    # Slots keep each connection small: a world holds hundreds of
    # (mostly closed) connections, too many attributes for a compact
    # instance dict.
    __slots__ = (
        "stack", "local", "remote", "tuning", "state",
        "on_established", "on_record", "on_close",
        "snd_next", "rcv_next", "_unacked", "_head_retries", "_out_of_order",
        "_recovering", "_sim", "_rto_timer",
        "_keepalive_timer", "_probes_sent", "_last_rx_time",
        "_fast", "registered", "_route", "_peer_route",
        "bytes_sent", "bytes_received", "retransmissions", "close_reason",
    )

    def __init__(
        self,
        stack: "TcpStack",
        local: Endpoint,
        remote: Endpoint,
        tuning: Optional[TcpTuning] = None,
    ) -> None:
        self.stack = stack
        self.local = local
        self.remote = remote
        self.tuning = tuning or TcpTuning()
        self.state = TcpState.CLOSED
        self.on_established: Optional[Callable[[TcpConnection], None]] = None
        self.on_record: Optional[Callable[[TcpConnection, Packet], None]] = None
        self.on_close: Optional[Callable[[TcpConnection, str], None]] = None

        self.snd_next = 0
        self.rcv_next = 0
        # Sent-but-unacknowledged data segments, in sequence order; each
        # ends at ``packet.seq + packet.payload_len``.  Only the head is
        # ever retransmitted, so one retry counter serves the queue.
        self._unacked: List[Packet] = []
        self._head_retries = 0
        self._out_of_order: dict = {}  # seq -> data packet awaiting gap fill
        self._recovering = False
        network = stack.host.network
        self._sim = network.sim if network is not None else None
        self._rto_timer: Optional[DeadlineTimer] = None
        self._keepalive_timer: Optional[DeadlineTimer] = None
        self._probes_sent = 0
        self._last_rx_time = 0.0
        # Whether the established-flow path applies (see the class
        # docstring), whether the stack's demux table holds this
        # connection, and the network route of this connection's own
        # packets (handed back to the network with each one).
        self._fast = False
        self.registered = False
        self._route = None
        self._peer_route = None  # the route caching this connection as its peer
        self.bytes_sent = 0
        self.bytes_received = 0
        self.retransmissions = 0
        self.close_reason: Optional[str] = None

    # -- identity -------------------------------------------------------
    @property
    def sim(self):
        """The simulator this connection runs on."""
        sim = self._sim
        if sim is None:
            sim = self._sim = self.stack.host.network.sim
        return sim

    @property
    def four_tuple(self) -> Tuple[Endpoint, Endpoint]:
        """(local, remote) endpoints identifying the connection."""
        return (self.local, self.remote)

    @property
    def is_established(self) -> bool:
        """Whether data can currently be sent."""
        return self.state is TcpState.ESTABLISHED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TcpConnection({self.local} <-> {self.remote}, {self.state.value})"

    # -- opening --------------------------------------------------------
    def open_active(self) -> None:
        """Client side: send SYN."""
        if self.state is not TcpState.CLOSED:
            raise NetworkError(f"cannot open connection in state {self.state}")
        self.state = TcpState.SYN_SENT
        self._send(TcpFlags.SYN)
        self._arm_rto()

    def _establish(self) -> None:
        """Enter ESTABLISHED: arm the keepalive, enable the fast path."""
        self.state = TcpState.ESTABLISHED
        self._arm_keepalive()
        # The fast path's lazy keepalive re-arm is exact only when a
        # probe interval never outlasts the idle period (see
        # _on_keepalive_timer); other tunings keep the per-segment bump.
        self._fast = self.tuning.keepalive_interval <= self.tuning.keepalive_idle

    # -- sending --------------------------------------------------------
    def send_record(
        self,
        payload_len: int,
        tls_type: TlsRecordType = TlsRecordType.APPLICATION_DATA,
        tls_record_seq: Optional[int] = None,
        meta: Optional[dict] = None,
    ) -> Packet:
        """Send one TLS record as a data segment."""
        if not self._fast and self.state is not TcpState.ESTABLISHED:
            raise ConnectionClosedError(
                f"send on {self.local}->{self.remote} in state {self.state.value}"
            )
        packet = Packet(self.local, self.remote, _TCP, payload_len, _PSH_ACK,
                        self.snd_next, self.rcv_next, tls_type, tls_record_seq)
        if meta:
            packet.meta.update(meta)
        self.snd_next += payload_len
        self.bytes_sent += payload_len
        self._unacked.append(packet)
        packet.route = self._route
        host = self.stack.host
        host.network.send(host, packet)
        self._route = packet.route
        timer = self._rto_timer
        if timer is None:
            self._arm_rto()
        elif timer._deadline is None:
            timer.schedule_at(self._sim._clock._now + self.tuning.rto)
        return packet

    def close(self) -> None:
        """Orderly local close (FIN)."""
        if self.state in (TcpState.ESTABLISHED, TcpState.CLOSE_WAIT, TcpState.SYN_RCVD):
            self._send(_FIN_ACK)
            previous = self.state
            self.state = TcpState.FIN_WAIT
            self._fast = False
            if previous is TcpState.CLOSE_WAIT:
                self._finish("fin")

    def abort(self, reason: str = "local") -> None:
        """Send RST and drop all state immediately."""
        if self.state not in (TcpState.CLOSED,):
            try:
                self._send(TcpFlags.RST)
            finally:
                self._finish(reason)

    # -- receiving ------------------------------------------------------
    def handle(self, packet: Packet) -> None:
        """Process one inbound packet for this connection."""
        if self._fast:
            flags = packet.flags
            if flags is _ACK_ONLY or flags is _PSH_ACK:
                # The established-flow path: same steps, in the same
                # order, as the general path below takes for these two
                # segment kinds.
                self._last_rx_time = self._sim._clock._now
                self._probes_sent = 0
                unacked = self._unacked
                if unacked:
                    last = unacked[-1]
                    if last.seq + last.payload_len <= packet.ack:
                        # Everything in flight is acknowledged.
                        unacked.clear()
                        self._head_retries = 0
                        self._recovering = False
                        self._rto_timer._deadline = None
                    else:
                        self._process_ack(packet.ack)
                payload_len = packet.payload_len
                if payload_len:
                    seq = packet.seq
                    if (seq == self.rcv_next and self._fast
                            and not self._out_of_order):
                        self.rcv_next = seq + payload_len
                        self.bytes_received += payload_len
                        if self.on_record:
                            self.on_record(self, packet)
                        self._send(_ACK_ONLY)
                    else:
                        self._receive_data(packet)
                return
        self._last_rx_time = now = self.sim._clock._now
        self._probes_sent = 0
        # Off the fast path the idle deadline is bumped per segment, so
        # the keepalive only wakes up when the link is genuinely idle.
        # Bumping a deadline is a float store (no heap traffic, see
        # DeadlineTimer).
        timer = self._keepalive_timer
        if timer is not None and timer._deadline is not None:
            timer.schedule_at(now + self.tuning.keepalive_idle)
        flag_bits = packet.flags.value

        if flag_bits & _RST:
            self._finish("rst")
            return

        if self.state is TcpState.SYN_SENT:
            if flag_bits & _SYN and flag_bits & _ACK:
                self._cancel_rto()
                self._unacked.clear()
                self.state = TcpState.ESTABLISHED
                self._send(_ACK_ONLY)
                self._establish()
                if self.on_established:
                    self.on_established(self)
            return

        if self.state is TcpState.SYN_RCVD:
            if flag_bits & _ACK:
                self._establish()
                if self.on_established:
                    self.on_established(self)
            # fall through: the ACK may carry data in theory; ours never do
            if packet.payload_len == 0:
                return

        if flag_bits & _KEEPALIVE:
            # Answer the probe with a bare ACK.
            self._send(_ACK_ONLY)
            return

        if flag_bits & _ACK:
            self._process_ack(packet.ack)

        if packet.payload_len > 0:
            self._receive_data(packet)

        if flag_bits & _FIN:
            if self.state is TcpState.ESTABLISHED:
                self.state = TcpState.CLOSE_WAIT
                self._fast = False
                self._send(_ACK_ONLY)
                # Consumer devices close promptly in response.
                self._send(_FIN_ACK)
                self._finish("fin")
            elif self.state is TcpState.FIN_WAIT:
                self._send(_ACK_ONLY)
                self._finish("fin")

    # -- internals ------------------------------------------------------
    def _make_packet(
        self,
        flags: TcpFlags,
        payload_len: int = 0,
        tls_type: TlsRecordType = TlsRecordType.NONE,
        tls_record_seq: Optional[int] = None,
    ) -> Packet:
        return Packet(self.local, self.remote, _TCP, payload_len, flags,
                      self.snd_next, self.rcv_next, tls_type, tls_record_seq)

    def _send(self, flags: TcpFlags) -> None:
        """Send a control segment (no payload) along the cached route."""
        packet = Packet(self.local, self.remote, _TCP, 0, flags,
                        self.snd_next, self.rcv_next, _NO_TLS, None)
        packet.route = self._route
        host = self.stack.host
        host.network.send(host, packet)
        self._route = packet.route

    def _transmit(self, packet: Packet) -> None:
        host = self.stack.host
        host.network.send(host, packet)

    def _receive_data(self, packet: Packet) -> None:
        """In-order delivery with reordering and duplicate suppression.

        Out-of-order segments (earlier ones were dropped by a middlebox
        and are being retransmitted) are buffered and delivered once the
        gap fills; duplicates of already-delivered data are only ACKed.
        """
        if packet.seq > self.rcv_next:
            self._out_of_order.setdefault(packet.seq, packet)
            self._send(_ACK_ONLY)
            return
        if packet.seq < self.rcv_next:
            # Duplicate of delivered data: re-ACK, do not re-deliver.
            self._send(_ACK_ONLY)
            return
        self._deliver(packet)
        while self.rcv_next in self._out_of_order:
            self._deliver(self._out_of_order.pop(self.rcv_next))
        self._send(_ACK_ONLY)

    def _deliver(self, packet: Packet) -> None:
        self.rcv_next = packet.seq + packet.payload_len
        self.bytes_received += packet.payload_len
        if self.on_record and self.state in (TcpState.ESTABLISHED, TcpState.FIN_WAIT):
            self.on_record(self, packet)

    def _process_ack(self, ack: int) -> None:
        unacked = self._unacked
        if not unacked:
            return
        # Segment ends are strictly increasing (appends follow
        # snd_next), so acknowledged segments form a prefix.
        cleared = 0
        total = len(unacked)
        while cleared < total and unacked[cleared].seq + unacked[cleared].payload_len <= ack:
            cleared += 1
        if cleared == 0:
            return
        del unacked[:cleared]
        self._head_retries = 0
        if unacked:
            self._arm_rto(restart=True)
            if self._recovering:
                # Go-back-N style recovery: once an ACK confirms a
                # retransmission landed, resend the next hole right
                # away instead of waiting a full RTO.
                self._retransmit_head()
        else:
            self._recovering = False
            self._cancel_rto()

    def _arm_rto(self, restart: bool = False) -> None:
        timer = self._rto_timer
        if timer is None:
            timer = self._rto_timer = DeadlineTimer(self.sim, self._on_rto)
        if restart or not timer.armed:
            timer.schedule_in(self.tuning.rto)

    def _cancel_rto(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()

    def _on_rto(self) -> None:
        if self.state is TcpState.SYN_SENT:
            self._send(TcpFlags.SYN)
            self._arm_rto()
            return
        if not self._unacked:
            return
        self._recovering = True
        self._retransmit_head()
        self._arm_rto()

    def _retransmit_head(self) -> None:
        if not self._unacked:
            return
        original = self._unacked[0]
        self._head_retries += 1
        if self._head_retries > self.tuning.max_retries:
            self.abort("timeout")
            return
        self.retransmissions += 1
        retransmit = Packet(
            src=original.src,
            dst=original.dst,
            protocol=Protocol.TCP,
            payload_len=original.payload_len,
            flags=original.flags,
            seq=original.seq,
            ack=self.rcv_next,
            tls_type=original.tls_type,
            tls_record_seq=original.tls_record_seq,
            meta=dict(original.meta, retransmission=True),
        )
        self._transmit(retransmit)

    def _arm_keepalive(self) -> None:
        self._schedule_keepalive(self.tuning.keepalive_idle)

    def _schedule_keepalive(self, delay: float) -> None:
        timer = self._keepalive_timer
        if timer is None:
            timer = self._keepalive_timer = DeadlineTimer(
                self.sim, self._on_keepalive_timer
            )
        timer.schedule_in(delay)

    def _on_keepalive_timer(self) -> None:
        if self.state is not TcpState.ESTABLISHED:
            return
        if self._fast:
            # Segments the fast path took since this deadline was set
            # did not bump it; re-arm at exactly the deadline the last
            # one would have set.  Probe intervals never outlast the
            # idle period here, so no bump could have moved it earlier.
            due = self._last_rx_time + self.tuning.keepalive_idle
            if due > self.sim._clock._now:
                self._keepalive_timer.schedule_at(due)
                return
        idle = self.sim.now - self._last_rx_time
        remaining = self.tuning.keepalive_idle - idle
        if remaining > 1e-6:
            # Traffic arrived since; re-arm for the remainder (floored
            # so float residue cannot freeze simulated time).
            self._schedule_keepalive(max(remaining, 0.05))
            return
        if self._probes_sent >= self.tuning.keepalive_probes:
            self.abort("timeout")
            return
        self._probes_sent += 1
        self._send(_KEEPALIVE_ACK)
        self._schedule_keepalive(self.tuning.keepalive_interval)

    def _finish(self, reason: str) -> None:
        if self.state is TcpState.CLOSED:
            return
        self.state = TcpState.CLOSED
        self._fast = False
        self.close_reason = reason
        self._cancel_rto()
        if self._keepalive_timer is not None:
            self._keepalive_timer.cancel()
        self._unacked.clear()
        self.stack.forget(self)
        if self.on_close:
            self.on_close(self, reason)


@dataclass
class _Listener:
    port: int
    accept: Callable[[TcpConnection], None]
    transparent: bool = False
    tuning: Optional[TcpTuning] = None


class TcpStack:
    """Per-host TCP demultiplexer.

    Supports *transparent* listeners (accepting SYNs addressed to other
    hosts' IPs) and spoofed local endpoints for outgoing connections —
    the two capabilities a transparent proxy needs.
    """

    def __init__(self, host: Host) -> None:
        self.host = host
        host.register_tcp_stack(self)
        self._connections: Dict[Tuple[Endpoint, Endpoint], TcpConnection] = {}
        self._listeners: Dict[int, _Listener] = {}
        self._ephemeral = EPHEMERAL_FIRST - 1

    # -- API ------------------------------------------------------------
    def listen(
        self,
        port: int,
        accept: Callable[[TcpConnection], None],
        transparent: bool = False,
        tuning: Optional[TcpTuning] = None,
    ) -> None:
        """Accept connections on ``port`` (optionally transparently)."""
        if port in self._listeners:
            raise NetworkError(f"port {port} already listening on {self.host.name}")
        self._listeners[port] = _Listener(port, accept, transparent, tuning)

    def connect(
        self,
        remote: Endpoint,
        local_ip=None,
        tuning: Optional[TcpTuning] = None,
    ) -> TcpConnection:
        """Open a client connection; ``local_ip`` may spoof another host."""
        ip = local_ip if local_ip is not None else self.host.ip
        local = Endpoint(ip, self._next_port(ip))
        connection = TcpConnection(self, local, remote, tuning)
        self._register(connection)
        connection.open_active()
        return connection

    def _register(self, connection: TcpConnection) -> None:
        self._connections[connection.four_tuple] = connection
        connection.registered = True

    def forget(self, connection: TcpConnection) -> None:
        """Drop a closed connection from the demux table (and from the
        route that caches it, so the route does not keep it alive)."""
        if self._connections.get(connection.four_tuple) is connection:
            del self._connections[connection.four_tuple]
        connection.registered = False
        route = connection._peer_route
        if route is not None:
            if route.peer is connection:
                route.peer = None
            connection._peer_route = None

    @property
    def connection_count(self) -> int:
        """Live connections in the demux table."""
        return len(self._connections)

    # -- demux ----------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        """Demultiplex one inbound TCP packet."""
        connection = self.connection_for(packet)
        if connection is not None:
            connection.handle(packet)
            return
        flag_bits = packet.flags.value
        if flag_bits & _SYN and not flag_bits & _ACK:
            self._accept_syn(packet)
        # Anything else for an unknown connection is silently ignored, as
        # a real host would answer with RST; the simulation has no
        # scanners, so the distinction never matters.

    def connection_for(self, packet: Packet) -> Optional[TcpConnection]:
        """The registered connection an inbound packet belongs to.

        A packet the network delivered to this host along a resolved
        route keeps the answer on the route (``route.peer``), so the
        next segment of the flow skips the table lookup for as long as
        that connection stays registered.
        """
        route = packet.route
        if route is not None and route.target is self.host:
            peer = route.peer
            if peer is not None and peer.registered:
                return peer
            peer = route.peer = self._connections.get((packet.dst, packet.src))
            if peer is not None:
                peer._peer_route = route
            return peer
        return self._connections.get((packet.dst, packet.src))

    def _accept_syn(self, packet: Packet) -> None:
        listener = self._listeners.get(packet.dst.port)
        if listener is None:
            return
        local_ips = {self.host.ip} | self.host.aliases
        if not listener.transparent and packet.dst.ip not in local_ips:
            return
        connection = TcpConnection(self, packet.dst, packet.src, listener.tuning)
        connection.state = TcpState.SYN_RCVD
        self._register(connection)
        listener.accept(connection)
        connection._send(_SYN_ACK)

    def _next_port(self, ip) -> int:
        """The next ephemeral port (wrapping within 49201-65000) that no
        live connection from ``ip`` is using."""
        in_use = {local.port for local, _remote in self._connections if local.ip == ip}
        for _ in range(EPHEMERAL_LAST - EPHEMERAL_FIRST + 1):
            self._ephemeral += 1
            if self._ephemeral > EPHEMERAL_LAST:
                self._ephemeral = EPHEMERAL_FIRST
            if self._ephemeral not in in_use:
                return self._ephemeral
        raise NetworkError(f"no free ephemeral port on {self.host.name}")
