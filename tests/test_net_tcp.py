"""TCP state machine tests: handshake, data, loss recovery, keepalive."""

from __future__ import annotations

import pytest

from repro.errors import ConnectionClosedError
from repro.net.addresses import Endpoint, IPv4Address
from repro.net.link import Host, Network, TapHost
from repro.net.packet import Packet, Protocol, TcpFlags, TlsRecordType
from repro.net.tcp import TcpStack, TcpState, TcpTuning
from repro.sim.random import RngHub


@pytest.fixture
def world(sim):
    network = Network(sim, RngHub(3))
    client_host = Host("client", IPv4Address("192.168.1.10"))
    server_host = Host("server", IPv4Address("54.1.1.1"))
    network.attach(client_host)
    network.attach(server_host)
    client = TcpStack(client_host)
    server = TcpStack(server_host)
    return sim, network, client, server


def connect(sim, client, server, tuning=None):
    accepted = []
    server.listen(443, accepted.append, tuning=tuning)
    conn = client.connect(Endpoint(server.host.ip, 443), tuning=tuning)
    sim.run_for(1.0)
    assert accepted, "server never accepted"
    return conn, accepted[0]


class TestHandshake:
    def test_three_way_establishes_both_sides(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        assert conn.state is TcpState.ESTABLISHED
        assert srv.state is TcpState.ESTABLISHED

    def test_established_callback_fires(self, world):
        sim, network, client, server = world
        fired = []
        server.listen(443, lambda c: fired.append("server"))
        conn = client.connect(Endpoint(server.host.ip, 443))
        conn.on_established = lambda c: fired.append("client")
        sim.run_for(1.0)
        assert set(fired) == {"server", "client"}

    def test_syn_to_closed_port_ignored(self, world):
        sim, network, client, server = world
        conn = client.connect(Endpoint(server.host.ip, 9999))
        sim.run_for(2.0)
        assert conn.state is TcpState.SYN_SENT  # retrying, never answered

    def test_non_transparent_listener_rejects_other_ip(self, world):
        sim, network, client, server = world
        accepted = []
        server.listen(443, accepted.append, transparent=False)
        # A SYN addressed to an IP the server host does not own lands on
        # its stack (e.g. via a misrouted tap); it must not be accepted.
        syn = Packet(
            src=Endpoint(client.host.ip, 50000),
            dst=Endpoint(IPv4Address("54.9.9.9"), 443),
            protocol=Protocol.TCP,
            flags=TcpFlags.SYN,
        )
        server.host.receive(syn)
        sim.run_for(1.0)
        assert not accepted

    def test_duplicate_listen_rejected(self, world):
        sim, network, client, server = world
        server.listen(443, lambda c: None)
        with pytest.raises(Exception):
            server.listen(443, lambda c: None)


class TestDataTransfer:
    def test_records_delivered_in_order(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        received = []
        srv.on_record = lambda c, p: received.append(p.payload_len)
        for size in (100, 200, 300):
            conn.send_record(size, tls_record_seq=0)
        sim.run_for(2.0)
        assert received == [100, 200, 300]
        assert srv.bytes_received == 600

    def test_send_on_closed_connection_raises(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        conn.close()
        sim.run_for(2.0)
        with pytest.raises(ConnectionClosedError):
            conn.send_record(10)

    def test_bidirectional_records(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        client_got = []
        conn.on_record = lambda c, p: client_got.append(p.payload_len)
        srv.send_record(55, tls_record_seq=0)
        sim.run_for(2.0)
        assert client_got == [55]

    def test_meta_travels_with_record(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        metas = []
        srv.on_record = lambda c, p: metas.append(p.meta.get("marker"))
        conn.send_record(10, meta={"marker": "x"})
        sim.run_for(1.0)
        assert metas == ["x"]


class TestTeardown:
    def test_orderly_close_notifies_both(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        reasons = {}
        conn.on_close = lambda c, r: reasons.__setitem__("client", r)
        srv.on_close = lambda c, r: reasons.__setitem__("server", r)
        conn.close()
        sim.run_for(2.0)
        assert reasons == {"client": "fin", "server": "fin"}
        assert conn.state is TcpState.CLOSED

    def test_abort_sends_rst(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        reasons = {}
        srv.on_close = lambda c, r: reasons.__setitem__("server", r)
        conn.abort()
        sim.run_for(2.0)
        assert reasons["server"] == "rst"

    def test_stack_forgets_closed_connections(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        assert client.connection_count == 1
        conn.close()
        sim.run_for(2.0)
        assert client.connection_count == 0
        assert server.connection_count == 0


class _DropTap(TapHost):
    """Drops the first N client data packets, bridges everything else."""

    def __init__(self, name, ip, drop_count):
        super().__init__(name, ip)
        self.remaining = drop_count

    def intercept(self, packet):
        is_client_data = packet.payload_len > 0 and packet.src.port != 443
        if is_client_data and self.remaining > 0:
            self.remaining -= 1
            return
        self.bridge(packet)


class TestLossRecovery:
    def test_retransmission_recovers_dropped_data(self, world):
        sim, network, client, server = world
        tap = _DropTap("tap", IPv4Address("192.168.1.50"), drop_count=3)
        network.attach(tap)
        network.install_tap(client.host.ip, tap)
        conn, srv = connect(sim, client, server)
        received = []
        srv.on_record = lambda c, p: received.append(p.payload_len)
        for size in (10, 20, 30, 40, 50):
            conn.send_record(size, tls_record_seq=0)
        sim.run_for(8.0)
        assert received == [10, 20, 30, 40, 50]
        assert conn.retransmissions >= 3

    def test_receiver_suppresses_duplicates(self, world):
        sim, network, client, server = world
        conn, srv = connect(sim, client, server)
        received = []
        srv.on_record = lambda c, p: received.append(p.payload_len)
        conn.send_record(10, tls_record_seq=0)
        sim.run_for(0.5)
        # Simulate a spurious retransmission of the same segment.
        duplicate = Packet(
            src=conn.local, dst=conn.remote, protocol=Protocol.TCP,
            payload_len=10, flags=TcpFlags.PSH | TcpFlags.ACK,
            seq=0, ack=0, tls_type=TlsRecordType.APPLICATION_DATA,
        )
        client.host.send(duplicate)
        sim.run_for(1.0)
        assert received == [10]

    def test_total_loss_aborts_after_retries(self, world):
        sim, network, client, server = world
        tap = _DropTap("tap", IPv4Address("192.168.1.50"), drop_count=10**6)
        network.attach(tap)
        network.install_tap(client.host.ip, tap)
        tuning = TcpTuning(rto=0.5, max_retries=3)
        conn, srv = connect(sim, client, server, tuning=tuning)
        reasons = []
        conn.on_close = lambda c, r: reasons.append(r)
        conn.send_record(10, tls_record_seq=0)
        sim.run_for(20.0)
        assert reasons == ["timeout"]


class TestKeepalive:
    def test_idle_connection_probes_and_survives(self, world):
        sim, network, client, server = world
        tuning = TcpTuning(keepalive_idle=5.0, keepalive_interval=1.0)
        conn, srv = connect(sim, client, server, tuning=tuning)
        sim.run_for(30.0)
        assert conn.state is TcpState.ESTABLISHED
        assert srv.state is TcpState.ESTABLISHED

    def test_unanswered_probes_abort(self, world):
        sim, network, client, server = world
        tuning = TcpTuning(keepalive_idle=5.0, keepalive_interval=1.0, keepalive_probes=2)
        conn, srv = connect(sim, client, server, tuning=tuning)
        # A black-hole tap eats everything from the client from now on.
        tap = _DropTap("tap", IPv4Address("192.168.1.50"), drop_count=0)
        tap.intercept = lambda packet: None  # type: ignore[assignment]
        network.attach(tap)
        network.install_tap(client.host.ip, tap)
        reasons = []
        conn.on_close = lambda c, r: reasons.append(r)
        sim.run_for(60.0)
        assert reasons == ["timeout"]


class TestEphemeralPorts:
    def test_wrap_skips_ports_of_live_connections(self, world):
        from repro.net.tcp import EPHEMERAL_FIRST, EPHEMERAL_LAST

        sim, network, client, server = world
        server.listen(443, lambda c: None)
        remote = Endpoint(server.host.ip, 443)
        # A long-lived connection on the first port of the range...
        client._ephemeral = EPHEMERAL_FIRST - 1
        live = client.connect(remote)
        sim.run_for(1.0)
        assert live.local.port == EPHEMERAL_FIRST and live.is_established
        # ...and the counter about to wrap back onto it.
        client._ephemeral = EPHEMERAL_LAST
        fresh = client.connect(remote)
        sim.run_for(1.0)
        assert fresh.local.port == EPHEMERAL_FIRST + 1
        assert client.connection_count == 2
        assert live.is_established and fresh.is_established
        received = []
        live.on_record = lambda c, p: received.append(("live", p.payload_len))
        fresh.on_record = lambda c, p: received.append(("fresh", p.payload_len))
        server_side = {c.remote.port: c for c in server._connections.values()}
        server_side[EPHEMERAL_FIRST].send_record(7, tls_record_seq=0)
        server_side[EPHEMERAL_FIRST + 1].send_record(9, tls_record_seq=0)
        sim.run_for(1.0)
        assert sorted(received) == [("fresh", 9), ("live", 7)]

    def test_closed_connection_frees_its_port(self, world):
        from repro.net.tcp import EPHEMERAL_FIRST, EPHEMERAL_LAST

        sim, network, client, server = world
        server.listen(443, lambda c: None)
        remote = Endpoint(server.host.ip, 443)
        client._ephemeral = EPHEMERAL_FIRST - 1
        first = client.connect(remote)
        sim.run_for(1.0)
        first.close()
        sim.run_for(2.0)
        client._ephemeral = EPHEMERAL_LAST
        assert client.connect(remote).local.port == EPHEMERAL_FIRST

    def test_exhausted_range_raises(self, world):
        from repro.errors import NetworkError
        from repro.net.tcp import EPHEMERAL_FIRST, EPHEMERAL_LAST

        sim, network, client, server = world
        remote = Endpoint(server.host.ip, 443)
        for port in range(EPHEMERAL_FIRST, EPHEMERAL_LAST + 1):
            client._connections[(Endpoint(client.host.ip, port), remote)] = None
        with pytest.raises(NetworkError):
            client.connect(remote)
