"""Differential property: the established-flow fast path is invisible.

The reference run takes only the general paths: a packet observer
sends every delivery through ``Network._deliver``, and connections are
kept off the TCP fast path, so every segment goes through the full
state machine and bumps the keepalive deadline.  Random TCP workloads
(losses, a middlebox that drops data, idle stretches long enough for
keepalive probes, records both ways, answers sent from inside the
receive callback, FIN or RST at the end) must send exactly the same
packets, at the same float instants, and show the endpoints exactly
the same records and closes on both paths.

(The legacy kernel is no exact reference here: its keepalive re-arms
for the remaining idle time, which can land one ulp away from the
bumped deadline.)
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.net.addresses import Endpoint, IPv4Address
from repro.net.link import Host, Network, TapHost
from repro.net.tcp import TcpConnection, TcpStack, TcpTuning
from repro.sim.random import RngHub
from repro.sim.simulator import Simulator


class _DropTap(TapHost):
    """Drops every ``period``-th client data segment, bridges the rest."""

    def __init__(self, period: int) -> None:
        super().__init__("tap", IPv4Address("192.168.1.50"))
        self.period = period
        self.seen = 0

    def intercept(self, packet) -> None:
        if packet.payload_len > 0 and packet.src.port != 443:
            self.seen += 1
            if self.seen % self.period == 0:
                return
        self.bridge(packet)


ACTIONS = st.lists(
    st.tuples(
        st.sampled_from(["client", "server", "idle"]),
        st.integers(min_value=1, max_value=1500),  # record size
        st.floats(min_value=0.0, max_value=3.0),  # pause after
    ),
    min_size=1, max_size=12,
)


_ESTABLISH = TcpConnection._establish


def _establish_off_fast_path(conn) -> None:
    _ESTABLISH(conn)
    conn._fast = False


def run_workload(seed, wan_loss, drop_period, idle, actions, ending, general=False) -> dict:
    """Run one workload; ``general`` keeps it off every fast path."""
    if not general:
        return _run(seed, wan_loss, drop_period, idle, actions, ending, observe=False)
    with mock.patch.object(TcpConnection, "_establish", _establish_off_fast_path):
        return _run(seed, wan_loss, drop_period, idle, actions, ending, observe=True)


def _run(seed, wan_loss, drop_period, idle, actions, ending, observe) -> dict:
    sim = Simulator()
    network = Network(sim, RngHub(seed), wan_loss=wan_loss)
    if observe:
        network.add_observer(lambda packet, scope: None)
    client_host = Host("client", IPv4Address("192.168.1.10"))
    server_host = Host("server", IPv4Address("54.1.1.1"))
    network.attach(client_host)
    network.attach(server_host)
    if drop_period:
        tap = _DropTap(drop_period)
        network.attach(tap)
        network.install_tap(client_host.ip, tap)
    client, server = TcpStack(client_host), TcpStack(server_host)
    sent, log = [], []
    original_send = network.send

    def send(origin, packet):
        sent.append((sim.now, origin.name, str(packet.src), str(packet.dst),
                     packet.flags.value, packet.seq, packet.ack, packet.payload_len))
        original_send(origin, packet)

    network.send = send  # instance attribute: this network only
    tuning = TcpTuning(keepalive_idle=idle, keepalive_interval=1.0, keepalive_probes=2)
    accepted = []
    server.listen(443, accepted.append, tuning=TcpTuning())
    conn = client.connect(Endpoint(server_host.ip, 443), tuning=tuning)
    sim.run_for(3.0)
    conns = [conn] + accepted[:1]
    def on_record(c, packet, side):
        log.append((sim.now, side, packet.payload_len))
        if side == "server" and packet.payload_len % 2:
            # Answer from inside the callback, as the proxy and the
            # clouds do: the segment's ACK must follow the answer.
            c.send_record(packet.payload_len // 2 + 1, tls_record_seq=0)

    for side, c in zip(("client", "server"), conns):
        c.on_record = lambda _c, p, side=side: on_record(_c, p, side)
        c.on_close = lambda _c, reason, side=side: log.append((sim.now, side, reason))
    for index, (who, size, pause) in enumerate(actions):
        target = conns[0] if who == "client" else conns[-1]
        if who == "idle":
            sim.run_for(idle * 1.5)
        elif target.is_established:
            target.send_record(size, tls_record_seq=index)
        sim.run_for(pause)
    if ending == "fin" and conns[0].is_established:
        conns[0].close()
    elif ending == "rst" and conns[-1].is_established:
        conns[-1].abort()
    sim.run_for(30.0)
    return {
        "sent": sent, "log": log,
        "states": [c.state.value for c in conns],
        "retransmissions": [c.retransmissions for c in conns],
        "lost": network.packets_lost, "delivered": network.delivered_count,
        "now": sim.now,
    }


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    wan_loss=st.sampled_from([0.0, 0.0, 0.15]),
    drop_period=st.sampled_from([0, 0, 3]),
    idle=st.sampled_from([4.0, 45.0]),
    actions=ACTIONS,
    ending=st.sampled_from(["none", "fin", "rst"]),
)
def test_fast_path_matches_general_path(seed, wan_loss, drop_period, idle, actions, ending):
    fast = run_workload(seed, wan_loss, drop_period, idle, actions, ending)
    general = run_workload(seed, wan_loss, drop_period, idle, actions, ending, general=True)
    assert fast == general
