"""Packet-level TCP goldens for the paths an established-flow fast path
could break.

Each case drives a small client/server world (optionally through a tap
or the transparent proxy) and pins, exactly:

* ``sent`` — every ``Network.send`` call (time, origin, src, dst, flags,
  seq, ack, payload length), recorded from a run *without* a packet
  capture, i.e. on whatever delivery path the network picks for
  unobserved traffic;
* ``delivered`` — every delivered packet as a :class:`PacketCapture`
  sees it (send time, arrival time, src, dst, flags, seq, ack, length);
* ``outcome`` — what the endpoints saw: records received and when,
  close reasons and times, retransmission and loss counts.

The cases cover retransmission and go-back-N recovery on a lossy WAN,
keepalive probes (answered, and unanswered until abort), FIN and RST
teardown (with data crossing the RST), out-of-order gap fill, and a
hold/release through the proxy.

The capture run and the uncaptured run must agree on ``sent`` and
``outcome``, so attaching an observer provably changes nothing.

Regenerate after an intentional behaviour change with::

    PYTHONPATH=src python -m pytest tests/test_tcp_packet_goldens.py --update-goldens
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.net.addresses import Endpoint, IPv4Address
from repro.net.capture import PacketCapture
from repro.net.link import Host, Network, TapHost
from repro.net.packet import TcpFlags
from repro.net.proxy import ForwarderDecision, TransparentProxy
from repro.net.tcp import TcpStack, TcpTuning
from repro.sim.random import RngHub
from repro.sim.simulator import Simulator

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "tcp_packets.json"
CLIENT_IP = IPv4Address("192.168.1.10")
SERVER_IP = IPv4Address("54.1.1.1")
TAP_IP = IPv4Address("192.168.1.50")
_FLAG_ORDER = [flag for flag in TcpFlags if flag is not TcpFlags.NONE]


def _flags(flags: TcpFlags) -> str:
    return "|".join(flag.name for flag in _FLAG_ORDER if flag in flags) or "-"


def _sent_row(now: float, origin: Host, packet) -> list:
    return [now, origin.name, str(packet.src), str(packet.dst), _flags(packet.flags),
            packet.seq, packet.ack, packet.payload_len]


def _delivered_row(record) -> list:
    return [record.time, record.arrived_at, record.src, record.dst,
            _flags(record.flags), record.seq, record.ack, record.payload_len]


class _DropTap(TapHost):
    """Drops the first N client data packets and bridges everything else;
    with ``black_hole`` set, it swallows every packet."""

    def __init__(self, drop_count: int) -> None:
        super().__init__("tap", TAP_IP)
        self.remaining = drop_count
        self.black_hole = False

    def intercept(self, packet) -> None:
        if self.black_hole:
            return
        if packet.payload_len > 0 and packet.src.port != 443 and self.remaining > 0:
            self.remaining -= 1
            return
        self.bridge(packet)


class _World:
    """client <-> server over one network, with an outcome log."""

    def __init__(self, sim: Simulator, seed: int, wan_loss: float = 0.0) -> None:
        self.sim = sim
        self.network = Network(sim, RngHub(seed), wan_loss=wan_loss)
        self.client_host = Host("client", CLIENT_IP)
        self.server_host = Host("server", SERVER_IP)
        self.network.attach(self.client_host)
        self.network.attach(self.server_host)
        self.client = TcpStack(self.client_host)
        self.server = TcpStack(self.server_host)
        self.log: list = []

    def watch(self, conn, side: str) -> None:
        sim, log = self.sim, self.log
        conn.on_record = lambda c, p: log.append([sim.now, side, "record", p.payload_len])
        conn.on_close = lambda c, reason: log.append([sim.now, side, "close", reason])

    def connect(self, tuning=None, server_tuning=None):
        accepted = []
        self.server.listen(443, accepted.append, tuning=server_tuning or tuning)
        conn = self.client.connect(Endpoint(SERVER_IP, 443), tuning=tuning)
        self.sim.run_for(1.0)
        while not (accepted and conn.is_established and accepted[0].is_established):
            self.sim.run_for(1.0)
        srv = accepted[0]
        self.watch(conn, "client")
        self.watch(srv, "server")
        return conn, srv

    def outcome(self, *conns) -> dict:
        return {
            "log": self.log,
            "retransmissions": [c.retransmissions for c in conns],
            "states": [c.state.value for c in conns],
            "packets_lost": self.network.packets_lost,
            "delivered_count": self.network.delivered_count,
            "now": self.sim.now,
        }


# -- cases ---------------------------------------------------------------------

def case_wan_loss(sim: Simulator) -> dict:
    """Retransmission and go-back-N recovery on a lossy WAN."""
    world = _World(sim, seed=7, wan_loss=0.25)
    conn, srv = world.connect()
    for index, size in enumerate((120, 40, 300, 41, 41, 900, 41, 75, 41, 600)):
        conn.send_record(size, tls_record_seq=index)
        if index % 3 == 2:
            srv.send_record(size // 2 + 1, tls_record_seq=index)
        sim.run_for(0.05)
    sim.run_for(30.0)
    return world.outcome(conn, srv)


def case_keepalive_abort(sim: Simulator) -> dict:
    """Idle probes answered, then a black hole: probes until abort."""
    world = _World(sim, seed=3)
    tap = _DropTap(drop_count=0)
    world.network.attach(tap)
    tuning = TcpTuning(keepalive_idle=5.0, keepalive_interval=1.0, keepalive_probes=2)
    conn, srv = world.connect(tuning=tuning)
    conn.send_record(41, tls_record_seq=0)
    sim.run_for(12.0)
    world.network.install_tap(CLIENT_IP, tap)
    tap.black_hole = True
    sim.run_for(60.0)
    return world.outcome(conn, srv)


def case_keepalive_answered(sim: Simulator) -> dict:
    """Only the client probes; every probe is answered by a bare ACK,
    which must reset its probe count, so the idle link survives."""
    world = _World(sim, seed=8)
    tuning = TcpTuning(keepalive_idle=5.0, keepalive_interval=1.0, keepalive_probes=2)
    conn, srv = world.connect(tuning=tuning, server_tuning=TcpTuning())
    conn.send_record(41, tls_record_seq=0)
    sim.run_for(40.0)
    return world.outcome(conn, srv)


def case_fin_teardown(sim: Simulator) -> dict:
    world = _World(sim, seed=4)
    conn, srv = world.connect()
    conn.send_record(200, tls_record_seq=0)
    srv.send_record(80, tls_record_seq=0)
    sim.run_for(0.5)
    conn.close()
    sim.run_for(3.0)
    return world.outcome(conn, srv)


def case_rst_teardown(sim: Simulator) -> dict:
    world = _World(sim, seed=5)
    conn, srv = world.connect()
    conn.send_record(200, tls_record_seq=0)
    sim.run_for(0.5)
    srv.abort()
    sim.run_for(3.0)
    return world.outcome(conn, srv)


def case_rst_crossing(sim: Simulator) -> dict:
    """Data crossing the peer's RST reaches a connection that is gone:
    the segment is dropped, not handed to the closed connection."""
    world = _World(sim, seed=9)
    conn, srv = world.connect()
    conn.send_record(200, tls_record_seq=0)
    sim.run_for(0.5)
    srv.abort()
    conn.send_record(300, tls_record_seq=1)
    sim.run_for(3.0)
    return world.outcome(conn, srv)


def case_gap_fill(sim: Simulator) -> dict:
    """Three leading data segments lost: the later ones wait out of
    order until retransmissions fill the gap."""
    world = _World(sim, seed=6)
    tap = _DropTap(drop_count=3)
    world.network.attach(tap)
    world.network.install_tap(CLIENT_IP, tap)
    conn, srv = world.connect()
    for index, size in enumerate((10, 20, 30, 40, 50, 60)):
        conn.send_record(size, tls_record_seq=index)
    sim.run_for(10.0)
    return world.outcome(conn, srv)


def case_proxy_hold_release(sim: Simulator) -> dict:
    """Records held at the proxy past a keepalive period, then released."""
    network = Network(sim, RngHub(5))
    speaker = Host("speaker", IPv4Address("192.168.1.200"))
    server = Host("server", SERVER_IP)
    network.attach(speaker)
    network.attach(server)
    speaker_stack = TcpStack(speaker)
    server_stack = TcpStack(server)
    proxy = TransparentProxy("guard", TAP_IP)
    proxy.install(network, speaker.ip)
    held_sizes = (300, 500, 700)
    proxy.record_policy = (
        lambda flow, p: ForwarderDecision.HOLD
        if p.payload_len in held_sizes else ForwarderDecision.FORWARD
    )
    log: list = []
    accepted = []

    def accept(conn):
        accepted.append(conn)
        conn.on_record = lambda c, p: log.append([sim.now, "server", "record", p.payload_len])
        conn.on_close = lambda c, r: log.append([sim.now, "server", "close", r])

    server_stack.listen(443, accept)
    conn = speaker_stack.connect(Endpoint(SERVER_IP, 443))
    conn.on_record = lambda c, p: log.append([sim.now, "speaker", "record", p.payload_len])
    conn.on_close = lambda c, r: log.append([sim.now, "speaker", "close", r])
    sim.run_for(1.0)
    for index, size in enumerate((41, 300, 500, 700, 41)):
        conn.send_record(size, tls_record_seq=index)
        sim.run_for(0.2)
    sim.run_for(60.0)
    proxy.release_held(proxy.flows[0])
    sim.run_for(1.0)
    accepted[0].send_record(1200, tls_record_seq=0)
    sim.run_for(1.0)
    conn.close()
    sim.run_for(3.0)
    outcome = {
        "log": log,
        "retransmissions": [conn.retransmissions, accepted[0].retransmissions],
        "states": [conn.state.value, accepted[0].state.value],
        "packets_lost": network.packets_lost,
        "delivered_count": network.delivered_count,
        "now": sim.now,
        "flow": [proxy.flows[0].records_forwarded, proxy.flows[0].close_reason],
    }
    return outcome


CASES = {
    "wan_loss": case_wan_loss,
    "keepalive_abort": case_keepalive_abort,
    "keepalive_answered": case_keepalive_answered,
    "fin_teardown": case_fin_teardown,
    "rst_teardown": case_rst_teardown,
    "rst_crossing": case_rst_crossing,
    "gap_fill": case_gap_fill,
    "proxy_hold_release": case_proxy_hold_release,
}


def _run(monkeypatch, case, capture: bool) -> dict:
    sent: list = []
    original = Network.send

    def send(network, origin, packet):
        sent.append(_sent_row(network.sim.now, origin, packet))
        return original(network, origin, packet)

    with monkeypatch.context() as patch:
        patch.setattr(Network, "send", send)
        sim = Simulator()
        captures = []
        if capture:
            original_init = Network.__init__

            def init(network, *args, **kwargs):
                original_init(network, *args, **kwargs)
                captures.append(PacketCapture().attach(network))

            patch.setattr(Network, "__init__", init)
        outcome = case(sim)
    result = {"sent": sent, "outcome": outcome}
    if capture:
        result["delivered"] = [_delivered_row(r) for r in captures[0].records]
    return json.loads(json.dumps(result))


@pytest.fixture(scope="module")
def goldens() -> dict:
    if not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_tcp_packet_golden(name, monkeypatch, goldens, update_goldens):
    captured = _run(monkeypatch, CASES[name], capture=True)
    bare = _run(monkeypatch, CASES[name], capture=False)
    # An observer must not change what is sent or what the endpoints see.
    assert bare["sent"] == captured["sent"]
    assert bare["outcome"] == captured["outcome"]
    if update_goldens:
        stored = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
        stored[name] = captured
        GOLDEN.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
        pytest.skip(f"regenerated {name} in {GOLDEN.name}")
    assert name in goldens, f"missing golden {name}; run with --update-goldens"
    assert captured == goldens[name]


def test_cases_exercise_their_paths(goldens):
    """The fixtures really contain the behaviour each case is named for."""
    if not goldens:
        pytest.skip("no goldens yet")
    wan = goldens["wan_loss"]["outcome"]
    assert wan["packets_lost"] > 0 and sum(wan["retransmissions"]) > 0
    keepalive = goldens["keepalive_abort"]
    assert any("KEEPALIVE" in row[4] for row in keepalive["sent"])
    assert ["client", "close", "timeout"] in [e[1:] for e in keepalive["outcome"]["log"]]
    answered = goldens["keepalive_answered"]
    assert sum("KEEPALIVE" in row[4] for row in answered["sent"]) >= 3
    assert answered["outcome"]["states"] == ["established", "established"]
    fin = goldens["fin_teardown"]["outcome"]["log"]
    assert {tuple(e[1:]) for e in fin if e[2] == "close"} == {
        ("client", "close", "fin"), ("server", "close", "fin")}
    rst = goldens["rst_teardown"]["outcome"]["log"]
    assert ["client", "close", "rst"] in [e[1:] for e in rst]
    crossing = goldens["rst_crossing"]
    assert any(row[7] == 300 for row in crossing["sent"])
    assert 300 not in [e[3] for e in crossing["outcome"]["log"] if e[2] == "record"]
    gap = goldens["gap_fill"]["outcome"]
    assert [e[3] for e in gap["log"] if e[2] == "record"] == [10, 20, 30, 40, 50, 60]
    assert gap["retransmissions"][0] >= 3
    proxy = goldens["proxy_hold_release"]
    assert any("KEEPALIVE" in row[4] for row in proxy["sent"])
    server_records = [e[3] for e in proxy["outcome"]["log"]
                      if e[1] == "server" and e[2] == "record"]
    assert server_records == [41, 41, 300, 500, 700]
