"""Network stack: TCP streams, UDP datagrams, routing."""

import gc
import weakref

import pytest

from repro.errors import NetworkError
from repro.hardware.machine import Machine
from repro.hardware.specs import core2duo_e6600
from repro.osmodel.kernel import Kernel, ubuntu_params
from repro.osmodel.netstack import NetStack
from repro.osmodel.threads import PRIORITY_NORMAL
from repro.simcore.rng import RngStreams
from repro.units import MB


@pytest.fixture
def lan(engine, machine, kernel):
    """kernel <-> peer kernel over the 100 Mbps link."""
    peer_machine = Machine(engine, core2duo_e6600("peer"), RngStreams(77))
    machine.nic.connect(peer_machine.nic)
    peer = Kernel(engine, peer_machine, ubuntu_params(), name="peer")
    return kernel, peer


class TestConnect:
    def test_refused_when_not_listening(self, run, lan, worker):
        local, peer = lan
        thread, _ = worker

        def body():
            yield from local.net.connect(thread, peer.net, 80)

        with pytest.raises(NetworkError, match="refused"):
            run(body())

    def test_connect_delivers_server_socket(self, run, engine, lan, worker):
        local, peer = lan
        thread, _ = worker
        queue = peer.net.listen(8080)

        def body():
            client = yield from local.net.connect(thread, peer.net, 8080)
            server = yield queue.get()
            return client, server

        client, server = run(body())
        assert client.peer is server and server.peer is client

    def test_duplicate_listen_rejected(self, lan):
        _, peer = lan
        peer.net.listen(8080)
        with pytest.raises(NetworkError):
            peer.net.listen(8080)


class TestStream:
    def _transfer(self, run, engine, lan, nbytes):
        local, peer = lan
        sender_thread = local.spawn_thread("sender", PRIORITY_NORMAL)
        receiver_thread = peer.spawn_thread("receiver", PRIORITY_NORMAL)
        queue = peer.net.listen(5001)
        received = {}

        def server():
            sock = yield queue.get()
            received["n"] = yield from sock.recv(receiver_thread, nbytes)

        def client():
            sock = yield from local.net.connect(sender_thread, peer.net, 5001)
            start = engine.now
            yield from sock.send(sender_thread, nbytes)
            return engine.now - start

        engine.process(server(), "server")
        duration = run(client())
        engine.run()
        return duration, received["n"]

    def test_bytes_conserved(self, run, engine, lan):
        _, received = self._transfer(run, engine, lan, 777_777)
        assert received == 777_777

    def test_native_throughput_is_wire_limited(self, run, engine, lan):
        duration, _ = self._transfer(run, engine, lan, 10 * MB)
        mbps = 10 * MB * 8 / 1e6 / duration
        assert mbps == pytest.approx(97.6, rel=0.01)

    def test_send_on_closed_socket_rejected(self, run, engine, lan, worker):
        local, peer = lan
        thread, _ = worker
        queue = peer.net.listen(5001)

        def body():
            sock = yield from local.net.connect(thread, peer.net, 5001)
            sock.close()
            yield from sock.send(thread, 100)

        with pytest.raises(NetworkError, match="closed"):
            run(body())
        del queue

    def test_nonpositive_sizes_rejected(self, run, engine, lan, worker):
        local, peer = lan
        thread, _ = worker
        queue = peer.net.listen(5001)

        def body():
            sock = yield from local.net.connect(thread, peer.net, 5001)
            yield from sock.send(thread, 0)

        with pytest.raises(NetworkError):
            run(body())
        del queue


class TestLoopback:
    def test_local_transfer_bypasses_wire(self, run, engine, kernel):
        thread_a = kernel.spawn_thread("a", PRIORITY_NORMAL)
        thread_b = kernel.spawn_thread("b", PRIORITY_NORMAL)
        queue = kernel.net.listen(9000)
        got = {}

        def server():
            sock = yield queue.get()
            got["n"] = yield from sock.recv(thread_b, 5 * MB)

        def client():
            sock = yield from kernel.net.connect(thread_a, kernel.net, 9000)
            start = engine.now
            yield from sock.send(thread_a, 5 * MB)
            return engine.now - start

        engine.process(server(), "server")
        duration = run(client())
        engine.run()
        assert got["n"] == 5 * MB
        # loopback is far faster than the 100 Mbps wire (5MB ~ 0.42s)
        assert duration < 0.1
        assert kernel.machine.nic.stats.frames_sent == 0


class TestUdp:
    def test_datagram_roundtrip(self, run, engine, lan):
        local, peer = lan
        client_thread = local.spawn_thread("c", PRIORITY_NORMAL)
        server_thread = peer.spawn_thread("s", PRIORITY_NORMAL)
        server_sock = peer.net.udp_socket(53)
        client_sock = local.net.udp_socket(4053)

        def server():
            payload, source = yield from server_sock.recvfrom(server_thread)
            yield from server_sock.sendto(server_thread, source, 4053,
                                          {"echo": payload}, nbytes=64)

        def client():
            yield from client_sock.sendto(client_thread, peer.net, 53,
                                          "ping", nbytes=64)
            reply, _ = yield from client_sock.recvfrom(client_thread)
            return reply

        engine.process(server(), "server")
        assert run(client()) == {"echo": "ping"}

    def test_delivery_to_closed_port_is_dropped(self, run, engine, lan):
        local, peer = lan
        thread = local.spawn_thread("c", PRIORITY_NORMAL)
        sock = local.net.udp_socket(4054)

        def body():
            yield from sock.sendto(thread, peer.net, 9999, "lost", nbytes=64)

        run(body())  # no error: UDP silently drops
        engine.run()

    def test_duplicate_udp_port_rejected(self, kernel):
        kernel.net.udp_socket(123)
        with pytest.raises(NetworkError):
            kernel.net.udp_socket(123)


class TestRouting:
    def test_registered_route_overrides_nic(self, engine, lan):
        local, peer = lan

        class FakeDevice:
            serialize_tx = False
            mtu_payload_bytes = 1460

        fake = FakeDevice()
        local.net.register_route(peer.net, fake)
        assert local.net.device_for(peer.net) is fake

    def test_self_uses_loopback(self, lan):
        local, _ = lan
        assert local.net.device_for(local.net) is local.net.loopback

    def test_route_never_passes_to_a_later_stack(self, engine, kernel):
        """A route pins its own stack; a stack built after the first one
        is dropped (which may reuse its ``id()``) still takes the NIC."""
        device = object()
        gone = NetStack(engine, ubuntu_params(), kernel.machine.nic,
                        kernel.charge_native, hostname="gone")
        kernel.net.register_route(gone, device)
        alive = weakref.ref(gone)
        del gone
        gc.collect()
        assert alive() is not None
        assert kernel.net.device_for(alive()) is device
        for index in range(64):
            newcomer = NetStack(engine, ubuntu_params(), kernel.machine.nic,
                                kernel.charge_native, hostname=f"new{index}")
            assert kernel.net.device_for(newcomer) is kernel.machine.nic
            del newcomer
