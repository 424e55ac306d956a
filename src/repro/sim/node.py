"""Hosts and routers.

A :class:`Node` both terminates transport protocols (host role) and
forwards packets it does not own (router role); the dumbbell topologies
use the same class for both.  Demultiplexing follows the usual socket
model:

* TCP: established connections are keyed by
  ``(peer_addr, peer_port, local_port)``, packed into a single integer
  on the hot path (ports are 16-bit; addresses are small simulation
  integers) so demultiplexing hashes one int instead of a tuple; SYNs
  with no matching connection go to the listener registered on the
  destination port.
* UDP: sockets are keyed by local port.

Packets addressed to a port nobody listens on are dropped silently (the
simulator has no RSTs/ICMP; nothing in the study needs them).
"""

from heapq import heappush

from repro.sim.packet import _POOL_CAP as _PACKET_POOL_CAP
from repro.sim.packet import _pool as _packet_pool


class Node:
    """A network element with interfaces, routes and transport endpoints.

    :meth:`receive` is the per-packet hot path: it inlines the TCP/UDP
    demultiplexing (rather than dispatching through the ``_deliver_*``
    helpers) and returns locally delivered packets to the
    :mod:`repro.sim.packet` pool once the transport callback has run —
    transports must not retain delivered packets (see
    docs/ARCHITECTURE.md).
    """

    __slots__ = ("sim", "name", "addr", "routes", "default_route",
                 "tcp_connections", "tcp_listeners", "udp_sockets",
                 "_next_port", "forwarded")

    def __init__(self, sim, name, addr):
        self.sim = sim
        self.name = name
        self.addr = addr
        self.routes = {}
        self.default_route = None
        self.tcp_connections = {}
        self.tcp_listeners = {}
        self.udp_sockets = {}
        self._next_port = 10_000
        self.forwarded = 0

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def add_route(self, dst_addr, interface):
        """Send packets for ``dst_addr`` out of ``interface``."""
        self.routes[dst_addr] = interface

    def set_default_route(self, interface):
        """Fallback interface for destinations without a specific route."""
        self.default_route = interface

    def route_for(self, dst_addr):
        """Resolve the output interface for ``dst_addr`` (or raise)."""
        interface = self.routes.get(dst_addr, self.default_route)
        if interface is None:
            raise LookupError("%s has no route to %r" % (self.name, dst_addr))
        return interface

    def send(self, packet):
        """Transmit ``packet`` toward its destination.

        Returns False if the output queue dropped it.  Open-codes
        Interface.send like the forwarding branch of :meth:`receive`:
        every transport segment enters the network here.
        """
        interface = self.routes.get(packet.dst, self.default_route)
        if interface is None:
            raise LookupError(
                "%s has no route to %r" % (self.name, packet.dst))
        sim = interface.sim
        now = sim.now
        accepted = interface._q_push(packet, now)
        if accepted and not interface._busy:
            packet = interface._q_pop(now)
            if packet is not None:
                interface._busy = True
                interface._tx_started = now
                sim._seq = seq = sim._seq + 1
                heappush(sim._heap,
                         [now + (packet.size * 8.0) / interface.rate_bps,
                          seq, interface._tx_done_cb, packet])
                sim._live += 1
        return accepted

    # ------------------------------------------------------------------
    # Reception / forwarding
    # ------------------------------------------------------------------
    def receive(self, packet):
        """Entry point for packets arriving from a link."""
        if packet.dst != self.addr:
            # Forwarding: two of the three hops of every packet cross
            # this branch, so it open-codes Interface.send (push, and
            # start the serializer when idle) — keep in lock-step with
            # repro.sim.link.
            self.forwarded += 1
            interface = self.routes.get(packet.dst, self.default_route)
            if interface is None:
                raise LookupError(
                    "%s has no route to %r" % (self.name, packet.dst))
            sim = interface.sim
            now = sim.now
            if interface._q_push(packet, now) and not interface._busy:
                packet = interface._q_pop(now)
                if packet is not None:
                    interface._busy = True
                    interface._tx_started = now
                    sim._seq = seq = sim._seq + 1
                    heappush(sim._heap,
                             [now + (packet.size * 8.0) / interface.rate_bps,
                              seq, interface._tx_done_cb, packet])
                    sim._live += 1
            return
        proto = packet.proto
        if proto == "tcp":
            connection = self.tcp_connections.get(
                (packet.src << 32) | (packet.sport << 16) | packet.dport)
            if connection is not None:
                connection.handle_packet(packet)
            else:
                listener = self.tcp_listeners.get(packet.dport)
                if listener is not None:
                    listener.handle_packet(packet)
        elif proto == "udp":
            socket = self.udp_sockets.get(packet.dport)
            if socket is not None:
                socket.handle_packet(packet)
        # The packet has left the simulation: recycle it (inline
        # Packet.release — one call per delivered packet).  Transport
        # callbacks must not have kept a reference (pooling contract).
        if not packet._pooled and len(_packet_pool) < _PACKET_POOL_CAP:
            packet._pooled = True
            _packet_pool.append(packet)

    # ------------------------------------------------------------------
    # Endpoint registry (used by the transport layers)
    # ------------------------------------------------------------------
    def allocate_port(self):
        """Hand out a unique ephemeral port."""
        port = self._next_port
        self._next_port += 1
        return port

    @staticmethod
    def _tcp_key(peer_addr, peer_port, local_port):
        """Pack the demux triple into the int key used on the hot path."""
        if not (0 <= peer_port < 65536 and 0 <= local_port < 65536
                and peer_addr >= 0):
            raise ValueError("cannot key TCP connection (%r, %r, %r)"
                             % (peer_addr, peer_port, local_port))
        return (peer_addr << 32) | (peer_port << 16) | local_port

    def register_tcp(self, peer_addr, peer_port, local_port, connection):
        key = self._tcp_key(peer_addr, peer_port, local_port)
        if key in self.tcp_connections:
            raise ValueError("TCP connection %r already registered"
                             % ((peer_addr, peer_port, local_port),))
        self.tcp_connections[key] = connection

    def unregister_tcp(self, peer_addr, peer_port, local_port):
        self.tcp_connections.pop(
            self._tcp_key(peer_addr, peer_port, local_port), None)

    def register_tcp_listener(self, port, listener):
        if port in self.tcp_listeners:
            raise ValueError("port %d already has a listener" % port)
        self.tcp_listeners[port] = listener

    def unregister_tcp_listener(self, port):
        self.tcp_listeners.pop(port, None)

    def register_udp(self, port, socket):
        if port in self.udp_sockets:
            raise ValueError("UDP port %d already bound" % port)
        self.udp_sockets[port] = socket

    def unregister_udp(self, port):
        self.udp_sockets.pop(port, None)

    def __repr__(self):
        return "Node(%s, addr=%d)" % (self.name, self.addr)
