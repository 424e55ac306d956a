"""Packet model.

A single slotted class carries every protocol the reproduction needs.
Keeping one concrete type (instead of a subclass per protocol) keeps the
hot path — queue/link handling, which only reads ``size`` — free of
dynamic dispatch, while transport demultiplexing switches on ``proto``.

Sizes are *wire* sizes in bytes, i.e. payload plus IP/transport header
overhead, because the buffers under study are counted in (full-sized)
packets and the links serialize wire bytes.

Pooling
-------
The enqueue→serialize→deliver hot path creates one :class:`Packet` per
segment; at backbone rates that is tens of thousands of allocations per
simulated second.  :meth:`Packet.alloc` hands out packets from a
process-wide free list refilled by :meth:`Packet.release`, which the sim
core calls at the two points where a packet provably leaves the
simulation: final delivery to a local transport endpoint
(:meth:`repro.sim.node.Node.receive`) and corruption loss on the wire
(:meth:`repro.sim.link.Interface._tx_done`).  Packet ids keep their
global allocation order whether or not a packet came from the pool, so
a recycled packet never changes a result.

The contract for transport/application callbacks: **do not retain a
reference to a delivered Packet past the callback** — keep the
``payload`` object instead (it is never recycled).  See
docs/ARCHITECTURE.md.
"""

from itertools import count

# TCP flag bits.
FLAG_SYN = 0x1
FLAG_ACK = 0x2
FLAG_FIN = 0x4

# Wire overheads (bytes).
IPV4_HEADER = 20
TCP_HEADER = 20  # without options; timestamps are modelled, not serialized
UDP_HEADER = 8
RTP_HEADER = 12

_packet_ids = count(1)

#: Free list shared by every simulation in the process.  Bounded so a
#: pathological run cannot pin unbounded memory in dead packets.
_pool = []
_POOL_CAP = 8192


class Packet:
    """One packet on the wire.

    Attributes
    ----------
    src, dst:
        Integer node addresses.
    sport, dport:
        Transport ports.
    proto:
        ``"tcp"`` or ``"udp"``.
    size:
        Wire size in bytes (headers included).
    seq, ack_no, flags, payload_len, ts, ts_echo:
        TCP fields (byte sequence numbers; ``ts``/``ts_echo`` model the
        timestamp option used for Karn-safe RTT sampling; ``ts_echo < 0``
        means "nothing to echo" — simulated time 0.0 is a valid stamp).
    payload:
        Opaque application object (RTP frame descriptors, HTTP message
        markers...).  Never inspected below the transport layer.
    created, enqueued_at:
        Timestamps for delay accounting.
    """

    __slots__ = (
        "pid",
        "src",
        "dst",
        "sport",
        "dport",
        "proto",
        "size",
        "seq",
        "ack_no",
        "flags",
        "payload_len",
        "ts",
        "ts_echo",
        "payload",
        "created",
        "enqueued_at",
        "_pooled",
    )

    def __init__(
        self,
        src,
        dst,
        sport,
        dport,
        proto,
        size,
        seq=0,
        ack_no=0,
        flags=0,
        payload_len=0,
        ts=0.0,
        ts_echo=-1.0,
        payload=None,
        created=0.0,
    ):
        self.pid = next(_packet_ids)
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.proto = proto
        self.size = size
        self.seq = seq
        self.ack_no = ack_no
        self.flags = flags
        self.payload_len = payload_len
        self.ts = ts
        self.ts_echo = ts_echo
        self.payload = payload
        self.created = created
        self.enqueued_at = 0.0
        self._pooled = False

    @classmethod
    def alloc(
        cls,
        src,
        dst,
        sport,
        dport,
        proto,
        size,
        seq=0,
        ack_no=0,
        flags=0,
        payload_len=0,
        ts=0.0,
        ts_echo=-1.0,
        payload=None,
        created=0.0,
    ):
        """Construct a packet, reusing a pooled instance when possible.

        Field-for-field equivalent to the constructor — including the
        freshly drawn ``pid`` — so pooling never changes results.
        """
        if not _pool:
            return cls(src, dst, sport, dport, proto, size, seq, ack_no,
                       flags, payload_len, ts, ts_echo, payload, created)
        self = _pool.pop()
        self.pid = next(_packet_ids)
        self.src = src
        self.dst = dst
        self.sport = sport
        self.dport = dport
        self.proto = proto
        self.size = size
        self.seq = seq
        self.ack_no = ack_no
        self.flags = flags
        self.payload_len = payload_len
        self.ts = ts
        self.ts_echo = ts_echo
        self.payload = payload
        self.created = created
        self.enqueued_at = 0.0
        self._pooled = False
        return self

    def release(self):
        """Return this packet to the free list (sim-core use only).

        Safe to call on any packet at an ownership boundary: double
        releases are no-ops.  The
        ``payload`` reference is kept intact until the instance is
        actually reused, so late readers of an already-released packet
        (tests, logs) still see its final state.
        """
        if not self._pooled and len(_pool) < _POOL_CAP:
            self._pooled = True
            _pool.append(self)

    def flag_names(self):
        """Human-readable flag list (for logs and tests)."""
        names = []
        if self.flags & FLAG_SYN:
            names.append("SYN")
        if self.flags & FLAG_ACK:
            names.append("ACK")
        if self.flags & FLAG_FIN:
            names.append("FIN")
        return names

    def __repr__(self):
        core = "%s %d:%d>%d:%d size=%d" % (
            self.proto,
            self.src,
            self.sport,
            self.dst,
            self.dport,
            self.size,
        )
        if self.proto == "tcp":
            core += " seq=%d ack=%d len=%d %s" % (
                self.seq,
                self.ack_no,
                self.payload_len,
                "|".join(self.flag_names()),
            )
        return "Packet(%s)" % core


def tcp_wire_size(payload_len):
    """Wire size of a TCP segment carrying ``payload_len`` bytes."""
    return IPV4_HEADER + TCP_HEADER + payload_len


def udp_wire_size(payload_len):
    """Wire size of a UDP datagram carrying ``payload_len`` bytes."""
    return IPV4_HEADER + UDP_HEADER + payload_len
