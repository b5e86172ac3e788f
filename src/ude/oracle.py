"""Capability-tagged boundary around the frozen encoder.

A forward-only oracle hands out embeddings and nothing else; requesting an
input gradient raises CapabilityError. The remote flavor speaks a small
framed binary protocol over a local stream socket that has no gradient
message type at all, so black-box access is enforced by the wire format
rather than by convention.

Wire protocol (little-endian):
    request:  magic "UDE1" | msg_type u8 = 0x03 | batch u32 | edits u32 | dim u32
              | batch*dim f32 | edits*dim f32
    response: magic "UDE1" | msg_type u8 = 0x81 | batch u32 | edim u32 | batch*edim f32
    error:    magic "UDE1" | msg_type u8 = 0xFF | code u16 | len u16 | utf-8 message
One request per round-trip, of one shape: `embed_edits(batch, edits)` sends
a [B, D] batch once and M edits, answered with the embeddings of the M*B
edited rows, counted as M queries of B rows and one round trip. `embed(batch)`
is that request with one zero edit. The server answers every request
through an InProcessOracle, which runs models.encoder_forward_edits: the
encoder's affine first layer takes the batch and the edits apart and adds
them, so no edited row is ever built, and in-process and remote callers
share one forward, which a gradient oracle's embed_vjp runs too.
Every matrix frame goes out in one sendmsg call straight from its arrays,
and every body is read straight into the array it fills. Connections may
be reused; the server serves each connection on its own thread and closes
one that stays silent for SERVER_TIMEOUT_S, so an idle or stalled peer
never holds up another; a client whose reused connection ends before the
first byte of an answer sends that request once more on a fresh one. A
request of another type, or whose bodies, or whose M*B rows at the input
width, would take more than MAX_PAYLOAD_BYTES, is refused from its header,
before any body byte is read: the server answers ERR_MALFORMED and closes,
and a client still sending the body reads that answer and raises it. An
empty batch, no edits or a dim other than the encoder's get
ERR_DIM_MISMATCH, and the connection stays open. The client checks a
response's header, its row count and, after the first response, its
width, before it reads the body, and raises ProtocolError for any
mismatch, for an oversize body and when a connect, send or receive waits
longer than CLIENT_TIMEOUT_S.
"""

from __future__ import annotations

import contextlib
import os
import socket
import socketserver
import struct
import threading

import numpy as np

from . import models
from .models import FrozenEncoder, encoder_edits_vjp, encoder_forward_edits

MAGIC = b"UDE1"
MSG_EMBED_EDITS = 0x03
MSG_EMBED_RESPONSE = 0x81
MSG_ERROR = 0xFF
ERR_DIM_MISMATCH = 1
ERR_MALFORMED = 2
MAX_PAYLOAD_BYTES = 1 << 28  # 256 MiB: 262,144 rows of 256 f32 pixels
# the client's limit on each connect, send and receive; a loopback round
# trip takes milliseconds, so only a stalled or vanished server reaches it
CLIENT_TIMEOUT_S = 60.0
# the server's limit on each receive and send of one connection, so a peer
# silent for longer, mid-frame or between requests, is disconnected; the
# pipeline's longest pause on one connection, a head's training, takes
# under a second at the default config
SERVER_TIMEOUT_S = 60.0

# looked up by the traced server launcher, perfbench/serve.py, when it starts
encoder_forward = models.encoder_forward

FORWARD_ONLY = "forward_only"
FORWARD_WITH_INPUT_GRAD = "forward_with_input_grad"


class CapabilityError(RuntimeError):
    """Gradient access requested from a forward-only oracle."""


class ProtocolError(RuntimeError):
    def __init__(self, message: str, code: int = ERR_MALFORMED):
        super().__init__(message)
        self.code = code


class EmbeddingOracle:
    """Base oracle: counts queries, validates batches, dispatches to a backing.

    query_counter is the logical (queries, rows) cost; round_trips is the
    number of physical embed_edits and embed_vjp calls answered, each of
    which may carry several logical queries."""

    capability = FORWARD_ONLY

    def __init__(self):
        self._lock = threading.Lock()
        self._calls = 0
        self._samples = 0
        self._round_trips = 0

    @property
    def query_counter(self) -> tuple[int, int]:
        with self._lock:
            return self._calls, self._samples

    @property
    def round_trips(self) -> int:
        with self._lock:
            return self._round_trips

    def _count(self, batch_size: int) -> None:
        """One logical query of `batch_size` rows."""
        with self._lock:
            self._calls += 1
            self._samples += batch_size

    def _record(self, rows: int, queries: int) -> None:
        """One answered call carrying `queries` logical queries of equal size;
        each goes through _count, so a tally that wraps _count sees every
        logical query."""
        with self._lock:
            self._round_trips += 1
        for _ in range(queries):
            self._count(rows // queries)

    def _check_edits(self, batch: np.ndarray, edits: np.ndarray):
        """(batch, edits) as arrays of the dtype the oracle computes in, the
        one dtype rule of every request: float64 for a gradient oracle given
        a float64 batch, which float64 finite differences need, and float32,
        the wire's dtype, in every other case, so a forward-only oracle in
        process answers any batch with a RemoteOracle's bytes and dtype.
        ValueError, before any query or send, unless both are bool, integer
        or real float arrays (not complex, not object), the batch a nonempty
        [B,D] and the edits a nonempty [M,D]."""
        batch, edits = np.asarray(batch), np.asarray(edits)
        if batch.dtype.kind not in "biuf" or edits.dtype.kind not in "biuf":
            raise ValueError(f"batch and edits must be bool, integer or real float, "
                             f"got dtypes {batch.dtype} and {edits.dtype}")
        if batch.ndim != 2 or batch.shape[0] == 0:
            raise ValueError(f"batch must be nonempty [B,D], got shape {batch.shape}")
        if edits.ndim != 2 or edits.shape[0] == 0 or edits.shape[1] != batch.shape[1]:
            raise ValueError(f"edits must be nonempty [M,{batch.shape[1]}], "
                             f"got shape {edits.shape}")
        wide = self.capability == FORWARD_WITH_INPUT_GRAD and batch.dtype == np.float64
        dtype = np.float64 if wide else np.float32
        return batch.astype(dtype, copy=False), edits.astype(dtype, copy=False)

    def embed(self, batch: np.ndarray) -> np.ndarray:
        """Embeddings [B,E] of `batch`: embed_edits under one zero edit, so
        one logical query and one round trip (x @ w1 + 0 is x @ w1, up to
        the sign of a zero)."""
        batch = np.asarray(batch)
        return self.embed_edits(batch, np.zeros((1, *batch.shape[1:]), batch.dtype))[0]

    def embed_edits(self, batch: np.ndarray, edits: np.ndarray) -> np.ndarray:
        """Embeddings [M,B,E] of the [B,D] `batch` under each of the [M,D]
        `edits`: [i] embeds batch + edits[i]. Counted as M logical queries
        of B rows and one round trip."""
        raise NotImplementedError

    def embed_vjp(self, batch: np.ndarray, eps: np.ndarray):
        """(z, vjp) of batch + eps: vjp(upstream [B,E]) is the [D] gradient of
        sum(upstream * z) with respect to eps; see models.encoder_edits_vjp."""
        raise CapabilityError("this oracle is forward-only; no input gradients")

    def close(self) -> None:
        """Release the oracle's connection; in process there is none."""


class InProcessOracle(EmbeddingOracle):
    def __init__(self, encoder: FrozenEncoder, capability: str = FORWARD_ONLY):
        super().__init__()
        if capability not in (FORWARD_ONLY, FORWARD_WITH_INPUT_GRAD):
            raise ValueError(f"unknown capability {capability!r}")
        self.encoder = encoder
        self.capability = capability

    def embed_edits(self, batch: np.ndarray, edits: np.ndarray) -> np.ndarray:
        """As EmbeddingOracle.embed_edits, in the dtype _check_edits gives."""
        batch, edits = self._check_edits(batch, edits)
        z = encoder_forward_edits(self.encoder, batch, edits)
        self._record(z.shape[0], edits.shape[0])
        return z.reshape(edits.shape[0], batch.shape[0], -1)

    def embed_vjp(self, batch, eps):
        """One logical query, z the bytes of embed_edits(batch, eps[None])[0]."""
        if self.capability != FORWARD_WITH_INPUT_GRAD:
            raise CapabilityError("oracle is forward-only; use zeroth-order optimization")
        batch, edits = self._check_edits(batch, np.asarray(eps)[None])
        z, vjp = encoder_edits_vjp(self.encoder, batch, edits)
        self._record(batch.shape[0], 1)
        return z, lambda upstream: vjp(upstream)[0]


# ---------------------------------------------------------------------------
# framing helpers

def _recv_into(sock: socket.socket, view: memoryview) -> None:
    while view:
        got = sock.recv_into(view)
        if not got:
            raise ProtocolError("connection closed mid-frame")
        view = view[got:]


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    buf = bytearray(n)
    _recv_into(sock, memoryview(buf))
    return buf


def _flat_bytes(mat: np.ndarray) -> np.ndarray:
    """The matrix as little-endian f32, viewed as flat uint8 (a zero-size
    memoryview cannot be cast to bytes); a view of `mat` itself when it is
    contiguous f32 already."""
    return np.ascontiguousarray(mat, dtype="<f4").reshape(-1).view(np.uint8)


def _send_frame(sock: socket.socket, header: bytes, *bodies: np.ndarray) -> None:
    """Sends a frame's header and its matrices' f32 bodies with one sendmsg
    call, without copying them into one buffer; sendall finishes a partial
    send."""
    parts = [header, *map(_flat_bytes, bodies)]
    sent = sock.sendmsg(parts)
    for part in parts:
        if sent < len(part):
            sock.sendall(part[sent:])
        sent = max(sent - len(part), 0)


def _pack_error(code: int, message: str) -> bytes:
    payload = message.encode("utf-8")[:65535]
    return MAGIC + struct.pack("<BHH", MSG_ERROR, code, len(payload)) + payload


def _read_type(sock: socket.socket) -> int:
    """Reads a frame's magic and returns its message type."""
    header = _recv_exact(sock, 5)
    if header[:4] != MAGIC:
        raise ProtocolError("bad magic")
    return header[4]


def _read_sizes(sock: socket.socket, count: int) -> tuple[int, ...]:
    """Reads the `count` u32 sizes that follow a frame's type."""
    return struct.unpack(f"<{count}I", _recv_exact(sock, 4 * count))


def _check_payload(rows: int, cols: int, what: str) -> None:
    """ProtocolError when a [rows, cols] f32 matrix exceeds MAX_PAYLOAD_BYTES."""
    if 4 * rows * cols > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"{what}: {rows}x{cols} f32 exceeds {MAX_PAYLOAD_BYTES} bytes")


def _read_body(sock: socket.socket, rows: int, cols: int) -> np.ndarray:
    """Reads a [rows, cols] f32 body straight into a new array."""
    mat = np.empty((rows, cols), dtype="<f4")
    _recv_into(sock, memoryview(_flat_bytes(mat)))
    return mat.astype(np.float32, copy=False)


def _read_request(sock: socket.socket):
    """(batch, edits) of a request. Refuses from the header, with
    ProtocolError, any other message type, a request whose bodies exceed
    MAX_PAYLOAD_BYTES and one whose M*B rows to embed would at the input
    width. No edited rows are built, but the answer still computes [M*B, H]
    hidden activations and sends an [M*B, E] response, so M*B is bounded as
    a body's row count is."""
    msg_type = _read_type(sock)
    if msg_type != MSG_EMBED_EDITS:
        # the body's layout is unknown, so the stream cannot be resynced
        raise ProtocolError(f"unsupported type 0x{msg_type:02x}")
    b, m, d = _read_sizes(sock, 3)
    _check_payload(b + m, d, "batch and edits")
    _check_payload(m * b, d, "rows to embed")
    return _read_body(sock, b, d), _read_body(sock, m, d)


def _read_error(sock: socket.socket) -> ProtocolError:
    """The server's error, from the rest of an error frame after its type."""
    code, length = struct.unpack("<HH", _recv_exact(sock, 4))
    message = _recv_exact(sock, length).decode("utf-8", "replace")
    return ProtocolError(f"server error {code}: {message}", code=code)


def _raise_pending_error(sock: socket.socket) -> None:
    """Raises the error frame the server sent before it closed the
    connection, if one can be read; returns when there is none."""
    try:
        if _read_type(sock) != MSG_ERROR:
            return
        error = _read_error(sock)
    except (OSError, ProtocolError):
        return
    raise error


def _read_response(sock: socket.socket, rows: int, cols: int | None) -> np.ndarray:
    """The embeddings answering a request of `rows` rows; ProtocolError for
    an error frame, any other message type, a different row count, no
    columns, or, given `cols`, a different column count, each raised from
    the header before any body byte is read or allocated."""
    msg_type = _read_type(sock)
    if msg_type == MSG_ERROR:
        raise _read_error(sock)
    if msg_type != MSG_EMBED_RESPONSE:
        raise ProtocolError(f"unexpected message type 0x{msg_type:02x}")
    b, d = _read_sizes(sock, 2)
    if b != rows or d == 0:
        raise ProtocolError(f"response has {d} columns and {b} rows for a request of {rows}")
    if cols is not None and d != cols:
        raise ProtocolError(f"response has {d} columns; earlier responses "
                            f"had {cols}")
    _check_payload(b, d, "response")
    return _read_body(sock, b, d)


def parse_address(address: str):
    """"host:port" -> AF_INET tuple; anything else -> AF_UNIX path.
    ValueError for an empty address (which would bind an abstract socket no
    client can name) and for a port that is not an integer in [0, 65535]."""
    if not address:
        raise ValueError("empty address")
    if ":" in address:
        host, port = address.rsplit(":", 1)
        if not (port.isdigit() and int(port) <= 65535):
            raise ValueError(f"port must be an integer in [0, 65535], got {port!r}")
        return socket.AF_INET, (host or "127.0.0.1", int(port))
    return socket.AF_UNIX, address


class RemoteOracle(EmbeddingOracle):
    """Client to an embedding server; forward-only by construction. Every
    response must have the embedding width of the first one."""

    def __init__(self, address: str):
        super().__init__()
        self.address = address
        self._sock = None
        self._width = None

    def _connect(self) -> socket.socket:
        if self._sock is None:
            family, addr = parse_address(self.address)
            sock = socket.socket(family, socket.SOCK_STREAM)
            try:
                sock.settimeout(CLIENT_TIMEOUT_S)
                sock.connect(addr)
            except OSError as exc:
                sock.close()
                if isinstance(exc, TimeoutError):
                    raise  # the query names it
                message = f"cannot connect to {self.address}"
                if isinstance(exc, ConnectionError):  # a refusal stays one
                    raise type(exc)(exc.errno, f"{message}: {exc.strerror}") from exc
                raise ProtocolError(f"{message}: {exc}") from exc
            self._sock = sock
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def _exchange(self, rows: int, resend: bool, header: bytes,
                  *bodies: np.ndarray) -> np.ndarray:
        """Send one request and read its answer of `rows` rows. With
        `resend`, a connection that ends, by EOF or reset, before the first
        byte of the answer (a reused one the server has closed as idle) is
        replaced by a fresh one and the request sent once more; every
        request is pure, so that is safe. Without `resend`, a connection
        that ends while the request is sent raises the server's error frame,
        if it sent one: it refuses an oversize request from its header and
        closes while the body may still be on its way."""
        sock = self._connect()
        try:
            _send_frame(sock, header, *bodies)
            ended = not sock.recv(1, socket.MSG_PEEK)
        except (BrokenPipeError, ConnectionResetError):
            if not resend:
                _raise_pending_error(sock)
                raise
            ended = True
        if ended and resend:
            self.close()
            return self._exchange(rows, False, header, *bodies)
        return _read_response(sock, rows, self._width)

    def embed_edits(self, batch: np.ndarray, edits: np.ndarray) -> np.ndarray:
        """As EmbeddingOracle.embed_edits, with the edits applied by the
        server: the request carries the batch once and the M edits. The
        connection is closed after any failure."""
        batch, edits = self._check_edits(batch, edits)
        (b, d), m = batch.shape, edits.shape[0]
        header = MAGIC + struct.pack("<BIII", MSG_EMBED_EDITS, b, m, d)
        try:
            z = self._exchange(m * b, self._sock is not None, header, batch, edits)
        except TimeoutError as exc:
            self.close()
            raise ProtocolError(f"no answer from {self.address} within "
                                f"{CLIENT_TIMEOUT_S} s") from exc
        except (OSError, ProtocolError):
            self.close()
            raise
        self._width = z.shape[1]
        self._record(m * b, m)
        return z.reshape(m, b, -1)


class _EmbedHandler(socketserver.BaseRequestHandler):
    """Answers one connection's requests in turn until the peer hangs up,
    sends a frame the stream cannot be resynced after, or stays silent for
    SERVER_TIMEOUT_S. Any other exception reaches the server's
    handle_error, which prints it; either way only this connection closes."""

    def handle(self) -> None:
        self.request.settimeout(SERVER_TIMEOUT_S)
        try:
            while self._handle_request(self.request):
                pass
        except OSError:
            pass  # the peer went away or stalled mid-request

    def _handle_request(self, conn: socket.socket) -> bool:
        """One request/response; False once the peer hangs up or the
        connection must close after a protocol error."""
        if not conn.recv(1, socket.MSG_PEEK):
            return False
        try:
            batch, edits = _read_request(conn)
        except ProtocolError as exc:
            conn.sendall(_pack_error(exc.code, str(exc)))
            return False
        try:
            z = self.server.oracle.embed_edits(batch, edits)
        except ValueError as exc:  # an empty batch, no edits or the wrong dim
            conn.sendall(_pack_error(ERR_DIM_MISMATCH, str(exc)))
            return True
        m, b, e = z.shape
        _send_frame(conn, MAGIC + struct.pack("<BII", MSG_EMBED_RESPONSE, m * b, e), z)
        return True


class OracleServer(socketserver.ThreadingTCPServer):
    """Forward-only embedding server: a thread per connection, one request
    per round-trip, each answered through one InProcessOracle (`oracle`),
    whose counters tally what the server served. A "host:port" address
    listens on TCP, any other on a Unix socket; as in socketserver's
    UnixStreamServer, only address_family differs. The server that bound a
    Unix socket removes its file when it closes; one whose bind failed
    leaves the file of the server that holds the path."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, encoder: FrozenEncoder, address: str):
        self.encoder = encoder
        self.oracle = InProcessOracle(encoder)
        self.address_family, addr = parse_address(address)
        self._bound_path = None  # TCPServer.__init__ closes a server whose bind fails
        super().__init__(addr, _EmbedHandler)
        self._thread = None

    def server_bind(self) -> None:
        super().server_bind()
        if self.address_family == socket.AF_UNIX:
            self._bound_path = self.server_address

    def server_close(self) -> None:
        super().server_close()
        path, self._bound_path = self._bound_path, None
        if path is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)

    @property
    def bound_address(self) -> str:
        name = self.server_address
        return f"{name[0]}:{name[1]}" if isinstance(name, tuple) else name

    def start_background(self) -> None:
        # serve_forever polls for shutdown(); 0.05 s, not its 0.5 s default,
        # so that shutdown() returns at once
        self._thread = threading.Thread(target=self.serve_forever, args=(0.05,),
                                        daemon=True)
        self._thread.start()

    def shutdown(self) -> None:
        """Stop the background loop, if one runs, and close the listener.
        Call it from another thread than serve_forever's, or after
        serve_forever has returned."""
        if self._thread is not None:
            super().shutdown()
            self._thread.join()
        self.server_close()
