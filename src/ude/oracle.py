"""Capability-tagged boundary around the frozen encoder.

A forward-only oracle hands out embeddings and nothing else; requesting an
input gradient raises CapabilityError. The remote flavor speaks a small
framed binary protocol over a local stream socket that has no gradient
message type at all, so black-box access is enforced by the wire format
rather than by convention.

Wire protocol (little-endian):
    request:  magic "UDE1" | msg_type u8 = 0x01 | batch u32 | dim u32 | batch*dim f32
    response: magic "UDE1" | msg_type u8 = 0x81 | batch u32 | edim u32 | batch*edim f32
    error:    magic "UDE1" | msg_type u8 = 0xFF | code u16 | len u16 | utf-8 message
One request per round-trip; connections may be reused; the server serves
each connection on its own thread and closes one that stays silent for
SERVER_TIMEOUT_S, so an idle or stalled peer never holds up another. A
matrix body larger than MAX_PAYLOAD_BYTES is refused from its header, before
it is read: the server answers ERR_MALFORMED and closes, the client raises
ProtocolError. The client also raises ProtocolError when a connect, send or
receive waits longer than CLIENT_TIMEOUT_S.
"""

from __future__ import annotations

import socket
import socketserver
import struct
import threading

import numpy as np

from .models import FrozenEncoder, encoder_forward, encoder_input_grad

MAGIC = b"UDE1"
MSG_EMBED = 0x01
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

FORWARD_ONLY = "forward_only"
FORWARD_WITH_INPUT_GRAD = "forward_with_input_grad"


class CapabilityError(RuntimeError):
    """Gradient access requested from a forward-only oracle."""


class ProtocolError(RuntimeError):
    def __init__(self, message: str, code: int = ERR_MALFORMED):
        super().__init__(message)
        self.code = code


class EmbeddingOracle:
    """Base oracle: counts queries, validates batches, dispatches to a backing."""

    capability = FORWARD_ONLY

    def __init__(self):
        self._lock = threading.Lock()
        self._calls = 0
        self._samples = 0

    @property
    def query_counter(self) -> tuple[int, int]:
        with self._lock:
            return self._calls, self._samples

    def _count(self, batch_size: int) -> None:
        with self._lock:
            self._calls += 1
            self._samples += batch_size

    def _check_batch(self, batch: np.ndarray) -> np.ndarray:
        batch = np.asarray(batch)
        if batch.ndim != 2 or batch.shape[0] == 0:
            raise ValueError(f"batch must be nonempty [B,D], got shape {batch.shape}")
        return batch

    def embed(self, batch: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def embed_with_input_grad(self, batch: np.ndarray, upstream: np.ndarray) -> np.ndarray:
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

    def embed(self, batch: np.ndarray) -> np.ndarray:
        batch = self._check_batch(batch)
        z = encoder_forward(self.encoder, batch)
        self._count(batch.shape[0])
        return z

    def embed_with_input_grad(self, batch, upstream):
        if self.capability != FORWARD_WITH_INPUT_GRAD:
            raise CapabilityError("oracle is forward-only; use zeroth-order optimization")
        batch = self._check_batch(batch)
        return encoder_input_grad(self.encoder, batch, upstream)


# ---------------------------------------------------------------------------
# framing helpers

def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    buf = bytearray(n)
    view = memoryview(buf)
    while view:
        got = sock.recv_into(view)
        if not got:
            raise ProtocolError("connection closed mid-frame")
        view = view[got:]
    return buf


def _pack_matrix(msg_type: int, mat: np.ndarray) -> bytes:
    b, d = mat.shape
    return (MAGIC + struct.pack("<BII", msg_type, b, d)
            + np.ascontiguousarray(mat, dtype="<f4").tobytes())


def _pack_error(code: int, message: str) -> bytes:
    payload = message.encode("utf-8")[:65535]
    return MAGIC + struct.pack("<BHH", MSG_ERROR, code, len(payload)) + payload


def _read_type(sock: socket.socket) -> int:
    """Reads a frame's magic and returns its message type."""
    header = _recv_exact(sock, 5)
    if header[:4] != MAGIC:
        raise ProtocolError("bad magic")
    return header[4]


def _read_matrix(sock: socket.socket) -> np.ndarray:
    """Reads the [batch, dim] f32 body that follows a matrix frame's type."""
    b, d = struct.unpack("<II", _recv_exact(sock, 8))
    if 4 * b * d > MAX_PAYLOAD_BYTES:
        raise ProtocolError(f"{b}x{d} f32 matrix exceeds {MAX_PAYLOAD_BYTES} bytes")
    data = _recv_exact(sock, 4 * b * d)
    return np.frombuffer(data, dtype="<f4").reshape(b, d).astype(np.float32, copy=False)


def _read_response(sock: socket.socket, rows: int) -> np.ndarray:
    """The embeddings answering a request of `rows` rows; ProtocolError for
    an error frame, any other message type, or a different row count."""
    msg_type = _read_type(sock)
    if msg_type == MSG_ERROR:
        code, length = struct.unpack("<HH", _recv_exact(sock, 4))
        message = _recv_exact(sock, length).decode("utf-8", "replace")
        raise ProtocolError(f"server error {code}: {message}", code=code)
    if msg_type != MSG_EMBED_RESPONSE:
        raise ProtocolError(f"unexpected message type 0x{msg_type:02x}")
    z = _read_matrix(sock)
    if z.shape[0] != rows:
        raise ProtocolError(f"response has {z.shape[0]} rows for a request of {rows}")
    return z


def parse_address(address: str):
    """"host:port" -> AF_INET tuple; anything else -> AF_UNIX path."""
    if ":" in address:
        host, port = address.rsplit(":", 1)
        return socket.AF_INET, (host or "127.0.0.1", int(port))
    return socket.AF_UNIX, address


class RemoteOracle(EmbeddingOracle):
    """Client to an embedding server; forward-only by construction."""

    capability = FORWARD_ONLY

    def __init__(self, address: str):
        super().__init__()
        self.address = address
        self._sock = None

    def _connect(self) -> socket.socket:
        if self._sock is None:
            family, addr = parse_address(self.address)
            sock = socket.socket(family, socket.SOCK_STREAM)
            try:
                sock.settimeout(CLIENT_TIMEOUT_S)
                sock.connect(addr)
            except OSError:
                sock.close()
                raise
            self._sock = sock
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def embed(self, batch: np.ndarray) -> np.ndarray:
        batch = self._check_batch(batch)
        try:
            sock = self._connect()
            sock.sendall(_pack_matrix(MSG_EMBED, batch))
            z = _read_response(sock, batch.shape[0])
        except TimeoutError as exc:
            self.close()
            raise ProtocolError(f"no answer from {self.address} within "
                                f"{CLIENT_TIMEOUT_S} s") from exc
        except (OSError, ProtocolError):
            self.close()
            raise
        self._count(batch.shape[0])
        return z


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
            msg_type = _read_type(conn)
            if msg_type != MSG_EMBED:
                # the body's layout is unknown, so the stream cannot be resynced
                raise ProtocolError(f"unsupported type 0x{msg_type:02x}")
            batch = _read_matrix(conn)
            input_dim = self.server.encoder.input_dim
            if batch.shape[0] == 0 or batch.shape[1] != input_dim:
                conn.sendall(_pack_error(
                    ERR_DIM_MISMATCH,
                    f"expected nonempty [B,{input_dim}], got {batch.shape}"))
                return True
            z = encoder_forward(self.server.encoder, batch)
            conn.sendall(_pack_matrix(MSG_EMBED_RESPONSE, z))
            return True
        except ProtocolError as exc:
            conn.sendall(_pack_error(exc.code, str(exc)))
            return False


class OracleServer(socketserver.ThreadingTCPServer):
    """Forward-only embedding server: a thread per connection, one request
    per round-trip. A "host:port" address listens on TCP, any other on a
    Unix socket; as in socketserver's UnixStreamServer, only address_family
    differs."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, encoder: FrozenEncoder, address: str):
        self.encoder = encoder
        self.address_family, addr = parse_address(address)
        super().__init__(addr, _EmbedHandler)
        self._thread = None

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
