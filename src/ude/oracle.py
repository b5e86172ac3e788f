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
One request per round-trip; connections may be reused; the server handles
connections sequentially.
"""

from __future__ import annotations

import socket
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

def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    while n > 0:
        chunk = sock.recv(n)
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def _pack_matrix(msg_type: int, mat: np.ndarray) -> bytes:
    b, d = mat.shape
    return (MAGIC + struct.pack("<BII", msg_type, b, d)
            + np.ascontiguousarray(mat, dtype="<f4").tobytes())


def _pack_error(code: int, message: str) -> bytes:
    payload = message.encode("utf-8")[:65535]
    return MAGIC + struct.pack("<BHH", MSG_ERROR, code, len(payload)) + payload


def _read_frame(sock: socket.socket):
    """Returns (msg_type, payload) where payload is a matrix or (code, message)."""
    header = _recv_exact(sock, 5)
    if header[:4] != MAGIC:
        raise ProtocolError("bad magic")
    msg_type = header[4]
    if msg_type == MSG_ERROR:
        code, length = struct.unpack("<HH", _recv_exact(sock, 4))
        message = _recv_exact(sock, length).decode("utf-8", "replace")
        return msg_type, (code, message)
    b, d = struct.unpack("<II", _recv_exact(sock, 8))
    data = _recv_exact(sock, 4 * b * d)
    mat = np.frombuffer(data, dtype="<f4").reshape(b, d).astype(np.float32)
    return msg_type, mat


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
            sock.connect(addr)
            self._sock = sock
        return self._sock

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def embed(self, batch: np.ndarray) -> np.ndarray:
        batch = self._check_batch(batch)
        sock = self._connect()
        try:
            sock.sendall(_pack_matrix(MSG_EMBED, batch))
            msg_type, payload = _read_frame(sock)
        except (OSError, ProtocolError):
            self.close()
            raise
        if msg_type == MSG_ERROR:
            code, message = payload
            raise ProtocolError(f"server error {code}: {message}", code=code)
        if msg_type != MSG_EMBED_RESPONSE:
            raise ProtocolError(f"unexpected message type 0x{msg_type:02x}")
        self._count(batch.shape[0])
        return payload


class OracleServer:
    """Forward-only embedding server; sequential, one request per round-trip."""

    def __init__(self, encoder: FrozenEncoder, address: str):
        self.encoder = encoder
        self.address = address
        family, addr = parse_address(address)
        self._listener = socket.socket(family, socket.SOCK_STREAM)
        if family == socket.AF_INET:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(addr)
        self._listener.listen(4)
        self._running = threading.Event()
        self._thread = None

    @property
    def bound_address(self) -> str:
        name = self._listener.getsockname()
        return f"{name[0]}:{name[1]}" if isinstance(name, tuple) else name

    def _handle_request(self, conn: socket.socket) -> bool:
        """One request/response; False once the peer hangs up."""
        try:
            peek = conn.recv(1, socket.MSG_PEEK)
        except OSError:
            return False
        if not peek:
            return False
        try:
            msg_type, payload = _read_frame(conn)
            if msg_type != MSG_EMBED:
                conn.sendall(_pack_error(ERR_MALFORMED, f"unsupported type 0x{msg_type:02x}"))
                return True
            batch = payload
            if batch.shape[0] == 0 or batch.shape[1] != self.encoder.input_dim:
                conn.sendall(_pack_error(
                    ERR_DIM_MISMATCH,
                    f"expected nonempty [B,{self.encoder.input_dim}], got {batch.shape}"))
                return True
            z = encoder_forward(self.encoder, batch)
            conn.sendall(_pack_matrix(MSG_EMBED_RESPONSE, z))
            return True
        except ProtocolError as exc:
            try:
                conn.sendall(_pack_error(exc.code, str(exc)))
            except OSError:
                pass
            return False

    def serve_forever(self) -> None:
        self._running.set()
        self._listener.settimeout(0.2)
        while self._running.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with conn:
                while self._running.is_set() and self._handle_request(conn):
                    pass

    def start_background(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def shutdown(self) -> None:
        self._running.clear()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self._listener.close()
