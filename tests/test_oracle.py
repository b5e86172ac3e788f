import gc
import socket
import struct
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ude.oracle
from ude.models import INPUT_DIM, encoder_forward
from ude.oracle import (
    FORWARD_ONLY,
    FORWARD_WITH_INPUT_GRAD,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    MSG_EMBED,
    MSG_EMBED_RESPONSE,
    MSG_ERROR,
    ERR_DIM_MISMATCH,
    ERR_MALFORMED,
    CapabilityError,
    InProcessOracle,
    OracleServer,
    ProtocolError,
    RemoteOracle,
    parse_address,
)


def _serve(encoder):
    srv = OracleServer(encoder, "127.0.0.1:0")
    srv.start_background()
    yield srv
    srv.shutdown()


@pytest.fixture
def server(encoder):
    yield from _serve(encoder)


@pytest.fixture(scope="module")
def module_server(encoder):
    """One server for every example of a Hypothesis test, so it must stay up."""
    yield from _serve(encoder)


def _batch(n, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    return rng.normal(size=(n, INPUT_DIM)).astype(np.float32)


class TestInProcessOracle:
    def test_embed_matches_encoder(self, encoder):
        oracle = InProcessOracle(encoder)
        x = _batch(3)
        assert np.array_equal(oracle.embed(x), encoder_forward(encoder, x))

    def test_forward_only_refuses_gradients(self, encoder):
        oracle = InProcessOracle(encoder, capability=FORWARD_ONLY)
        with pytest.raises(CapabilityError):
            oracle.embed_with_input_grad(_batch(2), np.zeros((2, 32)))

    def test_grad_capability_allows_gradients(self, encoder):
        oracle = InProcessOracle(encoder, capability=FORWARD_WITH_INPUT_GRAD)
        g = oracle.embed_with_input_grad(_batch(2), np.zeros((2, 32), dtype=np.float32))
        assert g.shape == (2, INPUT_DIM)

    def test_unknown_capability_rejected(self, encoder):
        with pytest.raises(ValueError):
            InProcessOracle(encoder, capability="mystery")

    def test_query_counter(self, encoder):
        oracle = InProcessOracle(encoder)
        oracle.embed(_batch(3))
        oracle.embed(_batch(5))
        assert oracle.query_counter == (2, 8)

    def test_query_counter_thread_safe(self, encoder):
        oracle = InProcessOracle(encoder)
        x = _batch(1)
        threads = [threading.Thread(target=lambda: [oracle.embed(x) for _ in range(25)])
                   for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert oracle.query_counter == (100, 100)

    @pytest.mark.parametrize("bad", [np.zeros((0, INPUT_DIM), dtype=np.float32),
                                     np.zeros(INPUT_DIM, dtype=np.float32)])
    def test_rejects_bad_batches(self, encoder, bad):
        with pytest.raises(ValueError):
            InProcessOracle(encoder).embed(bad)


class TestAddressParsing:
    def test_inet(self):
        family, addr = parse_address("127.0.0.1:7447")
        assert family == socket.AF_INET
        assert addr == ("127.0.0.1", 7447)

    def test_unix(self):
        family, addr = parse_address("/tmp/oracle.sock")
        assert family == socket.AF_UNIX
        assert addr == "/tmp/oracle.sock"


class TestRemoteOracle:
    def test_matches_in_process(self, encoder, server):
        client = RemoteOracle(server.bound_address)
        x = _batch(4)
        want = encoder_forward(encoder, x)
        got = client.embed(x)
        client.close()
        assert got.tobytes() == want.tobytes()

    def test_unix_socket_address(self, encoder, tmp_path):
        srv = OracleServer(encoder, str(tmp_path / "oracle.sock"))
        srv.start_background()
        client = RemoteOracle(srv.bound_address)
        x = _batch(2)
        try:
            assert client.embed(x).tobytes() == encoder_forward(encoder, x).tobytes()
        finally:
            client.close()
            srv.shutdown()

    def test_connection_reuse_and_counting(self, encoder, server):
        client = RemoteOracle(server.bound_address)
        for _ in range(3):
            client.embed(_batch(2))
        assert client.query_counter == (3, 6)
        client.close()

    def test_is_forward_only(self, server):
        client = RemoteOracle(server.bound_address)
        assert client.capability == FORWARD_ONLY
        with pytest.raises(CapabilityError):
            client.embed_with_input_grad(_batch(1), np.zeros((1, 32)))
        client.close()

    def test_dim_mismatch_error_code(self, server):
        client = RemoteOracle(server.bound_address)
        with pytest.raises(ProtocolError) as exc:
            client.embed(np.zeros((2, INPUT_DIM + 1), dtype=np.float32))
        assert exc.value.code == ERR_DIM_MISMATCH
        client.close()

    @pytest.mark.parametrize("reply", ["short", "wrong_type"])
    def test_bad_response_is_protocol_error(self, reply):
        # a stub server that answers B-1 rows, or a message of type 0x02
        listener = socket.create_server(("127.0.0.1", 0))
        x = _batch(3)

        def answer():
            conn, _ = listener.accept()
            with conn:
                want = 13 + x.nbytes
                got = b""
                while len(got) < want:
                    got += conn.recv(want - len(got))
                rows, msg_type = ((x.shape[0] - 1, MSG_EMBED_RESPONSE) if reply == "short"
                                  else (x.shape[0], 0x02))
                z = np.zeros((rows, 32), dtype="<f4")
                conn.sendall(MAGIC + struct.pack("<BII", msg_type, *z.shape) + z.tobytes())

        stub = threading.Thread(target=answer, daemon=True)
        stub.start()
        client = RemoteOracle("127.0.0.1:%d" % listener.getsockname()[1])
        try:
            with pytest.raises(ProtocolError):
                client.embed(x)
            assert client.query_counter == (0, 0)
        finally:
            client.close()
            stub.join(timeout=5)
            listener.close()
        assert not stub.is_alive()

    def test_connection_refused(self):
        client = RemoteOracle("127.0.0.1:1")
        with pytest.raises(OSError):
            client.embed(_batch(1))

    def test_refused_connect_closes_its_socket(self):
        client = RemoteOracle("127.0.0.1:1")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(ConnectionRefusedError):
                client.embed(_batch(1))
            gc.collect()  # the failed call's frames hold the socket in a cycle
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_silent_server_times_out_as_protocol_error(self, silent_server,
                                                       monkeypatch):
        monkeypatch.setattr(ude.oracle, "CLIENT_TIMEOUT_S", 0.2)
        client = RemoteOracle(silent_server)
        try:
            with pytest.raises(ProtocolError, match="no answer"):
                client.embed(_batch(2))
            assert client.query_counter == (0, 0)
            assert client._sock is None  # closed after the failed call
        finally:
            client.close()


def _connect(server) -> socket.socket:
    family, addr = parse_address(server.bound_address)
    sock = socket.socket(family, socket.SOCK_STREAM)
    sock.connect(addr)
    return sock


class TestWireProtocol:
    def _raw(self, server, payload: bytes) -> bytes:
        with _connect(server) as sock:
            sock.sendall(payload)
            sock.settimeout(2)
            return sock.recv(65536)

    def test_request_frame_layout(self, server):
        x = np.ones((1, INPUT_DIM), dtype=np.float32)
        frame = (MAGIC + struct.pack("<BII", MSG_EMBED, 1, INPUT_DIM) + x.tobytes())
        resp = self._raw(server, frame)
        assert resp[:4] == MAGIC
        assert resp[4] == 0x81
        b, d = struct.unpack_from("<II", resp, 5)
        assert (b, d) == (1, 32)

    def test_unknown_message_type_is_malformed(self, server):
        # the protocol has no gradient message; any unknown type errors out
        frame = MAGIC + struct.pack("<BII", 0x02, 1, INPUT_DIM) \
            + b"\x00" * (4 * INPUT_DIM)
        resp = self._raw(server, frame)
        assert resp[4] == MSG_ERROR
        code, = struct.unpack_from("<H", resp, 5)
        assert code == ERR_MALFORMED

    @pytest.mark.parametrize("batch,dim", [(0xFFFFFFFF, 0xFFFFFFFF),
                                           (MAX_PAYLOAD_BYTES // (4 * INPUT_DIM) + 1,
                                            INPUT_DIM)])
    def test_oversize_header_is_refused_and_server_survives(self, server, batch, dim):
        resp = self._raw(server, MAGIC + struct.pack("<BII", MSG_EMBED, batch, dim))
        assert resp[:5] == MAGIC + bytes([MSG_ERROR])
        code, = struct.unpack_from("<H", resp, 5)
        assert code == ERR_MALFORMED
        client = RemoteOracle(server.bound_address)
        x = _batch(2)
        try:
            assert client.embed(x).shape == (2, 32)
        finally:
            client.close()

    def test_unexpected_error_drops_only_that_connection(self, server, monkeypatch):
        real = ude.oracle.encoder_forward
        failures = [RuntimeError("injected")]

        def fail_once(enc, batch):
            if failures:
                raise failures.pop()
            return real(enc, batch)

        monkeypatch.setattr(ude.oracle, "encoder_forward", fail_once)
        client = RemoteOracle(server.bound_address)
        try:
            with pytest.raises(ProtocolError):
                client.embed(_batch(2))
            server._thread.join(timeout=0.5)
            assert server._thread.is_alive()
            assert client.embed(_batch(2)).shape == (2, 32)
        finally:
            client.close()

    def test_bad_magic_closes_with_error(self, server):
        resp = self._raw(server, b"XXXX" + b"\x00" * 16)
        assert resp[:4] == MAGIC
        assert resp[4] == MSG_ERROR


class TestConcurrentConnections:
    PARTIAL_HEADER = MAGIC + bytes([MSG_EMBED])  # 5 of a request's 13 header bytes

    def test_partial_frame_does_not_delay_another_client(self, server, monkeypatch):
        # a server that reads one connection at a time leaves this client
        # waiting until its own timeout
        monkeypatch.setattr(ude.oracle, "CLIENT_TIMEOUT_S", 3.0)
        with _connect(server) as stalled:
            stalled.sendall(self.PARTIAL_HEADER)
            client = RemoteOracle(server.bound_address)
            try:
                t0 = time.perf_counter()
                client.embed(_batch(2))
                assert time.perf_counter() - t0 < 1.0
            finally:
                client.close()

    @pytest.mark.parametrize("sent", [b"", PARTIAL_HEADER], ids=["idle", "partial"])
    def test_silent_connection_is_closed(self, server, monkeypatch, sent):
        monkeypatch.setattr(ude.oracle, "SERVER_TIMEOUT_S", 0.2)
        with _connect(server) as sock:
            sock.sendall(sent)
            sock.settimeout(5)
            assert sock.recv(1) == b""


def _assert_whole_frames(reply: bytes) -> None:
    """A reply stream must be whole embedding or error frames, each starting
    with MAGIC."""
    while reply:
        assert reply[:4] == MAGIC
        msg_type = reply[4]
        if msg_type == MSG_EMBED_RESPONSE:
            b, d = struct.unpack_from("<II", reply, 5)
            size = 13 + 4 * b * d
        else:
            assert msg_type == MSG_ERROR
            size = 9 + struct.unpack_from("<H", reply, 7)[0]
        assert len(reply) >= size
        reply = reply[size:]


@st.composite
def _request_like(draw):
    """A frame with a right or wrong magic and message type, at most 8 x 512
    declared, and a body of finite f32 values."""
    magic = draw(st.just(MAGIC) | st.sampled_from([b"UDE2", b"\x00" * 4]))
    msg_type = draw(st.just(MSG_EMBED) | st.integers(0, 255))
    batch = draw(st.integers(0, 8))
    dim = draw(st.just(INPUT_DIM) | st.integers(0, 512))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    body = rng.standard_normal(batch * dim).astype("<f4").tobytes()
    return magic + struct.pack("<BII", msg_type, batch, dim) + body


# garbage never holds MAGIC, so no header it runs into declares a large body
_garbage = st.binary(max_size=64).filter(lambda b: MAGIC not in b)


@st.composite
def _byte_streams(draw):
    """Whole frames and garbage, then one last piece that may be cut short.
    Only the last piece is cut, so no header is completed by the bytes of
    the next one."""
    pieces = draw(st.lists(_request_like() | _garbage, max_size=2))
    last = draw(_request_like() | _garbage)
    return b"".join(pieces) + last[:draw(st.just(len(last)) | st.integers(0, len(last)))]


class TestWireFuzz:
    @given(stream=_byte_streams())
    @settings(max_examples=100, deadline=None)
    def test_server_answers_in_frames_or_closes_and_stays_up(self, module_server,
                                                              stream):
        reply = b""
        with _connect(module_server) as sock:
            sock.settimeout(2)
            try:
                sock.sendall(stream)
                sock.shutdown(socket.SHUT_WR)
            except OSError:
                pass  # the server already closed, with some of the stream unread
            try:
                while chunk := sock.recv(65536):
                    reply += chunk
            except ConnectionResetError:
                pass  # the same: closing with unread input resets the connection
        _assert_whole_frames(reply)
        client = RemoteOracle(module_server.bound_address)
        x = _batch(3)
        try:
            assert client.embed(x).tobytes() == \
                encoder_forward(module_server.encoder, x).tobytes()
        finally:
            client.close()
