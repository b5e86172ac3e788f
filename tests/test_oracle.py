import gc
import socket
import struct
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ude.oracle
from ude.models import EMBED_DIM, INPUT_DIM, build_encoder, encoder_edits_vjp, encoder_forward
from ude.oracle import (
    FORWARD_ONLY,
    FORWARD_WITH_INPUT_GRAD,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    MSG_EMBED_EDITS,
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

from conftest import assert_near_float64_forward, assert_near_float64_vjp, unfactored_forward


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


# the dtypes of the bool, integer and real float arrays every oracle accepts
REAL_DTYPES = [np.float32, np.float64, np.float16, np.int64, np.bool_]


def _batch(n, rng_seed=0):
    rng = np.random.default_rng(rng_seed)
    return rng.normal(size=(n, INPUT_DIM)).astype(np.float32)


def _request(x: np.ndarray) -> bytes:
    """The raw request frame of `x` under one zero edit, as `embed` sends it."""
    b, d = x.shape
    return (MAGIC + struct.pack("<BIII", MSG_EMBED_EDITS, b, 1, d) + x.tobytes()
            + bytes(4 * d))


class TestInProcessOracle:
    def test_forward_only_refuses_gradients(self, encoder):
        oracle = InProcessOracle(encoder, capability=FORWARD_ONLY)
        with pytest.raises(CapabilityError):
            oracle.embed_vjp(_batch(2), np.zeros(INPUT_DIM, np.float32))
        assert oracle.query_counter == (0, 0)

    @given(dtype=st.sampled_from([np.float32, np.float64]), b=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1), scale=st.sampled_from([0.0, 0.1, 1e3]))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_embed_vjp_is_the_factored_vjp_of_its_edit(self, encoder, dtype, b, seed,
                                                        scale):
        # z is embed_edits' bytes for the one edit, and vjp(upstream) the
        # [D] gradient with respect to that edit: encoder_edits_vjp's bytes,
        # near a float64 sum of the edited rows' input gradients
        oracle = InProcessOracle(encoder, capability=FORWARD_WITH_INPUT_GRAD)
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(b, INPUT_DIM)).astype(dtype)
        eps = (rng.normal(size=INPUT_DIM) * scale).astype(dtype)
        upstream = rng.normal(size=(b, EMBED_DIM)).astype(dtype)
        z, vjp = oracle.embed_vjp(x, eps)
        assert (oracle.query_counter, oracle.round_trips) == ((1, b), 1)  # like embed
        assert z.dtype == dtype
        assert z.tobytes() == oracle.embed_edits(x, eps[None])[0].tobytes()
        grad = vjp(upstream)
        _, want_vjp = encoder_edits_vjp(encoder, x, eps[None])
        assert grad.tobytes() == want_vjp(upstream)[0].tobytes()
        assert_near_float64_vjp(encoder, grad, x, eps, upstream)
        for shape in ((b, EMBED_DIM + 1), (b + 1, EMBED_DIM), (b * EMBED_DIM,)):
            with pytest.raises(ValueError):
                vjp(np.zeros(shape, dtype))

    def test_embed_vjp_builds_no_array_of_the_batch_size(self):
        # a [B,D] array, such as the edited rows or their input gradients,
        # would take 4 B D bytes, 18 MB; the activations and their gradients
        # take under 2 MB
        b, d = 1100, 4096
        oracle = InProcessOracle(build_encoder(16, input_dim=d),
                                 capability=FORWARD_WITH_INPUT_GRAD)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(b, d)).astype(np.float32)
        eps = rng.normal(size=d).astype(np.float32)
        upstream = rng.normal(size=(b, EMBED_DIM)).astype(np.float32)
        tracemalloc.start()
        try:
            _, vjp = oracle.embed_vjp(x, eps)
            vjp(upstream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < b * d

    @pytest.mark.parametrize("eps", [np.zeros((1, INPUT_DIM)), np.zeros(INPUT_DIM + 1),
                                     np.float32(0)], ids=["stacked", "dim", "scalar"])
    def test_embed_vjp_takes_one_edit_of_the_batch_dim(self, encoder, eps):
        oracle = InProcessOracle(encoder, capability=FORWARD_WITH_INPUT_GRAD)
        with pytest.raises(ValueError):
            oracle.embed_vjp(_batch(2), eps)
        assert (oracle.query_counter, oracle.round_trips) == ((0, 0), 0)

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


@pytest.fixture(params=["inprocess", "remote"])
def oracle(request, encoder):
    """Each oracle class around the session encoder."""
    if request.param == "inprocess":
        yield InProcessOracle(encoder)
        return
    for srv in _serve(encoder):
        client = RemoteOracle(srv.bound_address)
        yield client
        client.close()


class TestEmbed:
    @given(b=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]),
           negative_zeros=st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_embed_is_the_encoder_forward(self, oracle, encoder, b, seed, scale,
                                          negative_zeros):
        # b = 1 takes the lone-row product; a scale of 0 and the mask give
        # -0.0 entries, which the zero edit turns into +0.0
        rng = np.random.default_rng(seed)
        batch = (rng.normal(size=(b, INPUT_DIM)) * scale).astype(np.float32)
        batch[rng.random(batch.shape) < negative_zeros] = -0.0
        (calls, samples), trips = oracle.query_counter, oracle.round_trips
        assert oracle.embed(batch).tobytes() == encoder_forward(encoder, batch).tobytes() == \
            unfactored_forward(encoder, batch).tobytes()
        assert oracle.query_counter == (calls + 1, samples + b)
        assert oracle.round_trips == trips + 1


class TestLogicalQueries:
    def test_one_call_counts_m_queries_and_one_round_trip(self, oracle):
        x, edits = _batch(2), _batch(3, rng_seed=1)
        assert oracle.embed_edits(x, edits).shape == (3, 2, 32)
        assert (oracle.query_counter, oracle.round_trips) == ((3, 6), 1)
        oracle.embed(x)
        assert (oracle.query_counter, oracle.round_trips) == ((4, 8), 2)


class TestEmbedEdits:
    @given(b=st.integers(1, 8), m=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_counts_and_each_edit_the_bytes_it_gives_alone(self, oracle, encoder, b, m,
                                                           seed, scale):
        rng = np.random.default_rng(seed)
        batch = rng.normal(size=(b, INPUT_DIM)).astype(np.float32)
        edits = (rng.normal(size=(m, INPUT_DIM)) * scale).astype(np.float32)
        (calls, samples), trips = oracle.query_counter, oracle.round_trips
        got = oracle.embed_edits(batch, edits)
        assert oracle.query_counter == (calls + m, samples + m * b)
        assert oracle.round_trips == trips + 1
        assert got.shape == (m, b, 32)
        # the factored first layer rounds otherwise than embed(batch + edits[i])
        # would, so each edit is held to the bytes it gives alone in process,
        # and to a float64 forward of its edited rows
        alone = InProcessOracle(encoder)
        for i in range(m):
            assert got[i].tobytes() == alone.embed_edits(batch, edits[i:i + 1])[0].tobytes()
            assert_near_float64_forward(encoder, got[i], batch, edits[i])

    @pytest.mark.parametrize("batch,edits", [
        ((2, INPUT_DIM), (3, INPUT_DIM + 1)),
        ((2, INPUT_DIM), (0, INPUT_DIM)),
        ((0, INPUT_DIM), (3, INPUT_DIM)),
        ((2, INPUT_DIM), (INPUT_DIM,)),
    ], ids=["dim", "no-edits", "empty-batch", "one-edit-unstacked"])
    def test_bad_shapes_raise_before_any_query(self, oracle, batch, edits):
        with pytest.raises(ValueError):
            oracle.embed_edits(np.zeros(batch, np.float32), np.zeros(edits, np.float32))
        assert (oracle.query_counter, oracle.round_trips) == ((0, 0), 0)
        if isinstance(oracle, RemoteOracle):
            assert oracle._sock is None  # nothing was sent


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

    @given(batch_dtype=st.sampled_from(REAL_DTYPES), edit_dtype=st.sampled_from(REAL_DTYPES),
           b=st.integers(1, 8), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_forward_only_answers_any_dtype_as_the_remote_oracle(
            self, encoder, module_server, batch_dtype, edit_dtype, b, m, seed):
        """The wire carries float32, so every oracle embeds in float32 but a
        gradient oracle given a float64 batch: for a bool, integer, float16
        or float64 batch or edits the in-process oracles give the remote
        answer's bytes and dtype."""
        rng = np.random.default_rng(seed)
        batch = (rng.normal(size=(b, INPUT_DIM)) * 2).astype(batch_dtype)
        edits = (rng.normal(size=(m, INPUT_DIM)) * 2).astype(edit_dtype)
        local, remote = InProcessOracle(encoder), RemoteOracle(module_server.bound_address)
        grad = InProcessOracle(encoder, FORWARD_WITH_INPUT_GRAD)
        try:
            for ask in (lambda o: o.embed(batch), lambda o: o.embed_edits(batch, edits)):
                want = ask(remote)
                assert want.dtype == np.float32
                assert ask(local).dtype == np.float32
                assert ask(local).tobytes() == want.tobytes()
                if batch_dtype != np.float64:  # float64 is the gradient oracle's own
                    assert ask(grad).dtype == np.float32
                    assert ask(grad).tobytes() == want.tobytes()
            if batch_dtype != np.float64:
                z, _ = grad.embed_vjp(batch, edits[0])
                assert z.tobytes() == remote.embed_edits(batch, edits[:1])[0].tobytes()
        finally:
            remote.close()

    @pytest.mark.parametrize("kind", ["forward_only", "gradient", "remote"])
    @pytest.mark.parametrize("bad", ["complex64", "object"])
    @pytest.mark.parametrize("where", ["batch", "edits"])
    def test_complex_and_object_requests_are_refused_before_any_query(
            self, encoder, module_server, kind, bad, where):
        if kind == "remote":
            oracle = RemoteOracle(module_server.bound_address)
        else:
            oracle = InProcessOracle(encoder, FORWARD_WITH_INPUT_GRAD if kind == "gradient"
                                     else FORWARD_ONLY)
        def spoil(a):
            return (np.full(a.shape, None, dtype=object) if bad == "object"
                    else a.astype(np.complex64) + 1j)

        x, edits = _batch(2), _batch(3, rng_seed=1)
        if where == "batch":
            x = spoil(x)
        else:
            edits = spoil(edits)
        asks = [lambda: oracle.embed_edits(x, edits)]
        if where == "batch":
            asks.append(lambda: oracle.embed(x))
        if kind == "gradient":
            asks.append(lambda: oracle.embed_vjp(x, edits[0]))
        try:
            for ask in asks:
                with pytest.raises(ValueError, match="bool, integer or real float"):
                    ask()
            assert (oracle.query_counter, oracle.round_trips) == ((0, 0), 0)
            if kind == "remote":
                assert oracle._sock is None  # nothing was sent
        finally:
            oracle.close()

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
            client.embed_vjp(_batch(1), np.zeros(INPUT_DIM, np.float32))
        client.close()

    def test_the_server_counts_what_it_answers(self, server):
        client = RemoteOracle(server.bound_address)
        try:
            client.embed(_batch(2))
            client.embed_edits(_batch(3), _batch(4, rng_seed=1))
        finally:
            client.close()
        assert (client.query_counter, client.round_trips) == ((5, 14), 2)
        assert server.oracle.query_counter == client.query_counter
        assert server.oracle.round_trips == client.round_trips

    def test_dim_mismatch_error_code(self, server):
        client = RemoteOracle(server.bound_address)
        with pytest.raises(ProtocolError) as exc:
            client.embed(np.zeros((2, INPUT_DIM + 1), dtype=np.float32))
        assert exc.value.code == ERR_DIM_MISMATCH
        client.close()

    @pytest.mark.parametrize("reply", ["short", "wrong_type", "narrower"])
    def test_bad_response_is_protocol_error(self, reply):
        # a stub server that answers B-1 rows, or a message of type 0x02, or
        # a first answer 32 columns wide and then, on the same connection,
        # one 31 wide
        message, replies = {
            "short": ("2 rows", [(-1, MSG_EMBED_RESPONSE, 32)]),
            "wrong_type": ("type 0x02", [(0, 0x02, 32)]),
            "narrower": ("31 columns", [(0, MSG_EMBED_RESPONSE, 32),
                                        (0, MSG_EMBED_RESPONSE, 31)]),
        }[reply]
        listener = socket.create_server(("127.0.0.1", 0))
        x = _batch(3)

        def answer():
            conn, _ = listener.accept()
            with conn:
                for extra_rows, msg_type, width in replies:
                    want = len(_request(x))
                    got = b""
                    while len(got) < want:
                        got += conn.recv(want - len(got))
                    z = np.zeros((x.shape[0] + extra_rows, width), dtype="<f4")
                    conn.sendall(MAGIC + struct.pack("<BII", msg_type, *z.shape)
                                 + z.tobytes())

        stub = threading.Thread(target=answer, daemon=True)
        stub.start()
        client = RemoteOracle("127.0.0.1:%d" % listener.getsockname()[1])
        try:
            for _ in replies[:-1]:
                client.embed(x)
            with pytest.raises(ProtocolError, match=message):
                client.embed(x)
            answered = len(replies) - 1
            assert client.query_counter == (answered, answered * x.shape[0])
            assert client._sock is None  # closed after the failed call
        finally:
            client.close()
            stub.join(timeout=5)
            listener.close()
        assert not stub.is_alive()

    def test_response_header_is_checked_before_its_body(self, monkeypatch):
        # a stub server that declares one row too many and then sends no
        # body; a client that read the body first would wait out its timeout
        monkeypatch.setattr(ude.oracle, "CLIENT_TIMEOUT_S", 5.0)
        listener = socket.create_server(("127.0.0.1", 0))
        x = _batch(3)

        def answer():
            conn, _ = listener.accept()
            with conn:
                want = len(_request(x))
                got = b""
                while len(got) < want:
                    got += conn.recv(want - len(got))
                conn.sendall(MAGIC + struct.pack("<BII", MSG_EMBED_RESPONSE,
                                                 x.shape[0] + 1, 32))
                conn.settimeout(10)
                conn.recv(1)  # until the client hangs up

        stub = threading.Thread(target=answer, daemon=True)
        stub.start()
        client = RemoteOracle("127.0.0.1:%d" % listener.getsockname()[1])
        try:
            t0 = time.perf_counter()
            with pytest.raises(ProtocolError, match="4 rows for a request of 3"):
                client.embed(x)
            assert time.perf_counter() - t0 < 1.0
            assert client._sock is None
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


class TestReconnect:
    def test_idle_closed_connection_is_reopened(self, server, monkeypatch):
        monkeypatch.setattr(ude.oracle, "SERVER_TIMEOUT_S", 0.2)
        client = RemoteOracle(server.bound_address)
        x = _batch(3)
        try:
            client.embed(x)
            time.sleep(0.5)  # the server closes the idle connection
            assert client.embed(x).tobytes() == encoder_forward(server.encoder, x).tobytes()
            assert client.query_counter == (2, 2 * 3)
        finally:
            client.close()

    def test_resends_once_on_a_reused_connection(self, server, monkeypatch):
        client = RemoteOracle(server.bound_address)
        requests = []

        def fail(enc, batch, edits):  # the server closes without an answer
            requests.append(edits.shape[0] * batch.shape[0])
            raise RuntimeError("injected")

        try:
            client.embed(_batch(2))
            monkeypatch.setattr(ude.oracle, "encoder_forward_edits", fail)
            with pytest.raises(ProtocolError):
                client.embed(_batch(2))
            assert requests == [2, 2]  # on the reused connection, then on one fresh one
            assert client.query_counter == (1, 2)
        finally:
            client.close()

    def test_edits_resend_once_on_a_reused_connection(self, server, monkeypatch):
        client = RemoteOracle(server.bound_address)
        requests = []

        def fail(enc, batch, edits):  # the server closes without an answer
            requests.append(edits.shape[0] * batch.shape[0])
            raise RuntimeError("injected")

        edits = _batch(3, rng_seed=1)
        try:
            client.embed_edits(_batch(2), edits)
            monkeypatch.setattr(ude.oracle, "encoder_forward_edits", fail)
            with pytest.raises(ProtocolError):
                client.embed_edits(_batch(2), edits)
            assert requests == [6, 6]  # on the reused connection, then on one fresh one
            assert (client.query_counter, client.round_trips) == ((3, 6), 1)
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
        resp = self._raw(server, _request(np.ones((1, INPUT_DIM), dtype=np.float32)))
        assert resp[:4] == MAGIC
        assert resp[4] == 0x81
        b, d = struct.unpack_from("<II", resp, 5)
        assert (b, d) == (1, 32)

    @pytest.mark.parametrize("msg_type", [0x01, 0x02])
    def test_unknown_message_type_is_malformed(self, server, msg_type):
        # the protocol has no gradient message, and 0x01, a plain batch
        # without edits, is retired; any unknown type errors out
        frame = MAGIC + struct.pack("<BII", msg_type, 1, INPUT_DIM) \
            + b"\x00" * (4 * INPUT_DIM)
        resp = self._raw(server, frame)
        assert resp[4] == MSG_ERROR
        code, = struct.unpack_from("<H", resp, 5)
        assert code == ERR_MALFORMED

    ROWS_OVER = MAX_PAYLOAD_BYTES // (4 * INPUT_DIM) + 1

    @pytest.mark.parametrize("header", [
        struct.pack("<BIII", MSG_EMBED_EDITS, 0xFFFFFFFF, 1, 0xFFFFFFFF),
        struct.pack("<BIII", MSG_EMBED_EDITS, ROWS_OVER, 1, INPUT_DIM),
        # the two bodies together are one row too large
        struct.pack("<BIII", MSG_EMBED_EDITS, ROWS_OVER // 2, ROWS_OVER - ROWS_OVER // 2,
                    INPUT_DIM),
        # small bodies whose edited rows would not fit
        struct.pack("<BIII", MSG_EMBED_EDITS, 512, ROWS_OVER // 512 + 1, INPUT_DIM),
    ], ids=[f"{0xFFFFFFFF}-{0xFFFFFFFF}", f"{ROWS_OVER}-{INPUT_DIM}", "edits-bodies",
            "edits-expansion"])
    def test_oversize_header_is_refused_and_server_survives(self, server, header):
        resp = self._raw(server, MAGIC + header)
        assert resp[:5] == MAGIC + bytes([MSG_ERROR])
        code, = struct.unpack_from("<H", resp, 5)
        assert code == ERR_MALFORMED
        client = RemoteOracle(server.bound_address)
        x = _batch(2)
        try:
            assert client.embed(x).shape == (2, 32)
        finally:
            client.close()

    def test_a_refusal_reaches_a_client_still_sending_the_body(self, server):
        # refused from its header, 4,096 rows under 65 edits is M*B rows over
        # the limit; the server closes while most of the 4 MiB batch is unsent
        client = RemoteOracle(server.bound_address)
        try:
            with pytest.raises(ProtocolError) as exc:
                client.embed_edits(_batch(4096), _batch(65, rng_seed=1))
            assert exc.value.code == ERR_MALFORMED
            assert client._sock is None
        finally:
            client.close()

    def test_unexpected_error_drops_only_that_connection(self, server, monkeypatch):
        real = ude.oracle.encoder_forward_edits
        failures = [RuntimeError("injected")]

        def fail_once(enc, batch, edits):
            if failures:
                raise failures.pop()
            return real(enc, batch, edits)

        monkeypatch.setattr(ude.oracle, "encoder_forward_edits", fail_once)
        client = RemoteOracle(server.bound_address)
        try:
            with pytest.raises(ProtocolError):  # fresh, so not resent; a resend would work
                client.embed(_batch(2))
            server._thread.join(timeout=0.5)
            assert server._thread.is_alive()
            assert client.embed(_batch(2)).shape == (2, 32)
        finally:
            client.close()

    @pytest.mark.parametrize("header", [
        struct.pack("<BIII", MSG_EMBED_EDITS, 1, 0, INPUT_DIM),
        struct.pack("<BIII", MSG_EMBED_EDITS, 0, 2, INPUT_DIM),
    ], ids=["edits-no-edits", "edits-no-rows"])
    def test_zero_row_request_keeps_the_connection(self, server, header):
        sizes = struct.unpack_from(f"<{(len(header) - 1) // 4}I", header, 1)
        body = np.zeros(sum(sizes[:-1]) * INPUT_DIM, dtype="<f4").tobytes()
        x = _batch(1)
        with _connect(server) as sock:
            sock.settimeout(5)
            sock.sendall(MAGIC + header + body)
            msg_type, payload = _read_frame(sock)
            assert msg_type == MSG_ERROR
            assert struct.unpack_from("<H", payload)[0] == ERR_DIM_MISMATCH
            sock.sendall(_request(x))
            msg_type, payload = _read_frame(sock)
        assert msg_type == MSG_EMBED_RESPONSE
        assert payload[8:] == encoder_forward(server.encoder, x).tobytes()

    def test_a_frame_larger_than_the_send_buffer_arrives_whole(self):
        # with a timeout, as both ends of the protocol set one, sendmsg
        # sends what fits in the buffer; the rest must follow
        x, y = _batch(64), _batch(16, rng_seed=1)
        a, b = socket.socketpair()
        with a, b:
            a.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
            a.settimeout(5)
            b.settimeout(5)
            sender = threading.Thread(target=ude.oracle._send_frame, args=(a, b"head", x, y),
                                      daemon=True)
            sender.start()
            got = b""
            while len(got) < 4 + x.nbytes + y.nbytes and (chunk := b.recv(65536)):
                got += chunk
            sender.join(timeout=5)
        assert not sender.is_alive()
        assert got == b"head" + x.tobytes() + y.tobytes()

    def test_bad_magic_closes_with_error(self, server):
        resp = self._raw(server, b"XXXX" + b"\x00" * 16)
        assert resp[:4] == MAGIC
        assert resp[4] == MSG_ERROR


class TestConcurrentConnections:
    PARTIAL_HEADER = MAGIC + bytes([MSG_EMBED_EDITS])  # 5 of a request's 17 header bytes

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


def _read_frame(sock: socket.socket) -> tuple[int, bytes]:
    """One response or error frame: its type and everything after it."""
    head = sock.recv(9, socket.MSG_WAITALL)
    assert head[:4] == MAGIC
    if head[4] == MSG_EMBED_RESPONSE:
        head += sock.recv(4, socket.MSG_WAITALL)
        b, d = struct.unpack_from("<II", head, 5)
        size = 4 * b * d
    else:
        size = struct.unpack_from("<H", head, 7)[0]
    return head[4], head[5:] + sock.recv(size, socket.MSG_WAITALL)


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
    declared (and, for a request frame, at most 8 edits), and a body of
    finite f32 values."""
    magic = draw(st.just(MAGIC) | st.sampled_from([b"UDE2", b"\x00" * 4]))
    msg_type = draw(st.just(MSG_EMBED_EDITS) | st.integers(0, 255))
    batch = draw(st.integers(0, 8))
    edits = draw(st.integers(0, 8)) if msg_type == MSG_EMBED_EDITS else None
    dim = draw(st.just(INPUT_DIM) | st.integers(0, 512))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    body = rng.standard_normal((batch + (edits or 0)) * dim).astype("<f4").tobytes()
    if edits is None:
        return magic + struct.pack("<BII", msg_type, batch, dim) + body
    return magic + struct.pack("<BIII", msg_type, batch, edits, dim) + body


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
