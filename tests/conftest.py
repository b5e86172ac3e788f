import socket
import threading

import numpy as np
import pytest

from ude.datagen import CellCounts, SynthConfig, generate
from ude.models import build_encoder, encoder_forward
from ude.tensor_io import tensor_digest


@pytest.fixture(scope="session")
def encoder():
    return build_encoder(seed=16)


@pytest.fixture(scope="session")
def small_data():
    """A small biased training set plus a balanced test set."""
    cfg = SynthConfig()
    train = generate(cfg, CellCounts([[100, 10], [10, 100]]), seed=11)
    test = generate(cfg, CellCounts([[20, 20], [20, 20]]), seed=12)
    return cfg, train, test


@pytest.fixture
def silent_server():
    """Address of a stub server that accepts one connection and never
    answers on it."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)
    accepted = []

    def accept():
        try:
            accepted.append(listener.accept()[0])
        except OSError:
            pass

    stub = threading.Thread(target=accept, daemon=True)
    stub.start()
    yield "127.0.0.1:%d" % listener.getsockname()[1]
    stub.join(timeout=10)
    for conn in accepted:
        conn.close()
    listener.close()
    assert not stub.is_alive()


def central_diff(f, x, h=1e-5):
    """Central finite differences of a scalar function over a flat array."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        grad[i] = (f(xp) - f(xm)) / (2 * h)
    return grad


def head_bytes(head):
    """A head's weight and bias bytes, for exact comparisons."""
    return head.weight.tobytes(), head.bias.tobytes()


def encoder_digests(enc):
    """The tensor_digest of each encoder parameter, in parameters() order."""
    return [tensor_digest(p) for p in enc.parameters().values()]


def assert_near_float64_forward(enc, z, batch, edit):
    """z, the embeddings of the rows batch + edit in the batch's dtype, is
    within 16 eps (1 + max|batch| + max|edit|) of a float64 forward of
    those rows, eps of the batch's dtype. Over random float32 and float64
    draws at edit scales 0 to 1e3, the factored forward stayed under 3 eps
    (...) and a forward of the edited rows themselves under 2 eps (...)."""
    rows = batch.astype(np.float64) + edit.astype(batch.dtype).astype(np.float64)
    tol = 16 * np.finfo(batch.dtype).eps * (1 + np.abs(batch).max() + np.abs(edit).max())
    assert np.abs(z - encoder_forward(enc, rows)).max() <= tol
