import socket
import threading

import numpy as np
import pytest

from ude.datagen import CellCounts, SynthConfig, generate
from ude.models import build_encoder


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
