import socket
import threading

import numpy as np
import pytest

from ude.datagen import CellCounts, SynthConfig, generate
from ude.models import build_encoder
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


def unfactored_forward(enc, rows):
    """The forward of rows [B,D] in their dtype with no edit to factor,
    tanh(tanh(rows @ w1 + b1) @ w2 + b2) @ w3 + b3, each product taken as
    the encoder takes it: a lone row paired with itself, so that numpy
    multiplies it with gemm."""
    w1, b1, w2, b2, w3, b3 = (p.astype(rows.dtype) for p in enc.parameters().values())

    def mm(a, w):
        return (np.concatenate((a, a)) @ w)[:1] if len(a) == 1 else a @ w

    h1 = np.tanh(mm(rows, w1) + b1)
    h2 = np.tanh(mm(h1, w2) + b2)
    return mm(h2, w3) + b3


def assert_near_float64_forward(enc, z, batch, edit):
    """z, the embeddings of the rows batch + edit in the batch's dtype, is
    within 16 eps (1 + max|batch| + max|edit|) of a float64 forward of
    those rows, eps of the batch's dtype. Over random float32 and float64
    draws at edit scales 0 to 1e3, the factored forward stayed under 3 eps
    (...) and a forward of the edited rows themselves under 2 eps (...)."""
    rows = batch.astype(np.float64) + edit.astype(batch.dtype).astype(np.float64)
    tol = 16 * np.finfo(batch.dtype).eps * (1 + np.abs(batch).max() + np.abs(edit).max())
    assert np.abs(z - unfactored_forward(enc, rows)).max() <= tol


def assert_near_float64_vjp(enc, grad, batch, edit, upstream):
    """grad, the [D] gradient of sum(upstream * z) with respect to the edit
    that the factored VJP gives in the batch's dtype, is within
    eps (1 + max|batch| + max|edit|) max(scale) of the float64 reference,
    eps of the batch's dtype. The reference is the textbook one: the input
    gradient of each edited row batch + edit (the edit in the batch's
    dtype), then their sum; its scale is the same sum with every tanh
    derivative taken as 1 and every weight and upstream value as its
    magnitude. Over random float32 and float64 draws at edit scales 0 to
    1e3 and B from 1 to 64, the error stayed under 0.01 of that bound,
    while the gradient itself reached up to 0.01 max(scale), so a wrong
    term overshoots it about 1/eps-fold."""
    w1, b1, w2, b2, w3, b3 = (p.astype(np.float64) for p in enc.parameters().values())
    rows = batch.astype(np.float64) + edit.astype(batch.dtype).astype(np.float64)
    h1 = np.tanh(rows @ w1 + b1)
    h2 = np.tanh(h1 @ w2 + b2)
    g1 = (((upstream @ w3.T) * (1.0 - h2 * h2)) @ w2.T) * (1.0 - h1 * h1)
    want = (g1 @ w1.T).sum(axis=0)
    scale = (((np.abs(upstream) @ np.abs(w3).T) @ np.abs(w2).T) @ np.abs(w1).T).sum(axis=0)
    tol = np.finfo(batch.dtype).eps * (1 + np.abs(batch).max() + np.abs(edit).max()) \
        * scale.max()
    assert grad.shape == want.shape and grad.dtype == batch.dtype
    assert np.abs(grad - want).max() <= tol
