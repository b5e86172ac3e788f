"""Acceptance suite: every test prints one [PASS]/[FAIL] line.

The 5-seed experiment fixtures run the full desk-scale pipeline (in memory)
once per mode and are shared across the directional criteria. Thresholds were
calibrated once against the default configuration and are frozen here.
"""

import ctypes
import hashlib
import json
import math
import time
from dataclasses import asdict

import numpy as np
import pytest

from ude.editing import edit_objective_batch, edit_objective_grad
from ude.fairness import (
    EvalRecord,
    UndefinedMetric,
    accuracy,
    disparate_impact,
    equal_opportunity,
)
from ude.gezo import GezoConfig, gezo_epoch, learn_ude_gezo
from ude.models import (
    INPUT_DIM,
    TrainConfig,
    build_encoder,
    train_head,
)
from ude.oracle import (
    FORWARD_WITH_INPUT_GRAD,
    InProcessOracle,
    OracleServer,
    RemoteOracle,
)
from ude.pipeline import (
    TAG_DATA_TRAIN,
    TAG_SA_TRAIN,
    PipelineConfig,
    derive,
    run_experiment,
)
from ude.datagen import generate

from conftest import head_bytes

SEEDS = (1, 2, 3, 4, 5)


def check(ok: bool, label: str, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _cfg(seed: int, mode: str = "whitebox") -> PipelineConfig:
    return PipelineConfig(seed=seed, mode=mode)


@pytest.fixture(scope="module")
def wb_results():
    """Default white-box pipeline per seed, with wall time per run."""
    out = {}
    for seed in SEEDS:
        t0 = time.perf_counter()
        out[seed] = (run_experiment(_cfg(seed)), time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def gz_results():
    return {seed: run_experiment(_cfg(seed, mode="gezo")) for seed in SEEDS}


@pytest.fixture(scope="module")
def sa_context():
    """Shared encoder, one seed's training data, and its trained group head
    (exactly as the pipeline derives them) for the structural criteria."""
    cfg = _cfg(1)
    enc = build_encoder(seed=cfg.encoder_seed)
    train = generate(cfg.synth, cfg.train_counts, derive(cfg, TAG_DATA_TRAIN))
    oracle = InProcessOracle(enc)
    head, _ = train_head(oracle, train.images, train.sa_labels, cfg.sa_train,
                         derive(cfg, TAG_SA_TRAIN))
    return enc, train, head


def test_criterion_01_gradient_correctness(sa_context):
    enc, train, head = sa_context
    oracle = InProcessOracle(enc, capability=FORWARD_WITH_INPUT_GRAD)
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()

    batch64 = train.images[:8].astype(np.float64)
    labels = train.sa_labels[:8]
    eps64 = rng.normal(0.0, 0.05, INPUT_DIM)
    _, grad64 = edit_objective_grad(oracle, head, batch64, labels, eps64, 0.01)
    _, grad32 = edit_objective_grad(oracle, head, batch64.astype(np.float32),
                                    labels, eps64.astype(np.float32), 0.01)

    probes = rng.choice(INPUT_DIM, size=100, replace=False)
    numeric = np.zeros(len(probes))
    h = 5e-6
    for j, i in enumerate(probes):
        ep, em = eps64.copy(), eps64.copy()
        ep[i] += h
        em[i] -= h
        lp = edit_objective_batch(oracle, head, batch64, labels, ep, 0.01)
        lm = edit_objective_batch(oracle, head, batch64, labels, em, 0.01)
        numeric[j] = (lp - lm) / (2 * h)
    scale = np.max(np.abs(numeric))
    rel64 = np.max(np.abs(grad64[probes] - numeric)) / scale
    rel32 = np.max(np.abs(grad32[probes].astype(np.float64) - numeric)) / scale
    elapsed = time.perf_counter() - t0
    check(rel64 < 1e-6 and rel32 < 1e-4 and elapsed < 10,
          "criterion 1 (gradient correctness)",
          f"100 probes: rel err f64={rel64:.2e} (<1e-6), f32={rel32:.2e} "
          f"(<1e-4), {elapsed:.1f}s (<10s)")


def _brute_force_metrics(preds, labels, attrs, target_class):
    """Independent counting oracle: explicit loops, integers until division."""
    n = len(preds)
    correct = sum(1 for i in range(n) if preds[i] == labels[i])
    tpr = []
    for a in (0, 1):
        hits = sum(1 for i in range(n)
                   if attrs[i] == a and labels[i] == target_class
                   and preds[i] == target_class)
        tot = sum(1 for i in range(n)
                  if attrs[i] == a and labels[i] == target_class)
        if tot == 0:
            tpr.append(None)
        else:
            tpr.append(hits / tot)
    rate = []
    for a in (0, 1):
        pos = sum(1 for i in range(n) if attrs[i] == a and preds[i] == 1)
        tot = sum(1 for i in range(n) if attrs[i] == a)
        rate.append(None if tot == 0 else pos / tot)
    acc = correct / n
    eo = None if None in tpr else abs(tpr[0] - tpr[1])
    if rate[0] is None or rate[1] in (None, 0):
        di = None
    else:
        di = rate[0] / rate[1]
    return acc, eo, di


def test_criterion_02_metric_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(1000):
        n = int(rng.integers(4, 65))
        preds = rng.integers(0, 2, n).tolist()
        labels = rng.integers(0, 2, n).tolist()
        attrs = rng.integers(0, 2, n).tolist()
        rec = EvalRecord(np.array(preds), np.array(labels), np.array(attrs))
        for target in (0, 1):
            acc_bf, eo_bf, di_bf = _brute_force_metrics(preds, labels, attrs, target)
            assert accuracy(rec) == acc_bf
            if eo_bf is None:
                with pytest.raises(UndefinedMetric):
                    equal_opportunity(rec, target)
            else:
                assert equal_opportunity(rec, target) == eo_bf
            if di_bf is None:
                with pytest.raises(UndefinedMetric):
                    disparate_impact(rec)
            else:
                di, gap = disparate_impact(rec)
                assert di == di_bf
                assert gap == abs(1.0 - di_bf)
        checked += 1
    elapsed = time.perf_counter() - t0
    check(checked == 1000 and elapsed < 5,
          "criterion 2 (metric oracle equivalence)",
          f"exact agreement on {checked} random records, {elapsed:.1f}s (<5s)")


def test_criterion_03_erm_bias_by_construction(wb_results):
    hits = sum(1 for seed in SEEDS
               if wb_results[seed][0].erm_report.eo_pos >= 0.2
               and wb_results[seed][0].erm_report.one_minus_di_abs >= 0.2)
    eo = [wb_results[s][0].erm_report.eo_pos for s in SEEDS]
    di = [wb_results[s][0].erm_report.one_minus_di_abs for s in SEEDS]
    check(hits >= 4, "criterion 3 (ERM bias exists)",
          f"EO_p>=0.2 and |1-DI|>=0.2 on {hits}/5 seeds "
          f"(EO_p min {min(eo):.2f}, |1-DI| min {min(di):.2f})")


def test_criterion_04_whitebox_debiases(wb_results):
    hits = 0
    acc_ok = True
    for seed in SEEDS:
        res, _ = wb_results[seed]
        erm, ude = res.erm_report, res.ude_report
        if (erm.eo_pos - ude.eo_pos >= 0.1
                and erm.one_minus_di_abs - ude.one_minus_di_abs >= 0.1):
            hits += 1
        if ude.accuracy < erm.accuracy - 0.05:
            acc_ok = False
    slowest = max(t for _, t in wb_results.values())
    check(hits >= 4 and acc_ok and slowest < 180,
          "criterion 4 (white-box debiasing)",
          f"EO_p and |1-DI| each drop >=0.1 on {hits}/5 seeds, accuracy within "
          f"5 points on all, slowest run {slowest:.1f}s (<180s)")


def test_criterion_05_sa_concealment(wb_results):
    hits = sum(1 for seed in SEEDS
               if wb_results[seed][0].sa_acc_clean >= 0.9
               and wb_results[seed][0].sa_acc_edited <= 0.65)
    clean = [wb_results[s][0].sa_acc_clean for s in SEEDS]
    edited = [wb_results[s][0].sa_acc_edited for s in SEEDS]
    check(hits >= 4, "criterion 5 (attribute concealment)",
          f"clean>=0.9 and edited<=0.65 on {hits}/5 seeds "
          f"(clean min {min(clean):.2f}, edited max {max(edited):.2f})")


def test_criterion_06_gezo_parity(wb_results, gz_results, sa_context):
    hits = 0
    for seed in SEEDS:
        wb, _ = wb_results[seed]
        gz = gz_results[seed]
        if (abs(gz.sa_acc_edited - wb.sa_acc_edited) <= 0.10
                and abs(gz.ude_report.eo_pos - wb.ude_report.eo_pos) <= 0.1
                and abs(gz.ude_report.one_minus_di_abs
                        - wb.ude_report.one_minus_di_abs) <= 0.1):
            hits += 1

    # forward-only accounting on a dedicated oracle: exactly R*2*C embeds per
    # epoch, and no gradient call ever succeeds
    enc, train, head = sa_context
    oracle = InProcessOracle(enc)  # forward-only: any gradient request raises
    cfg = GezoConfig(epochs=3)
    learn_ude_gezo(oracle, head, train.images, train.sa_labels, cfg, 0)
    calls, _ = oracle.query_counter
    expected = cfg.epochs * cfg.local_iters * 2 * cfg.samples
    check(hits >= 3 and calls == expected,
          "criterion 6 (zeroth-order parity)",
          f"concealment within 10 points and downstream metrics within 0.1 on "
          f"{hits}/5 seeds; query counter {calls} == epochs*R*2*C = {expected}, "
          f"forward calls only")


def test_criterion_07_greedy_invariants(sa_context, gz_results, monkeypatch):
    enc, train, head = sa_context

    # (a) epoch-best loss is monotone non-increasing within every epoch
    monotone = True
    for res in gz_results.values():
        by_epoch = {}
        for recd in res.edit.iteration_trace:
            by_epoch.setdefault(recd["epoch"], []).append(recd["best_loss"])
        for losses in by_epoch.values():
            if any(b > a for a, b in zip(losses, losses[1:])):
                monotone = False

    # (b) when no candidate ever improves, the step decays as
    # init * decay^R, bit-identical to the same product chain
    import ude.gezo as gezo_mod
    monkeypatch.setattr(gezo_mod, "edit_objective_batch",
                        lambda *a, **k: math.inf)
    cfg = GezoConfig(local_iters=10)
    trace = []
    oracle = InProcessOracle(enc)
    gezo_epoch(oracle, head, train.images, train.sa_labels,
               np.zeros(INPUT_DIM, dtype=np.float32), cfg,
               np.random.default_rng(0), trace=trace)
    s_ref, refs = cfg.init_step, []
    for _ in range(cfg.local_iters):
        s_ref = cfg.decay * s_ref
        refs.append(s_ref)
    decay_exact = ([t["step"] for t in trace] == refs
                   and not any(t["improved"] for t in trace))
    monkeypatch.undo()

    # (c) with momentum 0 the epoch equals a momentum-free reference loop
    cfg0 = GezoConfig(local_iters=6, momentum=0.0, batch_size=32)
    eps_impl = gezo_epoch(InProcessOracle(enc), head, train.images,
                          train.sa_labels, np.zeros(INPUT_DIM, dtype=np.float32),
                          cfg0, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    oracle = InProcessOracle(enc)
    eps_ref = np.zeros(INPUT_DIM, dtype=np.float32)
    step, best = cfg0.init_step, math.inf
    n = train.images.shape[0]
    for _ in range(cfg0.local_iters):
        idx = rng.permutation(n)[:cfg0.batch_size]
        d_best = None
        for _ in range(cfg0.samples):
            delta = rng.standard_normal(INPUT_DIM).astype(np.float32) \
                * np.float32(step)
            for direction in (-1.0, 1.0):
                cand = eps_ref + np.float32(direction) * delta
                loss = edit_objective_batch(oracle, head, train.images[idx],
                                            train.sa_labels[idx], cand, cfg0.lam)
                if loss < best:
                    best = loss
                    d_best = np.float32(direction) * delta
        if d_best is not None:
            eps_ref = eps_ref + d_best
        else:
            step = cfg0.decay * step
    momentum_free_equal = eps_impl.tobytes() == eps_ref.tobytes()

    check(monotone and decay_exact and momentum_free_equal,
          "criterion 7 (greedy optimizer invariants)",
          f"monotone epoch-best loss: {monotone}; pure-decay step schedule "
          f"bit-exact: {decay_exact}; momentum-0 reference match: "
          f"{momentum_free_equal}")


def test_criterion_08_lambda_monotonicity(wb_results):
    hits = 0
    norms = []
    for seed in SEEDS:
        cfg = _cfg(seed)
        cfg.ude.lam = 1.0
        high = run_experiment(cfg).edit.eps_norm_trace[-1]
        low = wb_results[seed][0].edit.eps_norm_trace[-1]
        norms.append((low, high))
        if high < low:
            hits += 1
    check(hits == 5, "criterion 8 (penalty monotonicity)",
          f"|eps| at lam=1.0 strictly below lam=0.01 on {hits}/5 seeds "
          f"(e.g. seed 1: {norms[0][1]:.3f} < {norms[0][0]:.3f})")


def test_criterion_09_local_iteration_trend():
    means = {}
    for r in (2, 20):
        eo = []
        for seed in SEEDS:
            cfg = _cfg(seed, mode="gezo")
            cfg.gezo.local_iters = r
            eo.append(run_experiment(cfg).ude_report.eo_pos)
        means[r] = sum(eo) / len(eo)
    check(means[20] <= means[2], "criterion 9 (local-iteration trend)",
          f"mean EO_p over 5 seeds: {means[20]:.3f} at R=20 <= "
          f"{means[2]:.3f} at R=2")


def test_criterion_10_noise_map_localization(wb_results):
    hits = 0
    ratios = []
    for seed in SEEDS:
        res, _ = wb_results[seed]
        eps = np.abs(res.edit.eps)
        cfg = _cfg(seed)
        sa_mean = float(np.mean(eps[cfg.synth.sa_region]))
        dis_mean = float(np.mean(eps[cfg.synth.disease_region]))
        ratios.append(sa_mean / dis_mean)
        if sa_mean > dis_mean:
            hits += 1
    check(hits >= 4, "criterion 10 (noise-map localization)",
          f"mean |eps| higher on group region than disease region on {hits}/5 "
          f"seeds (ratios {', '.join(f'{r:.2f}' for r in ratios)})")


def test_criterion_11_oracle_transport_fidelity(sa_context):
    enc, train, head = sa_context
    server = OracleServer(enc, "127.0.0.1:0")
    server.start_background()
    try:
        remote = RemoteOracle(server.bound_address)
        local = InProcessOracle(enc)
        batch = train.images[:32]
        embeds_equal = remote.embed(batch).tobytes() == local.embed(batch).tobytes()

        cfg = GezoConfig(epochs=5)
        art_remote = learn_ude_gezo(remote, head, train.images, train.sa_labels,
                                    cfg, 0)
        art_local = learn_ude_gezo(local, head, train.images, train.sa_labels,
                                   cfg, 0)
        eps_equal = art_remote.eps.tobytes() == art_local.eps.tobytes()
        remote.close()
    finally:
        server.shutdown()
    check(embeds_equal and eps_equal, "criterion 11 (transport fidelity)",
          f"remote embeddings bit-identical: {embeds_equal}; zeroth-order edit "
          f"over the wire byte-for-byte equal: {eps_equal}")


def test_criterion_12_reduction_identity(sa_context):
    from ude.editing import train_fair_disease

    enc, train, _ = sa_context
    cfg = TrainConfig("adamw", 1.25e-4, epochs=50, batch_size=8)
    zeros = np.zeros(INPUT_DIM, dtype=np.float32)
    [(via_edit, _)] = train_fair_disease(InProcessOracle(enc), [zeros], train.images,
                                         train.disease_labels, cfg, 123)
    plain, _ = train_head(InProcessOracle(enc), train.images,
                          train.disease_labels, cfg, 123)
    identical = head_bytes(via_edit) == head_bytes(plain)

    # the pipeline's baseline rows go through exactly this zero-edit path:
    # the one disease stage trains both heads through it, it is the stage
    # table's train-disease body, and the CLI and the in-memory run both go
    # through the one runner of that table
    import inspect

    from ude import cli, pipeline
    src = inspect.getsource(pipeline.train_disease)
    structural = (src.count("train_fair_disease(") >= 2 and "zeros" in src
                  and pipeline.STAGES["train_disease"].body is pipeline.train_disease
                  and all("run_stages" in runner.__code__.co_names
                          for runner in (cli._dispatch, pipeline.run_experiment)))
    check(identical and structural, "criterion 12 (reduction identity)",
          f"zero-edit training bit-identical to plain baseline: {identical}; "
          f"baseline reports produced through the zero-edit path: {structural}")


# (mode, seed) -> sha256 of the default-config edit's eps bytes and of the
# ERM and debiased reports' asdict JSON. A change that is not meant to move
# the default-config numbers (a speedup, a refactor) must leave them as they are.
PINNED_OUTPUTS = {
    ("whitebox", 1): ("3787fce3083015643c0945093f9417b1e78149ea83a34756615268aaf0dad604",
                     "b0db1ad98cb5a445737d795d24f5344e9aa5c3a476be458289f0429db4573189",
                     "1ce0bbd11d80c4bafd302abadaf54b40dd424a5b3f8e6601c8b627cacfee042a"),
    ("whitebox", 2): ("b8349da86d8d2adf79ba8703047f791df21e3eeff8728ec8b9c874f56138f0cf",
                     "8d99298558a87046e5b6d3de9a7a8ca0499c6438c258efe3efa1cbfd2919002a",
                     "3ac51c68dd0d12f03d97c3f9e64465131a783338d0d52377666ac35db015fae9"),
    ("whitebox", 3): ("e59ff88ee79bd622418719a83d4a5ca18bba6846fdbe6374c7fba23096089a4b",
                     "14e892766431ed124b908de357d86417382e0764c6894ac9e1cfce24123f1320",
                     "8e949e136f81db53bed39572a37152af3b27648f4316346703042f6cf142fb3e"),
    ("whitebox", 4): ("dc683364e65405e554af2fee63a6d8aca446b70a9989dc4d96dad2dd2d72157d",
                     "62b73d262e34c3c18717455ee1e2fd7651bd704270b0804a326132b4866b1ab8",
                     "607718357659c34d9cd791c926a7b231e62f70d8e9cb53f9997332787e77481d"),
    ("whitebox", 5): ("176e40f00aee2424c7bda79c0c2186d8c7d93a705e390519d7bbe67e3952dd7e",
                     "97e5e44a6cec81e15ae31b2bc33b96497e493248fc5db9c948574062aed53489",
                     "691f74c980f53faccfc3221733fad1e6cab10674804ecbc79b6d41d7d42b6214"),
    ("gezo", 1): ("95c6704b27dde55a19bc5a505373045cd4cd33f81f01ef02b1c29157b8f7fe7a",
                 "b0db1ad98cb5a445737d795d24f5344e9aa5c3a476be458289f0429db4573189",
                 "6e735e34de7f6674ef007f47a816739edc121ea708fb26ecdfb4bbb716c1f5c6"),
    ("gezo", 2): ("808fdd2041f616d651b25f7e3fccac3084c201c4dd080e05657ff7f84d61067a",
                 "8d99298558a87046e5b6d3de9a7a8ca0499c6438c258efe3efa1cbfd2919002a",
                 "f5fbfbff858bf94cc90bf8d5765990927712b0512d02f10a881dee89c68fbe1a"),
    ("gezo", 3): ("cdfd0d34084d9956c4af84543108055a9b8a1087e2e0600a1ed4fce7d15ede61",
                 "14e892766431ed124b908de357d86417382e0764c6894ac9e1cfce24123f1320",
                 "a8f5166e3122cca0ad03973cf0c28127af27e6728051277b2267285cf44f39b6"),
    ("gezo", 4): ("66204ec58cbab6b8f691891a8cdeab80c394709a90d667bb59aef9ca286c1d4b",
                 "62b73d262e34c3c18717455ee1e2fd7651bd704270b0804a326132b4866b1ab8",
                 "cc1cb6aa770756373fd32c8c05d08f9f318f895014ee9ade60be7fadef500b79"),
    ("gezo", 5): ("888805945ba67af6f72b478754d613b25c6930a7d959af99489be05cf276afe2",
                 "97e5e44a6cec81e15ae31b2bc33b96497e493248fc5db9c948574062aed53489",
                 "92e538d0bf0b0bd7de4cd6531680ff0de937f3701d1562c0bdb998a32141b1d8"),
}


# the host the digests above were taken on: the white-box edits follow the
# bytes of sgemm, whose kernel OpenBLAS picks at run time, and of float32
# tanh and exp, whose loops numpy dispatches by SIMD level
PINNED_HOST = "BLAS kernel SkylakeX, numpy dispatch X86_V3, X86_V4, AVX512_ICL"


def _host_kernels() -> str:
    """The BLAS kernel numpy's OpenBLAS runs here (None when the library
    cannot say) and numpy's enabled dispatch targets, as PINNED_HOST
    names them."""
    from numpy._core import _multiarray_umath

    try:
        corename = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_corename64_
    except AttributeError:
        kernel = None
    else:
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        kernel = corename().decode()
    simd = np.show_config(mode="dicts")["SIMD Extensions"].get("found", [])
    return f"BLAS kernel {kernel}, numpy dispatch {', '.join(simd) or 'none'}"


def _output_digests(result) -> tuple[str, str, str]:
    reports = (json.dumps(asdict(r), sort_keys=True).encode()
               for r in (result.erm_report, result.ude_report))
    return tuple(hashlib.sha256(blob).hexdigest()
                 for blob in (result.edit.eps.tobytes(), *reports))


def test_default_config_outputs_are_pinned(wb_results, gz_results):
    results = {("whitebox", seed): r for seed, (r, _) in wb_results.items()}
    results.update({("gezo", seed): r for seed, r in gz_results.items()})
    # each changed run, with which of its digests moved
    changed = {}
    for key, r in sorted(results.items()):
        moved = [what for what, got, want in zip(("edit", "ERM report", "debiased report"),
                                                  _output_digests(r), PINNED_OUTPUTS[key])
                 if got != want]
        if moved:
            changed[key] = moved
    check(sorted(results) == sorted(PINNED_OUTPUTS) and not changed,
          "default-config outputs pinned",
          f"{len(results)} runs; edits or reports that differ from the pinned "
          f"bytes: {changed or 'none'}; ran on {_host_kernels()}, pinned on "
          f"{PINNED_HOST}")
