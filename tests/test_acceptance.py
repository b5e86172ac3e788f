"""Acceptance suite: every test prints one [PASS]/[FAIL] line.

The 5-seed experiment fixtures run the full desk-scale pipeline (in memory)
once per mode and are shared across the directional criteria. Thresholds were
calibrated once against the default configuration and are frozen here.
"""

import math
import time

import numpy as np
import pytest

from ude.editing import edit_objective_batch, edit_objective_grad, learn_ude_whitebox
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
    sa_cfg = TrainConfig(cfg.sa_train.optimizer, cfg.sa_train.lr,
                         cfg.sa_train.epochs, cfg.sa_train.batch_size,
                         seed=derive(cfg, TAG_SA_TRAIN))
    head, _ = train_head(oracle, train.images, train.sa_labels, sa_cfg)
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
    cfg = GezoConfig(epochs=3, seed=0)
    learn_ude_gezo(oracle, head, train.images, train.sa_labels, cfg)
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
    cfg = GezoConfig(local_iters=10, seed=0)
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
    cfg0 = GezoConfig(local_iters=6, momentum=0.0, batch_size=32, seed=0)
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

        cfg = GezoConfig(epochs=5, seed=0)
        art_remote = learn_ude_gezo(remote, head, train.images, train.sa_labels,
                                    cfg)
        art_local = learn_ude_gezo(local, head, train.images, train.sa_labels,
                                   cfg)
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
    cfg = TrainConfig("adamw", 1.25e-4, epochs=50, batch_size=8, seed=123)
    zeros = np.zeros(INPUT_DIM, dtype=np.float32)
    [(via_edit, _)] = train_fair_disease(InProcessOracle(enc), [zeros], train.images,
                                         train.disease_labels, cfg)
    plain, _ = train_head(InProcessOracle(enc), train.images,
                          train.disease_labels, cfg)
    identical = via_edit.param_bytes() == plain.param_bytes()

    # the pipeline's baseline rows go through exactly this zero-edit path:
    # the one disease stage trains both heads through it, and the staged and
    # in-memory runners both call that stage
    import inspect

    from ude import pipeline
    src = inspect.getsource(pipeline.train_disease)
    structural = (src.count("train_fair_disease(") >= 2 and "zeros" in src
                  and all("train_disease" in runner.__code__.co_names
                          for runner in (pipeline.cmd_train_disease,
                                         pipeline.run_experiment)))
    check(identical and structural, "criterion 12 (reduction identity)",
          f"zero-edit training bit-identical to plain baseline: {identical}; "
          f"baseline reports produced through the zero-edit path: {structural}")
