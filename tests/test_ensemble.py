import copy
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edenet.data import (BLOCK_ROWS as CHUNK, Dataset, Rows, ScalingStats, apply_scale,
                         fit_scale, generate_synthetic, load_csv, load_training_rows)
from edenet.ensemble import (
    EnsembleModel,
    EpochTrace,
    SampleWeights,
    TrainConfig,
    draw_batch_indices,
    ensemble_score,
    init_ensemble,
    train_ensemble,
    training_streams,
    update_sample_weights,
    write_trace_csv,
)
from edenet.errors import ConfigError, ShapeError, TrainingDivergedError, from_fields
from edenet.layers import Workspace
from edenet.model import (
    EdeNet,
    anomaly_score,
    encoding_loss,
    loss_and_grads,
    make_arch,
    row_chunks,
)
from edenet.rng import make_rng
from kdd_shaped import write_kdd_rows
from oracles import block_scores, lone_loss_and_grads, textbook_optimizer

SMALL = {"hidden_sizes": (8, 5), "latent_dim": 2}
LSTM_SMALL = {"encoder_kind": "lstm", "latent_dim": 2, "hidden_dim": 4, "seq_len": 2}


def small_ensemble(n_members=2, seed=0, d=6):
    return init_ensemble(make_arch(d, SMALL), n_members, seed=seed)


# ---------------------------------------------------------------------------
# config


def test_train_config_defaults_resolve_iters():
    cfg = TrainConfig()
    assert cfg.resolved_iters(n_samples=100, n_members=3) == 3 * 2  # ceil(100/64)=2
    assert TrainConfig(iters_per_epoch=7).resolved_iters(100, 3) == 7


@pytest.mark.parametrize("bad", [
    {"epochs": -1},
    {"batch_size": 0},
    {"iters_per_epoch": 0},
    {"lr": 0.0},
    pytest.param({"seed": -1}, id="bad11"),
])
def test_train_config_validation(bad):
    """Each refusal names the field it refuses."""
    [name] = bad
    with pytest.raises(ConfigError, match=name):
        TrainConfig(**bad)


def test_train_config_zero_epochs_allowed():
    assert TrainConfig(epochs=0).epochs == 0


def test_train_config_dict_round_trip():
    cfg = TrainConfig(epochs=3, lr=0.01, reweight=False, seed=9)
    assert from_fields(TrainConfig, dataclasses.asdict(cfg), "train") == cfg
    for unknown in ({"momentum": 0.9}, {"optimizer": "adam"}):
        with pytest.raises(ConfigError, match=re.escape(f"train has unknown keys: {list(unknown)}")):
            from_fields(TrainConfig, unknown, "train")


# ---------------------------------------------------------------------------
# weights


def test_sample_weights_must_be_distribution():
    with pytest.raises(ValueError):
        SampleWeights(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        SampleWeights(np.array([1.5, -0.5]))
    with pytest.raises(ShapeError):
        SampleWeights(np.zeros((2, 2)))
    assert np.allclose(SampleWeights.uniform(4).values, 0.25)


def test_update_sample_weights_matches_formula():
    raw = np.array([0.2, 0.9, 0.4, 0.2])
    eps = 0.05
    s = (raw - raw.min()) / (raw.max() - raw.min())
    expected = (s + eps) / (s + eps).sum()
    got = update_sample_weights(raw, eps).values
    assert np.allclose(got, expected, atol=1e-12)


def test_update_sample_weights_constant_scores_uniform():
    w = update_sample_weights(np.full(5, 3.3), 0.05).values
    assert np.allclose(w, 0.2, atol=1e-12)


def test_update_sample_weights_requires_positive_eps():
    with pytest.raises(ValueError):
        update_sample_weights(np.array([1.0, 2.0]), 0.0)


@given(st.lists(st.integers(0, 10**6), min_size=2, max_size=50),
       st.floats(0.01, 1.0))
def test_update_sample_weights_properties(scores, eps):
    raw = np.array(scores, dtype=np.float64)
    w = update_sample_weights(raw, eps).values
    assert abs(w.sum() - 1.0) <= 1e-12
    assert np.all(w > 0)
    for i in range(len(raw)):
        for j in range(len(raw)):
            if raw[i] > raw[j]:
                assert w[i] > w[j]
            elif raw[i] == raw[j]:
                assert w[i] == w[j]


@pytest.mark.parametrize("n", [2000, 100_000])
def test_draw_matches_generator_choice(n):
    """draw_batch_indices reimplements Generator.choice(n, p=w) over a CDF
    built once; pin it to numpy so a change in choice shows up here."""
    weights = update_sample_weights(make_rng(n).gamma(0.5, size=n))
    assert weights.values.max() > 5 * weights.values.min()  # far from uniform
    ours, ref = make_rng(8), make_rng(8)
    for batch_size in (64, 64, 1, 257, 64):
        got = draw_batch_indices(ours, n, batch_size, weights)
        want = ref.choice(n, size=batch_size, replace=True, p=weights.values)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert ours.bit_generator.state == ref.bit_generator.state


def test_draw_rejects_row_count_mismatch():
    with pytest.raises(ShapeError):
        draw_batch_indices(make_rng(0), 5, 3, SampleWeights.uniform(4))


# ---------------------------------------------------------------------------
# ensemble structure


def test_init_ensemble_members_differ_but_share_spec():
    ens = small_ensemble(3, seed=1)
    assert ens.size == 3
    a, b = ens.members[0], ens.members[1]
    assert a.spec == b.spec == ens.spec
    assert not np.array_equal(a.params()[0], b.params()[0])


def test_init_ensemble_is_seed_deterministic():
    p1 = small_ensemble(2, seed=4).members[1].params()[0]
    p2 = small_ensemble(2, seed=4).members[1].params()[0]
    assert np.array_equal(p1, p2)


def test_init_ensemble_rejects_bad_size():
    with pytest.raises(ConfigError):
        small_ensemble(0)


def test_ensemble_model_rejects_mixed_specs():
    ens = small_ensemble(2)
    other = EdeNet.initialize(make_arch(6, {"hidden_sizes": (4, 3), "latent_dim": 2}),
                              make_rng(0))
    with pytest.raises(ValueError):
        EnsembleModel(spec=ens.spec, members=[ens.members[0], other])


def test_ensemble_score_is_member_mean():
    ens = small_ensemble(3, seed=2)
    x = make_rng(3).standard_normal((7, 6))
    member_scores = np.stack([block_scores(m, x) for m in ens.members])
    assert np.allclose(ensemble_score(ens, Dataset(features=x)), member_scores.mean(axis=0),
                       atol=1e-12)


def test_ensemble_score_member_permutation_invariant():
    ens = small_ensemble(4, seed=5)
    x = Dataset(features=make_rng(6).standard_normal((5, 6)))
    base = ensemble_score(ens, x)
    perm = EnsembleModel(spec=ens.spec, members=ens.members[::-1], seed=ens.seed)
    assert np.allclose(ensemble_score(perm, x), base, atol=1e-12)


# default widths: at these, a product over more than CHUNK rows differs in
# the last bits from the same rows' block products, so scoring that skips
# the block split fails the test below
@pytest.mark.parametrize("arch", [{}, {"encoder_kind": "lstm", "seq_len": 2}],
                         ids=["ff", "lstm"])
@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_scores_are_training_forward_per_block(n, arch):
    """Around the block edges, a member's scores are the encoding losses
    of training's cached forward run on each CHUNK-row slice, and the
    ensemble score is their mean summed in member order."""
    ens = init_ensemble(make_arch(10, arch), 3, seed=4)
    x = make_rng(5).standard_normal((n, 10))
    total = np.zeros(n)
    for member in ens.members:
        expect = np.empty(n)
        lo = 0
        while lo < n:
            hi = min(lo + CHUNK, n)
            z, _, z_prime, _ = member._forward_cached(x[lo:hi], Workspace())
            expect[lo:hi] = encoding_loss(z, z_prime)
            lo = hi
        assert np.array_equal(block_scores(member, x), expect)
        total += expect
    assert np.array_equal(ensemble_score(ens, Dataset(features=x)), total / 3)


SCORE_ARCHS = {"ff": {}, "lstm": {"encoder_kind": "lstm", "recurrent_layers": 2, "seq_len": 3}}


@pytest.mark.parametrize("arch", sorted(SCORE_ARCHS))
def test_ensemble_score_carries_nothing_between_blocks_or_calls(arch):
    """ensemble_score shares one workspace over its blocks and members. On
    two full blocks and 3 rows, then on 700 rows, it gives what per-block,
    per-member anomaly_score calls give, each on a fresh workspace."""
    ens = init_ensemble(make_arch(10, SCORE_ARCHS[arch]), 3, seed=6)
    rng = make_rng(7)
    for n, scale in [(2 * CHUNK + 3, 1.0), (700, 3.0)]:
        x = scale * rng.standard_normal((n, 10))
        expect = np.zeros(n)
        for rows in row_chunks(n):
            for member in ens.members:
                expect[rows] += anomaly_score(member, x[rows], Workspace())
        assert np.array_equal(ensemble_score(ens, Dataset(features=x)), expect / 3)


@pytest.mark.parametrize("arch", sorted(SCORE_ARCHS))
def test_returned_arrays_survive_a_second_call(arch):
    """No array that infer, anomaly_score or ensemble_score returns is a
    view of a buffer that a later call writes into, also where the calls
    share a workspace."""
    ens = init_ensemble(make_arch(10, SCORE_ARCHS[arch]), 2, seed=8)
    net, rng = ens.members[0], make_rng(9)
    # fewer rows the second time: a smaller take reuses a buffer, a larger
    # one would replace it
    x1, x2 = rng.standard_normal((90, 10)), 3.0 * rng.standard_normal((40, 10))
    work = Workspace()
    first = [*net.infer(x1, Workspace()), *net.infer(x1, work),
             anomaly_score(net, x1, Workspace()), anomaly_score(net, x1, work),
             ensemble_score(ens, Dataset(features=x1))]
    kept = [a.copy() for a in first]
    net.infer(x2, Workspace())
    net.infer(x2, work)
    anomaly_score(net, x2, Workspace())
    anomaly_score(net, x2, work)
    ensemble_score(ens, Dataset(features=x2))
    for a, b in zip(first, kept):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("arch", sorted(SCORE_ARCHS))
def test_scoring_into_a_training_workspace_matches_a_fresh_call(arch):
    """The reweight pass scores into the workspace that holds training's
    LSTM caches and temporaries. With that workspace holding a training
    round's buffers and an earlier call's blocks, all then overwritten
    with NaN, the scores equal a fresh call's bit for bit."""
    ens = init_ensemble(make_arch(10, SCORE_ARCHS[arch]), 3, seed=10)
    rng = make_rng(11)
    x = Dataset(features=rng.standard_normal((CHUNK + 5, 10)))
    block = np.stack([m.flat for m in ens.members])
    nets, grads = ens.members[0].bind(block), ens.members[0].bind(np.empty_like(block))
    work = Workspace()
    loss_and_grads(nets, rng.standard_normal((3, 16, 10)), work, grads)
    ensemble_score(ens, Dataset(features=3.0 * rng.standard_normal((2 * CHUNK, 10))), work)
    for buf in work._buffers.values():
        buf.fill(np.nan)
    assert np.array_equal(ensemble_score(ens, x, work), ensemble_score(ens, x))


@pytest.mark.parametrize("arch,widest", [
    ({}, 64),
    ({"encoder_kind": "lstm", "recurrent_layers": 2, "seq_len": 3}, 4 * 32),
], ids=["ff", "lstm"])
def test_ensemble_score_memory_is_bounded_by_the_block(arch, widest):
    """The traced peak of scoring 50k rows holds the scores and one
    block's activations, not a whole-matrix forward: a whole-matrix
    forward with its caches peaked at 101 MB (ff) and 1368 MB (lstm)."""
    n = 50_000
    ens = init_ensemble(make_arch(40, arch), 3, seed=1)
    x = Dataset(features=make_rng(2).standard_normal((n, 40)))
    # the running sum and its mean, plus at most 16 floats per row for
    # each unit of the widest layer (default hidden sizes: 64 wide for ff,
    # four 32-wide gates for lstm)
    bound = 2 * n * 8 + 16 * CHUNK * widest * 8
    tracemalloc.start()
    try:
        ensemble_score(ens, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


SCALED_ROWS = 2 * CHUNK + 352


def _dense_pair(spread):
    """Training rows and SCALED_ROWS raw rows of width 6, the raw ones
    `spread` times as wide as the training ones."""
    rng = make_rng(12)
    return (Dataset(features=rng.standard_normal((400, 6))),
            Dataset(features=spread * rng.standard_normal((SCALED_ROWS, 6))))


def _kdd_pair(tmp_path):
    """300 KDD-shaped training rows with land "0" on every row, and
    SCALED_ROWS others where land is drawn: land=1 is a one-hot column
    constant 0 in training and set in some raw rows."""
    schema = write_kdd_rows(tmp_path / "train.csv", 300, seed=13, oov_service=True,
                            constant_land=True)
    write_kdd_rows(tmp_path / "raw.csv", SCALED_ROWS, seed=14, oov_service=True)
    train = load_training_rows(tmp_path / "train.csv", schema, scale=False)
    return train, load_csv(tmp_path / "raw.csv", schema)


@pytest.mark.parametrize("case", ["dense", "kdd-constant-one-hot", "clipped"])
def test_ensemble_score_applies_the_scaling_the_ensemble_records(case, tmp_path):
    """An ensemble that records scaling scores raw rows to the bytes its
    nets give, unrecorded, on apply_scale's copy of those rows."""
    train, raw = (_kdd_pair(tmp_path) if case.startswith("kdd")
                  else _dense_pair(4.0 if case == "clipped" else 0.5))
    stats = fit_scale(train).scaling_stats
    scaled = apply_scale(raw, stats)
    if case == "clipped":
        assert (scaled.features == -0.5).any() and (scaled.features == 1.5).any()
    if case.startswith("kdd"):
        land1 = raw.column_meta.index("land=1")
        assert stats.span[land1] == 0 and raw.rows.column(land1).any()
    ens = init_ensemble(make_arch(raw.n_features, SMALL), 2, seed=15)
    recorded = dataclasses.replace(ens, columns=raw.feature_names(), scaling=stats)
    assert ensemble_score(recorded, raw).tobytes() == ensemble_score(ens, scaled).tobytes()


def test_an_ensemble_that_records_scaling_refuses_a_scaled_dataset():
    """ensemble_score scales a Dataset's rows by the stats the ensemble
    records, so a Dataset that carries scaling_stats would be scaled twice:
    it is refused. An ensemble that records no scaling takes it."""
    train, raw = _dense_pair(0.5)
    stats = fit_scale(train).scaling_stats
    ens = init_ensemble(make_arch(raw.n_features, SMALL), 2, seed=15)
    recorded = dataclasses.replace(ens, columns=raw.feature_names(), scaling=stats)
    scaled = apply_scale(raw, stats)
    with pytest.raises(ValueError, match="input is already scaled"):
        ensemble_score(recorded, scaled)
    assert ensemble_score(ens, scaled).tobytes() == ensemble_score(recorded, raw).tobytes()


def test_recorded_scaling_that_moves_a_one_hot_column_is_refused(tmp_path):
    """The one-hot check apply_scale makes holds for the stats an ensemble
    records, naming the Dataset's column."""
    train, raw = _kdd_pair(tmp_path)
    stats = fit_scale(train).scaling_stats
    j = raw.column_meta.index("land=1")
    stats.col_min[j], stats.col_max[j] = 0.0, 2.0
    ens = dataclasses.replace(init_ensemble(make_arch(raw.n_features, SMALL), 1),
                              columns=raw.feature_names(), scaling=stats)
    with pytest.raises(ValueError, match="one-hot column 'land=1' off {0, 1}: min 0.0, max 2.0"):
        ensemble_score(ens, raw)


# ---------------------------------------------------------------------------
# training


def test_zero_epochs_leaves_model_unchanged():
    ens = small_ensemble(2, seed=7)
    before = [p.copy() for p in ens.members[0].params()]
    _, trace = train_ensemble(ens, Dataset(features=make_rng(8).standard_normal((30, 6))),
                              TrainConfig(epochs=0, seed=7))
    assert trace == []
    for old, new in zip(before, ens.members[0].params()):
        assert np.array_equal(old, new)


def test_trace_has_one_row_per_epoch_with_consistent_parts():
    ens = small_ensemble(2, seed=9)
    x = Dataset(features=make_rng(10).standard_normal((40, 6)))
    cfg = TrainConfig(epochs=4, batch_size=8, seed=9)
    _, trace = train_ensemble(ens, x, cfg)
    assert [row.epoch for row in trace] == [0, 1, 2, 3]
    alpha, beta = ens.spec.alpha, ens.spec.beta
    for row in trace:
        assert abs(row.combined - (alpha * row.mean_lr + beta * row.mean_le)) < 1e-9


def test_each_iteration_updates_exactly_one_member():
    ens = small_ensemble(3, seed=11)
    before = [[p.copy() for p in m.params()] for m in ens.members]
    cfg = TrainConfig(epochs=1, iters_per_epoch=1, batch_size=4,
                      reweight=False, seed=11)
    train_ensemble(ens, Dataset(features=make_rng(12).standard_normal((20, 6))), cfg)
    changed = sum(
        any(not np.array_equal(o, n) for o, n in zip(old, member.params()))
        for old, member in zip(before, ens.members)
    )
    assert changed == 1


def test_training_is_seed_deterministic():
    x = Dataset(features=make_rng(13).standard_normal((50, 6)))
    cfg = TrainConfig(epochs=2, batch_size=16, seed=21)
    a = small_ensemble(2, seed=21)
    b = small_ensemble(2, seed=21)
    train_ensemble(a, x, cfg)
    train_ensemble(b, x, cfg)
    for ma, mb in zip(a.members, b.members):
        for pa, pb in zip(ma.params(), mb.params()):
            assert np.array_equal(pa, pb)


def test_non_finite_loss_raises_with_location():
    ens = small_ensemble(1, seed=14)
    ens.members[0].params()[0][...] = np.nan
    with pytest.raises(TrainingDivergedError) as exc:
        train_ensemble(ens, Dataset(features=make_rng(15).standard_normal((20, 6))),
                       TrainConfig(epochs=1, seed=14))
    assert exc.value.epoch == 0 and exc.value.iteration == 0
    assert "epoch 0" in str(exc.value)


def test_training_rejects_width_mismatch_and_empty_data():
    ens = small_ensemble(1)
    with pytest.raises(ShapeError):
        train_ensemble(ens, Dataset(features=np.zeros((10, 5))), TrainConfig(epochs=1))
    with pytest.raises(ValueError):
        train_ensemble(ens, Dataset(features=np.zeros((0, 6))), TrainConfig(epochs=1))


def test_training_an_ensemble_that_records_scaling_raises_and_changes_nothing():
    """Its reweight pass would scale the already scaled training rows a
    second time."""
    ens = small_ensemble(2)
    recorded = dataclasses.replace(ens, columns=[f"x{i}" for i in range(6)],
                                   scaling=ScalingStats(np.zeros(6), np.ones(6)))
    before = [m.flat.copy() for m in recorded.members]
    with pytest.raises(ValueError, match="records scaling would scale"):
        train_ensemble(recorded, Dataset(features=make_rng(17).random((40, 6))),
                       TrainConfig(epochs=1, batch_size=8))
    assert all(m.flat.tobytes() == b.tobytes() for m, b in zip(recorded.members, before))


def reference_training(ens: EnsembleModel, x: np.ndarray, cfg: TrainConfig):
    """One iteration at a time, as a plain oracle for train_ensemble: each
    iteration picks a member from training_streams, draws its batch, runs
    one lone_loss_and_grads and steps that member's own textbook_optimizer,
    array by array. Works on copies; returns (members, trace, picks), picks[e]
    being epoch e's member index per iteration."""
    members = [copy.deepcopy(m) for m in ens.members]
    alone = EnsembleModel(ens.spec, members)
    member_rng, batch_rng = training_streams(cfg.seed)
    optim = [textbook_optimizer(cfg, m.params()) for m in members]
    n = x.shape[0]
    iters = cfg.resolved_iters(n, len(members))
    weights = SampleWeights.uniform(n)
    trace, picks = [], []
    for epoch in range(cfg.epochs):
        if cfg.reweight:
            weights = update_sample_weights(ensemble_score(alone, Dataset(features=x)), 0.05)
        sum_lr = sum_le = sum_combined = 0.0
        picks.append([])
        for it in range(iters):
            j = int(member_rng.integers(len(members)))
            idx = draw_batch_indices(batch_rng, n, cfg.batch_size, weights)
            combined, mean_lr, mean_le, grads = lone_loss_and_grads(members[j], x[idx])
            if not math.isfinite(combined):
                raise TrainingDivergedError(epoch, it, combined)
            optim[j](grads)
            picks[-1].append(j)
            sum_lr += mean_lr
            sum_le += mean_le
            sum_combined += combined
        trace.append(EpochTrace(epoch, sum_lr / iters, sum_le / iters, sum_combined / iters))
    return members, trace, picks


@pytest.mark.parametrize("reweight", [False, True])
def test_single_member_ensemble_matches_direct_loop(reweight):
    x = make_rng(30).standard_normal((60, 6))
    cfg = TrainConfig(epochs=3, batch_size=8, iters_per_epoch=5,
                      reweight=reweight, seed=31)
    ens = init_ensemble(make_arch(6, SMALL), 1, seed=cfg.seed)
    [oracle], _, _ = reference_training(ens, x, cfg)
    train_ensemble(ens, Dataset(features=x), cfg)
    for pa, pb in zip(ens.members[0].params(), oracle.params()):
        assert np.max(np.abs(pa - pb)) <= 1e-12
    assert np.max(np.abs(ensemble_score(ens, Dataset(features=x))
                         - block_scores(oracle, x))) <= 1e-12


@pytest.mark.parametrize("arch", [SMALL, LSTM_SMALL], ids=["ff", "lstm"])
def test_flat_training_is_bit_exact_against_per_array_loop(arch):
    """train_ensemble steps one flat vector per member; the oracle steps
    each parameter array on its own. The update is elementwise, so the two
    must agree to the last bit."""
    x = make_rng(32).standard_normal((60, 6))
    cfg = TrainConfig(epochs=3, batch_size=8, iters_per_epoch=5, lr=0.01, reweight=True,
                      seed=33)
    ens = init_ensemble(make_arch(6, arch), 1, seed=cfg.seed)
    [oracle], _, _ = reference_training(ens, x, cfg)
    train_ensemble(ens, Dataset(features=x), cfg)
    assert np.array_equal(ens.members[0].flat, oracle.flat)
    for pa, pb in zip(ens.members[0].params(), oracle.params()):
        assert np.array_equal(pa, pb)


LSTM_TWO_LAYERS = {**LSTM_SMALL, "recurrent_layers": 2}


@pytest.mark.parametrize("reweight", [False, True], ids=["plain", "reweight"])
@pytest.mark.parametrize("arch", [SMALL, LSTM_SMALL, LSTM_TWO_LAYERS],
                         ids=["ff", "lstm1", "lstm2"])
@pytest.mark.parametrize("n_members", [2, 3, 5])
def test_lockstep_training_is_bit_exact_against_one_at_a_time(n_members, arch, reweight):
    """The members step in lockstep rounds; the oracle steps one member per
    iteration. Every member's parameters and every trace row must agree to
    the last bit, also when the members take uneven numbers of steps."""
    x = make_rng(34).standard_normal((40, 6))
    cfg = TrainConfig(epochs=3, batch_size=8, iters_per_epoch=7, lr=0.01,
                      reweight=reweight, seed=35 + n_members)
    ens = init_ensemble(make_arch(6, arch), n_members, seed=cfg.seed)
    oracle, oracle_trace, picks = reference_training(ens, x, cfg)
    _, trace = train_ensemble(ens, Dataset(features=x), cfg)
    # 7 iterations over 2, 3 or 5 members: some member steps more often
    for epoch_picks in picks:
        counts = np.bincount(epoch_picks, minlength=n_members)
        assert counts.max() > counts.min()
    for member, expected in zip(ens.members, oracle):
        assert np.array_equal(member.flat, expected.flat)
    assert trace == oracle_trace


def test_divergence_reports_the_first_iteration_in_iteration_order():
    """Every member diverges at its first step. The first pick of seed 4
    is member 2, so a loop reporting in member or round order would name
    a later iteration."""
    cfg = TrainConfig(epochs=1, batch_size=4, iters_per_epoch=9, reweight=False, seed=4)
    member_rng, _ = training_streams(cfg.seed)
    assert int(member_rng.integers(3)) != 0
    ens = small_ensemble(3, seed=cfg.seed)
    for member in ens.members:
        member.flat[...] = np.nan
    with pytest.raises(TrainingDivergedError) as exc:
        train_ensemble(ens, Dataset(features=make_rng(16).standard_normal((20, 6))), cfg)
    assert exc.value.epoch == 0 and exc.value.iteration == 0


@pytest.mark.parametrize("bad_member", [0, 1, 2])
def test_one_diverging_member_fails_where_the_direct_loop_fails(bad_member):
    """Only one member diverges. Its first step may run in an earlier
    round than other members' earlier iterations; the error must still
    name the iteration the one-at-a-time loop stops at."""
    x = make_rng(17).standard_normal((20, 6))
    cfg = TrainConfig(epochs=2, batch_size=4, iters_per_epoch=9, reweight=False, seed=4)
    ens = small_ensemble(3, seed=cfg.seed)
    ens.members[bad_member].flat[...] = np.nan
    with pytest.raises(TrainingDivergedError) as expected:
        reference_training(ens, x, cfg)
    with pytest.raises(TrainingDivergedError) as exc:
        train_ensemble(ens, Dataset(features=x), cfg)
    assert (exc.value.epoch, exc.value.iteration) == (expected.value.epoch,
                                                      expected.value.iteration)


def test_divergence_in_a_later_round_can_come_first():
    """Member 0 is NaN from the start; its first step is iteration 2. An
    Adam step of lr 1e300 overflows the other members, so member 2, picked
    at iterations 0 and 1, diverges at its second step: round 1, but
    iteration 1. The error must name iteration 1."""
    x = make_rng(17).standard_normal((20, 6))
    cfg = TrainConfig(epochs=1, batch_size=4, iters_per_epoch=9, lr=1e300, reweight=False,
                      seed=4)
    ens = small_ensemble(3, seed=cfg.seed)
    ens.members[0].flat[...] = np.nan
    with np.errstate(all="ignore"), pytest.raises(TrainingDivergedError) as exc:
        train_ensemble(ens, Dataset(features=x), cfg)
    assert exc.value.iteration == 1


def test_trace_csv_round_trips_floats(tmp_path):
    trace = [EpochTrace(0, 0.5, 0.25, 0.75), EpochTrace(1, 1 / 3, 0.1, 1 / 3 + 0.1)]
    path = tmp_path / "trace.csv"
    write_trace_csv(path, trace)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,mean_Lr,mean_Le,combined"
    cells = lines[2].split(",")
    assert int(cells[0]) == 1
    assert float(cells[1]) == 1 / 3


# ---------------------------------------------------------------------------
# rows held as a float64 part and a uint8 one-hot part


def split_rows(x, hot):
    """x with its 0/1 columns at positions `hot` held as the uint8 part."""
    hot = np.asarray(hot)
    num = np.setdiff1d(np.arange(x.shape[1]), hot)
    return Rows(np.ascontiguousarray(x[:, num]), x[:, hot].astype(np.uint8), num, hot)


@pytest.mark.parametrize("arch", [SMALL, LSTM_SMALL], ids=["feedforward", "lstm"])
def test_one_hot_rows_train_and_score_like_their_matrix(arch):
    """More rows than a scoring block, so the reweight pass expands a full
    block and a partial one."""
    rng = make_rng(3)
    x = rng.standard_normal((CHUNK + 300, 7))
    hot = [1, 4, 5]
    x[:, hot] = rng.random((x.shape[0], 3)) < 0.3
    dense, rows = Dataset(features=x), Dataset(rows=split_rows(x, hot))
    cfg = TrainConfig(epochs=2, batch_size=64, seed=5)
    dense_ens, dense_trace = train_ensemble(init_ensemble(make_arch(7, arch), 3, seed=1),
                                            dense, cfg)
    store_ens, store_trace = train_ensemble(init_ensemble(make_arch(7, arch), 3, seed=1),
                                            rows, cfg)
    for a, b in zip(dense_ens.members, store_ens.members):
        assert a.flat.tobytes() == b.flat.tobytes()
    assert store_trace == dense_trace
    assert ensemble_score(store_ens, rows).tobytes() == ensemble_score(dense_ens, dense).tobytes()


def test_only_a_dataset_is_taken_and_its_rows_are_checked():
    """A matrix or a bare Rows carries no column names and no
    scaling_stats, so it cannot be held to the ensemble's record: both
    functions refuse it. That covers the matrix of an apply_scale copy,
    which an ensemble that records scaling would scale a second time. A
    Dataset's numeric part must be finite, and its width the model's."""
    train = fit_scale(generate_synthetic(4, 50, 0, anomaly_shift=4.0, seed=0))
    test = generate_synthetic(4, 8, 2, anomaly_shift=4.0, seed=1)
    ens, _ = train_ensemble(init_ensemble(make_arch(4, SMALL), 2, seed=7), train,
                            TrainConfig(epochs=1, seed=7))
    for given in (test.features, test.rows, apply_scale(test, ens.scaling).features):
        with pytest.raises(TypeError, match="input must be a Dataset"):
            ensemble_score(ens, given)
    for given in (train.features, train.rows):
        with pytest.raises(TypeError, match="training data must be a Dataset"):
            train_ensemble(init_ensemble(make_arch(4, SMALL), 1), given, TrainConfig(epochs=1))

    ens = init_ensemble(make_arch(3, SMALL), 1)
    x = np.array([[0.5, 1.0, 0.0], [np.nan, 0.0, 1.0]])
    for given in (Dataset(features=x), Dataset(rows=split_rows(x, [1, 2]))):
        with pytest.raises(ValueError, match="non-finite"):
            train_ensemble(ens, given, TrainConfig(epochs=1))
        with pytest.raises(ValueError, match="non-finite"):
            ensemble_score(ens, given)
    wide = Dataset(rows=split_rows(np.zeros((2, 4)), [3]))
    with pytest.raises(ShapeError, match="training data has 4 columns, model expects 3"):
        train_ensemble(ens, wide, TrainConfig(epochs=1))
    with pytest.raises(ShapeError, match="input has 4 columns, model expects 3"):
        ensemble_score(ens, wide)
