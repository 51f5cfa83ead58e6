import copy
import json
import shutil
import tracemalloc
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edenet.data import Dataset, ScalingStats
from edenet.ensemble import EnsembleModel, ensemble_score, init_ensemble
from edenet.errors import ConfigError, FormatError, ShapeError, from_fields
from edenet.layers import Workspace
from edenet.model import (
    ArchSpec,
    EdeNet,
    anomaly_score,
    default_latent_dim,
    encoding_loss,
    loss_and_grads,
    make_arch,
    net_from_payload,
    normalize_scores,
    reconstruction_loss,
)
from edenet.modelfile import load_model, save_model
from edenet.rng import make_rng
from edenet.svr import fit_svr, svr_to_dict
from oracles import block_scores, lone_loss, lone_loss_and_grads, net_payload

FF = {"hidden_sizes": (10, 6), "latent_dim": 3}
LSTM = {"encoder_kind": "lstm", "latent_dim": 2, "hidden_dim": 5, "seq_len": 2}
EDE_FIXTURE = Path(__file__).resolve().parent / "fixtures" / "ede_net.json"


def small_net(kind="ff", seed=0):
    if kind == "ff":
        spec = make_arch(7, FF)
    else:
        spec = make_arch(8, LSTM)
    return EdeNet.initialize(spec, make_rng(seed))


# ---------------------------------------------------------------------------
# ArchSpec


def test_default_latent_dim_floor():
    assert default_latent_dim(3) == 1
    assert default_latent_dim(4) == 1
    assert default_latent_dim(10) == 2
    assert default_latent_dim(121) == 30


@pytest.mark.parametrize("bad", [
    {"input_dim": 0, "latent_dim": 1},
    {"input_dim": 4, "latent_dim": 0},
    {"input_dim": 4, "latent_dim": 5},
    {"input_dim": 4, "latent_dim": 2, "encoder_kind": "cnn"},
    {"input_dim": 4, "latent_dim": 2, "hidden_sizes": (8,)},
    {"input_dim": 4, "latent_dim": 2, "alpha": -1.0},
    {"input_dim": 4, "latent_dim": 2, "alpha": 0.0, "beta": 0.0},
    {"input_dim": 4, "latent_dim": 2, "encoder_kind": "lstm", "seq_len": 0},
])
def test_arch_spec_validation(bad):
    with pytest.raises(ValueError):
        ArchSpec(**bad)


def test_arch_spec_round_trips_through_dict():
    spec = make_arch(9, {"encoder_kind": "lstm", "seq_len": 3, "alpha": 2.0})
    assert from_fields(ArchSpec, spec.to_dict(), "arch") == spec


def test_make_arch_rejects_unknown_fields():
    with pytest.raises(ValueError):
        make_arch(5, {"depth": 4})


@pytest.mark.parametrize("input_dim", [4, 5])
def test_make_arch_refuses_an_input_dim_override(input_dim):
    """The width is make_arch's first argument; an override may not
    replace it, not even with the same value."""
    with pytest.raises(ConfigError, match="arch input_dim is not a config key"):
        make_arch(4, {"input_dim": input_dim})


def test_lstm_chunking_covers_input():
    spec = make_arch(8, {"encoder_kind": "lstm", "seq_len": 3})
    assert spec.chunk_size == 3  # 3 chunks of 3, one pad column


# ---------------------------------------------------------------------------
# forward structure


def test_zero_params_feedforward_all_outputs_zero():
    net = small_net("ff")
    for p in net.params():
        p[...] = 0.0
    z, xr, zp = net.infer(np.ones((4, 7)), Workspace())
    assert not z.any() and not xr.any() and not zp.any()


@pytest.mark.parametrize("kind,d", [("ff", 7), ("lstm", 8)])
def test_forward_keeps_batch_rows(kind, d):
    net = small_net(kind)
    x = make_rng(3).standard_normal((9, d))
    z, xr, zp = net.infer(x, Workspace())
    assert z.shape[0] == xr.shape[0] == zp.shape[0] == 9
    assert xr.shape == x.shape
    assert z.shape == zp.shape == (9, net.spec.latent_dim)


def test_forward_rejects_wrong_width():
    # scoring checks its input once, then runs the nets unchecked
    net = small_net("ff")
    with pytest.raises(ShapeError, match="input has 6 columns, model expects 7"):
        ensemble_score(alone(net), Dataset(features=np.zeros((2, 6))))


INFER_ARCHS = {
    "ff": {"hidden_sizes": (10, 6), "latent_dim": 3},
    "lstm-1": {"encoder_kind": "lstm", "latent_dim": 3, "hidden_dim": 5, "seq_len": 3},
    "lstm-2": {"encoder_kind": "lstm", "latent_dim": 3, "hidden_dim": 5, "seq_len": 3,
               "recurrent_layers": 2},
}


@pytest.mark.parametrize("members", [None, 3])
@pytest.mark.parametrize("arch", sorted(INFER_ARCHS))
def test_infer_matches_training_forward_bit_for_bit(arch, members):
    """Each stack's cache-free infer gives its forward's output exactly,
    on a lone net and on a member stack over an (I, P) block."""
    spec = make_arch(8, INFER_ARCHS[arch])
    nets = init_ensemble(spec, members or 1, seed=7).members
    if members is None:
        net, lead = nets[0], ()
    else:
        net, lead = nets[0].bind(np.stack([m.flat for m in nets])), (members,)
    x = make_rng(8).standard_normal(lead + (11, 8))
    for stack in (net.e1, net.dec, net.e2):
        expect = stack.forward(x, Workspace())[0]
        got = stack.infer(x, Workspace())
        assert got.shape == expect.shape
        assert np.array_equal(got, expect)
        x = expect


@pytest.mark.parametrize("arch", sorted(INFER_ARCHS))
def test_reused_workspace_gives_what_fresh_stacks_give(arch):
    """Training keeps one workspace and one bound stack per member count
    across rounds. Calls on new batches, with fewer members after more,
    give the losses and gradients of fresh stacks on fresh workspaces:
    no buffer carries anything from one call into the next."""
    nets = init_ensemble(make_arch(8, INFER_ARCHS[arch]), 3, seed=11).members
    block = np.stack([m.flat for m in nets])
    grad_block = np.empty_like(block)
    rng = make_rng(12)
    work, stacks = Workspace(), {}
    for a, scale in [(3, 1.0), (3, 4.0), (2, 0.5), (1, 3.0), (3, 2.0)]:
        x = scale * rng.standard_normal((a, 6, 8))
        if a not in stacks:
            stacks[a] = (nets[0].bind(block[:a]), nets[0].bind(grad_block[:a]))
        got = loss_and_grads(stacks[a][0], x, work, stacks[a][1])
        fresh = nets[0].bind(np.empty((a, block.shape[1])))
        expect = loss_and_grads(nets[0].bind(block[:a].copy()), x, Workspace(), fresh)
        assert got == expect
        assert np.array_equal(grad_block[:a], fresh.flat)


def _feedforward_round(a=3, batch=64):
    """A three-member feed-forward stack over d=8 (hidden widths 64 and
    32), its gradient stack and a batch per member."""
    nets = init_ensemble(make_arch(8), a, seed=3).members
    block = np.stack([m.flat for m in nets])
    grads = nets[0].bind(np.empty_like(block))
    x = make_rng(4).standard_normal((a, batch, 8))
    return nets[0].bind(block), grads, x


def test_a_warmed_training_round_allocates_less_than_one_activation():
    """The dense layers write their activations and temporaries into the
    workspace, so a second round on a warmed one allocates less than one
    (a, B, 64) activation of the widest layer."""
    nets, grads, x = _feedforward_round()
    work, x2 = Workspace(), 2.0 * x
    loss_and_grads(nets, x, work, grads)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss_and_grads(nets, x2, work, grads)
        grown = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert grown < x.shape[0] * x.shape[1] * 64 * 8


def test_training_into_a_nan_filled_workspace_matches_a_fresh_one():
    """Every buffer a feed-forward round reads, it writes first: on a
    workspace whose buffers all hold NaN, the losses and the gradient
    block equal a fresh workspace's bit for bit."""
    nets, grads, x = _feedforward_round()
    work = Workspace()
    loss_and_grads(nets, 3.0 * x, work, grads)
    for buf in work._buffers.values():
        buf.fill(np.nan)
    got = loss_and_grads(nets, x, work, grads)
    got_grads = grads.flat.copy()
    assert got == loss_and_grads(nets, x, Workspace(), grads)
    assert got_grads.tobytes() == grads.flat.tobytes()


def test_e1_and_e2_never_share_arrays():
    net = small_net("ff")
    ids_e1 = {id(p) for p in net.e1.params()}
    assert ids_e1.isdisjoint({id(p) for p in net.e2.params()})


def assert_params_tile_flat(net):
    """Every params() array is a C-contiguous view into net.flat, laid
    out back to back in params() order."""
    base = net.flat.__array_interface__["data"][0]
    offset = 0
    for p in net.params():
        assert np.shares_memory(p, net.flat)
        assert p.flags.c_contiguous
        assert p.__array_interface__["data"][0] == base + offset * p.itemsize
        offset += p.size
    assert offset == net.flat.size


@pytest.mark.parametrize("kind", ["ff", "lstm"])
def test_params_are_views_into_flat(kind):
    spec = small_net(kind).spec
    member = init_ensemble(spec, 2, seed=3).members[1]
    loaded = net_from_payload(spec, net_payload(member))
    dup = copy.deepcopy(member)
    for net in (member, loaded, dup):
        assert_params_tile_flat(net)
        assert np.array_equal(net.flat, member.flat)

    x = make_rng(4).standard_normal((5, spec.input_dim))
    before = block_scores(member, x)
    dup.flat *= 0.5  # a write to the copy's flat reaches its forward pass
    assert not np.array_equal(block_scores(dup, x), before)
    assert np.array_equal(block_scores(member, x), before)
    assert np.array_equal(dup.flat, member.flat * 0.5)


def test_initialize_is_seed_deterministic():
    a, b = small_net("lstm", seed=5), small_net("lstm", seed=5)
    for pa, pb in zip(a.params(), b.params()):
        assert np.array_equal(pa, pb)


# ---------------------------------------------------------------------------
# losses


def test_reconstruction_loss_is_row_euclidean():
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    xr = np.array([[3.0, 4.0], [1.0, 1.0]])
    assert np.allclose(reconstruction_loss(x, xr), [5.0, 0.0])


def test_encoding_loss_is_row_euclidean():
    z = np.array([[1.0, 2.0, 2.0]])
    zp = np.zeros((1, 3))
    assert np.allclose(encoding_loss(z, zp), [3.0])


def test_losses_reject_shape_mismatch():
    with pytest.raises(ShapeError):
        reconstruction_loss(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        encoding_loss(np.zeros((2, 3)), np.zeros((3, 3)))


def test_loss_is_the_batch_mean():
    net = small_net("ff")
    x = make_rng(4).standard_normal((4, 7))
    z, xr, zp = net.infer(x, Workspace())
    per = (net.spec.alpha * reconstruction_loss(x, xr)
           + net.spec.beta * encoding_loss(z, zp))
    assert abs(lone_loss_and_grads(net, x)[0] - per.mean()) < 1e-12


def test_loss_reports_consistent_parts():
    net = small_net("lstm")
    x = make_rng(9).standard_normal((5, 8))
    c, mlr, mle, _ = lone_loss_and_grads(net, x)
    assert abs(c - (net.spec.alpha * mlr + net.spec.beta * mle)) < 1e-12


# ---------------------------------------------------------------------------
# gradient structure


def sampled_gradcheck(net, x, per_param=6, h=1e-5):
    _, _, _, grads = lone_loss_and_grads(net, x)
    for p, g in zip(net.params(), grads):
        count = min(p.size, per_param)
        for k in range(count):
            idx = np.unravel_index((k * 7919) % p.size, p.shape)
            orig = p[idx]
            p[idx] = orig + h
            up = lone_loss(net, x)
            p[idx] = orig - h
            down = lone_loss(net, x)
            p[idx] = orig
            fd = (up - down) / (2 * h)
            assert abs(fd - g[idx]) <= 1e-4 * max(abs(fd), abs(g[idx])) + 1e-8


@pytest.mark.parametrize("kind,d", [("ff", 7), ("lstm", 8)])
def test_gradients_match_finite_differences(kind, d):
    net = small_net(kind, seed=11)
    x = make_rng(12).standard_normal((5, d))
    sampled_gradcheck(net, x)


def test_beta_zero_gives_second_encoder_no_gradient():
    spec = make_arch(7, {**FF, "alpha": 1.0, "beta": 0.0})
    net = EdeNet.initialize(spec, make_rng(1))
    x = make_rng(2).standard_normal((5, 7))
    _, _, _, grads = lone_loss_and_grads(net, x)
    names = net.param_names()
    e2_grads = [g for n, g in zip(names, grads) if n.startswith("e2.")]
    other = [g for n, g in zip(names, grads) if not n.startswith("e2.")]
    assert all(not g.any() for g in e2_grads)
    assert any(g.any() for g in other)


def test_alpha_zero_still_reaches_all_stages():
    # latent-only loss backpropagates through e2, the decoder, and e1
    spec = make_arch(7, {**FF, "alpha": 0.0, "beta": 1.0})
    net = EdeNet.initialize(spec, make_rng(1))
    x = make_rng(2).standard_normal((5, 7))
    _, _, _, grads = lone_loss_and_grads(net, x)
    for prefix in ("e1.", "dec.", "e2."):
        part = [g for n, g in zip(net.param_names(), grads) if n.startswith(prefix)]
        assert any(g.any() for g in part)


def test_perturbing_e2_only_moves_encoding_loss():
    net = small_net("ff", seed=3)
    x = make_rng(4).standard_normal((5, 7))
    z0, xr0, zp0 = net.infer(x, Workspace())
    net.e2.params()[0][...] += 0.1
    z1, xr1, zp1 = net.infer(x, Workspace())
    assert np.array_equal(reconstruction_loss(x, xr0), reconstruction_loss(x, xr1))
    assert not np.allclose(encoding_loss(z0, zp0), encoding_loss(z1, zp1))


# ---------------------------------------------------------------------------
# scores


def test_anomaly_score_equals_encoding_gap():
    net = small_net("ff")
    x = make_rng(5).standard_normal((6, 7))
    z, _, zp = net.infer(x, Workspace())
    assert np.array_equal(anomaly_score(net, x, Workspace()), encoding_loss(z, zp))


def test_normalize_scores_examples():
    assert np.allclose(normalize_scores(np.array([2.0, 4.0, 6.0])), [0, 0.5, 1])
    assert np.array_equal(normalize_scores(np.array([3.0, 3.0, 3.0])), [0, 0, 0])
    assert np.array_equal(normalize_scores(np.array([9.0])), [0.0])


def test_normalize_scores_rejects_empty():
    with pytest.raises(ValueError):
        normalize_scores(np.array([]))


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
def test_normalize_scores_range_and_order(values):
    raw = np.array(values)
    out = normalize_scores(raw)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)
    if raw.max() > raw.min():
        assert out.min() == 0.0 and out.max() == 1.0
    order = np.argsort(raw, kind="stable")
    assert np.all(np.diff(out[order]) >= -1e-12)


# ---------------------------------------------------------------------------
# persistence


def alone(net: EdeNet) -> EnsembleModel:
    return EnsembleModel(net.spec, [net])


@pytest.mark.parametrize("kind", ["ff", "lstm"])
def test_model_file_round_trip_bit_exact(tmp_path, kind):
    net = small_net(kind, seed=17)
    path = tmp_path / "net.json"
    save_model(alone(net), path)
    loaded, = load_model(path).members
    assert loaded.spec == net.spec
    for a, b in zip(net.params(), loaded.params()):
        assert np.array_equal(a, b)


def test_model_file_resave_is_byte_identical(tmp_path):
    ens = replace(alone(small_net("ff", seed=17)), columns=list("abcdefg"),
                  scaling=ScalingStats(np.linspace(-1, 0, 7), np.linspace(0.5, 3, 7)))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(ens, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_int_valued_arch_fields_resave_byte_identical(tmp_path):
    """A config may give a float field as an int; the reloaded spec keeps
    the value as written instead of turning 1 into 1.0."""
    ens = init_ensemble(make_arch(7, {**FF, "alpha": 1, "beta": 2}), 2, seed=3)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_model(ens, p1)
    assert json.loads(p1.read_text())["arch"]["alpha"] == 1
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("changes", [
    {"hidden_dim": "8"}, {"alpha": "1"}, {"hidden_sizes": [8.5, 4]}, {"latent_dim": 2.0},
    {"seq_len": True}, {"encoder_kind": 3},
])
def test_arch_spec_checks_field_types(changes):
    with pytest.raises(ConfigError):
        make_arch(7, changes)


def test_load_model_rejects_bad_marker(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else", "format_version": 1}))
    with pytest.raises(FormatError):
        load_model(path)


def test_load_model_rejects_bad_version(tmp_path):
    path = tmp_path / "net.json"
    save_model(alone(small_net("ff")), path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_model(path)


@pytest.mark.parametrize("version", [True, 1.0])
def test_load_model_rejects_non_int_version(tmp_path, version):
    # both compare equal to 1 in Python but are not the integer version
    path = tmp_path / "net.json"
    save_model(alone(small_net("ff")), path)
    doc = json.loads(path.read_text())
    doc["format_version"] = version
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="format version"):
        load_model(path)


def test_lstm_param_names_are_pinned():
    # these names are the keys of model.json
    spec = make_arch(7, {**LSTM, "recurrent_layers": 2})
    net = EdeNet.initialize(spec, make_rng(0))
    assert net.param_names() == [
        "e1.cell0.w", "e1.cell0.b", "e1.cell1.w", "e1.cell1.b",
        "e1.proj.w", "e1.proj.b",
        "dec.cell0.w", "dec.cell0.b", "dec.cell1.w", "dec.cell1.b",
        "dec.out.w", "dec.out.b",
        "e2.cell0.w", "e2.cell0.b", "e2.cell1.w", "e2.cell1.b",
        "e2.proj.w", "e2.proj.b",
    ]


def test_load_model_rejects_truncated_json(tmp_path):
    path = tmp_path / "net.json"
    path.write_text('{"format": "edenet-model", "format_ver')
    with pytest.raises(FormatError):
        load_model(path)


HEADER = ["format", "format_version", "kind"]


def saved_kinds():
    x = np.arange(12.0).reshape(6, 2)
    return {
        "ensemble": (init_ensemble(make_arch(7, FF), 2, seed=3),
                     ["seed", "arch", "columns", "scaling", "members"]),
        "svr": (fit_svr(x, np.sin(x[:, 0])),
                ["kernel", "gamma", "C", "epsilon", "bias", "beta", "x_mean",
                 "x_std", "train_x"]),
    }


def write_kind(kind: str, path) -> None:
    """A model file of the kind; an "ede" file is the committed one that
    an earlier writer wrote, since nothing writes that kind now."""
    if kind == "ede":
        shutil.copyfile(EDE_FIXTURE, path)
    else:
        save_model(saved_kinds()[kind][0], path)


@pytest.mark.parametrize("kind", ["ensemble", "svr"])
def test_model_file_top_level_key_order_is_pinned(tmp_path, kind):
    obj, payload_keys = saved_kinds()[kind]
    path = tmp_path / "m.json"
    save_model(obj, path)
    doc = json.loads(path.read_text())
    assert list(doc) == HEADER + payload_keys
    assert doc["kind"] == kind
    assert type(load_model(path)) is type(obj)


@pytest.mark.parametrize("kind, changes", [
    ("ensemble", {"members": 5}),
    ("ensemble", {"members": [3]}),
    ("ensemble", {"members": []}),
    ("ensemble", {"seed": [1]}),
    ("ede", {"params": 3}),
    ("ede", {"params": {"enc1.w": 3}}),
    ("ede", {"arch": 3}),
    ("ede", {"arch": {"latent_dim": 3}}),
    ("ede", {"kind": ["ede"]}),
    ("ede", {"kind": "svr"}),
    ("ensemble", {"seed": "7"}),
    ("ensemble", {"seed": 7.9}),
    ("ensemble", {"seed": True}),
    ("ensemble", {"columns": "abcdefg"}),
    ("ensemble", {"columns": list(range(7))}),
    ("ensemble", {"scaling": {"col_min": [0] * 6, "col_max": [1] * 6}}),  # no columns: width only
    ("ensemble", {"columns": list("abcdefg"), "scaling": {"col_min": [0], "col_max": [1]}}),
    ("ensemble", {"columns": list("abcdefg"), "scaling": {"col_min": [1] * 7,
                                                          "col_max": [0] * 7}}),
])
def test_load_model_turns_malformed_payload_into_format_error(tmp_path, kind,
                                                              changes):
    path = tmp_path / "m.json"
    write_kind(kind, path)
    doc = json.loads(path.read_text())
    doc.update(changes)
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError):
        load_model(path)


@pytest.mark.parametrize("kind, rename", [
    ("ensemble", ("seed", "sead")),
    ("ede", ("params", "parms")),
    ("svr", ("gamma", "gama")),
])
def test_payload_keys_are_the_kinds_fields(tmp_path, kind, rename):
    """A renamed key is refused, never ignored: an ensemble whose seed is
    renamed sead used to load with seed 0."""
    path = tmp_path / "m.json"
    write_kind(kind, path)
    doc = json.loads(path.read_text())
    old, new = rename
    doc[new] = doc.pop(old)
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=rf"unknown keys: \['{new}'\]"):
        load_model(path)
    doc.pop(new)  # an ensemble may lack its seed, as files that predate it do
    path.write_text(json.dumps(doc))
    if kind == "ensemble":
        assert load_model(path).seed == 0
    else:
        with pytest.raises(FormatError, match=rf"missing keys: \['{old}'\]"):
            load_model(path)


def test_ensemble_with_3_names_for_4_inputs_is_a_format_error(tmp_path):
    path = tmp_path / "m.json"
    save_model(replace(init_ensemble(make_arch(4, FF), 1, seed=3), columns=list("abcd")), path)
    doc = json.loads(path.read_text())
    doc["columns"].pop()
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match="has 3 column names for 4 inputs"):
        load_model(path)


def test_ensemble_fields_cannot_be_reassigned_past_their_checks():
    """Assigning 1 name to a 4-input ensemble used to save a file that
    load_model then refused."""
    ens = init_ensemble(make_arch(4, FF), 1, seed=3)
    with pytest.raises(FrozenInstanceError):
        ens.columns = ["a"]


def test_an_ede_file_loads_as_a_one_member_ensemble():
    ens = load_model(EDE_FIXTURE)
    assert type(ens) is EnsembleModel
    assert ens.size == 1 and ens.seed == 0
    assert ens.columns is None and ens.scaling is None


def test_payload_shape_mismatch_rejected():
    net = small_net("ff")
    payload = net_payload(net)
    name = next(iter(payload))
    payload[name] = [[0.0]]
    with pytest.raises(FormatError):
        net_from_payload(net.spec, payload)


def test_payload_non_finite_value_rejected():
    net = small_net("ff")
    payload = net_payload(net)
    name = next(iter(payload))
    payload[name][0][0] = float("nan")
    with pytest.raises(FormatError, match="non-finite"):
        net_from_payload(net.spec, payload)


@pytest.mark.parametrize("value", ["0.12", True, None])
def test_payload_values_are_checked_never_coerced(value):
    net = small_net("ff")
    payload = net_payload(net)
    name = next(iter(payload))
    payload[name][0][0] = value
    with pytest.raises(FormatError, match=f"parameter {name} must hold numbers"):
        net_from_payload(net.spec, payload)


def test_payload_name_mismatch_rejected():
    net = small_net("ff")
    payload = net_payload(net)
    payload["bogus.w"] = payload.pop(next(iter(payload)))
    with pytest.raises(FormatError):
        net_from_payload(net.spec, payload)


def _whole_document(obj) -> dict:
    """The document save_model writes, built whole."""
    if isinstance(obj, EnsembleModel):
        payload = {"seed": obj.seed, "arch": obj.spec.to_dict(),
                   "columns": None if obj.columns is None else list(obj.columns),
                   "scaling": None if obj.scaling is None else {
                       "col_min": obj.scaling.col_min.tolist(),
                       "col_max": obj.scaling.col_max.tolist()},
                   "members": [net_payload(m) for m in obj.members]}
        kind = "ensemble"
    else:
        payload, kind = svr_to_dict(obj), "svr"
    return {"format": "edenet-model", "format_version": 1, "kind": kind, **payload}


@pytest.mark.parametrize("kind", ["ensemble", "svr"])
def test_saved_bytes_are_json_dumps_of_the_whole_document(tmp_path, kind):
    obj = saved_kinds()[kind][0]
    save_model(obj, tmp_path / "m.json")
    assert (tmp_path / "m.json").read_text() == json.dumps(_whole_document(obj))
    single = replace(init_ensemble(make_arch(3, FF), 1, seed=2), columns=["a", "b", "c=x"],
                     scaling=ScalingStats(np.array([-1.5, 0.0, 0.0]), np.array([2.0, 1e-9, 1.0])))
    save_model(single, tmp_path / "one.json")
    assert (tmp_path / "one.json").read_text() == json.dumps(_whole_document(single))


def test_an_ensemble_is_written_one_member_at_a_time(tmp_path):
    """The 3-member d=121 model: encoding the whole document at once holds
    every member's floats and text together."""
    ens = init_ensemble(make_arch(121), 3, seed=1)

    def one_shot():
        (tmp_path / "whole.json").write_text(json.dumps(_whole_document(ens)))

    peaks = []
    for write in (one_shot, lambda: save_model(ens, tmp_path / "m.json")):
        tracemalloc.start()
        try:
            write()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "m.json").read_bytes() == (tmp_path / "whole.json").read_bytes()
    assert peaks[1] < peaks[0] * 2 / 3


def test_an_ensemble_is_written_one_parameter_array_at_a_time(tmp_path):
    """The 3-member d=121 model: the traced peak of save_model is bounded
    by its largest array's floats and text, not by a member's (4.4 MB)."""
    ens = init_ensemble(make_arch(121), 3, seed=1)
    tracemalloc.start()
    try:
        save_model(ens, tmp_path / "m.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000
    assert (tmp_path / "m.json").read_text() == json.dumps(_whole_document(ens))
