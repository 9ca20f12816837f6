"""Frozen-plan vs training-graph forward parity (bitwise, every model).

Every op both paths run has one forward, :mod:`repro.nn.kernels`, so a
frozen plan's sequence representations equal the graph's by
construction; the scores are exact too at this catalog size (see the
parity notes in :mod:`repro.serve.executors`).  The identity tests below
fail if a serving copy of a shared op is forked again.
"""

import numpy as np
import pytest

from repro.core import SSDRec, SSDRecConfig
from repro.data import generate
from repro.data.batching import pad_sequences
from repro.models import BACKBONES, GRU4Rec, SASRec, SRGNN
from repro.nn import GRUCell, Module, Tensor, kernels, no_grad
from repro.serve import FallbackPlan, executors, freeze
from repro.serve.program import OPS, run_step

DIM = 16
MAX_LEN = 12
NUM_ITEMS = 60


def random_batch(rng, rows=7, num_items=NUM_ITEMS, max_len=MAX_LEN):
    seqs = [list(rng.integers(1, num_items + 1,
                              size=rng.integers(1, max_len + 1)))
            for _ in range(rows)]
    items, mask, _ = pad_sequences(seqs, max_len=max_len)
    return items, mask


def assert_forward_parity(model, items, mask, users=None):
    plan = freeze(model)
    model.eval()
    with no_grad():
        if users is not None:
            graph = model.forward(items, mask, users=users).data
        else:
            graph = model.forward(items, mask).data
    frozen = (plan.forward(items, mask, users) if users is not None
              else plan.forward(items, mask))
    np.testing.assert_array_equal(frozen, graph)


def graph_rep(model, items, mask, users=None):
    """The graph's ``(B, d)`` sequence representation."""
    model.eval()
    with no_grad():
        if not isinstance(model, SSDRec):
            return model.encode(items, mask).data
        states, final_mask, *_ = model._pipeline(items, mask, users,
                                                 training=False)
        return model.backbone.encode_states(states, final_mask).data


def assert_encode_parity(model, items, mask, users=None):
    """Bitwise representation parity at any batch size, and score
    parity from two rows up.  A one-row batch scores through a
    matrix-vector product, which rounds the pinned ``(d, V)`` table and
    the graph's transposed view differently, so its scores are not
    compared."""
    plan = freeze(model)
    np.testing.assert_array_equal(plan.encode(items, mask, users),
                                  graph_rep(model, items, mask, users))
    if len(items) > 1:
        assert_forward_parity(model, items, mask, users)


@pytest.mark.parametrize("name", ["sigmoid", "linear", "masked_softmax",
                                  "gru_step"])
def test_shared_op_is_the_training_kernel(name):
    assert OPS[name] is getattr(kernels, name)


@pytest.mark.parametrize("name", ["linear", "layer_norm", "attention_weights",
                                  "gru_unroll", "last_positions"])
def test_composite_executors_call_the_training_kernel(name):
    assert getattr(executors, name) is getattr(kernels, name)


@pytest.mark.parametrize("name", sorted(BACKBONES))
def test_backbone_parity(name):
    rng = np.random.default_rng(3)
    model = BACKBONES[name](num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                            rng=rng)
    items, mask = random_batch(np.random.default_rng(11))
    plan = freeze(model)
    assert not isinstance(plan, FallbackPlan), name
    assert_forward_parity(model, items, mask)


BATCH_SIZES = [1, 2, 7, 64]


@pytest.mark.parametrize("rows", BATCH_SIZES)
@pytest.mark.parametrize("name", ["SASRec", "BERT4Rec"])
def test_transformer_parity_at_every_batch_shape(name, rows):
    """The last block runs at two query rows per sequence whatever the
    batch, so no batch size reaches a matrix-vector product."""
    model = BACKBONES[name](num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                            rng=np.random.default_rng(3))
    items, mask = random_batch(np.random.default_rng(20 + rows), rows=rows)
    assert_encode_parity(model, items, mask)


def with_trained_gru_biases(model, seed=4):
    """Nonzero GRU biases, as training leaves them: the padding
    trajectory is then not the zero state."""
    rng = np.random.default_rng(seed)
    for module in model.modules():
        if isinstance(module, GRUCell):
            for bias in (module.b_ih, module.b_hh):
                bias.data[...] = rng.normal(scale=0.5, size=bias.shape)
    return model


@pytest.mark.parametrize("rows", BATCH_SIZES)
@pytest.mark.parametrize("name", ["GRU4Rec", "NARM"])
def test_recurrent_parity_at_every_batch_shape(name, rows):
    """The graph's GRU packs the left padding while the plan steps
    through it; the representations agree bit for bit."""
    model = with_trained_gru_biases(BACKBONES[name](
        num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
        rng=np.random.default_rng(3)))
    items, mask = random_batch(np.random.default_rng(60 + rows), rows=rows)
    assert_encode_parity(model, items, mask)


def trailing_pad_batch(rng, rows):
    """Masks whose last valid column comes before ``L - 1``: row 0 holds
    one item at column 0, row 1 ends one column early, the rest end
    anywhere.  The readout row moves off the last column."""
    ends = rng.integers(0, MAX_LEN - 1, size=rows)
    ends[:2] = [0, MAX_LEN - 2][:rows]
    starts = np.array([rng.integers(0, end + 1) for end in ends])
    starts[0] = 0
    columns = np.arange(MAX_LEN)
    mask = (columns >= starts[:, None]) & (columns <= ends[:, None])
    items = np.where(mask, rng.integers(1, NUM_ITEMS + 1, size=mask.shape),
                     0)
    return items, mask


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("rows", BATCH_SIZES)
def test_gru4rec_parity_when_the_readout_row_is_not_last(rows, layers):
    """The last GRU layer reads its states at ``last_state``'s position
    in the graph and in the plan alike."""
    model = with_trained_gru_biases(GRU4Rec(
        num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN, num_layers=layers,
        rng=np.random.default_rng(3)))
    items, mask = trailing_pad_batch(np.random.default_rng(40 + rows), rows)
    assert not mask[:, -1].any()
    assert_encode_parity(model, items, mask)


@pytest.mark.parametrize("layers", [1, 2])
def test_gru4rec_tight_readout_equals_the_full_state_composition(layers):
    """Tight encode reads the last layer's state from its recurrence;
    rep and per-layer states equal ``last_state`` / ``take_last`` over
    the full tight states, also with holes and an empty row."""
    model = with_trained_gru_biases(GRU4Rec(
        num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN, num_layers=layers,
        rng=np.random.default_rng(3)))
    plan = freeze(model)
    rng = np.random.default_rng(9)
    items, mask = trailing_pad_batch(rng, 16)
    mask[2] = False                                   # no item at all
    mask[3, ::2] = False                              # holes
    items = np.where(mask, items, 0)
    rep, state = plan.encode_tight_with_state(items, mask)
    env = {"items": items, "mask": mask}
    run_step(plan.programs["tight"][0], env)
    hidden, finals = env["states"], []
    for gru in model.layers:
        weights = {name: getattr(gru.cell, name).data
                   for name in ("w_ih", "w_hh", "b_ih", "b_hh")}
        hidden = executors.gru_forward(hidden, mask, tight=True, **weights)
        finals.append(executors.take_last(hidden))
    last = executors.last_state(hidden, mask)
    np.testing.assert_array_equal(last, finals[-1])
    for got, want in zip(state, finals):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(
        rep, kernels.linear(last, model.output_proj.weight.data,
                            model.output_proj.bias.data))


@pytest.mark.parametrize("rows", BATCH_SIZES)
def test_sasrec_parity_when_the_readout_row_is_not_last(rows):
    model = SASRec(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                   rng=np.random.default_rng(3))
    items, mask = trailing_pad_batch(np.random.default_rng(30 + rows), rows)
    assert not mask[:, -1].any()
    assert_encode_parity(model, items, mask)


@pytest.mark.parametrize("rows", BATCH_SIZES)
def test_sasrec_tight_state_matches_the_full_width_encode(rows):
    """Rows that fill the window: the tight program's rep equals the
    model-padding encode and its K/V equal every row's keys/values of a
    full-width block-by-block reference."""
    model = SASRec(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                   rng=np.random.default_rng(3))
    plan = freeze(model)
    rng = np.random.default_rng(40 + rows)
    items = rng.integers(1, NUM_ITEMS + 1, size=(rows, MAX_LEN))
    mask = np.ones(items.shape, dtype=bool)
    rep, state = plan.encode_tight_with_state(items, mask)
    np.testing.assert_array_equal(rep, plan.encode(items, mask))

    (positions,) = [entry["params"]["positions"]
                    for entry in plan.programs["encode"]
                    if entry["op"] == "add_positions"]
    (enc,) = [entry["params"] for entry in plan.programs["encode"]
              if entry["op"] == "transformer_encoder"]
    states = executors.embed(items, plan.item_table)
    x = executors.add_positions(states, positions)
    np.testing.assert_array_equal(
        executors.add_tight_positions(states, mask, positions), x)
    blocked = ~executors.causal_attn_mask(mask)
    reference = []
    for params in enc["layers"]:
        x, k, v = executors.transformer_block(x, params, enc["num_heads"],
                                              blocked)
        reference += [k, v]
    kv = state[:-2]                     # [k_0, v_0, ..., rep, lengths]
    assert len(kv) == len(reference)
    for got, want in zip(kv, reference):
        np.testing.assert_array_equal(got, want)


def test_unregistered_model_gets_fallback_and_matches():
    model = SRGNN(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                  rng=np.random.default_rng(5))
    plan = freeze(model)
    assert isinstance(plan, FallbackPlan)
    items, mask = random_batch(np.random.default_rng(13))
    assert_forward_parity(model, items, mask)


def test_subclass_of_registered_model_falls_back():
    class TweakedSASRec(SASRec):
        pass

    model = TweakedSASRec(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                          rng=np.random.default_rng(0))
    assert isinstance(freeze(model), FallbackPlan)


def test_fallback_propagates_type_error_inside_users_aware_forward():
    """A TypeError raised *inside* a forward that takes ``users`` is a
    bug to surface, not a cue to retry without user injection."""
    class UsersAware(Module):
        max_len = MAX_LEN

        def forward(self, items, mask=None, users=None):
            if users is not None:   # a bug on the user-injection path
                raise TypeError("gate kernel received a bad operand")
            return Tensor(np.zeros((len(items), NUM_ITEMS + 1)))

    plan = FallbackPlan(UsersAware())
    items, mask = random_batch(np.random.default_rng(2))
    with pytest.raises(TypeError, match="bad operand"):
        plan.forward(items, mask, users=np.ones(len(items), dtype=np.int64))


class TestSSDRecParity:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate("beauty", seed=0, scale=0.25)

    def _batch(self, dataset, rng, rows=6):
        users = rng.integers(1, dataset.num_users, size=rows)
        seqs = [dataset.sequences[u][:MAX_LEN] or [1] for u in users]
        items, mask, _ = pad_sequences(seqs, max_len=MAX_LEN)
        return items, mask, np.asarray(users)

    @pytest.mark.parametrize("backbone", ["GRU4Rec", "SASRec"])
    def test_full_pipeline(self, dataset, backbone):
        model = SSDRec(dataset, backbone_cls=BACKBONES[backbone],
                       config=SSDRecConfig(dim=DIM, max_len=MAX_LEN),
                       rng=np.random.default_rng(1))
        items, mask, users = self._batch(dataset, np.random.default_rng(2))
        assert_forward_parity(model, items, mask, users)

    @pytest.mark.parametrize("rows", BATCH_SIZES)
    def test_sasrec_backbone_at_every_batch_shape(self, dataset, rows):
        """The keep mask may drop a sequence's last item, so the
        backbone's readout row can come before ``L - 1``."""
        model = SSDRec(dataset, backbone_cls=SASRec,
                       config=SSDRecConfig(dim=DIM, max_len=MAX_LEN),
                       rng=np.random.default_rng(1))
        items, mask, users = self._batch(
            dataset, np.random.default_rng(50 + rows), rows)
        assert_encode_parity(model, items, mask, users)

    @pytest.mark.parametrize("rows", BATCH_SIZES)
    def test_gru4rec_backbone_at_every_batch_shape(self, dataset, rows):
        """The backbone GRU packs what the keep mask leaves as leading
        padding; rows whose leading states differ step on their own."""
        model = with_trained_gru_biases(SSDRec(
            dataset, backbone_cls=GRU4Rec,
            config=SSDRecConfig(dim=DIM, max_len=MAX_LEN),
            rng=np.random.default_rng(1)))
        items, mask, users = self._batch(
            dataset, np.random.default_rng(70 + rows), rows)
        assert_encode_parity(model, items, mask, users)

    @pytest.mark.parametrize("kwargs", [
        dict(use_stage1=False),
        dict(use_stage3=False),
        dict(use_stage1=False, use_stage3=False),
        dict(denoise_rounds=0),
    ])
    def test_ablated_variants(self, dataset, kwargs):
        model = SSDRec(dataset, backbone_cls=GRU4Rec,
                       config=SSDRecConfig(dim=DIM, max_len=MAX_LEN,
                                           **kwargs),
                       rng=np.random.default_rng(4))
        items, mask, users = self._batch(dataset, np.random.default_rng(6))
        assert_forward_parity(model, items, mask, users)

    def test_without_users(self, dataset):
        model = SSDRec(dataset, backbone_cls=GRU4Rec,
                       config=SSDRecConfig(dim=DIM, max_len=MAX_LEN),
                       rng=np.random.default_rng(7))
        items, mask, _ = self._batch(dataset, np.random.default_rng(8))
        assert_forward_parity(model, items, mask)

    def test_non_hsd_gate_falls_back(self, dataset):
        model = SSDRec(dataset, backbone_cls=GRU4Rec,
                       config=SSDRecConfig(dim=DIM, max_len=MAX_LEN,
                                           denoise_gate="sparse-attention"),
                       rng=np.random.default_rng(9))
        plan = freeze(model)
        assert isinstance(plan, FallbackPlan)
        items, mask, users = self._batch(dataset, np.random.default_rng(10))
        assert_forward_parity(model, items, mask, users)
