"""Frozen forward plans: compile a trained model into step programs.

``freeze(model)`` snapshots the model's weights into a plan whose
forward pass is a set of step programs (:mod:`repro.serve.program`)
holding the live weight arrays.  ``encode`` / ``score`` / ``forward``
and the incremental-serving methods each run one program through the
pure-NumPy kernels of :mod:`repro.nn.kernels` and
:mod:`repro.serve.executors` — no autograd ``Tensor`` construction —
and ``freeze`` verifies by running the very same programs on probe
batches (:mod:`repro.analysis.dataflow`).  Per-model compilers
cover SASRec, GRU4Rec, BERT4Rec, NARM, STAMP and Caser plus SSDRec's
denoise-then-encode pipeline; anything else falls back to
:class:`FallbackPlan`, which wraps the model's own ``forward_batch``
under ``no_grad``.

Weights are *copied* at freeze time — a plan is a snapshot, so re-freeze
after further training.  The transposed score table (``table_t``) is the
pinned item-embedding table shared by every request of a
:class:`~repro.serve.service.RecommendService`; its float32 twin
(``table32``, a :class:`~repro.serve.retrieval.Float32Table`) serves
:meth:`FrozenPlan.topk`, the certified exact top-K.
"""

from __future__ import annotations

import inspect
from typing import Optional

import numpy as np

from ..data.dataset import PAD_ID
from ..nn import inference_mode, no_grad
from . import executors as X
from .ann import DEFAULT_NPROBE, build_ann_index
from .program import execute, run_step, step
from .retrieval import Float32Table, topk_from_scores


def _snap(param) -> np.ndarray:
    """Copy a Parameter/Tensor's data out of the graph."""
    return np.array(param.data, dtype=np.float64)


#: Rows per block of :func:`_transpose`'s copy.
_TRANSPOSE_ROWS = 256


def _transpose(table: np.ndarray) -> np.ndarray:
    """C-contiguous ``table.T``, copied ``_TRANSPOSE_ROWS`` rows at a
    time: one whole-array transposing copy strides through memory and is
    about 3x slower on a 30k x 32 table."""
    out = np.empty((table.shape[1], table.shape[0]), dtype=table.dtype)
    for start in range(0, table.shape[0], _TRANSPOSE_ROWS):
        stop = start + _TRANSPOSE_ROWS
        out[:, start:stop] = table[start:stop].T
    return out


def _activation(fn) -> object:
    name = getattr(fn, "__name__", "relu")
    return X.gelu if name == "gelu" else X.relu


def _compile_transformer(encoder) -> dict:
    """Compile a ``TransformerEncoder`` into fused per-layer weight dicts."""
    layers = []
    for layer in encoder.layers:
        attn = layer.attention
        w_qkv = np.concatenate(
            [attn.q_proj.weight.data, attn.k_proj.weight.data,
             attn.v_proj.weight.data], axis=1)
        b_qkv = np.concatenate(
            [attn.q_proj.bias.data, attn.k_proj.bias.data,
             attn.v_proj.bias.data])
        layers.append({
            "w_qkv": np.ascontiguousarray(w_qkv),
            "b_qkv": np.ascontiguousarray(b_qkv),
            "w_out": _snap(attn.out_proj.weight),
            "b_out": _snap(attn.out_proj.bias),
            "ln1_g": _snap(layer.norm1.gamma),
            "ln1_b": _snap(layer.norm1.beta),
            "ln2_g": _snap(layer.norm2.gamma),
            "ln2_b": _snap(layer.norm2.beta),
            "eps": layer.norm1.eps,
            "w_fc1": _snap(layer.ffn.fc1.weight),
            "b_fc1": _snap(layer.ffn.fc1.bias),
            "w_fc2": _snap(layer.ffn.fc2.weight),
            "b_fc2": _snap(layer.ffn.fc2.bias),
            "activation": _activation(layer.ffn.activation),
        })
    return {
        "layers": layers,
        "num_heads": encoder.layers[0].attention.num_heads,
        "final_g": _snap(encoder.final_norm.gamma),
        "final_b": _snap(encoder.final_norm.beta),
        "eps": encoder.final_norm.eps,
    }


def _batch(items, mask):
    """``(int64 items, bool mask)``; the mask defaults to non-pad items."""
    items = np.asarray(items, dtype=np.int64)
    return items, (items != PAD_ID if mask is None
                   else np.asarray(mask, dtype=bool))


def _compile_gru(gru) -> dict:
    cell = gru.cell
    return {name: _snap(getattr(cell, name))
            for name in ("w_ih", "w_hh", "b_ih", "b_hh")}


class FrozenPlan:
    """Base plan: embedding lookup + pinned-table scoring + pad masking.

    ``programs`` maps a name to the step program (:mod:`.program`) that
    runs it; every compiled plan has ``"encode"`` (``items``, ``mask``,
    ``users`` -> ``rep``) and ``"score"`` (``rep`` -> ``scores``).
    Optional programs are the plan's serving capabilities:

    ``"tight"``
        Padding-width-independent encode of ``items``/``mask`` — the
        only way a plan may serve ``padding="tight"``.
    ``"append"`` / ``"readout"``
        Advance a batch of cached states (the values named by
        ``state_names``, which ``"tight"`` also produces) by one
        ``item`` per row, and read their representations — incremental
        serving (:meth:`append_items`).

    All plans accept an optional ``users`` argument (ignored outside
    SSDRec) so callers can treat every plan uniformly.
    """

    model_name = "generic"
    #: False only for :class:`FallbackPlan` (no separate encode/score).
    supports_encode = True
    #: Environment names of the incremental state, in state-list order.
    state_names = ()
    #: The state values that are right-aligned KV prefixes ``(B, H, W,
    #: hd)`` whose valid tail is ``lengths`` long; per-row states keep
    #: only that tail, and a batch packs them right-aligned.
    kv_names = ()
    #: Optional :class:`repro.serve.ann.ANNIndex` over the item table
    #: (set by :func:`attach_ann_index` / ``freeze(model, ann=True)``).
    ann_index = None

    def __init__(self, item_table: np.ndarray, max_len: int,
                 masked_columns=(PAD_ID,)):
        self.item_table = np.ascontiguousarray(item_table)
        self.max_len = max_len
        self.masked_columns = tuple(masked_columns)
        self.programs = {"score": [step(
            "score", ["rep"], ["scores"],
            table_t=_transpose(self.item_table),
            masked_columns=self.masked_columns)]}
        self.table32 = Float32Table(self.item_table, self.table_t,
                                    self.masked_columns)

    @property
    def table_t(self) -> np.ndarray:
        """The pinned ``(d, V)`` score table (held by the score step)."""
        return self.programs["score"][0]["params"]["table_t"]

    @table_t.setter
    def table_t(self, value) -> None:
        self.programs["score"][0]["params"]["table_t"] = value

    def __getstate__(self) -> dict:
        """Pickle (spool, ``deepcopy``) without ``table_t`` or
        ``table32``.

        They are copies of ``item_table`` — more than half of a large
        plan's bytes — so they are left out and rebuilt by
        :meth:`__setstate__`.
        """
        state = self.__dict__.copy()
        if "table32" in state:
            state["table32"] = None
        score = self.programs.get("score")
        if score:
            (entry,) = score
            params = dict(entry["params"], table_t=None)
            state["programs"] = dict(self.programs,
                                     score=[dict(entry, params=params)])
        return state

    def __setstate__(self, state: dict) -> None:
        """Restore, rebuilding ``table_t`` as a C-contiguous
        ``item_table.T`` and ``table32`` from ``item_table`` once it is
        an array again (a quantized payload holds records until it is
        decoded)."""
        self.__dict__.update(state)
        if "score" in self.programs and isinstance(
                getattr(self, "item_table", None), np.ndarray):
            self.table_t = _transpose(self.item_table)
            self.table32 = Float32Table(self.item_table, self.table_t,
                                        self.masked_columns)

    @property
    def dim(self) -> int:
        return self.item_table.shape[1]

    @property
    def vocab_size(self) -> int:
        """Scored columns, including padding (and [MASK] for BERT4Rec)."""
        return self.item_table.shape[0]

    @property
    def rolls_over(self) -> bool:
        """True when ``append`` stays exact after the window slides past
        ``max_len``: it reads no position table, so the state summarizes
        the *full* history (recurrent backbones).  Attention KV prefixes
        are positional, so a slide forces a re-encode instead."""
        append = self.programs.get("append")
        return append is not None and not any(
            "positions" in entry["params"] for entry in append)

    def _embed(self, source: str = "items", out: str = "states") -> dict:
        return step("embed", [source], [out], table=self.item_table)

    def verify(self):
        """Run every program on probe batches (and search the ANN index,
        if one rides the plan).

        Raises :class:`repro.analysis.dataflow.PlanVerificationError`
        naming the offending step when a step raises, holds a
        non-float64 weight, yields non-finite values or batch-dependent
        non-batch axes; returns the per-program step traces on success.
        Called by ``freeze()`` unless ``verify=False``.
        """
        from ..analysis.dataflow import verify_plan
        return verify_plan(self)

    # -- encode ----------------------------------------------------------
    def _run(self, name: str, items, mask=None, users=None) -> dict:
        """Run program ``name`` on a padded batch; returns the env."""
        items, mask = _batch(items, mask)
        return execute(self.programs[name],
                       {"items": items, "mask": mask, "users": users})

    def encode(self, items: np.ndarray, mask: Optional[np.ndarray] = None,
               users: Optional[np.ndarray] = None) -> np.ndarray:
        return self._run("encode", items, mask, users)["rep"]

    def encode_batch(self, batch) -> np.ndarray:
        return self.encode(batch.items, batch.mask,
                           getattr(batch, "users", None))

    def encode_tight(self, items: np.ndarray,
                     mask: Optional[np.ndarray] = None,
                     users: Optional[np.ndarray] = None) -> np.ndarray:
        """Padding-width-independent encode (``padding="tight"``)."""
        return self._run("tight", items, mask, users)["rep"]

    # -- incremental (tight-padding) state API -------------------------
    def encode_tight_with_state(self, items: np.ndarray,
                                mask: Optional[np.ndarray] = None):
        """Tight encode that also returns the batched incremental state.

        The state is the list of ``state_names`` values, batched on
        axis 0; :meth:`split_states` cuts it into the per-row states
        the service caches and :meth:`append_items` advances.
        """
        env = self._run("tight", items, mask)
        return env["rep"], [env[name] for name in self.state_names]

    def split_states(self, state: list) -> list:
        """Per-row states of a batched one: row ``j`` of every value,
        copied, with each KV prefix trimmed to its valid tail."""
        lengths = dict(zip(self.state_names, state)).get("lengths")
        rows = []
        for j in range(len(state[0])):
            row = []
            for name, value in zip(self.state_names, state):
                if name in self.kv_names:
                    width = value.shape[2]
                    value = value[j:j + 1, :, width - int(lengths[j]):]
                else:
                    value = value[j:j + 1]
                row.append(value.copy())
            rows.append(row)
        return rows

    def _pack_states(self, states: list) -> dict:
        """Stack per-row states into one batch env: KV prefixes
        right-aligned in the widest one's width (zeros before a shorter
        row's tail, which the step blocks), everything else
        concatenated.  A single state passes through as it is."""
        if len(states) == 1:
            return dict(zip(self.state_names, states[0]))
        env = {}
        for position, name in enumerate(self.state_names):
            values = [state[position] for state in states]
            if name in self.kv_names:
                width = max(value.shape[2] for value in values)
                _, heads, _, head_dim = values[0].shape
                packed = np.zeros((len(values), heads, width, head_dim),
                                  dtype=values[0].dtype)
                for j, value in enumerate(values):
                    packed[j, :, width - value.shape[2]:] = value[0]
                env[name] = packed
            else:
                env[name] = np.concatenate(values)
        return env

    def append_items(self, states: list, items) -> tuple:
        """Advance every per-row state by its item in one batch.

        ``states`` are per-row states (:meth:`split_states`), ``items``
        the ``B`` new item ids.  Runs the ``append`` and ``readout``
        programs once over the packed batch; returns ``((B, d) reps,
        per-row new states)``.  One row is simply ``B = 1``.
        """
        env = self._pack_states(states)
        env["item"] = np.asarray(items, dtype=np.int64).reshape(-1)
        env = execute(self.programs["append"], env)
        env = execute(self.programs["readout"], env)
        return env["rep"], self.split_states(
            [env[name] for name in self.state_names])

    def append_item(self, state: list, item: int) -> list:
        """One row of :meth:`append_items`: ``state`` advanced by
        ``item``.  The service does not call it; ``bench/workloads.py``
        still traces it by name."""
        return self.append_items([state], [item])[1][0]

    # -- score ---------------------------------------------------------
    def score(self, reprs: np.ndarray,
              out: Optional[np.ndarray] = None) -> np.ndarray:
        """``(B, d) -> (B, V)`` logits against the pinned table.

        ``out`` may supply a reusable ``(B, V)`` buffer (allocation-lean
        chunked scoring in the Evaluator and the service reuse it).
        """
        (entry,) = self.programs["score"]
        return run_step(entry, {"rep": reprs}, out=out)["scores"]

    def certifies(self, k: int) -> bool:
        """True when :meth:`topk` selects ``k`` items from the float32
        table (at least K whole chunks), not from float64 scores."""
        return self.table32.certifies(min(k, self.vocab_size))

    def topk(self, reprs: np.ndarray, k: int,
             out: Optional[np.ndarray] = None):
        """``(B, d) -> ((B, k) ids, (B, k) float64 scores)``, exactly.

        The exact twin of :meth:`ann_topk`: the ids are
        ``topk_from_scores(score(reprs), k)``'s, selected from float32
        scores under an error certificate and re-scored in float64
        (:class:`~repro.serve.retrieval.Float32Table`).  Items whose
        float64 scores lie within float64 rounding of each other
        (``table32.rescore_error``) may come back in either order.  Rows
        the certificate does not cover, and every row when
        :meth:`certifies` is False, go through ``score`` +
        ``topk_from_scores``.  ``out`` may supply a reusable float32
        ``(B, V)`` buffer; only the certified path uses it.
        """
        reprs = np.asarray(reprs, dtype=np.float64)
        k = min(k, self.vocab_size)
        if not self.certifies(k):
            scores = self.score(reprs)
            top = topk_from_scores(scores, k)
            return top, np.take_along_axis(scores, top, axis=1)
        top, values, certified = self.table32.topk(reprs, k, out=out)
        rest = np.flatnonzero(~certified)
        if rest.size:
            scores = self.score(reprs[rest])
            top[rest] = topk_from_scores(scores, k)
            values[rest] = np.take_along_axis(scores, top[rest], axis=1)
        return top, values

    def ann_topk(self, reprs: np.ndarray, k: int,
                 nprobe: int = DEFAULT_NPROBE):
        """``(B, d) -> ((B, k) ids, (B, k) scores)`` via the ANN index.

        Sub-linear alternative to ``score()`` + ``topk_from_scores``:
        only the ``nprobe`` probed clusters are scored.  Rows whose
        probed clusters hold fewer than ``k`` items come back
        right-padded with ``-1`` / ``NEG_INF``.  Requires an attached
        index (:func:`attach_ann_index` or ``freeze(model, ann=True)``).
        """
        if self.ann_index is None:
            raise ValueError(
                f"{type(self).__name__} has no ANN index; build one with "
                "attach_ann_index(plan) or freeze(model, ann=True)")
        return self.ann_index.search(
            np.asarray(reprs, dtype=np.float64), k, nprobe)

    def forward(self, items: np.ndarray, mask: Optional[np.ndarray] = None,
                users: Optional[np.ndarray] = None) -> np.ndarray:
        return self.score(self.encode(items, mask, users))

    def forward_batch(self, batch) -> np.ndarray:
        return self.score(self.encode_batch(batch))


def check_padding(plan: FrozenPlan, padding: str) -> None:
    """Reject a padding mode ``plan`` cannot serve.

    ``padding="tight"`` needs a ``"tight"`` program; every other plan is
    padding-width sensitive and must be padded to ``max_len``.
    """
    if padding not in ("model", "tight"):
        raise ValueError(
            f"padding must be 'model' or 'tight', got {padding!r}")
    if padding == "tight" and "tight" not in plan.programs:
        raise ValueError(
            f"{plan.model_name} is padding-width sensitive; tight padding "
            "would change its scores — use padding='model'")


class SASRecPlan(FrozenPlan):
    """Causal Transformer; tight serving numbers each row's valid items
    from 0 (right-aligned) and caches a per-layer KV prefix.

    State layout: ``[k_0, v_0, …, k_{n-1}, v_{n-1}, rep, lengths]`` where
    ``k_i``/``v_i`` are layer ``i``'s ``(B, H, L, hd)`` key/value
    tensors (valid positions occupy the *last* ``lengths[j]`` columns of
    row ``j``; a per-row state keeps only those), ``rep`` the ``(B, d)``
    representation and ``lengths`` the ``(B,)`` valid-item counts.
    """

    model_name = "SASRec"

    def __init__(self, model):
        super().__init__(_snap(model.item_embedding.weight), model.max_len)
        positions = _snap(model.position_embedding.weight)
        enc = _compile_transformer(model.encoder)
        kv = [f"{kind}{index}" for index in range(len(enc["layers"]))
              for kind in "kv"]
        self.state_names = (*kv, "rep", "lengths")
        self.kv_names = tuple(kv)
        embed, attn = self._embed(), step("causal_attn_mask", ["mask"],
                                          ["attn"])
        self.programs.update(
            encode=[
                embed,
                step("add_positions", ["states"], ["x"],
                     positions=positions),
                attn,
                step("transformer_encoder", ["x", "attn", "mask"], ["rep"],
                     **enc),
            ],
            tight=[
                embed,
                step("add_tight_positions", ["states", "mask"], ["x"],
                     positions=positions),
                attn,
                step("transformer_encoder_kv", ["x", "attn", "mask"],
                     ["rep", *kv], **enc),
                step("count_valid", ["mask"], ["lengths"]),
            ],
            # Raises at the window edge: positions cannot slide, so the
            # service re-encodes at rollover instead.
            append=[
                self._embed("item", "token"),
                step("add_position_at", ["token", "lengths"], ["x"],
                     positions=positions, limit=model.max_len),
                step("transformer_step_kv", ["x", "lengths", *kv],
                     ["rep", *kv], **enc),
                step("advance_length", ["lengths"], ["lengths"]),
            ],
            readout=[])


class BERT4RecPlan(FrozenPlan):
    model_name = "BERT4Rec"

    def __init__(self, model):
        super().__init__(_snap(model.item_embedding.weight), model.max_len,
                         masked_columns=(PAD_ID, model.mask_token))
        self.programs["encode"] = [
            self._embed(),
            step("extend_mask_token", ["states", "mask"], ["ext", "ext_mask"],
                 row=self.item_table[model.mask_token]),
            step("add_positions", ["ext"], ["x"],
                 positions=_snap(model.position_embedding.weight)),
            step("pad_attn_mask", ["ext_mask"], ["attn"]),
            step("transformer_encoder", ["x", "attn", "ext_mask"], ["rep"],
                 **_compile_transformer(model.encoder)),
        ]


class GRU4RecPlan(FrozenPlan):
    """Stacked GRUs; tight serving steps through valid positions only,
    and the per-layer final hidden states are the incremental state."""

    model_name = "GRU4Rec"

    def __init__(self, model):
        super().__init__(_snap(model.item_embedding.weight), model.max_len)
        grus = [_compile_gru(gru) for gru in model.layers]
        head = {"weight": _snap(model.output_proj.weight),
                "bias": _snap(model.output_proj.bias)}
        self.state_names = tuple(f"s{index}" for index in range(len(grus)))
        encode, tight = [self._embed()], [self._embed()]
        append = [self._embed("item", "x")]
        current, below = "states", "x"
        for index, gru in enumerate(grus):
            hidden, final = f"h{index}", self.state_names[index]
            if index < len(grus) - 1:
                encode.append(step("gru_forward", [current], [hidden], **gru))
                tight += [step("gru_forward", [current, "mask"], [hidden],
                               tight=True, **gru),
                          step("take_last", [hidden], [final])]
            else:
                # The last layer reads each row's state at its last valid
                # position straight from the recurrence.  Tight stepping
                # holds the state past it, so that is also the final one.
                encode.append(step("gru_forward", [current, "mask"],
                                   [final], readout=True, **gru))
                tight.append(step("gru_forward", [current, "mask"], [final],
                                  tight=True, readout=True, **gru))
            append += [step("linear", [below], ["gi"], weight=gru["w_ih"],
                            bias=gru["b_ih"]),
                       step("gru_step", ["gi", final], [final],
                            w_hh=gru["w_hh"], b_hh=gru["b_hh"])]
            current, below = hidden, final
        for program in (encode, tight):
            program.append(step("linear", [final], ["rep"], **head))
        self.programs.update(
            encode=encode, tight=tight, append=append,
            readout=[step("linear", [below], ["rep"], **head)])


class NARMPlan(FrozenPlan):
    model_name = "NARM"

    def __init__(self, model):
        super().__init__(_snap(model.item_embedding.weight), model.max_len)
        gru = _compile_gru(model.gru)
        w_query, w_key, w_energy, w_out = (
            _snap(layer.weight) for layer in (
                model.attn_query, model.attn_key, model.attn_energy,
                model.output_proj))
        attend = [
            step("last_state", ["hidden", "mask"], ["final"]),
            step("linear", ["final"], ["q0"], weight=w_query),
            step("expand_dims", ["q0"], ["query"], axis=1),
            step("linear", ["hidden"], ["keys"], weight=w_key),
            step("add", ["query", "keys"], ["pre"]),
            step("sigmoid", ["pre"], ["act"]),
            step("linear", ["act"], ["e3"], weight=w_energy),
            step("squeeze_last", ["e3"], ["energy"]),
            step("masked_softmax", ["energy", "mask"], ["weights"]),
            step("weighted_sum", ["hidden", "weights"], ["local"]),
            step("concat_last", ["final", "local"], ["combined"]),
            step("linear", ["combined"], ["rep"], weight=w_out),
        ]
        # Tight serving only adds step masking to the recurrence.
        self.programs.update(
            encode=[self._embed(),
                    step("gru_forward", ["states"], ["hidden"], **gru),
                    *attend],
            tight=[self._embed(),
                   step("gru_forward", ["states", "mask"], ["hidden"],
                        tight=True, **gru),
                   *attend])


class STAMPPlan(FrozenPlan):
    model_name = "STAMP"

    def __init__(self, model):
        super().__init__(_snap(model.item_embedding.weight), model.max_len)
        w1, w2, w3, w0 = (_snap(layer.weight) for layer in (
            model.w1, model.w2, model.w3, model.w0))
        encode = [
            self._embed(),
            step("last_state", ["states", "mask"], ["last"]),
            step("masked_mean", ["states", "mask"], ["mean"]),
            step("linear", ["states"], ["pre0"], weight=w1),
            step("linear", ["last"], ["lastp"], weight=w2),
            step("expand_dims", ["lastp"], ["lastp1"], axis=1),
            step("add", ["pre0", "lastp1"], ["pre1"]),
            step("linear", ["mean"], ["meanp"], weight=w3),
            step("expand_dims", ["meanp"], ["meanp1"], axis=1),
            step("add", ["pre1", "meanp1"], ["pre"]),
            step("sigmoid", ["pre"], ["act"]),
            step("linear", ["act"], ["e3"], weight=w0),
            step("squeeze_last", ["e3"], ["energy"]),
            step("masked_softmax", ["energy", "mask"], ["weights"]),
            step("weighted_sum", ["states", "weights"], ["memory"]),
            step("linear", ["memory"], ["hs0"], weight=_snap(model.mlp_s.weight),
                 bias=_snap(model.mlp_s.bias)),
            step("tanh", ["hs0"], ["h_s"]),
            step("linear", ["last"], ["ht0"], weight=_snap(model.mlp_t.weight),
                 bias=_snap(model.mlp_t.bias)),
            step("tanh", ["ht0"], ["h_t"]),
            step("mul", ["h_s", "h_t"], ["rep"]),
        ]
        # Masked pooling over valid positions: padding width never
        # reaches the output, so the tight program is the encode program.
        self.programs.update(encode=encode, tight=encode)


class CaserPlan(FrozenPlan):
    model_name = "Caser"

    def __init__(self, model):
        super().__init__(_snap(model.item_embedding.weight), model.max_len)
        steps = [
            self._embed(),
            step("mask_states", ["states", "mask"], ["masked"]),
            step("to_image", ["masked"], ["image"]),
        ]
        features = []
        for index, (conv, height) in enumerate(zip(model.h_convs,
                                                   model.filter_heights)):
            features.append(f"feat{index}")
            steps.append(step("conv1d_relu_pool", ["image"], [features[-1]],
                              weight=_snap(conv.weight),
                              bias=_snap(conv.bias), kernel=int(height)))
        steps += [
            step("fit_length", ["image"], ["padded"],
                 width=int(model.v_conv.in_features)),
            step("linear", ["padded"], ["vert0"],
                 weight=_snap(model.v_conv.weight)),
            step("relu", ["vert0"], ["vert"]),
            step("reshape_merge_last2", ["vert"], ["vflat"]),
            step("concat_last", features + ["vflat"], ["features"]),
            step("linear", ["features"], ["rep"], weight=_snap(model.fc.weight),
                 bias=_snap(model.fc.bias)),
        ]
        self.programs["encode"] = steps


class SSDRecPlan(FrozenPlan):
    """SSDRec's evaluation pipeline, compiled once.

    The stage-1 node tables are computed a single time at freeze — the
    graph path re-runs the whole ``GlobalRelationEncoder`` on *every*
    ``forward_batch``, so this alone removes the dominant serving cost.
    Stage 2 (self-augmentation) is training-only and never part of the
    plan; stage 3 compiles the ``NoiseGate`` into a deterministic
    threshold gate at the frozen temperature.  The encode program is
    three segments — user injection, the gate (absent when stage 3 is
    ablated) and the backbone's encode steps after its embedding — run
    by :meth:`sequence_states`, :meth:`_gate_keep` and :meth:`encode`.
    """

    model_name = "SSDRec"

    def __init__(self, model, backbone_plan: FrozenPlan,
                 item_table: np.ndarray, user_table: np.ndarray,
                 gate: Optional[dict]):
        super().__init__(item_table, model.max_len)
        self.backbone_plan = backbone_plan
        self._inject = [
            self._embed(out="h_v"),
            step("user_inject", ["h_v", "mask", "users"], ["states"],
                 user_table=np.ascontiguousarray(user_table)),
        ]
        self._gate = [] if gate is None else [
            step("gru_forward", ["states"], ["context"], **gate["gru"]),
            step("mul", ["states", "context"], ["sc"]),
            step("linear", ["sc"], ["se3"], weight=gate["seq_w"],
                 bias=gate["seq_b"]),
            step("squeeze_last", ["se3"], ["seq_energy"]),
            step("masked_mean", ["states", "mask"], ["interest"]),
            step("linear", ["interest"], ["projected"],
                 weight=gate["interest_w"]),
            step("expand_dims", ["projected"], ["proj1"], axis=1),
            step("mul", ["states", "proj1"], ["up"]),
            step("sum_last", ["up"], ["up_sum"]),
            step("scale", ["up_sum"], ["user_energy"],
                 factor=1.0 / np.sqrt(self.dim)),
            step("standardize", ["seq_energy", "mask"], ["z_seq"]),
            step("standardize", ["user_energy", "mask"], ["z_user"]),
            step("gate_combine", ["z_seq", "z_user"], ["logits"],
                 w_seq=gate["w_seq"], w_user=gate["w_user"],
                 bias=gate["bias"], tau=gate["tau"]),
            step("sigmoid", ["logits"], ["soft"]),
            # The keep mask replaces the sequence mask downstream.
            step("threshold_keep", ["soft", "mask"], ["keep", "mask"]),
            step("apply_keep", ["states", "keep"], ["states"]),
        ]
        self._backbone = backbone_plan.programs["encode"][1:]
        self.programs["encode"] = self._inject + self._gate + self._backbone

    def sequence_states(self, items: np.ndarray, mask: np.ndarray,
                        users: Optional[np.ndarray]) -> np.ndarray:
        """Embed + user injection (``h_v + h_u / n``)."""
        env = {"items": items, "mask": mask, "users": users}
        return execute(self._inject, env)["states"]

    def _gate_keep(self, states: np.ndarray, mask: np.ndarray):
        """NoiseGate at evaluation: ``(kept states, keep mask)``.

        Mirrors ``HierarchicalDenoising.forward`` with no augmented
        sequence — the guidance is the raw states/mask themselves.
        """
        env = execute(self._gate, {"states": states, "mask": mask})
        return env["states"], env["mask"]

    def encode(self, items: np.ndarray, mask: Optional[np.ndarray] = None,
               users: Optional[np.ndarray] = None) -> np.ndarray:
        items, mask = _batch(items, mask)
        states = self.sequence_states(items, mask, users)
        if self._gate:
            states, mask = self._gate_keep(states, mask)
        return execute(self._backbone,
                       {"states": states, "mask": mask})["rep"]


class FallbackPlan(FrozenPlan):
    """Wrap an arbitrary ``forward_batch``/``forward`` model under no_grad.

    No compilation: calls hit the model's own graph path (in eval mode,
    grads off) and unwrap the result to a plain array.  Used for models
    outside the plan registry and for SSDRec variants the compiler does
    not support (non-NoiseGate stage-3 gates, unknown backbones).
    """

    model_name = "fallback"
    supports_encode = False

    def __init__(self, model):
        self.model = model
        self.max_len = getattr(model, "max_len", None)
        self.masked_columns = (PAD_ID,)
        self.programs = {}
        # Decided once: a TypeError raised *inside* a users-aware
        # forward must propagate, not silently drop the users.
        params = inspect.signature(model.forward).parameters.values()
        self._takes_users = any(
            p.name == "users" or p.kind is p.VAR_KEYWORD for p in params)

    def _call(self, fn, *args, **kwargs) -> np.ndarray:
        with inference_mode(self.model):
            out = fn(*args, **kwargs)
        return np.asarray(out.data)

    def forward(self, items: np.ndarray, mask: Optional[np.ndarray] = None,
                users: Optional[np.ndarray] = None) -> np.ndarray:
        if self._takes_users:
            return self._call(self.model.forward, items, mask, users=users)
        return self._call(self.model.forward, items, mask)

    def forward_batch(self, batch) -> np.ndarray:
        fn = getattr(self.model, "forward_batch", None)
        if fn is not None:
            return self._call(fn, batch)
        return self._call(self.model.forward, batch.items, batch.mask)


def _freeze_ssdrec(model) -> FrozenPlan:
    # Lazy import: core.ssdrec pulls in the graph package; plan.py must
    # stay importable without it when only backbones are served.
    from ..denoise.hsd import NoiseGate

    backbone_plan = _compile_backbone(model.backbone)
    if backbone_plan is None:
        return FallbackPlan(model)
    gate = None
    if model.denoising is not None:
        denoiser = model.denoising.denoiser
        if type(denoiser) is not NoiseGate:
            return FallbackPlan(model)
        gate = {
            "gru": _compile_gru(denoiser.context_gru),
            "seq_w": _snap(denoiser.seq_score.weight),
            "seq_b": _snap(denoiser.seq_score.bias),
            "interest_w": _snap(denoiser.interest_proj.weight),
            "w_seq": float(denoiser.signal_weights.data[0]),
            "w_user": float(denoiser.signal_weights.data[1]),
            "bias": float(denoiser.keep_bias.data[0]),
            "tau": float(denoiser.temperature.tau),
        }
    with no_grad():
        item_table, user_table = model.node_tables()
    return SSDRecPlan(model, backbone_plan, _snap(item_table),
                      _snap(user_table), gate)


def _compile_backbone(model) -> Optional[FrozenPlan]:
    plan_cls = _REGISTRY.get(type(model).__name__)
    return plan_cls(model) if plan_cls is not None else None


_REGISTRY = {
    "SASRec": SASRecPlan,
    "BERT4Rec": BERT4RecPlan,
    "GRU4Rec": GRU4RecPlan,
    "NARM": NARMPlan,
    "STAMP": STAMPPlan,
    "Caser": CaserPlan,
}


def attach_ann_index(plan: FrozenPlan, seed: int = 0,
                     num_clusters: Optional[int] = None,
                     verify: bool = True) -> FrozenPlan:
    """Build a clustered MIPS index over ``plan``'s item table.

    The index (:class:`repro.serve.ann.ANNIndex`) rides the plan —
    through pickles, the cluster spool, everywhere — and ``verify_plan``
    checks its geometry and searches it with probe representations, at
    freeze time and again at spool-load re-verification.  With
    ``verify=True`` the whole plan is verified once the index is
    attached.  Masked columns are excluded from the index.
    Deterministic in ``(item_table, seed, num_clusters)``.
    """
    if not plan.supports_encode:
        raise ValueError(
            "ANN retrieval needs a compiled encode/score plan; "
            f"{type(plan).__name__} scores through the live model graph")
    plan.ann_index = build_ann_index(plan.item_table, plan.masked_columns,
                                     seed=seed, num_clusters=num_clusters)
    if verify:
        plan.verify()
    return plan


def freeze(model, verify: bool = True, ann: bool = False,
           ann_seed: int = 0,
           ann_clusters: Optional[int] = None) -> FrozenPlan:
    """Compile ``model`` into a frozen forward plan.

    Exact-type dispatch: a subclass that overrides its parent's forward
    would silently diverge from the compiled program, so anything not in
    the registry (by exact class name) gets the :class:`FallbackPlan`.

    With ``verify=True`` (the default) every compiled program runs once
    on small probe batches before the plan is returned (see
    :func:`repro.analysis.dataflow.verify_plan`) — a drifted weight
    layout raises a
    :class:`~repro.analysis.dataflow.PlanVerificationError` naming the
    step here, at compile time, instead of crashing inside a serving
    worker.

    ``ann=True`` additionally clusters the item table into an
    approximate-retrieval index (see :func:`attach_ann_index`), seeded
    by ``ann_seed`` with ``ann_clusters`` centroids (default
    ``~sqrt(V)``); the plan is verified once, with its index.
    """
    if type(model).__name__ == "SSDRec":
        plan = _freeze_ssdrec(model)
    else:
        plan = _compile_backbone(model)
        if plan is None:
            plan = FallbackPlan(model)
    if ann:
        attach_ann_index(plan, seed=ann_seed, num_clusters=ann_clusters,
                         verify=False)
    if verify:
        plan.verify()
    return plan


def prepare_plan(model_or_plan, verify: bool = True,
                 ann: bool = False) -> FrozenPlan:
    """A servable plan from a model or a plan, verified at most once.

    Freezes a model, attaches a default ANN index when ``ann`` is set
    and the plan carries none, then verifies the result when ``verify``
    is set — after the index, so the one verification covers it.
    """
    plan = model_or_plan if isinstance(model_or_plan, FrozenPlan) \
        else freeze(model_or_plan, verify=False)
    if ann and plan.ann_index is None:
        attach_ann_index(plan, verify=False)
    if verify:
        plan.verify()
    return plan
