"""Tests for the probe-execution plan verifier.

Covers end-to-end verification of every registered backbone (and
SSDRec variants) cross-checked step by step against an independent run
of the same programs at a third batch size, the serving facts derived
from which programs a plan has, structured failures on deliberately
corrupted plans at ``freeze()`` and spool-load time, single
verification per plan construction path, and the measured
memory-footprint reports.
"""

import pickle

import numpy as np
import pytest

import repro.analysis.dataflow as dataflow
from repro.analysis.dataflow import (PlanVerificationError,
                                     default_plan_footprints,
                                     memory_footprint, verify_plan)
from repro.core import SSDRec, SSDRecConfig
from repro.data import generate
from repro.models import BACKBONES, GRU4Rec
from repro.serve import FallbackPlan, freeze
from repro.serve.cluster import ClusterService
from repro.serve.program import OPS, run_step
from repro.serve.quant import quantize_plan
from repro.serve.service import RecommendService

DIM = 16
MAX_LEN = 12
NUM_ITEMS = 60


#: Serving facts per backbone — (tight, incremental, rollover) — equal
#: to the class flags they replace (padding_invariant or supports_tight,
#: supports_incremental, incremental_rollover).
SERVING_FACTS = {
    "SASRec": (True, True, False),
    "BERT4Rec": (False, False, False),
    "GRU4Rec": (True, True, True),
    "NARM": (True, False, False),
    "STAMP": (True, False, False),
    "Caser": (False, False, False),
}


def build_backbone(name: str, seed: int = 3):
    return BACKBONES[name](num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                           rng=np.random.default_rng(seed))


def serving_facts(plan):
    return ("tight" in plan.programs, "append" in plan.programs,
            plan.rolls_over)


def corrupt_gru_weight(plan):
    """Downcast ``w_hh`` of the first GRU step, as the program holds it."""
    entry = next(e for e in plan.programs["encode"]
                 if e["op"] == "gru_forward")
    entry["params"]["w_hh"] = entry["params"]["w_hh"].astype(np.float32)


def run_like_trace(program, trace, env, batch):
    """Execute ``program`` step by step through the interpreter, checking
    every output's concrete shape/dtype against the verifier's trace."""
    assert len(program) == len(trace)
    for entry, expected in zip(program, trace):
        assert entry["op"] == expected.op
        run_step(entry, env)
        assert len(entry["out"]) == len(expected.outputs)
        for name, (row_shape, dtype) in zip(entry["out"], expected.outputs):
            got = np.asarray(env[name])
            assert (got.shape, str(got.dtype)) == (
                (batch, *row_shape), dtype), (
                f"step {expected.index} ({entry['op']}) output {name!r}")
    return env


def check_every_program(plan, batch: int = 5, seed: int = 0):
    """Verify ``plan`` and run every program it serves against the trace
    at a batch size the verifier did not probe, from random inputs."""
    traces = verify_plan(plan)
    assert batch not in dataflow.PROBE_BATCHES
    rng = np.random.default_rng(seed)
    vocab = plan.item_table.shape[0]

    def inputs(length):
        return {"items": rng.integers(1, vocab, size=(batch, length)),
                "mask": np.ones((batch, length), dtype=bool),
                "users": np.zeros(batch, dtype=np.int64)}

    programs = plan.programs
    run_like_trace(programs["encode"] + programs["score"],
                   traces["forward"], inputs(plan.max_len), batch)
    assert set(traces) == {"forward"} | (set(programs) - {"encode",
                                                          "score"})
    if "tight" in programs:
        env = run_like_trace(programs["tight"], traces["tight"],
                             inputs(plan.max_len - 1), batch)
    if "append" in programs:
        state = {name: env[name] for name in plan.state_names}
        state["item"] = rng.integers(1, vocab, size=batch)
        env = run_like_trace(programs["append"], traces["append"], state,
                             batch)
        run_like_trace(programs["readout"], traces["readout"],
                       {name: env[name] for name in plan.state_names},
                       batch)
    return traces


class TestBackbonePlans:
    @pytest.mark.parametrize("name", sorted(BACKBONES))
    def test_verify_and_cross_validate(self, name):
        plan = freeze(build_backbone(name))  # verify=True already ran
        traces = check_every_program(plan)
        assert traces["forward"], name

    @pytest.mark.parametrize("name", sorted(BACKBONES))
    def test_serving_facts_derive_from_programs(self, name):
        assert serving_facts(freeze(build_backbone(name))) == \
            SERVING_FACTS[name]

    def test_program_final_output_is_scores(self):
        plan = freeze(build_backbone("SASRec"))
        last = verify_plan(plan)["forward"][-1]
        assert last.op == "score"
        assert last.outputs == [((NUM_ITEMS + 1,), "float64")]


class TestSSDRecPlans:
    @pytest.fixture(scope="class")
    def dataset(self):
        return generate("beauty", seed=0, scale=0.25)

    @pytest.mark.parametrize("backbone", ["GRU4Rec", "SASRec"])
    def test_gated_pipeline_verifies(self, dataset, backbone):
        model = SSDRec(dataset, backbone_cls=BACKBONES[backbone],
                       config=SSDRecConfig(dim=DIM, max_len=MAX_LEN),
                       rng=np.random.default_rng(1))
        plan = freeze(model)
        traces = check_every_program(plan)
        assert any(entry.op == "scale" for entry in traces["forward"])
        assert serving_facts(plan) == (False, False, False)

    def test_gateless_variant_verifies(self, dataset):
        model = SSDRec(dataset, backbone_cls=GRU4Rec,
                       config=SSDRecConfig(dim=DIM, max_len=MAX_LEN,
                                           use_stage3=False),
                       rng=np.random.default_rng(4))
        plan = freeze(model)
        traces = check_every_program(plan)
        assert not any(entry.op == "threshold_keep"
                       for entry in traces["forward"])
        assert serving_facts(plan) == (False, False, False)

    def test_fallback_plan_is_skipped_not_failed(self, dataset):
        model = SSDRec(dataset, backbone_cls=GRU4Rec,
                       config=SSDRecConfig(dim=DIM, max_len=MAX_LEN,
                                           denoise_gate="sparse-attention"),
                       rng=np.random.default_rng(9))
        plan = freeze(model)  # verify=True must not raise on fallback
        assert isinstance(plan, FallbackPlan)
        assert verify_plan(plan) is None
        assert memory_footprint(plan) is None
        assert not plan.programs and not plan.rolls_over


class TestCorruptedPlans:
    def test_wrong_weight_shape_fails_at_freeze_time(self):
        model = build_backbone("SASRec")
        weight = model.position_embedding.weight
        weight.data = np.ascontiguousarray(weight.data[:, :-1])
        with pytest.raises(PlanVerificationError) as excinfo:
            freeze(model)
        err = excinfo.value
        assert err.plan == "SASRec"
        assert err.op == "add_positions"
        assert err.step_index is not None
        assert "add_positions" in str(err)

    def test_wrong_weight_dtype_fails_verification(self):
        plan = freeze(build_backbone("GRU4Rec"))
        corrupt_gru_weight(plan)
        with pytest.raises(PlanVerificationError) as excinfo:
            plan.verify()
        err = excinfo.value
        assert err.plan == "GRU4Rec"
        assert err.op == "gru_forward"
        assert "float32" in str(err) or "float64" in str(err)

    def test_unknown_op_names_the_step(self):
        plan = freeze(build_backbone("SASRec"))
        encode = plan.programs["encode"]
        encode[0] = dict(encode[0], op="warp_drive")
        with pytest.raises(PlanVerificationError) as excinfo:
            verify_plan(plan)
        err = excinfo.value
        assert err.plan == "SASRec"
        assert err.step_index == 0
        assert err.op == "warp_drive"
        assert "no kernel for op 'warp_drive'" in str(err)

    def test_undefined_input_names_the_step(self):
        plan = freeze(build_backbone("SASRec"))
        encode = plan.programs["encode"]
        encode[1] = dict(encode[1], **{"in": ["ghost"]})
        with pytest.raises(PlanVerificationError, match="ghost") as excinfo:
            verify_plan(plan)
        err = excinfo.value
        assert err.plan == "SASRec"
        assert err.step_index == 1
        assert err.op == encode[1]["op"]

    def test_batch_dependent_axis_names_the_step(self):
        # expand_dims on axis 0 turns (B, d) into (1, B, d): NumPy runs
        # it, and only a later step fails to broadcast at B = 3.
        plan = freeze(build_backbone("NARM"))
        encode = plan.programs["encode"]
        index = next(i for i, e in enumerate(encode)
                     if e["op"] == "expand_dims")
        encode[index] = dict(encode[index], params={"axis": 0})
        with pytest.raises(PlanVerificationError) as excinfo:
            verify_plan(plan)
        err = excinfo.value
        assert err.plan == "NARM"
        assert err.step_index == index
        assert err.op == "expand_dims"
        assert "only axis 0 may follow the batch" in str(err)

    def test_nan_weight_fails_verification(self):
        plan = freeze(build_backbone("SASRec"))
        index, entry = next(
            (i, e) for i, e in enumerate(plan.programs["encode"])
            if e["op"] == "transformer_encoder")
        entry["params"]["layers"][0]["w_fc1"][0, 0] = np.nan
        with pytest.raises(PlanVerificationError) as excinfo:
            plan.verify()
        err = excinfo.value
        assert err.plan == "SASRec"
        assert err.step_index == index
        assert err.op == "transformer_encoder"
        assert "SASRec step" in str(err) and "non-finite" in str(err)


class TestServiceVerifyWiring:
    def _corrupt(self):
        plan = freeze(build_backbone("GRU4Rec"))
        corrupt_gru_weight(plan)
        return plan

    def test_recommend_service_verifies_by_default(self):
        with pytest.raises(PlanVerificationError):
            RecommendService(self._corrupt(), k=5)
        # Opting out must still construct (power tool for debugging).
        assert RecommendService(self._corrupt(), k=5, verify=False)

    def test_cluster_service_verifies_up_front(self):
        with pytest.raises(PlanVerificationError):
            ClusterService(self._corrupt(), num_workers=1, k=5)

    def test_corrupted_spool_fails_the_worker_handshake(self):
        service = ClusterService(build_backbone("GRU4Rec"), num_workers=1,
                                 k=5, dispatch_timeout=30.0)
        try:
            with open(service._plan_path, "rb") as fh:
                bad = pickle.load(fh)
            corrupt_gru_weight(bad)
            with open(service._plan_path, "wb") as fh:
                pickle.dump(bad, fh)
            service.kill_worker(0)
            with pytest.raises(RuntimeError,
                               match="failed to load the plan spool"
                               ) as excinfo:
                service.recommend(1, [1, 2, 3])
            assert "gru_forward" in str(excinfo.value)
        finally:
            service.close()


class TestVerifyOnce:
    """Every plan construction path verifies once, after the ANN index
    (when one is asked for) is attached."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Per verification: whether the verified plan carried an index.

        Counts this process only; cluster workers verify their spool in
        their own processes."""
        seen = []
        original = dataflow.verify_plan

        def counting(plan):
            seen.append(plan.ann_index is not None)
            return original(plan)

        monkeypatch.setattr(dataflow, "verify_plan", counting)
        return seen

    def test_freeze_with_ann(self, calls):
        freeze(build_backbone("GRU4Rec"), ann=True)
        assert calls == [True]

    def test_quantized_plan_with_ann(self, calls):
        quantized = quantize_plan(
            freeze(build_backbone("GRU4Rec"), ann=True, verify=False),
            "int8")
        assert calls == []
        quantized.verify()
        assert calls == [True]
        calls.clear()
        quantized.dequantize(verify=True)
        assert calls == [True]
        calls.clear()
        quantized.dequantize(verify=False)
        assert calls == []

    def test_recommend_service_with_ann(self, calls):
        service = RecommendService(build_backbone("GRU4Rec"), k=5,
                                   retrieval="ann")
        assert calls == [True]
        calls.clear()
        service.swap_plan(build_backbone("GRU4Rec", seed=4))
        assert calls == [True]

    def test_cluster_service_with_ann(self, calls):
        service = ClusterService(build_backbone("GRU4Rec"), num_workers=1,
                                 k=5, retrieval="ann", dispatch_timeout=30.0)
        try:
            assert calls == [True]
            calls.clear()
            service.swap_plan(build_backbone("GRU4Rec", seed=4))
            assert calls == [True]
        finally:
            service.close()


class TestMemoryFootprint:
    def test_footprint_shape_and_batch_scaling(self):
        plan = freeze(build_backbone("SASRec"))
        footprint = memory_footprint(plan)
        assert footprint["model"] == "SASRec"
        assert footprint["steps"] == len(plan.programs["encode"]) + 1
        assert footprint["weight_bytes"] > 0
        small = footprint["activations"]["1"]
        large = footprint["activations"]["64"]
        assert large["peak_step_bytes"] > small["peak_step_bytes"]
        assert small["total_bytes"] >= small["peak_step_bytes"]
        assert small["peak_step_op"] in OPS

    def test_default_footprints_cover_every_backbone(self):
        footprints = default_plan_footprints()
        assert [f["model"] for f in footprints] == sorted(BACKBONES)
        assert all(f["weight_bytes"] > 0 for f in footprints)
