"""Tests for the abstract shape/dtype interpreter and plan verifier.

Covers the lattice primitives, end-to-end verification of every
registered backbone (and SSDRec variants) cross-checked step by step
against concrete runs of the same programs, the serving facts derived
from which programs a plan has, structured failures on deliberately
corrupted plans at ``freeze()`` and spool-load time, and the abstract
memory-footprint estimates.
"""

import pickle

import numpy as np
import pytest

from repro.analysis.dataflow import (PlanVerificationError,
                                     default_plan_footprints,
                                     memory_footprint, plan_inputs,
                                     run_program, verify_plan)
from repro.analysis.signatures import (SIGNATURES, AbstractValue,
                                       SignatureError, aval,
                                       broadcast_shapes)
from repro.core import SSDRec, SSDRecConfig
from repro.data import generate
from repro.models import BACKBONES, GRU4Rec
from repro.serve import FallbackPlan, freeze
from repro.serve.cluster import ClusterService
from repro.serve.program import OPS, execute, run_step
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

ANN_PSEUDO_OPS = {"centroid_scores", "probe_clusters", "ann_gather_topk"}


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
    every output's concrete shape/dtype against the abstract trace."""
    assert len(program) == len(trace)
    for entry, expected in zip(program, trace):
        run_step(entry, env)
        for name, value in zip(entry["out"], expected.outputs):
            got = np.asarray(env[name])
            assert (got.shape, str(got.dtype)) == (
                value.concretize(batch), value.dtype), (
                f"step {expected.index} ({entry['op']}) output {name!r}")
    return env


def check_every_program(plan, batch: int = 3, seed: int = 0):
    """Verify ``plan`` and run every program it serves against the trace,
    from the same inputs ``verify_plan`` interprets abstractly."""
    traces = verify_plan(plan)
    rng = np.random.default_rng(seed)
    vocab = plan.item_table.shape[0]

    def inputs(length):
        return {"items": rng.integers(1, vocab, size=(batch, length)),
                "mask": np.ones((batch, length), dtype=bool),
                "users": np.zeros(batch, dtype=np.int64)}

    run_like_trace(plan.program(), traces["forward"],
                   inputs(plan.max_len), batch)
    programs = plan.programs
    assert set(traces) == {"forward"} | (set(programs) - {"encode",
                                                          "score"})
    if "tight" in programs:
        run_like_trace(programs["tight"], traces["tight"],
                       inputs(plan.max_len), batch)
    if "append" in programs:
        env = execute(programs["tight"], inputs(plan.max_len - 1))
        state = {name: env[name] for name in plan.state_names}
        state["item"] = rng.integers(1, vocab, size=batch)
        env = run_like_trace(programs["append"], traces["append"], state,
                             batch)
        run_like_trace(programs["readout"], traces["readout"],
                       {name: env[name] for name in plan.state_names},
                       batch)
    return traces


class TestAbstractValue:
    def test_nbytes_and_concretize_bind_the_batch_symbol(self):
        value = AbstractValue(("B", 10, 4), "float64")
        assert value.concretize(3) == (3, 10, 4)
        assert value.nbytes(3) == 3 * 10 * 4 * 8
        assert "B" in str(value)

    def test_aval_accepts_arrays_and_descriptors(self):
        arr = np.zeros((2, 3), dtype=np.float64)
        assert aval(arr) == AbstractValue((2, 3), "float64")
        desc = {"shape": (2, 3), "dtype": "float64", "nbytes": 48}
        assert aval(desc) == AbstractValue((2, 3), "float64")

    def test_broadcast_shapes(self):
        assert broadcast_shapes(("B", 1, 4), (1, 10, 4)) == ("B", 10, 4)
        with pytest.raises(SignatureError):
            broadcast_shapes(("B", 3), ("B", 4))

    def test_every_signature_is_callable(self):
        assert len(SIGNATURES) >= 30
        assert all(callable(fn) for fn in SIGNATURES.values())

    def test_op_table_and_signatures_name_the_same_ops(self):
        # Every runnable op is verifiable and vice versa; only the ANN
        # pseudo-ops are verifier-only.
        assert set(OPS) == set(SIGNATURES) - ANN_PSEUDO_OPS


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
        env, _ = run_program(plan.program(), plan_inputs(plan),
                             plan_name="SASRec")
        scores = env["scores"]
        assert scores.shape == ("B", NUM_ITEMS + 1)
        assert scores.dtype == "float64"


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
        program = plan.program()
        program[0]["op"] = "warp_drive"
        with pytest.raises(PlanVerificationError) as excinfo:
            run_program(program, plan_inputs(plan), plan_name="SASRec")
        err = excinfo.value
        assert err.step_index == 0
        assert err.op == "warp_drive"
        assert "no transfer function" in str(err)

    def test_undefined_input_names_the_step(self):
        plan = freeze(build_backbone("SASRec"))
        program = plan.program()
        program[1]["in"] = ["ghost"]
        with pytest.raises(PlanVerificationError, match="ghost"):
            run_program(program, plan_inputs(plan), plan_name="SASRec")


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


class TestMemoryFootprint:
    def test_footprint_shape_and_batch_scaling(self):
        plan = freeze(build_backbone("SASRec"))
        footprint = memory_footprint(plan)
        assert footprint["model"] == "SASRec"
        assert footprint["steps"] == len(plan.program())
        assert footprint["weight_bytes"] > 0
        small = footprint["activations"]["1"]
        large = footprint["activations"]["64"]
        assert large["peak_step_bytes"] > small["peak_step_bytes"]
        assert small["total_bytes"] >= small["peak_step_bytes"]
        assert small["peak_step_op"] in SIGNATURES

    def test_default_footprints_cover_every_backbone(self):
        footprints = default_plan_footprints()
        assert [f["model"] for f in footprints] == sorted(BACKBONES)
        assert all(f["weight_bytes"] > 0 for f in footprints)
