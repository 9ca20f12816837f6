"""int8/fp16 FrozenPlan quantization: round-trip metadata + error
bounds over every weight record, and corruption detection through
``PlanVerificationError`` naming the offending weight path."""

import numpy as np
import pytest

from repro.analysis import PlanVerificationError
from repro.core import SSDRec, SSDRecConfig
from repro.data import generate
from repro.models import BACKBONES, GRU4Rec, SRGNN
from repro.serve import (QuantizedArray, dequantize_array, freeze,
                         max_abs_error, quantize_array, quantize_plan)

DIM = 16
MAX_LEN = 10
NUM_ITEMS = 40


def gru_plan(ann=False):
    model = GRU4Rec(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                    rng=np.random.default_rng(0))
    return freeze(model, ann=ann)


class TestArrayRoundTrip:
    @pytest.mark.parametrize("mode", ["int8", "fp16"])
    @pytest.mark.parametrize("shape", [(7,), (5, 9), (3, 4, 6)])
    def test_metadata_and_error_bound(self, mode, shape):
        rng = np.random.default_rng(1)
        arr = rng.normal(size=shape) * rng.uniform(0.01, 10.0)
        qa = quantize_array(arr, mode)
        decoded = dequantize_array(qa, path="w", plan="P")
        assert decoded.shape == arr.shape
        assert decoded.dtype == arr.dtype
        assert qa.shape == arr.shape
        assert qa.dtype == str(arr.dtype)
        assert np.abs(decoded - arr).max() <= max_abs_error(qa)
        assert qa.nbytes < arr.nbytes

    def test_zero_rows_survive_int8(self):
        arr = np.zeros((3, 4))
        decoded = dequantize_array(quantize_array(arr, "int8"))
        np.testing.assert_array_equal(decoded, arr)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="unknown quantization"):
            quantize_array(np.zeros(3), "int4")
        with pytest.raises(ValueError, match="float arrays"):
            quantize_array(np.zeros(3, dtype=np.int64), "int8")


class TestPlanRoundTrip:
    @pytest.mark.parametrize("mode", ["int8", "fp16"])
    def test_every_weight_descriptor_round_trips(self, mode):
        plan = gru_plan()
        quantized = quantize_plan(plan, mode)
        weights = quantized.weights()
        assert weights, "no weight records found"
        assert any("item_table" in path for path in weights)
        restored = quantized.dequantize(verify=True)
        for path, qa in weights.items():
            assert qa.mode == mode
            decoded = dequantize_array(qa, path=path)
            assert decoded.shape == qa.shape
            assert str(decoded.dtype) == qa.dtype
            roundtrip = dequantize_array(quantize_array(decoded, mode),
                                         path=path)
            assert np.abs(roundtrip - decoded).max() <= max_abs_error(qa)
        assert quantized.nbytes() < plan.item_table.nbytes * \
            (1 if mode == "int8" else 4)
        # The restored plan serves: table_t was rebuilt contiguous.
        assert restored.table_t.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(restored.table_t,
                                      restored.item_table.T)

    @pytest.mark.parametrize("mode,tol_scale", [("int8", 1.0),
                                                ("fp16", 1.0)])
    def test_dequantized_scores_within_documented_bound(self, mode,
                                                        tol_scale):
        plan = gru_plan()
        restored = quantize_plan(plan, mode).dequantize()
        rng = np.random.default_rng(3)
        from repro.data.batching import pad_sequences
        seqs = [list(rng.integers(1, NUM_ITEMS + 1, size=5))
                for _ in range(4)]
        items, mask, _ = pad_sequences(seqs, max_len=MAX_LEN)
        exact = plan.forward(items, mask)
        approx = restored.forward(items, mask)
        # Loose end-to-end sanity: quantization noise stays small
        # relative to the score range.
        spread = float(exact.max() - exact.min()) or 1.0
        assert np.abs(approx - exact).max() / spread < 0.1 * tol_scale

    def test_ssdrec_nested_plan_round_trips_with_ann(self):
        dataset = generate("beauty", seed=0, scale=0.25)
        model = SSDRec(dataset, backbone_cls=BACKBONES["GRU4Rec"],
                       config=SSDRecConfig(dim=DIM, max_len=MAX_LEN),
                       rng=np.random.default_rng(2))
        plan = freeze(model, ann=True)
        spec = plan.ann_index.spec()
        quantized = quantize_plan(plan, "int8")
        # The live index never rides the quantized payload — only its
        # build spec does.
        assert quantized.ann_spec == spec
        assert not any("ann_index" in p and "packed" in p
                       for p in quantized.weights())
        restored = quantized.dequantize(verify=True)
        assert restored.ann_index is not None
        assert restored.ann_index.spec() == spec
        # Backbone weights were quantized too (nested plan object).
        assert any("backbone_plan" in p for p in quantized.weights())

    def test_rejects_fallback_plans(self):
        model = SRGNN(num_items=NUM_ITEMS, dim=DIM, max_len=MAX_LEN,
                      rng=np.random.default_rng(4))
        with pytest.raises(ValueError, match="fallback"):
            quantize_plan(freeze(model), "int8")

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown quantization"):
            quantize_plan(gru_plan(), "int3")


class TestCorruptionDetection:
    def find_record(self, quantized, fragment):
        for path, qa in quantized.weights().items():
            if fragment in path:
                return path, qa
        raise AssertionError(f"no record matching {fragment!r}")

    def test_corrupted_scale_shape_names_the_weight(self):
        quantized = quantize_plan(gru_plan(), "int8")
        path, qa = self.find_record(quantized, "item_table")
        qa.scale = qa.scale[:-3]
        with pytest.raises(PlanVerificationError) as err:
            quantized.dequantize()
        assert path in str(err.value)
        assert "scale vector shape" in str(err.value)

    def test_non_finite_scale_detected(self):
        quantized = quantize_plan(gru_plan(), "int8")
        path, qa = self.find_record(quantized, "item_table")
        qa.scale[0, 0] = np.nan
        with pytest.raises(PlanVerificationError,
                           match="non-finite or non-positive"):
            quantized.dequantize()

    def test_truncated_codes_detected(self):
        quantized = quantize_plan(gru_plan(), "int8")
        path, qa = self.find_record(quantized, "item_table")
        qa.data = qa.data.reshape(-1)[:-5]
        with pytest.raises(PlanVerificationError) as err:
            quantized.dequantize()
        assert path in str(err.value)
        assert "recorded shape" in str(err.value)

    def test_wrong_code_dtype_detected(self):
        qa = quantize_array(np.ones((2, 3)), "int8")
        qa.data = qa.data.astype(np.int16)
        with pytest.raises(PlanVerificationError, match="int16"):
            dequantize_array(qa, path="w")

    def test_missing_scale_detected(self):
        qa = quantize_array(np.ones((2, 3)), "int8")
        qa.scale = None
        with pytest.raises(PlanVerificationError, match="missing"):
            dequantize_array(qa, path="w")

    def test_unknown_mode_detected(self):
        qa = QuantizedArray("int5", (2,), "float64",
                            np.zeros(2, dtype=np.int8),
                            np.ones((1, 1)))
        with pytest.raises(PlanVerificationError, match="int5"):
            dequantize_array(qa, path="w")


class TestPlanPickle:
    """Plans pickle without ``table_t`` and rebuild it on load."""

    def test_pickle_drops_and_rebuilds_table_t(self):
        import copy
        import pickle

        from repro.models import SASRec
        model = SASRec(num_items=10_000, dim=32, max_len=MAX_LEN,
                       rng=np.random.default_rng(0))
        plan = freeze(model)
        payload = pickle.dumps(plan, protocol=pickle.HIGHEST_PROTOCOL)
        # The plain attribute dict still carries table_t: the payload
        # is about half of it.
        with_table_t = pickle.dumps(plan.__dict__,
                                    protocol=pickle.HIGHEST_PROTOCOL)
        assert len(payload) < 0.55 * len(with_table_t)
        for restored in (pickle.loads(payload), copy.deepcopy(plan)):
            assert restored.table_t.flags["C_CONTIGUOUS"]
            assert restored.table_t.dtype == plan.table_t.dtype
            assert restored.table_t.tobytes() == plan.table_t.tobytes()
            items = np.arange(1, 11).reshape(2, 5)
            np.testing.assert_array_equal(restored.forward(items),
                                          plan.forward(items))
        # Pickling leaves the live plan's table untouched.
        assert plan.table_t is plan.programs["score"][0]["params"]["table_t"]
        assert plan.table_t is not None

    def test_quantized_payload_holds_no_table_t_record(self):
        quantized = quantize_plan(gru_plan(), "int8")
        assert not any("table_t" in path for path in quantized.weights())
