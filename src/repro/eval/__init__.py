"""``repro.eval`` — full-ranking metrics, evaluator, and significance tests."""

from .evaluator import Evaluator, StreamingEvaluator
from .metrics import (hit_ratio, improvement, metric_report, mrr, ndcg,
                      ranks_from_scores, recall_against_oracle,
                      sampled_ranks)
from .significance import (TTestResult, compare_rank_lists, paired_t_test,
                           welch_t_test)

__all__ = [
    "Evaluator", "StreamingEvaluator",
    "ranks_from_scores", "sampled_ranks", "hit_ratio", "ndcg", "mrr",
    "metric_report", "improvement", "recall_against_oracle",
    "TTestResult", "welch_t_test", "paired_t_test", "compare_rank_lists",
]
