"""``repro.data`` — interaction datasets, splits, batching, and noise tooling.

Two interchangeable backends satisfy the :class:`SequenceView` protocol:
the in-memory :class:`InteractionDataset` and the memory-mapped
:class:`InteractionStore` (:mod:`repro.data.store`).  One leave-one-out
split and one loader (:mod:`repro.data.stream`) serve both.
"""

from .batching import Batch, NegativeSampler, pad_sequences
from .dataset import PAD_ID, InteractionDataset, SequenceExample, SequenceView
from .eventlog import (EventLog, EventLogIntegrityError, open_event_log,
                       replay_to_store)
from .io import load_dataset, save_dataset
from .loaders import (ingest_amazon_csv, ingest_events_to_store,
                      ingest_yelp_json, load_amazon_csv, load_yelp_json)
from .movielens import find_local_ml100k, ingest_ml100k, load_ml100k
from .noise import NoisyDataset, OUPResult, inject_noise, score_denoising
from .preprocessing import k_core_filter, popularity_split, remap_ids
from .store import (InteractionStore, StoreIntegrityError, StoreWriter,
                    open_store, write_store_from_dataset)
from .stream import (DataLoader, ExampleStream, SequenceSplit,
                     leave_one_out_split, stream_k_core_filter,
                     streaming_leave_one_out)
from .synthetic import (FULL_PROFILES, PROFILES, SyntheticProfile,
                        all_datasets, generate, generate_to_store,
                        profile_by_name)

__all__ = [
    "PAD_ID", "InteractionDataset", "SequenceExample", "SequenceSplit",
    "SequenceView", "leave_one_out_split",
    "Batch", "DataLoader", "NegativeSampler",
    "pad_sequences",
    "k_core_filter", "popularity_split", "remap_ids",
    "PROFILES", "FULL_PROFILES", "SyntheticProfile", "generate",
    "generate_to_store", "profile_by_name", "all_datasets",
    "NoisyDataset", "OUPResult", "inject_noise", "score_denoising",
    "load_ml100k", "find_local_ml100k", "ingest_ml100k",
    "load_amazon_csv", "load_yelp_json", "ingest_amazon_csv",
    "ingest_yelp_json", "ingest_events_to_store",
    "EventLog", "EventLogIntegrityError", "open_event_log",
    "replay_to_store",
    "save_dataset", "load_dataset",
    "InteractionStore", "StoreIntegrityError", "StoreWriter", "open_store",
    "write_store_from_dataset",
    "ExampleStream", "stream_k_core_filter", "streaming_leave_one_out",
]
