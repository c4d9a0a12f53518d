"""Synthetic stand-ins for the paper's benchmark datasets.

The paper evaluates on public ANN-benchmark datasets (GloVe, Keyword-match,
Geo-radius, ArXiv-titles, deep-image) served through ``vector-db-benchmark``.
Those files are not available offline, so this package generates synthetic
datasets with the same *statistical character* — dimensionality regime,
cluster structure and inter-dimension correlation — scaled down so a single
configuration evaluation completes in milliseconds.
"""

from repro.datasets.dataset import Dataset, DatasetSpec
from repro.datasets.ground_truth import brute_force_neighbors, recall_at_k
from repro.datasets.registry import DATASET_NAMES, dataset_spec, load_dataset
from repro.datasets.synthetic import (
    make_clustered_vectors,
    make_correlated_vectors,
    make_heavy_tailed_vectors,
)

__all__ = [
    "DATASET_NAMES",
    "Dataset",
    "DatasetSpec",
    "brute_force_neighbors",
    "dataset_spec",
    "load_dataset",
    "make_clustered_vectors",
    "make_correlated_vectors",
    "make_heavy_tailed_vectors",
    "recall_at_k",
]
