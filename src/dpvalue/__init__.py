"""Semivalue data valuation under differentially private gradient release."""

from .data import CsvSchema, PartitionedDataset, corrupt_labels, load_csv, partition, synth_classification
from .dp import NoiseConfig, calibrate_sigma
from .models import InitSpec, ModelSpec, init_params
from .valuation import (
    RunConfig,
    SemivalueSpec,
    ValuationResult,
    estimation_stats,
    exact_semivalue,
    permutation_expectation,
    run_federated,
    run_valuation,
    semivalue_weights,
)

__all__ = [
    "CsvSchema",
    "PartitionedDataset",
    "corrupt_labels",
    "load_csv",
    "partition",
    "synth_classification",
    "NoiseConfig",
    "calibrate_sigma",
    "InitSpec",
    "ModelSpec",
    "init_params",
    "RunConfig",
    "SemivalueSpec",
    "ValuationResult",
    "estimation_stats",
    "exact_semivalue",
    "permutation_expectation",
    "run_federated",
    "run_valuation",
    "semivalue_weights",
]

__version__ = "0.1.0"
