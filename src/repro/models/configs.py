"""List 1 model configurations: simulation, shared-cluster, and testbed.

The paper evaluates each model at three scales (Appendix D, List 1).
:data:`SIMULATION_CONFIGS` reproduces the section 5.3 dedicated-cluster
presets, :data:`SHARED_CLUSTER_CONFIGS` the section 5.6 presets, and
:data:`TESTBED_CONFIGS` the 12-node prototype presets of section 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict

from repro.models.base import DNNModel
from repro.models.bert import build_bert
from repro.models.candle import build_candle
from repro.models.dlrm import build_dlrm
from repro.models.ncf import build_ncf
from repro.models.resnet import build_resnet50
from repro.models.vgg import build_vgg

MODEL_BUILDERS: Dict[str, Callable[..., DNNModel]] = {
    "DLRM": build_dlrm,
    "CANDLE": build_candle,
    "BERT": build_bert,
    "NCF": build_ncf,
    "ResNet50": lambda **kw: build_resnet50(**kw),
    "VGG16": lambda **kw: build_vgg(16, **kw),
    "VGG19": lambda **kw: build_vgg(19, **kw),
}


@dataclass(frozen=True)
class ModelConfig:
    """A named, reusable model parameterization."""

    model: str
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def build(self) -> DNNModel:
        builder = MODEL_BUILDERS.get(self.model)
        if builder is None:
            raise KeyError(
                f"unknown model {self.model!r}; "
                f"known: {sorted(MODEL_BUILDERS)}"
            )
        return builder(**self.kwargs)


#: Section 5.3 (dedicated 128-server cluster) presets.
SIMULATION_CONFIGS: Dict[str, ModelConfig] = {
    "VGG16": ModelConfig("VGG16", {"batch_per_gpu": 64}),
    "ResNet50": ModelConfig("ResNet50", {"batch_per_gpu": 128}),
    "BERT": ModelConfig(
        "BERT",
        {
            "num_blocks": 12,
            "hidden": 1024,
            "seq_len": 64,
            "heads": 16,
            "embedding_size": 512,
            "batch_per_gpu": 16,
        },
    ),
    "DLRM": ModelConfig(
        "DLRM",
        {
            "num_dense_layers": 8,
            "dense_layer_size": 2048,
            "num_feature_layers": 16,
            "feature_layer_size": 4096,
            "embedding_dim": 128,
            "embedding_rows": 10_000_000,
            "num_embedding_tables": 64,
            "batch_per_gpu": 128,
        },
    ),
    "CANDLE": ModelConfig(
        "CANDLE",
        {
            "num_dense_layers": 8,
            "dense_layer_size": 16384,
            "num_feature_layers": 16,
            "feature_layer_size": 16384,
            "batch_per_gpu": 256,
        },
    ),
    "NCF": ModelConfig(
        "NCF",
        {
            "num_dense_layers": 8,
            "dense_layer_size": 4096,
            "num_user_tables": 32,
            "num_item_tables": 32,
            "users_per_table": 1_000_000,
            "items_per_table": 1_000_000,
            "mf_dim": 64,
            "mlp_dim": 128,
            "batch_per_gpu": 128,
        },
    ),
}

#: Section 5.6 (shared 432-server cluster) presets.
SHARED_CLUSTER_CONFIGS: Dict[str, ModelConfig] = {
    "VGG16": ModelConfig("VGG16", {"batch_per_gpu": 64}),
    "BERT": ModelConfig(
        "BERT",
        {
            "num_blocks": 6,
            "hidden": 768,
            "seq_len": 256,
            "heads": 6,
            "embedding_size": 512,
            "batch_per_gpu": 16,
        },
    ),
    "DLRM": ModelConfig(
        "DLRM",
        {
            "num_dense_layers": 8,
            "dense_layer_size": 1024,
            "num_feature_layers": 16,
            "feature_layer_size": 2048,
            "embedding_dim": 256,
            "embedding_rows": 10_000_000,
            "num_embedding_tables": 16,
            "batch_per_gpu": 256,
        },
    ),
    "CANDLE": ModelConfig(
        "CANDLE",
        {
            "num_dense_layers": 8,
            "dense_layer_size": 4096,
            "num_feature_layers": 16,
            "feature_layer_size": 4096,
            "batch_per_gpu": 256,
        },
    ),
}

#: Section 6 (12-node testbed) presets.
TESTBED_CONFIGS: Dict[str, ModelConfig] = {
    "VGG16": ModelConfig("VGG16", {"batch_per_gpu": 32}),
    "VGG19": ModelConfig("VGG19", {"batch_per_gpu": 32}),
    "ResNet50": ModelConfig("ResNet50", {"batch_per_gpu": 20}),
    "BERT": ModelConfig(
        "BERT",
        {
            "num_blocks": 6,
            "hidden": 1024,
            "seq_len": 1024,
            "heads": 16,
            "embedding_size": 512,
            "batch_per_gpu": 2,
        },
    ),
    # Standard DLRM for the throughput comparison (Figure 19).
    "DLRM": ModelConfig(
        "DLRM",
        {
            "num_dense_layers": 4,
            "dense_layer_size": 1024,
            "num_feature_layers": 8,
            "feature_layer_size": 2048,
            "embedding_dim": 256,
            "embedding_rows": 100_000,
            "num_embedding_tables": 12,
            "batch_per_gpu": 64,
        },
    ),
    # Section 6's worst-case all-to-all DLRM (Figure 21): embedding
    # dimensions inflated 128x relative to the production baseline's
    # dim-32 tables (32 x 128 = 4096), which lands the all-to-all to
    # AllReduce traffic ratio on the paper's 5%-78% axis.
    "DLRM-alltoall": ModelConfig(
        "DLRM",
        {
            "num_dense_layers": 4,
            "dense_layer_size": 1024,
            "num_feature_layers": 8,
            "feature_layer_size": 2048,
            "embedding_dim": 4096,
            "embedding_rows": 100_000,
            "num_embedding_tables": 12,
            "batch_per_gpu": 64,
        },
    ),
    "CANDLE": ModelConfig(
        "CANDLE",
        {
            "num_dense_layers": 4,
            "dense_layer_size": 4096,
            "num_feature_layers": 8,
            "feature_layer_size": 4096,
            "batch_per_gpu": 10,
        },
    ),
}


#: The paper's three preset families, keyed by scale name -- the single
#: source of truth consumed by :func:`build_model` and the
#: experiment-spec validation in :mod:`repro.api.spec`.
CONFIG_FAMILIES: Dict[str, Dict[str, ModelConfig]] = {
    "simulation": SIMULATION_CONFIGS,
    "shared": SHARED_CLUSTER_CONFIGS,
    "testbed": TESTBED_CONFIGS,
}

#: One-line description per preset family (``repro run --preset``
#: help text and docs).
FAMILY_DESCRIPTIONS: Dict[str, str] = {
    "simulation": "section 5.3 dedicated 128-server cluster presets",
    "shared": "section 5.6 shared 432-server cluster presets",
    "testbed": "section 6 12-node prototype presets",
}


def build_model(name: str, scale: str = "simulation") -> DNNModel:
    """Build a model from a named preset.

    ``scale`` is one of ``"simulation"`` (section 5.3),
    ``"shared"`` (section 5.6), or ``"testbed"`` (section 6).
    """
    if scale not in CONFIG_FAMILIES:
        raise ValueError(
            f"unknown scale {scale!r}; use one of {sorted(CONFIG_FAMILIES)}"
        )
    table = CONFIG_FAMILIES[scale]
    if name not in table:
        raise KeyError(
            f"no {scale} preset for {name!r}; known: {sorted(table)}"
        )
    return table[name].build()
