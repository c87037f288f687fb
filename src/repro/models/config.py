"""Architecture description for the models whose states we cache.

A :class:`ModelConfig` is a frozen value object: it names the layer
composition (how many Attention, SSM, and MLP layers) and the dimensions
that the cost model in :mod:`repro.models.flops` / :mod:`repro.models.memory`
needs.  The same object also carries the small set of extra hyperparameters
used by the executable NumPy model in :mod:`repro.nn` so that tests can run
one config through both the analytic and the executable paths.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass


class LayerType(str, enum.Enum):
    """The three layer families the paper's cost model distinguishes."""

    ATTENTION = "attention"
    SSM = "ssm"
    MLP = "mlp"


@dataclass(frozen=True)
class ModelConfig:
    """Layer composition and dimensions of a (possibly hybrid) LLM.

    Parameters
    ----------
    name:
        Human-readable identifier, e.g. ``"hybrid-7b"``.
    d_model:
        Model (hidden) dimension ``D``.
    d_state:
        SSM state/feature dimension ``N`` (ignored when ``n_ssm == 0``).
    n_attention, n_ssm, n_mlp:
        Number of layers of each type.
    dtype_bytes:
        Bytes per parameter/state element; 2 for the paper's FP16 setting.
    expand:
        SSM inner-dimension expansion factor (``d_inner = expand * d_model``),
        used for the conv1d state size and by :mod:`repro.nn`.
    d_conv:
        Causal conv1d kernel width inside each SSM layer.
    n_heads:
        Attention head count (only used by the executable model).
    vocab_size:
        Vocabulary size (only used by the executable model).
    """

    name: str
    d_model: int
    d_state: int
    n_attention: int
    n_ssm: int
    n_mlp: int
    dtype_bytes: int = 2
    expand: int = 2
    d_conv: int = 4
    n_heads: int = 8
    vocab_size: int = 32000

    def __post_init__(self) -> None:
        if self.d_model <= 0:
            raise ValueError(f"d_model must be positive, got {self.d_model}")
        if self.n_ssm > 0 and self.d_state <= 0:
            raise ValueError(
                f"d_state must be positive for a model with SSM layers, got {self.d_state}"
            )
        if min(self.n_attention, self.n_ssm, self.n_mlp) < 0:
            raise ValueError("layer counts must be non-negative")
        if self.n_attention + self.n_ssm + self.n_mlp == 0:
            raise ValueError("model must have at least one layer")
        if self.dtype_bytes <= 0:
            raise ValueError(f"dtype_bytes must be positive, got {self.dtype_bytes}")
        if self.n_attention > 0 and self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} must be divisible by n_heads={self.n_heads}"
            )

    def __getstate__(self) -> dict:
        # The fields only: the costs repro.models.flops / memory keep in the
        # instance dict are rebuilt on first read, never pickled or copied.
        return {field.name: getattr(self, field.name) for field in dataclasses.fields(self)}

    # ------------------------------------------------------------------
    # Derived properties
    # ------------------------------------------------------------------
    @property
    def d_inner(self) -> int:
        """Inner dimension of SSM layers (``expand * d_model``)."""
        return self.expand * self.d_model

    @property
    def n_layers(self) -> int:
        """Total layer count across all families."""
        return self.n_attention + self.n_ssm + self.n_mlp

    @property
    def has_recurrent_layers(self) -> bool:
        """True when the model contains at least one in-place-updated layer.

        This is the property that flips the cache-hit semantics: with any
        recurrent layer present, prefix reuse is "all or nothing" and only
        exact-match SSM checkpoints can serve a hit (paper section 3).
        """
        return self.n_ssm > 0

    @property
    def is_pure_transformer(self) -> bool:
        """True when the model has no recurrent layers at all."""
        return self.n_ssm == 0

    @property
    def attention_ssm_ratio(self) -> float:
        """Attention:SSM layer ratio, ``inf`` for pure Transformers."""
        if self.n_ssm == 0:
            return float("inf")
        return self.n_attention / self.n_ssm

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    def with_state_dim(self, d_state: int, name: str | None = None) -> "ModelConfig":
        """Return a copy with a different SSM state dimension ``N``."""
        return dataclasses.replace(
            self, d_state=d_state, name=name or f"{self.name}-N{d_state}"
        )

    def with_composition(
        self, n_ssm: int, n_attention: int, name: str | None = None
    ) -> "ModelConfig":
        """Return a copy with a different (SSM, Attention) layer composition."""
        return dataclasses.replace(
            self,
            n_ssm=n_ssm,
            n_attention=n_attention,
            name=name or f"{self.name}-s{n_ssm}a{n_attention}",
        )

    def layer_counts(self) -> dict[LayerType, int]:
        """Map each :class:`LayerType` to its layer count."""
        return {
            LayerType.ATTENTION: self.n_attention,
            LayerType.SSM: self.n_ssm,
            LayerType.MLP: self.n_mlp,
        }
