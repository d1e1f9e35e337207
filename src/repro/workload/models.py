"""Model zoo: parameterized specs for the paper's workloads (Table III).

Each spec derives parameter counts, FLOP counts, and activation sizes from
architectural hyperparameters, so generators can emit realistic compute
and communication node metadata without hard-coding magic numbers.

Canned instances:

- :func:`gpt3_175b` — 96 layers, hidden 12288 (~175B params);
- :func:`transformer_1t` — 128 layers, hidden 25600 (~1T params);
- :func:`dlrm_paper` — DLRM with 57M MLP parameters;
- :func:`moe_1t` — Mixture-of-Experts with ~1T total parameters
  (Sec. V-B's disaggregated-memory case study).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InputError


@dataclass(frozen=True)
class TransformerSpec:
    """A GPT-style decoder stack.

    FLOP and parameter formulas follow the standard dense-transformer
    accounting: 12 * hidden^2 parameters per layer (4h^2 attention + 8h^2
    MLP), 2 FLOPs per parameter per token for the forward matmuls plus the
    attention score term, and backward costing twice the forward.
    """

    name: str
    num_layers: int
    hidden: int
    seq_len: int
    batch_per_replica: int = 1
    dtype_bytes: int = 2

    def __post_init__(self) -> None:
        for field_name in ("num_layers", "hidden", "seq_len",
                           "batch_per_replica", "dtype_bytes"):
            if getattr(self, field_name) < 1:
                raise InputError(
                    f"{field_name} must be >= 1, got {getattr(self, field_name)}"
                )

    # -- parameters ----------------------------------------------------------------

    @property
    def params_per_layer(self) -> int:
        return 12 * self.hidden * self.hidden

    @property
    def total_params(self) -> int:
        return self.num_layers * self.params_per_layer

    # -- compute -------------------------------------------------------------------

    def fwd_flops_per_layer(self) -> int:
        """Forward FLOPs for one layer at the replica's batch."""
        tokens = self.batch_per_replica * self.seq_len
        matmul = 2 * self.params_per_layer * tokens
        attention = 4 * self.batch_per_replica * self.seq_len**2 * self.hidden
        return matmul + attention

    def bwd_flops_per_layer(self) -> int:
        """Backward is 2x forward (dgrad + wgrad)."""
        return 2 * self.fwd_flops_per_layer()

    # -- communication ----------------------------------------------------------------

    def activation_bytes(self) -> int:
        """One layer's output activation for the replica batch."""
        return (
            self.batch_per_replica * self.seq_len * self.hidden * self.dtype_bytes
        )

    def layer_grad_bytes(self) -> int:
        """Weight-gradient payload of one layer (before MP sharding)."""
        return self.params_per_layer * self.dtype_bytes


@dataclass(frozen=True)
class DLRMSpec:
    """Deep Learning Recommendation Model.

    Embedding tables are model-parallel (sharded by table) and exchanged
    with All-to-All; the MLPs are data-parallel and synchronized with
    All-Reduce (paper Table III lists 57M MLP parameters).
    """

    name: str
    mlp_params: int
    num_tables: int
    emb_dim: int
    batch_per_npu: int
    dtype_bytes: int = 4
    mlp_flops_per_sample: int = 0

    def __post_init__(self) -> None:
        for field_name in ("mlp_params", "num_tables", "emb_dim",
                           "batch_per_npu", "dtype_bytes"):
            if getattr(self, field_name) < 1:
                raise InputError(
                    f"{field_name} must be >= 1, got {getattr(self, field_name)}"
                )

    def alltoall_bytes_per_npu(self) -> int:
        """Per-NPU embedding-exchange payload for one direction."""
        return (
            self.batch_per_npu * self.num_tables * self.emb_dim * self.dtype_bytes
        )

    def mlp_grad_bytes(self) -> int:
        return self.mlp_params * self.dtype_bytes

    def mlp_flops(self) -> int:
        """Per-NPU MLP forward FLOPs for its local batch."""
        per_sample = self.mlp_flops_per_sample or 2 * self.mlp_params
        return per_sample * self.batch_per_npu


@dataclass(frozen=True)
class MoESpec:
    """Mixture-of-Experts transformer (DeepSpeed-MoE style).

    Every ``moe_every``-th layer replaces its dense MLP with ``num_experts``
    expert FFNs; tokens are routed with All-to-All (expert parallelism).
    Total parameters ~= dense stack + num_moe_layers * num_experts * 8h^2.
    """

    name: str
    num_layers: int
    hidden: int
    seq_len: int
    num_experts: int
    moe_every: int = 2
    batch_per_gpu: int = 4
    top_k: int = 1
    dtype_bytes: int = 2

    def __post_init__(self) -> None:
        for field_name in ("num_layers", "hidden", "seq_len", "num_experts",
                           "moe_every", "batch_per_gpu", "top_k", "dtype_bytes"):
            if getattr(self, field_name) < 1:
                raise InputError(
                    f"{field_name} must be >= 1, got {getattr(self, field_name)}"
                )

    @property
    def num_moe_layers(self) -> int:
        return self.num_layers // self.moe_every

    @property
    def expert_params(self) -> int:
        """Parameters of one expert FFN (two h x 4h matmuls)."""
        return 8 * self.hidden * self.hidden

    @property
    def dense_params(self) -> int:
        return self.num_layers * 12 * self.hidden * self.hidden

    @property
    def total_params(self) -> int:
        return self.dense_params + self.num_moe_layers * self.num_experts * self.expert_params

    def tokens_per_gpu(self) -> int:
        return self.batch_per_gpu * self.seq_len

    def alltoall_bytes_per_gpu(self) -> int:
        """Token-routing payload per GPU for one dispatch (or combine)."""
        return self.tokens_per_gpu() * self.top_k * self.hidden * self.dtype_bytes

    def expert_flops_per_gpu(self) -> int:
        """Forward expert-FFN FLOPs per GPU per MoE layer."""
        return 2 * self.expert_params * self.tokens_per_gpu() * self.top_k

    def dense_flops_per_gpu(self) -> int:
        """Forward FLOPs of one layer's dense part (attention) per GPU."""
        tokens = self.tokens_per_gpu()
        return 2 * 4 * self.hidden * self.hidden * tokens + (
            4 * self.batch_per_gpu * self.seq_len**2 * self.hidden
        )

    def expert_params_per_gpu(self, num_gpus: int) -> int:
        """Expert parameters hosted per GPU under expert parallelism."""
        if num_gpus < 1:
            raise InputError(f"num_gpus must be >= 1, got {num_gpus}")
        experts_per_gpu = max(1.0, self.num_experts / num_gpus)
        return int(experts_per_gpu * self.expert_params)


# -- canned paper workloads (Table III and Sec. V-B) -------------------------------


def gpt3_175b(batch_per_replica: int = 2) -> TransformerSpec:
    """GPT-3: 96 layers, hidden 12288 -> ~175B parameters."""
    return TransformerSpec(
        name="GPT-3",
        num_layers=96,
        hidden=12288,
        seq_len=2048,
        batch_per_replica=batch_per_replica,
    )


def transformer_1t(batch_per_replica: int = 1) -> TransformerSpec:
    """Transformer-1T: 128 layers, hidden 25600 -> ~1T parameters."""
    return TransformerSpec(
        name="Transformer-1T",
        num_layers=128,
        hidden=25600,
        seq_len=2048,
        batch_per_replica=batch_per_replica,
    )


def dlrm_paper(batch_per_npu: int = 64) -> DLRMSpec:
    """DLRM with 57M MLP parameters (paper Table III)."""
    return DLRMSpec(
        name="DLRM",
        mlp_params=57_000_000,
        num_tables=64,
        emb_dim=128,
        batch_per_npu=batch_per_npu,
    )


def moe_1t(batch_per_gpu: int = 4) -> MoESpec:
    """Mixture-of-Experts with ~1.03T parameters (Sec. V-B case study)."""
    return MoESpec(
        name="MoE-1T",
        num_layers=24,
        hidden=4096,
        seq_len=2048,
        num_experts=640,
        moe_every=2,
        batch_per_gpu=batch_per_gpu,
    )
