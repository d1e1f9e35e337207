"""HF-style ``config.json`` ingestion: real model specs → op graphs.

Hugging-Face model repositories describe architectures as a flat JSON
dict keyed by ``model_type`` (ModTrans-style ingestion: the model
definition users already have *is* the workload spec).  This module
normalizes the popular families into :class:`~repro.frontend.ir.OpGraph`
dataflow graphs with analytic per-op costs:

- **decoder** — ``llama`` / ``mistral`` / ``mixtral`` / ``qwen2`` /
  ``gpt2`` / ``gpt_neox`` / ``opt`` /... GPT-style causal stacks,
  including grouped-query attention (``num_key_value_heads``), gated
  MLPs (``intermediate_size``), and Mixtral-style sparse MoE layers
  (``num_local_experts``, routed with All-to-All);
- **vit** — Vision Transformer encoders (patch embedding + encoder
  stack + classification head);
- **unet** — diffusers-style ``UNet2DConditionModel`` configs
  (down/mid/up resnet blocks with cross-attention transformer blocks);
- **dlrm** — a recommendation-model spec (``model_type: "dlrm"``) with
  table-sharded embedding bags exchanged via All-to-All and
  data-parallel bottom/top MLPs.

Runtime knobs that are not architecture (batch size, sequence length,
activation dtype) come in through :class:`IngestOptions`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.errors import strict_int
from repro.frontend.ir import (
    FrontendError,
    OpGraph,
    OpGraphBuilder,
    OpKind,
    attention_flops,
    conv2d_flops,
    matmul_flops,
)

#: ``model_type`` values normalized to the GPT-style decoder family.
DECODER_MODEL_TYPES = frozenset({
    "llama", "mistral", "mixtral", "qwen2", "gemma", "phi",
    "gpt2", "gpt_neox", "gptj", "gpt_bigcode", "opt", "bloom", "falcon",
})


@dataclass(frozen=True)
class IngestOptions:
    """Runtime knobs applied on top of an architecture config."""

    batch: int = 1
    seq_len: int = 0          # 0 = the config's max position / default
    dtype_bytes: int = 2
    image_size: int = 0       # 0 = the config's image/sample size

    def __post_init__(self) -> None:
        if self.batch < 1:
            raise FrontendError(f"batch must be >= 1, got {self.batch}")
        if self.seq_len < 0 or self.image_size < 0:
            raise FrontendError("seq_len/image_size must be >= 0")
        if self.dtype_bytes < 1:
            raise FrontendError(
                f"dtype_bytes must be >= 1, got {self.dtype_bytes}")


def load_config(source: Union[str, Path, Dict[str, Any]]) -> Dict[str, Any]:
    """Load an HF-style config from a dict, JSON string, or file path."""
    if isinstance(source, dict):
        return dict(source)
    text = str(source)
    if text.lstrip().startswith("{"):
        raw = text
    else:
        path = Path(text)
        if not path.exists():
            raise FrontendError(f"model spec file not found: {path}")
        raw = path.read_text()
    try:
        config = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise FrontendError(f"model spec is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise FrontendError(
            f"model spec must be a JSON object, got {type(config).__name__}")
    return config


def detect_family(config: Dict[str, Any]) -> str:
    """Classify a config dict into an ingestion family.

    Raises :class:`FrontendError` when no family matches — the message
    lists what was looked for, so users can see why detection failed.
    """
    model_type = str(config.get("model_type", "")).lower()
    class_name = str(config.get("_class_name", ""))
    if model_type in DECODER_MODEL_TYPES:
        return "decoder"
    if model_type == "vit" or "patch_size" in config and "image_size" in config:
        return "vit"
    if "UNet" in class_name or model_type == "unet":
        return "unet"
    if model_type == "dlrm" or "num_embedding_tables" in config:
        return "dlrm"
    # Fallback: anything with decoder-shaped keys is treated as a decoder.
    if ("hidden_size" in config or "n_embd" in config) and (
            "num_hidden_layers" in config or "n_layer" in config):
        return "decoder"
    raise FrontendError(
        "cannot classify model spec: expected an HF-style config with "
        f"model_type in {sorted(DECODER_MODEL_TYPES)} / 'vit' / 'dlrm', a "
        "diffusers UNet '_class_name', or decoder keys "
        "(hidden_size/num_hidden_layers); got keys "
        f"{sorted(config)[:12]}")


def _require_int(config: Dict[str, Any], *names: str,
                 default: Optional[int] = None, minimum: int = 1) -> int:
    """First present key among aliases, as an int of at least ``minimum``."""
    for name in names:
        if name in config and config[name] is not None:
            value = strict_int(config[name], f"config key {name!r}",
                               FrontendError)
            if value < minimum:
                raise FrontendError(
                    f"config key {name!r} must be >= {minimum}, got {value}")
            return value
    if default is not None:
        return default
    raise FrontendError(
        f"config is missing required key (any of): {names}")


def _int_list(config: Dict[str, Any], name: str, default: List[int]
              ) -> List[int]:
    """A list of ints (default when absent), each checked by the number rule."""
    values = config.get(name, default)
    if not isinstance(values, (list, tuple)):
        raise FrontendError(
            f"config key {name!r} must be a list, got {values!r}")
    return [strict_int(v, f"config key {name!r}", FrontendError)
            for v in values]


def build_op_graph(
    config: Dict[str, Any],
    options: IngestOptions = IngestOptions(),
) -> OpGraph:
    """Lower an HF-style config dict into an op graph."""
    family = detect_family(config)
    if family == "decoder":
        return _build_decoder(config, options)
    if family == "vit":
        return _build_vit(config, options)
    if family == "unet":
        return _build_unet(config, options)
    return _build_dlrm(config, options)


# -- decoder family ----------------------------------------------------------------


def _build_decoder(config: Dict[str, Any], options: IngestOptions) -> OpGraph:
    hidden = _require_int(config, "hidden_size", "n_embd", "d_model")
    layers = _require_int(config, "num_hidden_layers", "n_layer", "num_layers")
    heads = _require_int(config, "num_attention_heads", "n_head",
                         default=max(1, hidden // 64))
    kv_heads = _require_int(config, "num_key_value_heads", default=heads)
    vocab = _require_int(config, "vocab_size", default=32000)
    max_pos = _require_int(config, "max_position_embeddings", "n_positions",
                           default=2048)
    intermediate = _require_int(config, "intermediate_size", "n_inner",
                                default=4 * hidden)
    gated = "intermediate_size" in config and str(
        config.get("hidden_act", "")).lower() in ("silu", "swiglu", "geglu")
    num_experts = _require_int(config, "num_local_experts", "num_experts",
                               default=0, minimum=0)
    top_k = _require_int(config, "num_experts_per_tok", default=1)
    if hidden % heads:
        raise FrontendError(
            f"hidden_size {hidden} is not divisible by "
            f"num_attention_heads {heads}")
    if heads % kv_heads:
        raise FrontendError(
            f"num_attention_heads {heads} is not divisible by "
            f"num_key_value_heads {kv_heads}")

    seq = options.seq_len or min(2048, max_pos)
    batch, dt = options.batch, options.dtype_bytes
    tokens = batch * seq
    act = tokens * hidden * dt
    head_dim = hidden // heads
    kv_dim = kv_heads * head_dim
    name = config.get("_name_or_path") or config.get(
        "model_type", "decoder")

    b = OpGraphBuilder(str(name))
    # Stem: vocab-parallel token embedding (row: the lookup's partial
    # rows reduce across TP ranks, as in Megatron).
    embed = b.add(
        "embed", OpKind.EMBEDDING, flops=tokens * hidden,
        param_bytes=vocab * hidden * dt, output_bytes=act,
        input_bytes=tokens * dt, tp="row")
    prev = embed
    for layer in range(layers):
        ln1 = b.add(f"L{layer}.norm1", OpKind.NORM, deps=(prev,),
                    flops=5 * tokens * hidden, param_bytes=2 * hidden * dt,
                    output_bytes=act, input_bytes=act, layer=layer)
        qkv = b.add(
            f"L{layer}.attn.qkv", OpKind.MATMUL, deps=(ln1,),
            flops=matmul_flops(tokens, hidden, hidden + 2 * kv_dim),
            param_bytes=hidden * (hidden + 2 * kv_dim) * dt,
            output_bytes=tokens * (hidden + 2 * kv_dim) * dt,
            input_bytes=act, layer=layer, tp="col",
            attrs={"heads": heads, "kv_heads": kv_heads})
        scores = b.add(
            f"L{layer}.attn.scores", OpKind.ATTENTION, deps=(qkv,),
            flops=attention_flops(batch, seq, hidden),
            output_bytes=act, input_bytes=act, layer=layer, tp="col")
        out = b.add(
            f"L{layer}.attn.out", OpKind.MATMUL, deps=(scores,),
            flops=matmul_flops(tokens, hidden, hidden),
            param_bytes=hidden * hidden * dt, output_bytes=act,
            input_bytes=act, layer=layer, tp="row")
        ln2 = b.add(f"L{layer}.norm2", OpKind.NORM, deps=(out,),
                    flops=5 * tokens * hidden, param_bytes=2 * hidden * dt,
                    output_bytes=act, input_bytes=act, layer=layer)
        up_cols = 2 * intermediate if gated else intermediate
        moe_layer = num_experts > 1
        route_bytes = tokens * top_k * hidden * dt
        up = b.add(
            f"L{layer}.mlp.up", OpKind.MATMUL, deps=(ln2,),
            flops=top_k * matmul_flops(tokens, hidden, up_cols)
            if moe_layer else matmul_flops(tokens, hidden, up_cols),
            param_bytes=(num_experts if moe_layer else 1)
            * up_cols * hidden * dt,
            output_bytes=tokens * up_cols * dt, input_bytes=act,
            layer=layer, tp="col", routed=moe_layer,
            route_bytes=route_bytes if moe_layer else 0,
            attrs={"experts": num_experts, "top_k": top_k}
            if moe_layer else {})
        down = b.add(
            f"L{layer}.mlp.down", OpKind.MATMUL, deps=(up,),
            flops=top_k * matmul_flops(tokens, intermediate, hidden)
            if moe_layer else matmul_flops(tokens, intermediate, hidden),
            param_bytes=(num_experts if moe_layer else 1)
            * intermediate * hidden * dt,
            output_bytes=act, input_bytes=tokens * intermediate * dt,
            layer=layer, tp="row", routed=moe_layer,
            route_bytes=route_bytes if moe_layer else 0)
        prev = down
    final_norm = b.add("final_norm", OpKind.NORM, deps=(prev,),
                       flops=5 * tokens * hidden,
                       param_bytes=2 * hidden * dt, output_bytes=act,
                       input_bytes=act)
    b.add("lm_head", OpKind.MATMUL, deps=(final_norm,),
          flops=matmul_flops(tokens, hidden, vocab),
          param_bytes=0 if config.get("tie_word_embeddings")
          else vocab * hidden * dt,
          output_bytes=tokens * vocab * dt, input_bytes=act, tp="col")
    return b.build()


# -- ViT family -------------------------------------------------------------------


def _build_vit(config: Dict[str, Any], options: IngestOptions) -> OpGraph:
    hidden = _require_int(config, "hidden_size")
    layers = _require_int(config, "num_hidden_layers")
    intermediate = _require_int(config, "intermediate_size",
                                default=4 * hidden)
    image = options.image_size or _require_int(config, "image_size",
                                               default=224)
    patch = _require_int(config, "patch_size", default=16)
    channels = _require_int(config, "num_channels", default=3)
    num_labels = _require_int(config, "num_labels", default=1000)
    if image % patch:
        raise FrontendError(
            f"image_size {image} is not divisible by patch_size {patch}")
    seq = (image // patch) ** 2 + 1  # patches + [CLS]
    batch, dt = options.batch, options.dtype_bytes
    tokens = batch * seq
    act = tokens * hidden * dt
    patch_dim = channels * patch * patch

    b = OpGraphBuilder(str(config.get("_name_or_path", "vit")))
    embed = b.add(
        "patch_embed", OpKind.CONV,
        flops=matmul_flops(tokens, patch_dim, hidden),
        param_bytes=patch_dim * hidden * dt, output_bytes=act,
        input_bytes=batch * channels * image * image * dt)
    prev = embed
    for layer in range(layers):
        ln1 = b.add(f"L{layer}.norm1", OpKind.NORM, deps=(prev,),
                    flops=5 * tokens * hidden, param_bytes=2 * hidden * dt,
                    output_bytes=act, input_bytes=act, layer=layer)
        qkv = b.add(f"L{layer}.attn.qkv", OpKind.MATMUL, deps=(ln1,),
                    flops=matmul_flops(tokens, hidden, 3 * hidden),
                    param_bytes=3 * hidden * hidden * dt,
                    output_bytes=3 * act, input_bytes=act, layer=layer,
                    tp="col")
        scores = b.add(f"L{layer}.attn.scores", OpKind.ATTENTION,
                       deps=(qkv,), flops=attention_flops(batch, seq, hidden),
                       output_bytes=act, input_bytes=act, layer=layer,
                       tp="col")
        out = b.add(f"L{layer}.attn.out", OpKind.MATMUL, deps=(scores,),
                    flops=matmul_flops(tokens, hidden, hidden),
                    param_bytes=hidden * hidden * dt, output_bytes=act,
                    input_bytes=act, layer=layer, tp="row")
        ln2 = b.add(f"L{layer}.norm2", OpKind.NORM, deps=(out,),
                    flops=5 * tokens * hidden, param_bytes=2 * hidden * dt,
                    output_bytes=act, input_bytes=act, layer=layer)
        fc1 = b.add(f"L{layer}.mlp.fc1", OpKind.MATMUL, deps=(ln2,),
                    flops=matmul_flops(tokens, hidden, intermediate),
                    param_bytes=hidden * intermediate * dt,
                    output_bytes=tokens * intermediate * dt,
                    input_bytes=act, layer=layer, tp="col")
        fc2 = b.add(f"L{layer}.mlp.fc2", OpKind.MATMUL, deps=(fc1,),
                    flops=matmul_flops(tokens, intermediate, hidden),
                    param_bytes=intermediate * hidden * dt,
                    output_bytes=act,
                    input_bytes=tokens * intermediate * dt, layer=layer,
                    tp="row")
        prev = fc2
    final = b.add("final_norm", OpKind.NORM, deps=(prev,),
                  flops=5 * tokens * hidden, param_bytes=2 * hidden * dt,
                  output_bytes=act, input_bytes=act)
    b.add("classifier", OpKind.MATMUL, deps=(final,),
          flops=matmul_flops(batch, hidden, num_labels),
          param_bytes=hidden * num_labels * dt,
          output_bytes=batch * num_labels * dt, input_bytes=act)
    return b.build()


# -- diffusion U-Net family --------------------------------------------------------


def _build_unet(config: Dict[str, Any], options: IngestOptions) -> OpGraph:
    channels = _int_list(config, "block_out_channels", [320, 640, 1280, 1280])
    if not channels or any(c < 1 for c in channels):
        raise FrontendError(
            f"block_out_channels must be positive ints, got {channels}")
    layers_per_block = _require_int(config, "layers_per_block", default=2)
    sample = options.image_size or _require_int(config, "sample_size",
                                                default=64)
    in_channels = _require_int(config, "in_channels", default=4)
    cross_dim = _require_int(config, "cross_attention_dim", default=768)
    text_len = _require_int(config, "encoder_seq_len", default=77)
    down_types = config.get(
        "down_block_types",
        ["CrossAttnDownBlock2D"] * (len(channels) - 1) + ["DownBlock2D"])
    if not isinstance(down_types, (list, tuple)):
        raise FrontendError(
            f"config key 'down_block_types' must be a list, got {down_types!r}")
    if len(down_types) != len(channels):
        raise FrontendError(
            f"down_block_types lists {len(down_types)} blocks but "
            f"block_out_channels has {len(channels)} levels")
    batch, dt = options.batch, options.dtype_bytes

    b = OpGraphBuilder(str(config.get("_class_name", "unet")))

    def resnet(level: int, idx: int, c_in: int, c_out: int, res: int,
               deps, tag: str) -> int:
        conv1 = b.add(
            f"{tag}{level}.res{idx}.conv1", OpKind.CONV, deps=deps,
            flops=conv2d_flops(batch, c_in, c_out, 3, res, res),
            param_bytes=c_in * c_out * 9 * dt,
            output_bytes=batch * c_out * res * res * dt,
            input_bytes=batch * c_in * res * res * dt, layer=level)
        return b.add(
            f"{tag}{level}.res{idx}.conv2", OpKind.CONV, deps=(conv1,),
            flops=conv2d_flops(batch, c_out, c_out, 3, res, res),
            param_bytes=c_out * c_out * 9 * dt,
            output_bytes=batch * c_out * res * res * dt,
            input_bytes=batch * c_out * res * res * dt, layer=level)

    def attn_block(level: int, idx: int, c: int, res: int, deps,
                   tag: str) -> int:
        seq = res * res
        act = batch * seq * c * dt
        self_attn = b.add(
            f"{tag}{level}.attn{idx}.self", OpKind.ATTENTION, deps=deps,
            flops=attention_flops(batch, seq, c)
            + matmul_flops(batch * seq, c, 4 * c),
            param_bytes=4 * c * c * dt, output_bytes=act, input_bytes=act,
            layer=level, tp="col")
        cross = b.add(
            f"{tag}{level}.attn{idx}.cross", OpKind.ATTENTION,
            deps=(self_attn,),
            flops=4 * batch * seq * text_len * c
            + matmul_flops(batch * text_len, cross_dim, 2 * c)
            + matmul_flops(batch * seq, c, 2 * c),
            param_bytes=2 * (cross_dim + c) * c * dt, output_bytes=act,
            input_bytes=act, layer=level, tp="col")
        return b.add(
            f"{tag}{level}.attn{idx}.ff", OpKind.MATMUL, deps=(cross,),
            flops=matmul_flops(batch * seq, c, 8 * c),
            param_bytes=8 * c * c * dt, output_bytes=act, input_bytes=act,
            layer=level, tp="row")

    conv_in = b.add(
        "conv_in", OpKind.CONV,
        flops=conv2d_flops(batch, in_channels, channels[0], 3, sample,
                           sample),
        param_bytes=in_channels * channels[0] * 9 * dt,
        output_bytes=batch * channels[0] * sample * sample * dt,
        input_bytes=batch * in_channels * sample * sample * dt)
    prev = conv_in
    skips = []  # (level, channels, resolution, node)
    c_in = channels[0]
    for level, c_out in enumerate(channels):
        res = max(1, sample >> level)
        has_attn = "CrossAttn" in str(down_types[level])
        for idx in range(layers_per_block):
            prev = resnet(level, idx, c_in if idx == 0 else c_out, c_out,
                          res, (prev,), "down")
            if has_attn:
                prev = attn_block(level, idx, c_out, res, (prev,), "down")
        skips.append((level, c_out, res, prev))
        c_in = c_out

    mid_res = max(1, sample >> (len(channels) - 1))
    mid_c = channels[-1]
    prev = resnet(len(channels) - 1, layers_per_block, mid_c, mid_c,
                  mid_res, (prev,), "mid")
    prev = attn_block(len(channels) - 1, layers_per_block, mid_c, mid_res,
                      (prev,), "mid")
    prev = resnet(len(channels) - 1, layers_per_block + 1, mid_c, mid_c,
                  mid_res, (prev,), "mid")

    for level, c_out, res, skip in reversed(skips):
        has_attn = "CrossAttn" in str(down_types[level])
        for idx in range(layers_per_block):
            # Skip concat doubles the input channel count.
            prev = resnet(level, layers_per_block + 2 + idx, 2 * c_out,
                          c_out, res, (prev, skip), "up")
            if has_attn:
                prev = attn_block(level, layers_per_block + 2 + idx, c_out,
                                  res, (prev,), "up")
    b.add("conv_out", OpKind.CONV, deps=(prev,),
          flops=conv2d_flops(batch, channels[0], in_channels, 3, sample,
                             sample),
          param_bytes=channels[0] * in_channels * 9 * dt,
          output_bytes=batch * in_channels * sample * sample * dt,
          input_bytes=batch * channels[0] * sample * sample * dt)
    return b.build()


# -- DLRM family -------------------------------------------------------------------


def _build_dlrm(config: Dict[str, Any], options: IngestOptions) -> OpGraph:
    tables = _require_int(config, "num_embedding_tables", "num_tables")
    emb_dim = _require_int(config, "embedding_dim", default=128)
    rows = _require_int(config, "rows_per_table", default=1_000_000)
    bottom = _int_list(config, "bottom_mlp", [13, 512, 256, 128])
    top = _int_list(config, "top_mlp", [479, 1024, 1024, 256, 1])
    if len(bottom) < 2 or len(top) < 2:
        raise FrontendError("bottom_mlp/top_mlp need at least two widths")
    if min(bottom + top) < 1:
        raise FrontendError(
            f"bottom_mlp/top_mlp widths must be >= 1, got {bottom} and {top}")
    batch, dt = options.batch, 4  # DLRM trains in fp32 (paper Table III)

    b = OpGraphBuilder(str(config.get("_name_or_path", "dlrm")))
    prev = None
    for i in range(len(bottom) - 1):
        prev = b.add(
            f"bot_mlp.fc{i}", OpKind.MATMUL,
            deps=(prev,) if prev is not None else (),
            flops=matmul_flops(batch, bottom[i], bottom[i + 1]),
            param_bytes=bottom[i] * bottom[i + 1] * dt,
            output_bytes=batch * bottom[i + 1] * dt,
            input_bytes=batch * bottom[i] * dt)
    lookup = b.add(
        "emb_lookup", OpKind.EMBEDDING, deps=(prev,),
        flops=batch * tables * emb_dim,
        param_bytes=tables * rows * emb_dim * dt,
        output_bytes=batch * tables * emb_dim * dt,
        input_bytes=batch * tables * 8, routed=True,
        route_bytes=batch * tables * emb_dim * dt,
        attrs={"tables": tables, "emb_dim": emb_dim})
    interact = b.add(
        "interaction", OpKind.ELEMENTWISE, deps=(prev, lookup),
        flops=batch * tables * tables * emb_dim,
        output_bytes=batch * top[0] * dt,
        input_bytes=batch * tables * emb_dim * dt)
    prev = interact
    for i in range(len(top) - 1):
        prev = b.add(
            f"top_mlp.fc{i}", OpKind.MATMUL, deps=(prev,),
            flops=matmul_flops(batch, top[i], top[i + 1]),
            param_bytes=top[i] * top[i + 1] * dt,
            output_bytes=batch * top[i + 1] * dt,
            input_bytes=batch * top[i] * dt)
    return b.build()


def default_options_for(config: Dict[str, Any]) -> IngestOptions:
    """Family-appropriate default runtime knobs."""
    family = detect_family(config)
    if family == "dlrm":
        return IngestOptions(batch=64, dtype_bytes=4)
    if family in ("vit", "unet"):
        return IngestOptions(batch=8)
    return IngestOptions(batch=1)
