// Transformer model configurations and parameter/FLOP accounting.
//
// Sizes follow the standard decoder-only LLM layout with optional grouped-
// query attention (GQA) and optional mixture-of-experts (MoE) feed-forward
// blocks. Presets cover the models the paper's evaluation references:
// Llama3-8B (the traced workload), Llama3.1-405B (Eq. 1 window counting),
// plus GPT-3-175B and a Mixtral-style MoE for EP experiments.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.h"

namespace opus::workload {

struct ModelConfig {
  std::string name;
  int n_layers = 0;
  int hidden = 0;
  int n_heads = 0;
  int n_kv_heads = 0;  ///< GQA; == n_heads for multi-head attention
  int ffn_hidden = 0;  ///< intermediate size (per expert when MoE)
  int vocab = 0;
  int seq_len = 0;
  /// SwiGLU FFN (3 projections) vs classic GELU MLP (2 projections).
  bool swiglu = true;
  int dtype_bytes = 2;  ///< bf16 parameters/activations
  int grad_dtype_bytes = 4;  ///< fp32 gradient reduction (matches FSDP)
  /// MoE: number of experts per MoE layer (0 => dense model).
  int n_experts = 0;
  /// MoE: experts activated per token (top-k routing).
  int experts_per_token = 0;

  /// Field-wise equality (config/serde skips fields equal to the default).
  friend bool operator==(const ModelConfig&, const ModelConfig&) = default;

  bool moe() const { return n_experts > 0; }
  int head_dim() const { return hidden / n_heads; }
  int kv_dim() const { return n_kv_heads * head_dim(); }

  /// Attention block parameters (Q,K,V,O projections).
  std::int64_t attention_params() const;
  /// One feed-forward (SwiGLU) block: gate+up+down projections.
  std::int64_t ffn_params() const;
  /// One transformer layer: attention + FFN (all experts when MoE).
  std::int64_t params_per_layer() const;
  /// Parameters of a layer that are *activated* for one token (top-k experts
  /// only when MoE). Governs compute, not memory.
  std::int64_t active_params_per_layer() const;
  /// Input embedding + output head (untied).
  std::int64_t embedding_params() const;
  std::int64_t total_params() const;

  /// Forward FLOPs for one token through one layer (dense matmuls 2*params
  /// plus the attention score/value matmuls).
  double fwd_flops_per_token_per_layer() const;

  /// Bytes of one token's activation vector.
  Bytes activation_bytes_per_token() const { return hidden * dtype_bytes; }

  // ---- Presets -------------------------------------------------------------
  static ModelConfig llama3_8b();
  static ModelConfig llama31_405b();
  static ModelConfig gpt3_175b();
  static ModelConfig mixtral_8x7b();
  /// Tiny model for fast unit tests.
  static ModelConfig test_tiny();
};

}  // namespace opus::workload
