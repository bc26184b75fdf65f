// Reference attention implementations: GQA (Qwen2-style) and MLA
// (DeepSeek-style multi-head latent attention).
//
// One implementation serves both the f32 reference model and the hybrid
// engine, where it runs as vcuda GPU kernels (the paper injects FlashInfer's
// MLA kernel here). The caller passes the Projection (projection.h) its
// weight products run on: RefModel the double-accumulated RefGemm, the
// engine its packed f32 SIMD kernels. The MLA path materializes per-position keys/values from
// the cached latent on every step — the paper's matrix-absorption optimization
// changes arithmetic cost, not results, so it is modeled in the cost model
// rather than re-implemented.

#ifndef KTX_SRC_MODEL_ATTENTION_H_
#define KTX_SRC_MODEL_ATTENTION_H_

#include "src/common/status.h"
#include "src/model/config.h"
#include "src/model/kv_cache.h"
#include "src/model/projection.h"
#include "src/tensor/tensor.h"

namespace ktx {

struct AttentionWeights {
  // GQA.
  Tensor wq;  // [heads*head_dim, hidden]
  Tensor wk;  // [kv_heads*head_dim, hidden]
  Tensor wv;  // [kv_heads*head_dim, hidden]
  // MLA.
  Tensor w_dq;   // [q_lora, hidden]
  Tensor w_uq;   // [heads*(head_dim+rope_dim), q_lora]
  Tensor w_dkv;  // [kv_lora+rope_dim, hidden] (joint latent + decoupled key)
  Tensor w_uk;   // [heads*head_dim, kv_lora]
  Tensor w_uv;   // [heads*v_head_dim, kv_lora]
  // Both.
  Tensor wo;  // [hidden, heads*{head_dim|v_head_dim}]
};

// Rotates `dim` leading values of vec in (even, odd) pairs by position
// `pos` (theta base 10000) — standard RoPE.
void ApplyRope(float* vec, std::int64_t dim, std::int64_t pos);

// Processes `m` new tokens whose first absolute position is `pos0`
// (the cache already holds positions [0, pos0)). Appends to the cache through
// the row view and writes attention output (pre-residual) to out[m, hidden].
// Causal masking. Rows are addressed via KvLayerView, so contiguous and paged
// caches produce bit-identical results (paged windowed GEMMs run per
// physically-contiguous block run). Returns kResourceExhausted — without
// touching the cache — when [pos0, pos0+m) overflows config.max_seq or the
// view's prepared capacity; engine Try* entry points propagate this instead
// of aborting.
Status AttentionForward(const MoeModelConfig& config, const Projection& proj,
                        const AttentionWeights& w, const float* x, std::int64_t m,
                        std::int64_t pos0, const KvLayerView& cache, float* out);

// Batched decode: `rows` independent single-token streams, one per row of
// x[rows, hidden]. Row r attends against caches[r]->layer(layer) at absolute
// position positions[r]. The weight products run once over all rows; each
// row then runs the exact m=1 AttentionForward append-and-attend math, so by
// row independence (projection.h) outputs are bit-identical to `rows`
// sequential single-session decode steps in any batch composition. Every
// row's capacity is checked before any cache write: an overflowing row
// fails the call with no cache touched.
Status AttentionDecodeBatch(const MoeModelConfig& config, const Projection& proj,
                            const AttentionWeights& w, const float* x, std::int64_t rows,
                            const std::int64_t* positions, KvCache* const* caches, int layer,
                            float* out);

// FLOP / byte estimates for the cost model (per layer, given m new tokens at
// context length `seq`). Accounts for MLA matrix absorption on the decode
// path when config.attention == kMla.
struct AttentionCost {
  double flops = 0.0;
  double bytes = 0.0;
};
AttentionCost EstimateAttentionCost(const MoeModelConfig& config, std::int64_t m,
                                    std::int64_t seq, double bytes_per_weight);

}  // namespace ktx

#endif  // KTX_SRC_MODEL_ATTENTION_H_
