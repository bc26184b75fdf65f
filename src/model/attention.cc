#include "src/model/attention.h"

#include <cmath>
#include <cstring>
#include <map>
#include <mutex>
#include <functional>
#include <vector>

#include "src/common/logging.h"
#include "src/cpu/activation.h"

namespace ktx {

namespace {

// Per-dimension inverse-frequency table: pow() is far more expensive than the
// rotation itself, and the frequencies depend only on (i, dim), so they are
// computed once per head size and shared across layers and positions.
const std::vector<double>& RopeFrequencies(std::int64_t dim) {
  static std::mutex mu;
  static std::map<std::int64_t, std::vector<double>> cache;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(dim);
  if (it == cache.end()) {
    std::vector<double> freqs;
    for (std::int64_t i = 0; i + 1 < dim; i += 2) {
      freqs.push_back(std::pow(10000.0, -static_cast<double>(i) / static_cast<double>(dim)));
    }
    it = cache.emplace(dim, std::move(freqs)).first;
  }
  return it->second;
}

}  // namespace

void ApplyRope(float* vec, std::int64_t dim, std::int64_t pos) {
  const std::vector<double>& freqs = RopeFrequencies(dim);
  for (std::int64_t i = 0; i + 1 < dim; i += 2) {
    const double angle = static_cast<double>(pos) * freqs[static_cast<std::size_t>(i / 2)];
    const float c = static_cast<float>(std::cos(angle));
    const float s = static_cast<float>(std::sin(angle));
    const float a = vec[i];
    const float b = vec[i + 1];
    vec[i] = a * c - b * s;
    vec[i + 1] = a * s + b * c;
  }
}

namespace {

// Softmax-weighted sum over scores[0..len) and values val(j) -> out.
void AttendRow(const std::vector<float>& scores, std::int64_t len,
               const std::function<const float*(std::int64_t)>& value_at, std::int64_t v_dim,
               float* out) {
  float max_s = -1e30f;
  for (std::int64_t j = 0; j < len; ++j) {
    max_s = std::max(max_s, scores[static_cast<std::size_t>(j)]);
  }
  float denom = 0.0f;
  std::memset(out, 0, static_cast<std::size_t>(v_dim) * sizeof(float));
  for (std::int64_t j = 0; j < len; ++j) {
    const float w = std::exp(scores[static_cast<std::size_t>(j)] - max_s);
    denom += w;
    const float* v = value_at(j);
    for (std::int64_t d = 0; d < v_dim; ++d) {
      out[d] += w * v[d];
    }
  }
  const float inv = 1.0f / denom;
  for (std::int64_t d = 0; d < v_dim; ++d) {
    out[d] *= inv;
  }
}

// Rows [row0, row0 + n) of one pass append positions [pos0, pos0 + n) of
// `cache`. A prefill / verify pass is one segment; a batched decode pass is
// one single-row segment per session.
struct Segment {
  std::int64_t row0 = 0;
  std::int64_t n = 0;
  std::int64_t pos0 = 0;
  KvLayerView cache;
};

Status CheckCapacity(const MoeModelConfig& config, const Segment& seg) {
  if (seg.pos0 + seg.n > config.max_seq || seg.pos0 + seg.n > seg.cache.capacity_rows()) {
    return ResourceExhaustedError(
        "KV cache overflow: positions [" + std::to_string(seg.pos0) + ", " +
        std::to_string(seg.pos0 + seg.n) + ") exceed max_seq " + std::to_string(config.max_seq) +
        " or prepared rows " + std::to_string(seg.cache.capacity_rows()));
  }
  return OkStatus();
}

// The weight products run once over all m rows of the pass; each segment then
// appends to and attends against its own cache. Row independence of the
// products (projection.h) makes this bit-identical to one call per segment.
void GqaForward(const MoeModelConfig& config, const Projection& proj, const AttentionWeights& w,
                const float* x, std::int64_t m, const std::vector<Segment>& segments,
                float* out) {
  const std::int64_t hidden = config.hidden;
  const std::int64_t hd = config.head_dim;
  const int heads = config.num_heads;
  const int kv_heads = config.num_kv_heads;
  const int group = heads / kv_heads;
  const std::int64_t q_dim = heads * hd;
  const std::int64_t kv_dim = kv_heads * hd;

  std::vector<float> q(static_cast<std::size_t>(m * q_dim));
  std::vector<float> k_new(static_cast<std::size_t>(m * kv_dim));
  std::vector<float> v_new(static_cast<std::size_t>(m * kv_dim));
  proj.Apply(w.wq, x, m, hidden, q.data(), q_dim);
  proj.Apply(w.wk, x, m, hidden, k_new.data(), kv_dim);
  proj.Apply(w.wv, x, m, hidden, v_new.data(), kv_dim);

  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  std::vector<float> attn_out(static_cast<std::size_t>(m * q_dim));
  std::vector<float> scores;
  for (const Segment& seg : segments) {
    const KvLayerView& cache = seg.cache;
    // Append new K/V to the cache, with RoPE on K.
    for (std::int64_t i = seg.row0; i < seg.row0 + seg.n; ++i) {
      const std::int64_t pos = seg.pos0 + (i - seg.row0);
      float* krow = cache.k_row(pos);
      float* vrow = cache.v_row(pos);
      const std::size_t row_bytes = static_cast<std::size_t>(kv_dim) * sizeof(float);
      std::memcpy(krow, k_new.data() + i * kv_dim, row_bytes);
      std::memcpy(vrow, v_new.data() + i * kv_dim, row_bytes);
      for (int h = 0; h < kv_heads; ++h) {
        ApplyRope(krow + h * hd, hd, pos);
      }
      for (int h = 0; h < heads; ++h) {
        ApplyRope(q.data() + i * q_dim + h * hd, hd, pos);
      }
    }
    for (std::int64_t i = seg.row0; i < seg.row0 + seg.n; ++i) {
      const std::int64_t len = seg.pos0 + (i - seg.row0) + 1;  // causal window
      scores.resize(static_cast<std::size_t>(len));
      for (int h = 0; h < heads; ++h) {
        const int kvh = h / group;
        const float* qh = q.data() + i * q_dim + h * hd;
        for (std::int64_t j = 0; j < len; ++j) {
          const float* kj = cache.k_row(j) + kvh * hd;
          float dot = 0.0f;
          for (std::int64_t d = 0; d < hd; ++d) {
            dot += qh[d] * kj[d];
          }
          scores[static_cast<std::size_t>(j)] = dot * scale;
        }
        AttendRow(
            scores, len,
            [&](std::int64_t j) { return cache.v_row(j) + kvh * hd; }, hd,
            attn_out.data() + i * q_dim + h * hd);
      }
    }
  }
  proj.Apply(w.wo, attn_out.data(), m, q_dim, out, hidden);
}

void MlaForward(const MoeModelConfig& config, const Projection& proj, const AttentionWeights& w,
                const float* x, std::int64_t m, const std::vector<Segment>& segments,
                float* out) {
  const std::int64_t hidden = config.hidden;
  const std::int64_t nope = config.head_dim;
  const std::int64_t rope = config.rope_dim;
  const std::int64_t vd = config.v_head_dim;
  const std::int64_t lora = config.kv_lora_rank;
  const int heads = config.num_heads;
  const std::int64_t qk_head = nope + rope;
  const std::int64_t q_dim = heads * qk_head;

  // Query path: optional low-rank compression, then up-projection.
  std::vector<float> q(static_cast<std::size_t>(m * q_dim));
  if (config.q_lora_rank > 0) {
    std::vector<float> cq(static_cast<std::size_t>(m * config.q_lora_rank));
    proj.Apply(w.w_dq, x, m, hidden, cq.data(), config.q_lora_rank);
    proj.Apply(w.w_uq, cq.data(), m, config.q_lora_rank, q.data(), q_dim);
  } else {
    proj.Apply(w.w_uq, x, m, hidden, q.data(), q_dim);
  }
  // Joint KV compression: [kv_lora | rope] per new position.
  std::vector<float> dkv(static_cast<std::size_t>(m * (lora + rope)));
  proj.Apply(w.w_dkv, x, m, hidden, dkv.data(), lora + rope);

  const float scale = 1.0f / std::sqrt(static_cast<float>(qk_head));
  std::vector<float> attn_out(static_cast<std::size_t>(m * heads * vd));
  std::vector<float> k_nope;
  std::vector<float> v_all;
  std::vector<float> scores;
  for (const Segment& seg : segments) {
    const KvLayerView& cache = seg.cache;
    // Append the latent rows; RoPE on the decoupled key part and on each
    // query's rope part.
    for (std::int64_t i = seg.row0; i < seg.row0 + seg.n; ++i) {
      const std::int64_t pos = seg.pos0 + (i - seg.row0);
      const float* dkv_row = dkv.data() + i * (lora + rope);
      std::memcpy(cache.ckv_row(pos), dkv_row, static_cast<std::size_t>(lora) * sizeof(float));
      float* krope = cache.k_rope_row(pos);
      std::memcpy(krope, dkv_row + lora, static_cast<std::size_t>(rope) * sizeof(float));
      ApplyRope(krope, rope, pos);
      for (int h = 0; h < heads; ++h) {
        ApplyRope(q.data() + i * q_dim + h * qk_head + nope, rope, pos);
      }
    }

    // Materialize per-position K(nope)/V from the latent for the whole window.
    // Each GEMM row depends only on its own latent row, so running the GEMM
    // per physically-contiguous run (whole window when contiguous, per block
    // when paged) is bit-identical to one whole-window GEMM.
    const std::int64_t window = seg.pos0 + seg.n;
    k_nope.resize(static_cast<std::size_t>(window * heads * nope));
    v_all.resize(static_cast<std::size_t>(window * heads * vd));
    for (std::int64_t p = 0; p < window;) {
      const std::int64_t run = cache.run_length(p, window);
      proj.Apply(w.w_uk, cache.ckv_row(p), run, lora, k_nope.data() + p * heads * nope,
                 heads * nope);
      proj.Apply(w.w_uv, cache.ckv_row(p), run, lora, v_all.data() + p * heads * vd,
                 heads * vd);
      p += run;
    }

    for (std::int64_t i = seg.row0; i < seg.row0 + seg.n; ++i) {
      const std::int64_t len = seg.pos0 + (i - seg.row0) + 1;
      scores.resize(static_cast<std::size_t>(len));
      for (int h = 0; h < heads; ++h) {
        const float* qh = q.data() + i * q_dim + h * qk_head;
        for (std::int64_t j = 0; j < len; ++j) {
          const float* kj = k_nope.data() + (j * heads + h) * nope;
          const float* krope = cache.k_rope_row(j);
          float dot = 0.0f;
          for (std::int64_t d = 0; d < nope; ++d) {
            dot += qh[d] * kj[d];
          }
          for (std::int64_t d = 0; d < rope; ++d) {
            dot += qh[nope + d] * krope[d];
          }
          scores[static_cast<std::size_t>(j)] = dot * scale;
        }
        AttendRow(
            scores, len,
            [&](std::int64_t j) { return v_all.data() + (j * heads + h) * vd; }, vd,
            attn_out.data() + (i * heads + h) * vd);
      }
    }
  }
  proj.Apply(w.wo, attn_out.data(), m, heads * vd, out, hidden);
}

void SegmentsForward(const MoeModelConfig& config, const Projection& proj,
                     const AttentionWeights& w, const float* x, std::int64_t m,
                     const std::vector<Segment>& segments, float* out) {
  if (config.attention == AttentionKind::kMla) {
    MlaForward(config, proj, w, x, m, segments, out);
  } else {
    GqaForward(config, proj, w, x, m, segments, out);
  }
}

}  // namespace

Status AttentionForward(const MoeModelConfig& config, const Projection& proj,
                        const AttentionWeights& w, const float* x, std::int64_t m,
                        std::int64_t pos0, const KvLayerView& cache, float* out) {
  const std::vector<Segment> segments{Segment{0, m, pos0, cache}};
  KTX_RETURN_IF_ERROR(CheckCapacity(config, segments[0]));
  SegmentsForward(config, proj, w, x, m, segments, out);
  return OkStatus();
}

Status AttentionDecodeBatch(const MoeModelConfig& config, const Projection& proj,
                            const AttentionWeights& w, const float* x, std::int64_t rows,
                            const std::int64_t* positions, KvCache* const* caches, int layer,
                            float* out) {
  std::vector<Segment> segments;
  segments.reserve(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    segments.push_back(Segment{r, 1, positions[r], caches[r]->layer(layer)});
    KTX_RETURN_IF_ERROR(CheckCapacity(config, segments.back())
                            .WithContext("decode batch row " + std::to_string(r)));
  }
  SegmentsForward(config, proj, w, x, rows, segments, out);
  return OkStatus();
}

AttentionCost EstimateAttentionCost(const MoeModelConfig& config, std::int64_t m,
                                    std::int64_t seq, double bytes_per_weight) {
  AttentionCost cost;
  const double md = static_cast<double>(m);
  const double sd = static_cast<double>(seq);
  const double h = static_cast<double>(config.hidden);
  if (config.attention == AttentionKind::kMla) {
    const double heads = config.num_heads;
    const double qk = static_cast<double>(config.head_dim + config.rope_dim);
    // Projections (with matrix absorption the score/value paths run in the
    // 512-dim latent space on decode; flops below follow the absorbed form).
    double proj_params = h * config.q_lora_rank + config.q_lora_rank * heads * qk +
                         h * (config.kv_lora_rank + config.rope_dim) +
                         config.kv_lora_rank * heads * (config.head_dim + config.v_head_dim) +
                         heads * config.v_head_dim * h;
    cost.flops += 2.0 * md * proj_params;
    // Scores + weighted values against the latent cache.
    cost.flops += 2.0 * md * sd * heads *
                  (static_cast<double>(config.kv_lora_rank) + config.rope_dim);
    cost.bytes += proj_params * bytes_per_weight;
    cost.bytes += sd * (config.kv_lora_rank + config.rope_dim) * 2.0;  // bf16 cache
  } else {
    const double q_dim = static_cast<double>(config.num_heads) * config.head_dim;
    const double kv_dim = static_cast<double>(config.num_kv_heads) * config.head_dim;
    const double proj_params = h * q_dim + 2.0 * h * kv_dim + q_dim * h;
    cost.flops += 2.0 * md * proj_params;
    cost.flops += 2.0 * md * sd * q_dim * 2.0;  // scores + values
    cost.bytes += proj_params * bytes_per_weight;
    cost.bytes += sd * kv_dim * 2.0 * 2.0;
  }
  return cost;
}

}  // namespace ktx
