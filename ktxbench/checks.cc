#include "ktxbench/checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

#include "src/model/kv_cache.h"

namespace ktxbench {

namespace {

std::string Format(const char* fmt, double a, double b = 0.0, double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

// Gap between the row's maximum logit and the logit of `token`.
double LogitGap(const ktx::Tensor& logits, int token) {
  const std::int64_t vocab = logits.dim(1);
  const float* row = logits.f32() + (logits.dim(0) - 1) * vocab;
  const float best = *std::max_element(row, row + vocab);
  return static_cast<double>(best) - static_cast<double>(row[token]);
}

}  // namespace

double TeacherForcedMargin(const ktx::MoeModelConfig& config) {
  // README.md, "Reference check margin": each MoE layer's expert output has
  // relative error at most 4u (weights and activations rounded to BF16 at
  // both GEMM stages), the residual stream carries num_moe_layers of them,
  // and a relative error e of the unit-RMS final hidden state moves any
  // logit difference by at most 2 * sqrt(hidden) * e (lm_head rows have
  // unit norm in expectation).
  const double per_layer = 4.0 * kBf16UnitRoundoff;
  const double hidden_rel = per_layer * config.num_moe_layers();
  return 2.0 * std::sqrt(static_cast<double>(config.hidden)) * hidden_rel;
}

CheckOutcome CheckTeacherForced(const ktx::RefModel& ref, const std::vector<int>& prompt,
                                const std::vector<int>& emitted, int n_deferred, double margin) {
  CheckOutcome out{"reference_teacher_forced", true, ""};
  if (emitted.empty()) {
    out.ok = false;
    out.detail = "empty stream";
    return out;
  }
  ktx::KvCache cache(ref.config());
  ktx::ForwardOptions decode;
  decode.n_deferred = n_deferred;
  double worst = 0.0;
  int not_argmax = 0;
  ktx::Tensor logits = ref.Forward(prompt, &cache);
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    const int token = emitted[i];
    if (token < 0 || token >= ref.config().vocab) {
      out.ok = false;
      out.detail = Format("token %.0f out of vocabulary at position %.0f", token,
                          static_cast<double>(i));
      return out;
    }
    const double gap = LogitGap(logits, token);
    worst = std::max(worst, gap);
    not_argmax += gap > 0.0 ? 1 : 0;
    if (gap > margin) {
      out.ok = false;
      out.detail = Format("position %.0f: emitted token sits %.4f below the reference argmax "
                          "(margin %.4f)",
                          static_cast<double>(i), gap, margin);
      return out;
    }
    if (i + 1 < emitted.size()) {
      logits = ref.Forward({token}, &cache, decode);
    }
  }
  out.detail = Format("%.0f tokens, %.0f not the reference argmax, worst gap %.4f",
                      static_cast<double>(emitted.size()), not_argmax, worst);
  return out;
}

CheckOutcome CheckSameStream(std::uint64_t id, const std::vector<int>& batched,
                             const std::vector<int>& solo) {
  CheckOutcome out{"batch1_replay_identical", batched == solo, ""};
  if (!out.ok) {
    std::size_t first = 0;
    while (first < batched.size() && first < solo.size() && batched[first] == solo[first]) {
      ++first;
    }
    out.detail = Format("request %.0f: streams differ from token %.0f (batched %.0f tokens)",
                        static_cast<double>(id), static_cast<double>(first),
                        static_cast<double>(batched.size()));
  }
  return out;
}

CheckOutcome CheckOneTerminalEach(const std::vector<std::uint64_t>& submitted,
                                  const std::vector<ktx::GenerationResult>& results) {
  CheckOutcome out{"one_terminal_result_each", true, ""};
  std::map<std::uint64_t, int> seen;
  for (const ktx::GenerationResult& r : results) {
    ++seen[r.id];
    if (r.finish_reason == ktx::FinishReason::kNone) {
      out.ok = false;
      out.detail = Format("request %.0f has a result without a terminal state",
                          static_cast<double>(r.id));
      return out;
    }
  }
  const std::set<std::uint64_t> ids(submitted.begin(), submitted.end());
  for (const auto& [id, n] : seen) {
    if (ids.count(id) == 0) {
      out.ok = false;
      out.detail = Format("result for request %.0f, which was never submitted",
                          static_cast<double>(id));
      return out;
    }
  }
  for (std::uint64_t id : submitted) {
    const auto it = seen.find(id);
    const int n = it == seen.end() ? 0 : it->second;
    if (n != 1) {
      out.ok = false;
      out.detail = Format("request %.0f has %.0f terminal results", static_cast<double>(id), n);
      return out;
    }
  }
  return out;
}

CheckOutcome CheckTotals(const std::vector<ktx::GenerationResult>& results,
                         std::int64_t submitted_prompt_tokens,
                         const ktx::ServingLoop::Stats& stats,
                         std::int64_t prefix_tokens_reused) {
  CheckOutcome out{"totals_agree", true, ""};
  std::int64_t tokens = 0;
  for (const ktx::GenerationResult& r : results) {
    tokens += static_cast<std::int64_t>(r.tokens.size());
  }
  if (tokens != stats.tokens_generated) {
    out.ok = false;
    out.detail = Format("results hold %.0f tokens, Stats::tokens_generated says %.0f",
                        static_cast<double>(tokens), static_cast<double>(stats.tokens_generated));
    return out;
  }
  if (submitted_prompt_tokens != stats.prefill_tokens + prefix_tokens_reused) {
    out.ok = false;
    out.detail = Format("submitted %.0f prompt tokens, prefill %.0f + reused %.0f",
                        static_cast<double>(submitted_prompt_tokens),
                        static_cast<double>(stats.prefill_tokens),
                        static_cast<double>(prefix_tokens_reused));
  }
  return out;
}

CheckOutcome CheckDrainedPool(const ktx::KvBlockPool::Stats& pool) {
  CheckOutcome out{"drained_pool_holds_cache_only", pool.blocks_in_use == pool.evictable_blocks,
                   ""};
  if (!out.ok) {
    out.detail = Format("%.0f blocks in use after drain, %.0f of them cache-only",
                        static_cast<double>(pool.blocks_in_use),
                        static_cast<double>(pool.evictable_blocks));
  }
  return out;
}

std::vector<double> MoeErrorBound(const std::vector<ktx::Tensor>& gate,
                                  const std::vector<ktx::Tensor>& up,
                                  const std::vector<ktx::Tensor>& down, const float* x,
                                  std::int64_t tokens, const ktx::MoeRouting& routing,
                                  int slot_begin, int slot_end) {
  // README.md, "MoE isolation bound". A BF16 GEMM rounds both operands
  // (relative error u each, so 2u + u^2 per product) and accumulates n
  // products in f32 (gamma_n = n * 2^-24 / (1 - n * 2^-24)). With S = sum of
  // |w| * |x| over the dot product, a stage's error is at most
  // (2u + u^2 + gamma_n) * S, plus (1 + u)^2 times the input error carried
  // in. SiLU is 1.1-Lipschitz and evaluated in f32.
  const double u = kBf16UnitRoundoff;
  const std::int64_t hidden = gate[0].dim(1);
  const std::int64_t inter = gate[0].dim(0);
  auto gamma = [](std::int64_t n) {
    const double e = static_cast<double>(n) * 0x1.0p-24;
    return e / (1.0 - e);
  };
  const double c_in = 2.0 * u + u * u + gamma(hidden);
  const double c_out = 2.0 * u + u * u + gamma(inter);
  const double carry = (1.0 + u) * (1.0 + u);
  constexpr double kSiluLipschitz = 1.1;
  constexpr double kF32 = 0x1.0p-24;

  std::vector<double> bound(static_cast<std::size_t>(tokens * hidden), 0.0);
  std::vector<double> a(static_cast<std::size_t>(inter));
  std::vector<double> da(static_cast<std::size_t>(inter));
  for (std::int64_t t = 0; t < tokens; ++t) {
    const float* xt = x + t * hidden;
    for (int s = slot_begin; s < slot_end; ++s) {
      const auto e = static_cast<std::size_t>(routing.id(t, s));
      const double w = std::fabs(static_cast<double>(routing.weight(t, s)));
      const float* g = gate[e].f32();
      const float* v = up[e].f32();
      for (std::int64_t j = 0; j < inter; ++j) {
        double gs = 0.0, ga = 0.0, us = 0.0, ua = 0.0;
        for (std::int64_t k = 0; k < hidden; ++k) {
          const double xk = xt[k];
          gs += g[j * hidden + k] * xk;
          ga += std::fabs(g[j * hidden + k] * xk);
          us += v[j * hidden + k] * xk;
          ua += std::fabs(v[j * hidden + k] * xk);
        }
        const double eg = c_in * ga;
        const double eu = c_in * ua;
        const double silu = gs / (1.0 + std::exp(-gs));
        a[static_cast<std::size_t>(j)] = silu * us;
        // d(silu(g) * up) <= L*eg*(|up| + eu) + |silu(g)|*eu, plus f32
        // rounding of the SiLU and the product.
        da[static_cast<std::size_t>(j)] = kSiluLipschitz * eg * (std::fabs(us) + eu) +
                                          std::fabs(silu) * eu +
                                          4.0 * kF32 * std::fabs(silu * us);
      }
      const float* d = down[e].f32();
      for (std::int64_t i = 0; i < hidden; ++i) {
        double sa = 0.0, se = 0.0;
        for (std::int64_t j = 0; j < inter; ++j) {
          const double dij = std::fabs(static_cast<double>(d[i * inter + j]));
          sa += dij * (std::fabs(a[static_cast<std::size_t>(j)]) +
                       da[static_cast<std::size_t>(j)]);
          se += dij * da[static_cast<std::size_t>(j)];
        }
        // Weighted accumulate into y: one f32 multiply and one add per slot.
        const double stage = carry * se + c_out * sa;
        bound[static_cast<std::size_t>(t * hidden + i)] += w * stage * (1.0 + 2.0 * kF32) +
                                                           2.0 * kF32 * w * sa;
      }
    }
    // f32 accumulation of the slot contributions into y.
    const double slots = static_cast<double>(slot_end - slot_begin);
    for (std::int64_t i = 0; i < hidden; ++i) {
      bound[static_cast<std::size_t>(t * hidden + i)] *= 1.0 + slots * kF32;
    }
  }
  return bound;
}

CheckOutcome CheckWithinBound(const std::string& name, const std::vector<float>& got,
                              const std::vector<float>& want, const std::vector<double>& bound) {
  CheckOutcome out{name, true, ""};
  if (got.size() != want.size() || got.size() != bound.size()) {
    out.ok = false;
    out.detail = "output sizes differ";
    return out;
  }
  double worst_ratio = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double err = std::fabs(static_cast<double>(got[i]) - static_cast<double>(want[i]));
    if (!(err <= bound[i])) {  // also catches NaN
      out.ok = false;
      out.detail = Format("element %.0f: |error| %.3g exceeds bound %.3g", static_cast<double>(i),
                          err, bound[i]);
      return out;
    }
    if (bound[i] > 0.0) {
      worst_ratio = std::max(worst_ratio, err / bound[i]);
    }
  }
  out.detail = Format("worst error/bound %.3f over %.0f elements", worst_ratio,
                      static_cast<double>(got.size()));
  return out;
}

}  // namespace ktxbench
