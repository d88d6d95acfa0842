// Shared fixtures and measurement helpers for the figure/table
// reproduction benches.
//
// CPU numbers for paper-scale shapes (up to 8192x8192) are extrapolated
// from sampled per-row / per-merge costs — running tens of full software
// HMVPs at N=4096 per figure would take hours without changing any
// conclusion. Each bench prints whether a row was measured end-to-end or
// extrapolated. Device-side numbers always come from the cycle model.
#pragma once

#include <sys/resource.h>

#include <cmath>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "apps/beaver.h"
#include "apps/heterolr.h"
#include "common/mem_pool.h"
#include "common/table.h"
#include "common/timer.h"
#include "hmvp/bsgs.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "simd/kernels.h"
#include "sim/accelerator.h"
#include "sim/dse.h"
#include "sim/gpu_model.h"
#include "sim/hetero.h"
#include "sim/roofline.h"

namespace cham {
namespace bench {

// --- self-check reporting -------------------------------------------------
// Every bench validates its own results (CHECK/verify paths) and its main
// returns bench_exit_code(), so the CI smoke steps gate correctness
// instead of only checking that the binary ran.

inline int& bench_failures() {
  static int failures = 0;
  return failures;
}

// Record one validation result; failures are printed immediately and turn
// the process exit code nonzero.
inline bool bench_check(bool ok, const std::string& what) {
  if (!ok) {
    ++bench_failures();
    std::cout << "BENCH-CHECK FAILED: " << what << "\n";
  }
  return ok;
}

inline int bench_exit_code() {
  if (bench_failures() > 0) {
    std::cout << "\n" << bench_failures()
              << " self-check(s) FAILED — results above are not trustworthy\n";
    return 1;
  }
  return 0;
}

// --- CHAM-BENCH lines -----------------------------------------------------
// tools/check_bench.py gates these lines against bench/baseline.json.
// Each line names the metric it reports under and declares, field by
// field, the rule its baseline row `<metric>/<field>` is gated by. The
// rule sits here with the number it gates, so the tool holds no
// tolerances, and `compare` fails when a declared rule drifts from its
// baseline row.

// "lower": measured may not exceed baseline·(1 + tolerance).
// "higher": measured may not drop below baseline·(1 − tolerance).
// "exact": deterministic counts must match bit for bit.
struct Gate {
  const char* direction;
  double tolerance;
};
constexpr Gate lower_is_better(double tolerance) {
  return {"lower", tolerance};
}
constexpr Gate higher_is_better(double tolerance) {
  return {"higher", tolerance};
}
constexpr Gate kExact{"exact", 0.0};

// Peak RSS in MiB: generous, but gates a leak or a pool-bypass blow-up.
constexpr Gate kPeakRss = lower_is_better(0.5);

// One CHAM-BENCH line reported under `metric`: field() adds a value the
// gate ignores, gated() one it compares by `gate`.
class BenchLine {
 public:
  explicit BenchLine(const std::string& metric) {
    fields_.field("metric", metric);
  }

  template <typename T>
  BenchLine& field(const std::string& key, T value) {
    fields_.field(key, value);
    return *this;
  }

  template <typename T>
  BenchLine& gated(const std::string& key, T value, Gate gate) {
    fields_.field(key, value);
    gates_.raw(key, obs::JsonWriter()
                        .field("direction", gate.direction)
                        .field("tolerance", gate.tolerance)
                        .str());
    return *this;
  }

  // Prints the line stamped with the active SIMD dispatch level and its
  // limb width (52-bit on the IFMA backend, 64-bit elsewhere), so the
  // gate refuses to compare runs measured at different vector widths or
  // multiplier shapes.
  void emit() const {
    obs::JsonWriter line = fields_;
    line.raw("gate", gates_.str())
        .field("simd_level", simd::level_name())
        .field("limb_bits",
               simd::active_level() == simd::Level::kAvx512Ifma ? 52 : 64);
    std::cout << "CHAM-BENCH " << line.str() << "\n";
  }

 private:
  obs::JsonWriter fields_;
  obs::JsonWriter gates_;
};

// Absolute ns/coeff on a shared host: gates a 2x slowdown.
constexpr Gate kKernelTime = lower_is_better(0.75);
// Kernel-vs-kernel speed-up, both arms timed in one process.
constexpr Gate kKernelRatio = higher_is_better(0.6);

// One kernel timing line, kernels/<kernel>@t<threads>. `speedup` is the
// kernel's gain over its reference arm; a reference arm passes none.
inline void emit_kernel_line(const std::string& kernel, double ns_per_coeff,
                             int threads,
                             std::optional<double> speedup = std::nullopt) {
  BenchLine line("kernels/" + kernel + "@t" + std::to_string(threads));
  line.gated("ns_per_coeff", ns_per_coeff, kKernelTime);
  if (speedup) line.gated("speedup", *speedup, kKernelRatio);
  line.emit();
}

// Final metrics snapshot line: the obs::MetricsRegistry state accumulated
// over the bench run, in the registry's stable JSON format, reported
// under counters/<bench>. With `gated`, check_bench.py holds every
// counter to its exact baseline count; pass false for runs whose counts
// depend on thread timing.
inline void emit_cham_metrics(const std::string& bench, bool gated) {
  const std::string snapshot = obs::MetricsRegistry::global().snapshot_json();
  std::cout << "CHAM-METRICS {\"metric\":\"counters/" << bench
            << "\",\"gated\":" << (gated ? "true" : "false") << ","
            << snapshot.substr(1) << "\n";
}

// High-water resident set size of this process, in MiB (Linux ru_maxrss
// is in KiB). Stamped on steady-state bench lines so the regression gate
// catches memory blow-ups alongside slowdowns.
inline double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Drive `iteration` to the slab pool's zero-allocation steady state:
// run it until `confirm` consecutive runs make no system allocation
// (slab carve or oversize bypass), then return 0. Which pool worker
// claims which lane is a race, so a cold thread cache can join late —
// everything before the confirmed streak counts as warmup. Returns the
// last iteration's allocation delta if the budget runs out (i.e. the
// steady state was never reached — nonzero exactly when something still
// allocates per call).
template <typename Fn>
inline u64 steady_state_alloc_delta(Fn&& iteration, int max_iters = 20,
                                    int confirm = 3) {
  u64 last = 0;
  int streak = 0;
  for (int i = 0; i < max_iters; ++i) {
    const u64 before = mem::pool_stats().alloc_count;
    iteration();
    last = mem::pool_stats().alloc_count - before;
    streak = last == 0 ? streak + 1 : 0;
    if (streak >= confirm) return 0;
  }
  return last;
}

// Paper-parameter fixture: N=4096 context, keys, engines.
struct PaperFixture {
  explicit PaperFixture(u64 seed = 2023)
      : rng(seed),
        ctx(BfvContext::create(BfvParams::paper())),
        keygen(ctx, rng),
        pk(keygen.make_public_key()),
        gk(keygen.make_galois_keys(12)),
        encryptor(ctx, &pk, nullptr, rng),
        decryptor(ctx, keygen.secret_key()),
        evaluator(ctx),
        engine(ctx, &gk),
        accelerator(ctx, &gk, sim::PipelineConfig{}) {}

  std::vector<u64> random_vector(std::size_t len) {
    std::vector<u64> v(len);
    for (auto& x : v) x = rng.uniform(ctx->params().t);
    return v;
  }

  Rng rng;
  BfvContextPtr ctx;
  KeyGenerator keygen;
  PublicKey pk;
  GaloisKeys gk;
  Encryptor encryptor;
  Decryptor decryptor;
  Evaluator evaluator;
  HmvpEngine engine;
  sim::ChamAccelerator accelerator;
};

// Zero-allocation steady state of the software HMVP at rows x N: after
// warmup, a full multiply runs entirely out of the slab pool — the
// software analogue of CHAM streaming every operand through fixed on-chip
// buffers. Self-checked, and reported as
// headline/steady_state_hmvp/<rows>x<N>: the post-warmup system
// allocation count is deterministic (0), so any drift means a hot path
// started allocating again.
inline void steady_state_hmvp(PaperFixture& f, std::size_t rows, u64 seed) {
  const std::size_t n = f.ctx->n();
  GeneratedMatrix a(rows, n, f.ctx->params().t, seed);
  const auto enc = f.engine.encode_matrix(a);
  const auto ct = f.engine.encrypt_vector(f.random_vector(n), f.encryptor);
  const u64 delta =
      steady_state_alloc_delta([&] { f.engine.multiply_encoded(enc, ct); });
  bench_check(delta == 0, "steady-state HMVP makes zero system allocations");
  const std::string shape = std::to_string(rows) + "x" + std::to_string(n);
  std::cout << "\nSteady-state HMVP (" << shape << "): " << delta
            << " system allocation(s)/run, peak RSS "
            << TablePrinter::num(peak_rss_mb(), 1) << " MiB\n";
  BenchLine("headline/steady_state_hmvp/" + shape)
      .gated("alloc_count", delta, kExact)
      .gated("peak_rss_mb", peak_rss_mb(), kPeakRss)
      .emit();
}

// Sampled CPU cost model for the software HMVP: measures the per-row
// dot-product cost (per chunk) and the per-merge packing cost on a small
// run, then estimates any (rows, cols).
class CpuHmvpCost {
 public:
  CpuHmvpCost(PaperFixture& f, std::size_t sample_rows = 32) {
    const std::size_t n = f.ctx->n();
    const u64 t = f.ctx->params().t;
    // One-chunk sample.
    {
      GeneratedMatrix a(sample_rows, n, t, 7);
      auto ct = f.engine.encrypt_vector(f.random_vector(n), f.encryptor);
      Timer timer;
      f.engine.multiply(a, ct);
      const double total = timer.seconds();
      // sample_rows dot products + (sample_rows-1) merges.
      sampled_total_ = total;
      sample_rows_ = sample_rows;
    }
    // Isolate the merge cost with a two-chunk sample (extra chunk time =
    // per-chunk dot cost).
    {
      GeneratedMatrix a(sample_rows, 2 * n, t, 8);
      auto ct = f.engine.encrypt_vector(f.random_vector(2 * n), f.encryptor);
      Timer timer;
      f.engine.multiply(a, ct);
      two_chunk_total_ = timer.seconds();
    }
    chunk_sec_ = (two_chunk_total_ - sampled_total_) / sample_rows_;
    // Rough split of the one-chunk run: row cost = chunk cost + fixed
    // (INTT+rescale+extract) share; merge cost = the rest.
    // Estimate fixed row share as one chunk cost (same transform count).
    row_fixed_sec_ = chunk_sec_;
    merge_sec_ = std::max(
        1e-9, (sampled_total_ - sample_rows_ * (chunk_sec_ + row_fixed_sec_)) /
                  (sample_rows_ - 1));
  }

  // Estimated software seconds for an HMVP of the given shape.
  double estimate(std::size_t rows, std::size_t cols, std::size_t n) const {
    const double chunks = std::ceil(static_cast<double>(cols) / n);
    const double r = static_cast<double>(rows);
    return r * (chunks * chunk_sec_ + row_fixed_sec_) +
           std::max(0.0, r - 1) * merge_sec_;
  }

  double chunk_seconds() const { return chunk_sec_; }
  double merge_seconds() const { return merge_sec_; }

 private:
  double sampled_total_ = 0;
  double two_chunk_total_ = 0;
  std::size_t sample_rows_ = 0;
  double chunk_sec_ = 0;
  double row_fixed_sec_ = 0;
  double merge_sec_ = 0;
};

inline std::string fmt_seconds(double s) {
  std::ostringstream os;
  if (s < 1e-3) {
    os << TablePrinter::num(s * 1e6, 1) << " us";
  } else if (s < 1.0) {
    os << TablePrinter::num(s * 1e3, 2) << " ms";
  } else {
    os << TablePrinter::num(s, 2) << " s";
  }
  return os.str();
}

inline std::string fmt_speedup(double x) {
  return TablePrinter::num(x, 1) + "x";
}

}  // namespace bench
}  // namespace cham
