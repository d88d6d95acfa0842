// Runtime-dispatched vectorized modular-arithmetic kernels.
//
// The software analogue of CHAM's data-parallel processing units: where
// the hardware runs 4 butterfly units per constant-geometry NTT core and
// one shift-add reducer per lane (paper Sec. IV, Table I), the CPU
// runtime runs 4 (AVX2) or 8 (AVX-512) 64-bit lanes per instruction.
// Four implementations of the same kernel set coexist — a portable
// scalar baseline, AVX2, AVX-512, and AVX-512-IFMA (52-bit-limb Shoup
// arithmetic on vpmadd52) — and one of them is selected once at startup
// via CPUID (overridable with CHAM_SIMD_LEVEL=scalar|avx2|avx512|
// avx512ifma). Dispatch is a plain function-pointer table, no vtables;
// every vector kernel is bit-exact with the scalar baseline for all
// inputs in its documented domain.
//
// Domain conventions (q is always an odd prime < 2^62):
//   * "reduced" operands are < q, outputs are < q;
//   * Shoup pairs are (w, floor(w·2^64/q)); mul-by-Shoup accepts ANY
//     64-bit x and returns exactly x·w mod q — except at the avx512ifma
//     level with q < kIfmaQBound, where the 52-bit product window
//     narrows the x domain to x < 2^52 (every in-tree call site passes
//     x < 4q < 2^52; for q >= kIfmaQBound the IFMA table runs the
//     double-word two-limb path, which recomposes the exact 64-bit
//     product and keeps the full-range contract);
//   * the Harvey-lazy NTT primitives keep values in [0, 4q) (forward) /
//     [0, 2q) (inverse) exactly like the scalar transform in nt/ntt.cc.
//     The 52-bit path produces lazy representatives that may differ from
//     the 64-bit ones by q (its quotient estimate floor(x·quo52/2^52)
//     can differ by 1), but always agrees modulo q and stays inside the
//     same lazy ranges; kernels_scalar52.h is the bit-exact reference
//     for those intermediates (its full table, scalar52_table(), lives
//     in bench/reference/kernel_tables.h), and every fully-reduced
//     output is bit-exact across all tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace cham {
namespace simd {

using u64 = std::uint64_t;

enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
  kAvx512Ifma = 3,
};

// The single-word 52-bit-limb path needs every lazy intermediate (< 4q)
// below the vpmadd52 product window (2^52), i.e. q < 2^50. The IFMA
// kernels check q against this bound at runtime and switch to the
// double-word path (two 52-bit limbs per operand, exact 64-bit Shoup
// arithmetic recomposed from paired vpmadd52 half products — see the
// scalar104 reference in bench/reference/kernel_tables.h) above it, so
// the table stays correct for the full q < 2^62 domain. CHAM's working
// moduli (34/34/38 bits) sit far below the bound; the
// base-conversion/rescale special primes sit above it.
inline constexpr u64 kIfmaQBound = 1ULL << 50;

// Single predicate for "this modulus runs on the single-word 52-bit IFMA
// path" — use this instead of spelling q < kIfmaQBound at call sites.
// Kernel-internal; the IFMA table itself routes per call through
// ifma_use52() (which also stamps the simd.ifma.delegated counter), but
// planners/tests asking "which datapath would q take?" go through here.
inline bool ifma_eligible(u64 q) { return q < kIfmaQBound; }

struct Kernels {
  // --- element-wise mod-q ops (operands < q) ---
  void (*add)(const u64* a, const u64* b, u64* out, std::size_t n, u64 q);
  void (*sub)(const u64* a, const u64* b, u64* out, std::size_t n, u64 q);
  void (*negate)(const u64* a, u64* out, std::size_t n, u64 q);

  // --- Shoup pointwise products (per-coefficient operand/quotient) ---
  // out = x ∘ w, fully reduced; supports out aliasing x.
  void (*mul_shoup)(const u64* x, const u64* w_op, const u64* w_quo,
                    u64* out, std::size_t n, u64 q);
  // out += x ∘ w (mod q); out entries must be < q.
  void (*mul_shoup_acc)(const u64* x, const u64* w_op, const u64* w_quo,
                        u64* out, std::size_t n, u64 q);

  // --- Shoup product by one fixed scalar (op, quo) ---
  void (*mul_scalar_shoup)(const u64* x, u64 op, u64 quo, u64* out,
                           std::size_t n, u64 q);
  void (*mul_scalar_shoup_acc)(const u64* x, u64 op, u64 quo, u64* out,
                               std::size_t n, u64 q);

  // --- Harvey-lazy NTT passes (one call per pass over a whole limb) ---
  // Every pass runs over all n coefficients of a (n a power of two) and
  // reads its twiddles from the SoA planes w_op/w_quo of NttTables: the
  // bit-reversed root powers (inverse roots for the ntt_inv_* entries),
  // indexed from 0 to n. A stage at stride t has n/(2t) butterfly blocks
  // of 2t coefficients, and block i uses twiddle w[n/(2t) + i]. Each
  // pass applies exactly the radix-2 butterflies below, stage by stage,
  // so any grouping of stages into passes gives the same lazy values.
  //
  // Forward CT butterfly (inputs in [0, 4q), outputs in [0, 4q)):
  //   u = x corrected once by -2q, v = lazy(y·w) in [0, 2q),
  //   x = u + v, y = u + 2q - v.
  // Inverse GS butterfly (inputs in [0, 2q), outputs in [0, 2q)):
  //   x = (x + y) corrected once by -2q, y = lazy((x + 2q - y)·w).
  //
  // Forward radix-2 stage at stride t (the peel for odd log n, and the
  // plain loop for n < 32).
  void (*ntt_fwd_bfly)(u64* a, std::size_t n, std::size_t t,
                       const u64* w_op, const u64* w_quo, u64 q);
  // Forward radix-4 pass: stage t then stage t/2 while each block's four
  // quarter-spans are in registers. t >= 2.
  void (*ntt_fwd_radix4)(u64* a, std::size_t n, std::size_t t,
                         const u64* w_op, const u64* w_quo, u64 q);
  // Forward last pass over 16-coefficient groups: stages 8, 4, 2 and 1,
  // then the full correction to [0, q). Group g reads 1, 2, 4 and 8
  // consecutive twiddles at n/16 + g, n/8 + 2g, n/4 + 4g and n/2 + 8g;
  // the vector backends broadcast them in-register and split each
  // stage's partners into two registers with lane permutes, so every
  // Shoup multiply uses all lanes. n must be a multiple of 16; outputs
  // are fully reduced, hence bit-exact across every table.
  void (*ntt_fwd_group16)(u64* a, std::size_t n, const u64* w_op,
                          const u64* w_quo, u64 q);
  // Inverse first pass over 16-coefficient groups: stages 1, 2, 4 and 8
  // (the mirror of ntt_fwd_group16, same twiddle runs). n must be a
  // multiple of 16; outputs in [0, 2q).
  void (*ntt_inv_group16)(u64* a, std::size_t n, const u64* w_op,
                          const u64* w_quo, u64 q);
  // Inverse radix-4 pass: stage t then stage 2t. 4t <= n.
  void (*ntt_inv_radix4)(u64* a, std::size_t n, std::size_t t,
                         const u64* w_op, const u64* w_quo, u64 q);
  // Inverse radix-2 stage at stride t (a leftover odd stage, and the
  // plain loop for n < 32).
  void (*ntt_inv_bfly)(u64* a, std::size_t n, std::size_t t,
                       const u64* w_op, const u64* w_quo, u64 q);
  // Inverse last stage fused with the n^{-1} scaling, over x = a and
  // y = a + n/2 (count = n/2): x[j] = (u+v)·ninv, y[j] = (u + 2q - v)·nw,
  // both fully reduced (< q).
  void (*ntt_inv_last)(u64* x, u64* y, std::size_t count, u64 ninv_op,
                       u64 ninv_quo, u64 nw_op, u64 nw_quo, u64 q);

  // --- structural ops ---
  // Gathered signed permutation (Automorph): out[i] = a[src_idx[i]],
  // negated mod q where flip[i] == ~0 (flip entries are 0 or all-ones).
  void (*permute)(const u64* a, const u64* src_idx, const u64* flip,
                  u64* out, std::size_t n, u64 q);
  // Negacyclic reverse (ExtractLWE at index 0 and its LWE->RLWE
  // involution): out[0] = a[0], out[j] = -a[n-j] mod q for j in [1, n).
  // a and out must not alias.
  void (*neg_rev)(const u64* a, u64* out, std::size_t n, u64 q);

  // --- fused divide-and-round by the special modulus (Rescale) ---
  // For each i, with r = xp[i] (< pv) the residue mod the dropped prime:
  //   t    = (r > pv/2) ? pv - r : r, reduced mod q
  //   diff = (r > pv/2) ? xl[i] + t : xl[i] - t   (mod q)
  //   out[i] = diff · p_inv mod q                  (Shoup pair pinv)
  // q_barrett = floor(2^64 / q) drives the in-register reduction of t.
  void (*rescale_round)(const u64* xl, const u64* xp, u64* out,
                        std::size_t n, u64 pv, u64 q, u64 q_barrett,
                        u64 pinv_op, u64 pinv_quo);

  // --- Barrett reduction of arbitrary 64-bit values (digit lifting) ---
  // out[i] = x[i] mod q for ANY 64-bit x[i]; q_barrett = floor(2^64/q).
  // The approximate quotient floor(mulhi(x, q_barrett)) undershoots
  // floor(x/q) by at most 1, so the remainder lands in [0, 2q) and two
  // conditional subtractions fully reduce it. Always runs on the 64-bit
  // mulhi regardless of limb width, so the output is bit-exact across
  // every table. This is the hybrid key-switch decomposition primitive:
  // lifting a base-q residue limb onto every modulus of base_qp.
  void (*barrett_reduce)(const u64* x, u64* out, std::size_t n, u64 q,
                         u64 q_barrett);

  // --- lazy dot product over strided terms (BSGS MultPoly) ---
  // out[s] = Σ_{t<terms} x[t·stride+s]·w[t·stride+s] mod q for s < len,
  // fully reduced, with x and w entries < q and stride >= len. Products
  // are summed without reduction and folded once per column, so the
  // caller passes the frozen constants q_barrett = floor(2^64/q) and
  // (r64_op, r64_quo), the Shoup pair of 2^64 mod q. The u128 body folds
  // with the CrtSpans::reduce_words_mod identity (hi·2^64 + lo) mod q =
  // (hi mod q)·(2^64 mod q) + (lo mod q). The IFMA body (q < kIfmaQBound
  // and q > 2^12, so that q_barrett fits a 52-bit operand) folds in
  // 52-bit arithmetic: the column value V = h·2^64 + l (h < 2^49)
  // becomes h·(2^64 mod q) + l, one 52-bit Shoup product in [0, 2q) plus
  // one Barrett step on l >> 12 in [0, 3q), then three conditional
  // subtractions. A body that would overflow its accumulator folds after
  // every flush interval (dot_flush_u128 / kDotFlush52) and keeps
  // summing on top of the residue. Outputs are canonical, hence
  // bit-exact across tables. The u128 body runs on every table except
  // IFMA at the moduli above.
  void (*dot)(const u64* x, const u64* w, u64* out, std::size_t terms,
              std::size_t len, std::size_t stride, u64 q, u64 q_barrett,
              u64 r64_op, u64 r64_quo);

  // --- paired lazy dot over shared terms (BSGS baby rotations) ---
  // For s < len, with x_t = x + t·x_stride and the planes
  // wb_t = wb + t·w_stride, wa_t = wa + t·w_stride:
  //   out_b[s] = (c[s] + Σ_{t<terms} x_t[s]·wb_t[s]) mod q
  //   out_a[s] = Σ_{t<terms} x_t[s]·wa_t[s] mod q
  // fully reduced; every input entry < q, and c may be null (read as 0).
  // Each x term is loaded once for both sums, c enters as the carried
  // residue, and each output folds once with dot's constants and bodies.
  // terms must not exceed dot_flush_u128(q) or kDotFlush52, so no body
  // flushes (the hoisted key switch has dnum terms).
  void (*dot_pair)(const u64* x, std::size_t x_stride, const u64* c,
                   const u64* wb, const u64* wa, std::size_t w_stride,
                   u64* out_b, u64* out_a, std::size_t terms,
                   std::size_t len, u64 q, u64 q_barrett, u64 r64_op,
                   u64 r64_quo);
};

// Products the u128 dot body sums between folds at modulus q: the
// largest F with (q-1) + F·(q-1)^2 < 2^128, so a carried residue plus F
// worst-case products never wraps. 64 at q = 2^61 - 1; for the ~35-bit
// working primes it exceeds any span (capped at SIZE_MAX).
inline std::size_t dot_flush_u128(u64 q) {
  using u128 = unsigned __int128;
  const u128 f = (~u128{0} - (q - 1)) / (static_cast<u128>(q - 1) * (q - 1));
  return f > SIZE_MAX ? SIZE_MAX : static_cast<std::size_t>(f);
}

// Products the 52-bit IFMA dot body sums between folds: each adds the
// low 52 bits of a product (< 2^52) to a 64-bit lane that may already
// hold a carried residue < q < 2^50, and 4095·(2^52 - 1) + 2^50 < 2^64.
// The high-half lane gains < 2^48 per product, so it stays below the
// fold's 2^61 and never binds first.
inline constexpr std::size_t kDotFlush52 = 4095;

// The table selected at startup (CPUID best, CHAM_SIMD_LEVEL override).
const Kernels& active();
Level active_level();

// Stable lowercase name ("scalar", "avx2", "avx512", "avx512ifma") —
// recorded in the CHAM-BENCH lines so baselines are never compared
// across levels.
const char* level_name(Level level);
inline const char* level_name() { return level_name(active_level()); }

// Table for one specific level, or nullptr when that backend was not
// compiled in (CHAM_SIMD=OFF / unsupported compiler) or the CPU lacks
// the ISA. Scalar is always available. Benches and the fuzz tests use
// this to pit every compiled backend against the scalar baseline inside
// one process, regardless of the dispatched level.
const Kernels* table_for(Level level);

// True when the running CPU can execute `level` (compile support aside).
bool cpu_supports(Level level);

// Parse a CHAM_SIMD_LEVEL value; returns false on unknown names.
bool parse_level(const char* s, Level* out);

// Resolve an explicit CHAM_SIMD_LEVEL request (`env`, may be null)
// against what this build and CPU can run: returns the level to
// dispatch. An unknown name or a level this CPU/build cannot execute
// falls back to auto-detection; when that happens and `warning` is
// non-null, it receives a one-line explanation (cleared when the request
// was honoured or absent). Pure — reads no process state besides CPUID —
// so tests can exercise the fallback paths without re-execing; dispatch
// applies it once at startup and prints the warning to stderr.
Level resolve_level(const char* env, std::string* warning);

// True when `level` is the IFMA level and NONE of the `count` context
// moduli fits the single-word 52-bit datapath — i.e. the whole context
// will run on the double-word limb path under the `avx512ifma` label.
// Pure companion to resolve_level (which has no modulus knowledge), so
// tests can probe the predicate without touching process state.
bool ifma_context_all_wide(Level level, const u64* moduli,
                           std::size_t count);

// Context-creation hook: when ifma_context_all_wide holds for the
// dispatched level, print a one-line note to stderr (once per process)
// and bump the simd.ifma.wide_context counter, so an all-wide modulus
// chain never runs silently under the avx512ifma label. Returns whether
// this call fired the note.
bool note_ifma_wide_context(const u64* moduli, std::size_t count);

}  // namespace simd
}  // namespace cham
