// AVX-512-IFMA backend: 8 u64 lanes, 52-bit limbs. vpmadd52luq /
// vpmadd52huq give a single-instruction 52x52-bit multiply-add, and the
// backend runs one of two limb disciplines per call depending on q:
//
//   * q < kIfmaQBound — single-word: operands fit one 52-bit limb, the
//     Shoup product drops the four-instruction emulated 64-bit mulhi for
//     one madd52hi (quotient estimate) plus two madd52lo (low products).
//     The Ifma traits inherit everything structural from the shared
//     Avx512 body and override only the limb-width seam: prep_quo shifts
//     the loaded 64-bit Shoup quotients right by 12 (the identity
//     floor(quo64 / 2^12) = floor(w·2^52 / q) means no separate tables),
//     shoup_lazy runs on the 52-bit window, and loop tails route through
//     ScalarRef52.
//
//   * q >= kIfmaQBound — double-word: each operand is two 52-bit limbs
//     (x = lo52(x) + (x >> 52)·2^52) and the EXACT 64-bit mulhi is
//     recomposed from six vpmadd52 half products (the scalar104
//     reference in bench/reference/kernel_tables.h states the identity
//     and the carry-freeness proof). The Ifma104 traits override only
//     mulhi/shoup_lazy on top of Avx512, so the shared VecKernels bodies
//     — including the template rescale_round and barrett_reduce, which
//     call V::mulhi directly — pick up the cheaper recomposition
//     automatically. Loop tails route through ScalarRef64: the exact
//     recomposition computes the very values of the 64-bit scalar
//     reference, so the level keeps the dispatch table's exact output
//     contract at every q < 2^62.
//
// Before this double-word path existed the wide-q gates delegated to a
// VecKernels<Avx512> instantiation in this TU; nothing delegates now,
// but every wide-q call is still counted (simd.ifma.delegated — the
// name predates the dw path and now means "left the single-word path")
// so datapath selection stays observable in CHAM-METRICS.
#include "simd/tables.h"

#ifdef CHAM_SIMD_AVX512IFMA

#include <immintrin.h>

#include <algorithm>

#include "obs/metrics.h"
#include "simd/kernels_scalar.h"
#include "simd/kernels_scalar52.h"

namespace cham {
namespace simd {

namespace {

#include "simd/traits_avx512.inl"

struct Ifma : Avx512 {
  using ScalarRef = ScalarRef52;

  // quo52 = floor(w·2^52 / q) derived in-register from the 64-bit table.
  static inline reg prep_quo(reg quo) { return _mm512_srli_epi64(quo, 12); }

  // x·w mod q in [0, 2q) on 52-bit limbs: hi = floor(x·quo52 / 2^52),
  // r = (x·w - hi·q) mod 2^52. Requires x < 2^52 and q < 2^50 (so
  // r < 2q < 2^51 survives the mod-2^52 subtraction intact). The
  // madd52 operands are hardware-masked to 52 bits.
  static inline reg shoup_lazy(reg x, reg op, reg quo52, reg q) {
    const reg zero = _mm512_setzero_si512();
    const reg hi = _mm512_madd52hi_epu64(zero, x, quo52);
    const reg r = _mm512_sub_epi64(_mm512_madd52lo_epu64(zero, x, op),
                                   _mm512_madd52lo_epu64(zero, hi, q));
    return _mm512_and_si512(r, set1((1ULL << 52) - 1));
  }
};

// Double-word traits for q >= kIfmaQBound: exact 64-bit arithmetic with
// the mulhi recomposed from 52-bit half products. Everything else —
// mullo (vpmullq), csub, the lane shuffles — is the plain Avx512
// discipline, so overriding mulhi alone upgrades every VecKernels body.
struct Ifma104 : Avx512 {
  // Exactness makes the scalar-tail choice free: the 64-bit scalar
  // reference computes the very same values as the limb recomposition
  // (the scalar104 reference table pins the identity), and its one u128
  // multiply is ~6x cheaper than the recomposed scalar mulhi, so loop
  // tails and sub-register NTT strides (the n < 32 plain loop) stay
  // cheap.
  using ScalarRef = ScalarRef64;

  // Exact high 64 bits of a*b. With a = a0 + a1·2^52 (a1 = a>>52 <
  // 2^12), b likewise:
  //   t = hi52(a0b0) + lo52(a1b0) + lo52(a0b1)        (< 2^54)
  //   c = a1·b1 + hi52(a1b0) + hi52(a0b1)             (< 2^25)
  //   mulhi64(a,b) = (c << 40) + (t >> 12)            exactly.
  // The madd52 operands are hardware-masked to their low 52 bits, so
  // only the two >>52 shifts exposing the high limbs are explicit.
  // Six madd52 + four shift/adds vs the sixteen-op 32x32 recomposition
  // in the Avx512 base — see bench/reference/kernel_tables.h for the
  // proof that no carry is dropped. (Splitting the 3-deep madd52
  // accumulation chains into 2-deep pairs joined by adds was measured
  // slower: the butterfly sweeps are throughput-bound on the FMA ports,
  // so the two extra uops cost more than the shorter critical path
  // saves.)
  static inline reg mulhi(reg a, reg b) {
    const reg zero = _mm512_setzero_si512();
    const reg a1 = _mm512_srli_epi64(a, 52);
    const reg b1 = _mm512_srli_epi64(b, 52);
    reg t = _mm512_madd52hi_epu64(zero, a, b);
    t = _mm512_madd52lo_epu64(t, a1, b);
    t = _mm512_madd52lo_epu64(t, a, b1);
    reg c = _mm512_madd52lo_epu64(zero, a1, b1);
    c = _mm512_madd52hi_epu64(c, a1, b);
    c = _mm512_madd52hi_epu64(c, a, b1);
    return _mm512_add_epi64(_mm512_slli_epi64(c, 40), _mm512_srli_epi64(t, 12));
  }

  // The standard 64-bit Harvey lazy product on the recomposed mulhi —
  // bit-identical to the Avx512/scalar path in every intermediate
  // (the quotient estimate is exact, not approximate).
  static inline reg shoup_lazy(reg x, reg op, reg quo, reg q) {
    return sub(mullo(x, op), mullo(mulhi(x, quo), q));
  }
};

}  // namespace

}  // namespace simd
}  // namespace cham

#include "simd/kernels_vec.inl"

namespace cham {
namespace simd {

namespace {

using K52 = VecKernels<Ifma>;
using K104 = VecKernels<Ifma104>;

// Per-call datapath gate: single-word when 4q fits the IFMA operand
// window, double-word otherwise. Wide-q traffic is counted so the
// metrics dump shows how much work left the single-word path — but in
// thread-local batches: a lock-prefixed add per call (~20 cycles) is
// measurable against short kernel calls. The registry counter therefore
// lags by up to kFlush-1 calls per thread; it reports traffic volume,
// not an exact call count.
inline bool use52(u64 q) {
  if (ifma_eligible(q)) return true;
  constexpr u64 kFlush = 64;
  thread_local u64 pending = 0;
  if (++pending >= kFlush) {
    static obs::Counter& delegated =
        obs::MetricsRegistry::global().counter("simd.ifma.delegated");
    delegated.add(pending);
    pending = 0;
  }
  return false;
}

void mul_shoup(const u64* x, const u64* w_op, const u64* w_quo, u64* out,
               std::size_t n, u64 q) {
  (use52(q) ? K52::mul_shoup : K104::mul_shoup)(x, w_op, w_quo, out, n, q);
}

// Dedicated double-word MAC: folding the lazy product (< 2q) straight
// into the reduced accumulator and correcting the sum from [0, 3q) with
// two conditional subtractions saves the separate full reduction of the
// product that the template body (shoup full + add + csub) pays. Final
// values are identical — both are fully reduced.
void dw_mul_shoup_acc(const u64* x, const u64* w_op, const u64* w_quo,
                      u64* out, std::size_t n, u64 q) {
  using V = Ifma104;
  // csub(a, m) = a >= m ? a - m : a (the wrapped difference is huge, so
  // umin picks the unwrapped value) — same helper VecKernels uses.
  const auto csub = [](V::reg a, V::reg m) { return V::umin(a, V::sub(a, m)); };
  const V::reg vq = V::set1(q);
  const V::reg v2q = V::set1(q << 1);
  std::size_t i = 0;
  for (; i + 2 * V::W <= n; i += 2 * V::W) {
    const V::reg r0 = V::shoup_lazy(V::load(x + i), V::load(w_op + i),
                                    V::load(w_quo + i), vq);
    const V::reg r1 =
        V::shoup_lazy(V::load(x + i + V::W), V::load(w_op + i + V::W),
                      V::load(w_quo + i + V::W), vq);
    V::reg s0 = V::add(V::load(out + i), r0);
    V::reg s1 = V::add(V::load(out + i + V::W), r1);
    s0 = csub(s0, v2q);
    s1 = csub(s1, v2q);
    V::store(out + i, csub(s0, vq));
    V::store(out + i + V::W, csub(s1, vq));
  }
  for (; i + V::W <= n; i += V::W) {
    const V::reg r = V::shoup_lazy(V::load(x + i), V::load(w_op + i),
                                   V::load(w_quo + i), vq);
    V::reg s = V::add(V::load(out + i), r);
    s = csub(s, v2q);
    V::store(out + i, csub(s, vq));
  }
  if (i < n) {
    ScalarRef64::mul_shoup_acc(x + i, w_op + i, w_quo + i, out + i, n - i,
                               q);
  }
}

void mul_shoup_acc(const u64* x, const u64* w_op, const u64* w_quo,
                   u64* out, std::size_t n, u64 q) {
  (use52(q) ? K52::mul_shoup_acc : dw_mul_shoup_acc)(x, w_op, w_quo, out, n,
                                                     q);
}

// Same two-csub accumulation for the fixed-scalar MAC (digit lifting's
// inner product runs on this shape).
void dw_mul_scalar_shoup_acc(const u64* x, u64 op, u64 quo, u64* out,
                             std::size_t n, u64 q) {
  using V = Ifma104;
  const auto csub = [](V::reg a, V::reg m) { return V::umin(a, V::sub(a, m)); };
  const V::reg vq = V::set1(q);
  const V::reg v2q = V::set1(q << 1);
  const V::reg vop = V::set1(op);
  const V::reg vquo = V::set1(quo);
  std::size_t i = 0;
  for (; i + 2 * V::W <= n; i += 2 * V::W) {
    const V::reg r0 = V::shoup_lazy(V::load(x + i), vop, vquo, vq);
    const V::reg r1 = V::shoup_lazy(V::load(x + i + V::W), vop, vquo, vq);
    V::reg s0 = V::add(V::load(out + i), r0);
    V::reg s1 = V::add(V::load(out + i + V::W), r1);
    s0 = csub(s0, v2q);
    s1 = csub(s1, v2q);
    V::store(out + i, csub(s0, vq));
    V::store(out + i + V::W, csub(s1, vq));
  }
  for (; i + V::W <= n; i += V::W) {
    const V::reg r = V::shoup_lazy(V::load(x + i), vop, vquo, vq);
    V::reg s = V::add(V::load(out + i), r);
    s = csub(s, v2q);
    V::store(out + i, csub(s, vq));
  }
  if (i < n) {
    ScalarRef64::mul_scalar_shoup_acc(x + i, op, quo, out + i, n - i, q);
  }
}

void mul_scalar_shoup(const u64* x, u64 op, u64 quo, u64* out,
                      std::size_t n, u64 q) {
  (use52(q) ? K52::mul_scalar_shoup : K104::mul_scalar_shoup)(x, op, quo,
                                                              out, n, q);
}

void mul_scalar_shoup_acc(const u64* x, u64 op, u64 quo, u64* out,
                          std::size_t n, u64 q) {
  (use52(q) ? K52::mul_scalar_shoup_acc : dw_mul_scalar_shoup_acc)(
      x, op, quo, out, n, q);
}

// The NTT passes gate once per pass over a whole limb.
void ntt_fwd_bfly(u64* a, std::size_t n, std::size_t t, const u64* w_op,
                  const u64* w_quo, u64 q) {
  (use52(q) ? K52::ntt_fwd_bfly : K104::ntt_fwd_bfly)(a, n, t, w_op, w_quo,
                                                      q);
}

void ntt_fwd_radix4(u64* a, std::size_t n, std::size_t t, const u64* w_op,
                    const u64* w_quo, u64 q) {
  (use52(q) ? K52::ntt_fwd_radix4 : K104::ntt_fwd_radix4)(a, n, t, w_op,
                                                          w_quo, q);
}

void ntt_fwd_group16(u64* a, std::size_t n, const u64* w_op,
                     const u64* w_quo, u64 q) {
  (use52(q) ? K52::ntt_fwd_group16 : K104::ntt_fwd_group16)(a, n, w_op,
                                                            w_quo, q);
}

void ntt_inv_group16(u64* a, std::size_t n, const u64* w_op,
                     const u64* w_quo, u64 q) {
  (use52(q) ? K52::ntt_inv_group16 : K104::ntt_inv_group16)(a, n, w_op,
                                                            w_quo, q);
}

void ntt_inv_radix4(u64* a, std::size_t n, std::size_t t, const u64* w_op,
                    const u64* w_quo, u64 q) {
  (use52(q) ? K52::ntt_inv_radix4 : K104::ntt_inv_radix4)(a, n, t, w_op,
                                                          w_quo, q);
}

void ntt_inv_bfly(u64* a, std::size_t n, std::size_t t, const u64* w_op,
                  const u64* w_quo, u64 q) {
  (use52(q) ? K52::ntt_inv_bfly : K104::ntt_inv_bfly)(a, n, t, w_op, w_quo,
                                                      q);
}

void ntt_inv_last(u64* x, u64* y, std::size_t count, u64 ninv_op,
                  u64 ninv_quo, u64 nw_op, u64 nw_quo, u64 q) {
  (use52(q) ? K52::ntt_inv_last : K104::ntt_inv_last)(
      x, y, count, ninv_op, ninv_quo, nw_op, nw_quo, q);
}

void rescale_round(const u64* xl, const u64* xp, u64* out, std::size_t n,
                   u64 pv, u64 q, u64 q_barrett, u64 pinv_op,
                   u64 pinv_quo) {
  (use52(q) ? K52::rescale_round : K104::rescale_round)(
      xl, xp, out, n, pv, q, q_barrett, pinv_op, pinv_quo);
}

// The 52-bit dot bodies' fold: the canonical residue of hi·2^52 + lo
// per lane (hi < 2^61, lo < 2^64), in 52-bit IFMA arithmetic. Re-split
// as V = h·2^64 + l (h < 2^49), V ≡ h·(2^64 mod q) + l (mod q):
//   t = h·r64 by Shoup on the 52-bit quotient r64_quo >> 12, in [0, 2q);
//   u = l - e·q with e = floor((l >> 12)·q_barrett / 2^52), which
//       undershoots floor(l/q) by at most 2, so u is in [0, 3q);
// both < 2^52, so their low 52 bits are exact, and each subtraction of
// a multiple of q is one madd52lo by 2^52 - q. Three conditional
// subtractions bring u + t from [0, 5q) to [0, q). Requires q < 2^50 and
// q_barrett = floor(2^64/q) < 2^52.
struct Fold52 {
  Fold52(u64 q, u64 q_barrett, u64 r64_op, u64 r64_quo)
      : vq(set(q)),
        v2q(set(2 * q)),
        vnq(set((1ULL << 52) - q)),
        vqb(set(q_barrett)),
        vr64(set(r64_op)),
        vr64q(set(r64_quo >> 12)) {}

  static __m512i set(u64 v) {
    return _mm512_set1_epi64(static_cast<long long>(v));
  }
  // a >= m ? a - m : a (the wrapped difference is huge, so umin picks
  // the unwrapped value).
  static __m512i csub(__m512i a, __m512i m) {
    return _mm512_min_epu64(a, _mm512_sub_epi64(a, m));
  }

  __m512i operator()(__m512i lo, __m512i hi) const {
    const __m512i zero = _mm512_setzero_si512();
    const __m512i mask52 = set((1ULL << 52) - 1);
    const __m512i l = _mm512_add_epi64(lo, _mm512_slli_epi64(hi, 52));
    const __mmask8 carry = _mm512_cmplt_epu64_mask(l, lo);
    __m512i h = _mm512_srli_epi64(hi, 12);
    h = _mm512_mask_add_epi64(h, carry, h, set(1));
    const __m512i th = _mm512_madd52hi_epu64(zero, h, vr64q);
    const __m512i t = _mm512_and_si512(
        _mm512_madd52lo_epu64(_mm512_madd52lo_epu64(zero, h, vr64), th, vnq),
        mask52);
    const __m512i e =
        _mm512_madd52hi_epu64(zero, _mm512_srli_epi64(l, 12), vqb);
    const __m512i u =
        _mm512_and_si512(_mm512_madd52lo_epu64(l, e, vnq), mask52);
    const __m512i s = _mm512_add_epi64(t, csub(u, v2q));  // [0, 4q)
    return csub(csub(s, v2q), vq);
  }

  __m512i vq, v2q, vnq, vqb, vr64, vr64q;
};

// Lazy 52-bit dot product over V·8 columns (operands < q):
// vpmadd52luq/huq add the low and high 52-bit halves of every product
// into separate 64-bit lanes, so column s holds hi·2^52 + lo and nothing
// is reduced until the fold. All 2V accumulators stay in registers while
// the terms stream through one contiguous row each.
template <std::size_t V>
void dot52_cols(const u64* x, const u64* w, u64* out, std::size_t terms,
                std::size_t stride, const Fold52& fold) {
  constexpr std::size_t W = Ifma::W;
  __m512i lo[V], hi[V];
  for (std::size_t v = 0; v < V; ++v) {
    lo[v] = _mm512_setzero_si512();
    hi[v] = _mm512_setzero_si512();
  }
  for (std::size_t t0 = 0; t0 < terms;) {
    if (t0 > 0) {  // flush: keep summing on top of the residue
      for (std::size_t v = 0; v < V; ++v) {
        lo[v] = fold(lo[v], hi[v]);
        hi[v] = _mm512_setzero_si512();
      }
    }
    const std::size_t end = std::min(terms, t0 + kDotFlush52);
    for (std::size_t t = t0; t < end; ++t) {
      const u64* xr = x + t * stride;
      const u64* wr = w + t * stride;
#pragma GCC unroll 8
      for (std::size_t v = 0; v < V; ++v) {
        const __m512i a = _mm512_loadu_si512(xr + v * W);
        const __m512i b = _mm512_loadu_si512(wr + v * W);
        lo[v] = _mm512_madd52lo_epu64(lo[v], a, b);
        hi[v] = _mm512_madd52hi_epu64(hi[v], a, b);
      }
    }
    t0 = end;
  }
  for (std::size_t v = 0; v < V; ++v) {
    _mm512_storeu_si512(out + v * W, fold(lo[v], hi[v]));
  }
}

// The IFMA fold's preconditions: the single-word path, and a Barrett
// ratio that fits a 52-bit operand (q > 2^12).
inline bool fold52(u64 q, u64 q_barrett) {
  return use52(q) && (q_barrett >> 52) == 0;
}

void dot(const u64* x, const u64* w, u64* out, std::size_t terms,
         std::size_t len, std::size_t stride, u64 q, u64 q_barrett,
         u64 r64_op, u64 r64_quo) {
  if (!fold52(q, q_barrett)) {
    scalar::dot(x, w, out, terms, len, stride, q, q_barrett, r64_op,
                r64_quo);
    return;
  }
  constexpr std::size_t W = Ifma::W;
  const Fold52 fold(q, q_barrett, r64_op, r64_quo);
  std::size_t s = 0;
  for (; s + 8 * W <= len; s += 8 * W) {
    dot52_cols<8>(x + s, w + s, out + s, terms, stride, fold);
  }
  for (; s + W <= len; s += W) {
    dot52_cols<1>(x + s, w + s, out + s, terms, stride, fold);
  }
  if (s < len) {
    scalar::dot(x + s, w + s, out + s, terms, len - s, stride, q, q_barrett,
                r64_op, r64_quo);
  }
}

// dot_pair over V·8 columns: four accumulators per column group, each x
// row loaded once for both sums, c loaded as the b side's low lanes.
template <std::size_t V>
void dot_pair52_cols(const u64* x, std::size_t x_stride, const u64* c,
                     const u64* wb, const u64* wa, std::size_t w_stride,
                     u64* out_b, u64* out_a, std::size_t terms,
                     const Fold52& fold) {
  constexpr std::size_t W = Ifma::W;
  __m512i lb[V], hb[V], la[V], ha[V];
  for (std::size_t v = 0; v < V; ++v) {
    lb[v] = c != nullptr ? _mm512_loadu_si512(c + v * W)
                         : _mm512_setzero_si512();
    hb[v] = la[v] = ha[v] = _mm512_setzero_si512();
  }
  for (std::size_t t = 0; t < terms; ++t) {
    const u64* xr = x + t * x_stride;
    const u64* br = wb + t * w_stride;
    const u64* ar = wa + t * w_stride;
#pragma GCC unroll 4
    for (std::size_t v = 0; v < V; ++v) {
      const __m512i xv = _mm512_loadu_si512(xr + v * W);
      const __m512i kb = _mm512_loadu_si512(br + v * W);
      const __m512i ka = _mm512_loadu_si512(ar + v * W);
      lb[v] = _mm512_madd52lo_epu64(lb[v], xv, kb);
      hb[v] = _mm512_madd52hi_epu64(hb[v], xv, kb);
      la[v] = _mm512_madd52lo_epu64(la[v], xv, ka);
      ha[v] = _mm512_madd52hi_epu64(ha[v], xv, ka);
    }
  }
  for (std::size_t v = 0; v < V; ++v) {
    _mm512_storeu_si512(out_b + v * W, fold(lb[v], hb[v]));
    _mm512_storeu_si512(out_a + v * W, fold(la[v], ha[v]));
  }
}

void dot_pair(const u64* x, std::size_t x_stride, const u64* c,
              const u64* wb, const u64* wa, std::size_t w_stride,
              u64* out_b, u64* out_a, std::size_t terms, std::size_t len,
              u64 q, u64 q_barrett, u64 r64_op, u64 r64_quo) {
  if (!fold52(q, q_barrett)) {
    scalar::dot_pair(x, x_stride, c, wb, wa, w_stride, out_b, out_a, terms,
                     len, q, q_barrett, r64_op, r64_quo);
    return;
  }
  constexpr std::size_t W = Ifma::W;
  const Fold52 fold(q, q_barrett, r64_op, r64_quo);
  const auto at = [&](const u64* p, std::size_t s) {
    return p != nullptr ? p + s : nullptr;
  };
  std::size_t s = 0;
  for (; s + 4 * W <= len; s += 4 * W) {
    dot_pair52_cols<4>(x + s, x_stride, at(c, s), wb + s, wa + s, w_stride,
                       out_b + s, out_a + s, terms, fold);
  }
  for (; s + W <= len; s += W) {
    dot_pair52_cols<1>(x + s, x_stride, at(c, s), wb + s, wa + s, w_stride,
                       out_b + s, out_a + s, terms, fold);
  }
  if (s < len) {
    scalar::dot_pair(x + s, x_stride, at(c, s), wb + s, wa + s, w_stride,
                     out_b + s, out_a + s, terms, len - s, q, q_barrett,
                     r64_op, r64_quo);
  }
}

}  // namespace

const Kernels* avx512ifma_table() {
  static const Kernels table = {
      K104::add,
      K104::sub,
      K104::negate,
      mul_shoup,
      mul_shoup_acc,
      mul_scalar_shoup,
      mul_scalar_shoup_acc,
      ntt_fwd_bfly,
      ntt_fwd_radix4,
      ntt_fwd_group16,
      ntt_inv_group16,
      ntt_inv_radix4,
      ntt_inv_bfly,
      ntt_inv_last,
      K104::permute,
      K104::neg_rev,
      rescale_round,
      // Exact at any q — the Barrett step runs on the recomposed 64-bit
      // mulhi, which is both exact and cheaper than the 32x32 emulation,
      // so no q gate is needed.
      K104::barrett_reduce,
      dot,
      dot_pair,
  };
  return &table;
}

}  // namespace simd
}  // namespace cham

#else  // !CHAM_SIMD_AVX512IFMA

namespace cham {
namespace simd {

const Kernels* avx512ifma_table() { return nullptr; }

}  // namespace simd
}  // namespace cham

#endif
