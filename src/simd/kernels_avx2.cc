// AVX2 backend: 4 u64 lanes. AVX2 has no unsigned 64-bit compare, min,
// or full mullo, so those are emulated: comparisons flip the sign bit
// and use the signed compare, mullo composes three 32x32 products, and
// mulhi takes the textbook four-product route with carry propagation
// through a 32-bit mid sum.
#include "simd/tables.h"

#ifdef CHAM_SIMD_AVX2

#include <immintrin.h>

#include "simd/kernels_scalar.h"

namespace cham {
namespace simd {

namespace {

struct Avx2 {
  using reg = __m256i;
  using mask = __m256i;  // lane-wide 0 / ~0
  using ScalarRef = ScalarRef64;
  static constexpr std::size_t W = 4;

  static inline reg load(const u64* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static inline void store(u64* p, reg v) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static inline reg set1(u64 x) {
    return _mm256_set1_epi64x(static_cast<long long>(x));
  }
  static inline reg add(reg a, reg b) { return _mm256_add_epi64(a, b); }
  static inline reg sub(reg a, reg b) { return _mm256_sub_epi64(a, b); }

  static inline reg mullo(reg a, reg b) {
    const reg lo = _mm256_mul_epu32(a, b);
    const reg a_hi = _mm256_srli_epi64(a, 32);
    const reg b_hi = _mm256_srli_epi64(b, 32);
    const reg cross =
        _mm256_add_epi64(_mm256_mul_epu32(a, b_hi), _mm256_mul_epu32(a_hi, b));
    return _mm256_add_epi64(lo, _mm256_slli_epi64(cross, 32));
  }

  static inline reg mulhi(reg a, reg b) {
    const reg a_hi = _mm256_srli_epi64(a, 32);
    const reg b_hi = _mm256_srli_epi64(b, 32);
    const reg ll = _mm256_mul_epu32(a, b);
    const reg lh = _mm256_mul_epu32(a, b_hi);
    const reg hl = _mm256_mul_epu32(a_hi, b);
    const reg hh = _mm256_mul_epu32(a_hi, b_hi);
    const reg m32 = _mm256_set1_epi64x(0xFFFFFFFFll);
    const reg mid = _mm256_add_epi64(
        _mm256_add_epi64(_mm256_srli_epi64(ll, 32), _mm256_and_si256(lh, m32)),
        _mm256_and_si256(hl, m32));
    return _mm256_add_epi64(
        _mm256_add_epi64(hh, _mm256_srli_epi64(lh, 32)),
        _mm256_add_epi64(_mm256_srli_epi64(hl, 32),
                         _mm256_srli_epi64(mid, 32)));
  }

  // 64-bit limbs: the loaded Shoup quotient is used as-is.
  static inline reg prep_quo(reg quo) { return quo; }

  // x·w mod q in [0, 2q): Harvey lazy product on the 64-bit quotient
  // estimate. Valid for any 64-bit x (q < 2^62).
  static inline reg shoup_lazy(reg x, reg op, reg quo, reg q) {
    return sub(mullo(x, op), mullo(mulhi(x, quo), q));
  }

  // Unsigned a > b via sign-bias: valid for the full 64-bit range.
  static inline mask gt(reg a, reg b) {
    const reg bias = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
    return _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias),
                              _mm256_xor_si256(b, bias));
  }
  static inline reg umin(reg a, reg b) {
    return _mm256_blendv_epi8(a, b, gt(a, b));
  }
  static inline mask eq0(reg v) {
    return _mm256_cmpeq_epi64(v, _mm256_setzero_si256());
  }
  static inline reg blend(mask m, reg t, reg f) {
    return _mm256_blendv_epi8(f, t, m);
  }
  static inline reg band(reg a, reg b) { return _mm256_and_si256(a, b); }
  static inline reg bor(reg a, reg b) { return _mm256_or_si256(a, b); }
  static inline reg bandn(reg m, reg v) { return _mm256_andnot_si256(m, v); }

  static inline reg gather(const u64* base, reg idx) {
    return _mm256_i64gather_epi64(reinterpret_cast<const long long*>(base),
                                  idx, 8);
  }
  static inline reg reverse(reg v) { return _mm256_permute4x64_epi64(v, 0x1B); }

  // [p0,p0,p1,p1] from two contiguous values.
  static inline reg rep2_load(const u64* p) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    return _mm256_permute4x64_epi64(_mm256_zextsi128_si256(v), 0x50);
  }
  // [a0,a1,b0,b1]: the low halves of a and b, concatenated.
  static inline reg cat_lo(reg a, reg b) {
    return _mm256_permute2x128_si256(a, b, 0x20);
  }
  // [a2,a3,b2,b3]: the high halves of a and b, concatenated.
  static inline reg cat_hi(reg a, reg b) {
    return _mm256_permute2x128_si256(a, b, 0x31);
  }
  // [a0,b0,a2,b2] / [a1,b1,a3,b3].
  static inline reg unpack_lo(reg a, reg b) {
    return _mm256_unpacklo_epi64(a, b);
  }
  static inline reg unpack_hi(reg a, reg b) {
    return _mm256_unpackhi_epi64(a, b);
  }

  static inline void interleave_store(u64* dst, reg lo, reg hi) {
    const reg ab = _mm256_unpacklo_epi64(lo, hi);  // l0 h0 l2 h2
    const reg cd = _mm256_unpackhi_epi64(lo, hi);  // l1 h1 l3 h3
    store(dst, _mm256_permute2x128_si256(ab, cd, 0x20));      // l0 h0 l1 h1
    store(dst + 4, _mm256_permute2x128_si256(ab, cd, 0x31));  // l2 h2 l3 h3
  }

  static inline void deinterleave_load(const u64* src, reg* even, reg* odd) {
    const reg v0 = load(src);      // e0 o0 e1 o1
    const reg v1 = load(src + 4);  // e2 o2 e3 o3
    const reg lo = _mm256_permute2x128_si256(v0, v1, 0x20);  // e0 o0 e2 o2
    const reg hi = _mm256_permute2x128_si256(v0, v1, 0x31);  // e1 o1 e3 o3
    *even = _mm256_unpacklo_epi64(lo, hi);
    *odd = _mm256_unpackhi_epi64(lo, hi);
  }
};

}  // namespace

}  // namespace simd
}  // namespace cham

#include "simd/kernels_vec.inl"

namespace cham {
namespace simd {

const Kernels* avx2_table() {
  using K = VecKernels<Avx2>;
  static const Kernels table = {
      K::add,
      K::sub,
      K::negate,
      K::mul_shoup,
      K::mul_shoup_acc,
      K::mul_scalar_shoup,
      K::mul_scalar_shoup_acc,
      K::ntt_fwd_bfly,
      K::ntt_fwd_radix4,
      K::ntt_fwd_group16,
      K::ntt_inv_group16,
      K::ntt_inv_radix4,
      K::ntt_inv_bfly,
      K::ntt_inv_last,
      K::permute,
      K::neg_rev,
      K::rescale_round,
      K::barrett_reduce,
      scalar::dot,
      scalar::dot_pair,
  };
  return &table;
}

}  // namespace simd
}  // namespace cham

#else  // !CHAM_SIMD_AVX2

namespace cham {
namespace simd {

const Kernels* avx2_table() { return nullptr; }

}  // namespace simd
}  // namespace cham

#endif
