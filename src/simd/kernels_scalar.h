// Internal: the portable scalar kernels, exported individually so the
// vector backends can reuse them for loop tails (count % lane-width).
// These are the reference semantics every vector kernel must match
// bit-for-bit; the fuzz suite (tests/simd) enforces that.
#pragma once

#include "simd/kernels.h"

namespace cham {
namespace simd {
namespace scalar {

// Element-level Shoup product, exported inline so the vector backends'
// hand-written loop tails share the exact reference semantics. Valid for
// any 64-bit x (q < 2^63).
inline u64 shoup_mul(u64 x, u64 op, u64 quo, u64 q) {
  const u64 hi = static_cast<u64>(
      (static_cast<unsigned __int128>(x) * quo) >> 64);
  const u64 r = x * op - hi * q;
  return r >= q ? r - q : r;
}

// Lazy variant: result in [0, 2q).
inline u64 shoup_mul_lazy(u64 x, u64 op, u64 quo, u64 q) {
  const u64 hi = static_cast<u64>(
      (static_cast<unsigned __int128>(x) * quo) >> 64);
  return x * op - hi * q;
}

void add(const u64* a, const u64* b, u64* out, std::size_t n, u64 q);
void sub(const u64* a, const u64* b, u64* out, std::size_t n, u64 q);
void negate(const u64* a, u64* out, std::size_t n, u64 q);
void mul_shoup(const u64* x, const u64* w_op, const u64* w_quo, u64* out,
               std::size_t n, u64 q);
void mul_shoup_acc(const u64* x, const u64* w_op, const u64* w_quo,
                   u64* out, std::size_t n, u64 q);
void mul_scalar_shoup(const u64* x, u64 op, u64 quo, u64* out,
                      std::size_t n, u64 q);
void mul_scalar_shoup_acc(const u64* x, u64 op, u64 quo, u64* out,
                          std::size_t n, u64 q);
// The NTT passes (kernels_ntt_scalar.inl).
void ntt_fwd_bfly(u64* a, std::size_t n, std::size_t t, const u64* w_op,
                  const u64* w_quo, u64 q);
void ntt_fwd_radix4(u64* a, std::size_t n, std::size_t t, const u64* w_op,
                    const u64* w_quo, u64 q);
void ntt_fwd_group16(u64* a, std::size_t n, const u64* w_op,
                     const u64* w_quo, u64 q);
void ntt_inv_group16(u64* a, std::size_t n, const u64* w_op,
                     const u64* w_quo, u64 q);
void ntt_inv_radix4(u64* a, std::size_t n, std::size_t t, const u64* w_op,
                    const u64* w_quo, u64 q);
void ntt_inv_bfly(u64* a, std::size_t n, std::size_t t, const u64* w_op,
                  const u64* w_quo, u64 q);
void ntt_inv_last(u64* x, u64* y, std::size_t count, u64 ninv_op,
                  u64 ninv_quo, u64 nw_op, u64 nw_quo, u64 q);
void permute(const u64* a, const u64* src_idx, const u64* flip, u64* out,
             std::size_t n, u64 q);
void neg_rev(const u64* a, u64* out, std::size_t n, u64 q);
void rescale_round(const u64* xl, const u64* xp, u64* out, std::size_t n,
                   u64 pv, u64 q, u64 q_barrett, u64 pinv_op, u64 pinv_quo);
void barrett_reduce(const u64* x, u64* out, std::size_t n, u64 q,
                    u64 q_barrett);
// The u128 dot body: every table's reference, and the body the non-IFMA
// tables and the IFMA table's wide moduli and column tails run.
void dot(const u64* x, const u64* w, u64* out, std::size_t terms,
         std::size_t len, std::size_t stride, u64 q, u64 q_barrett,
         u64 r64_op, u64 r64_quo);
// The u128 dot_pair body, on the same terms as dot.
void dot_pair(const u64* x, std::size_t x_stride, const u64* c,
              const u64* wb, const u64* wa, std::size_t w_stride,
              u64* out_b, u64* out_a, std::size_t terms, std::size_t len,
              u64 q, u64 q_barrett, u64 r64_op, u64 r64_quo);

}  // namespace scalar

// Scalar reference bundle for the width-generic vector bodies
// (kernels_vec.inl): each traits type names the reference whose limb
// semantics match its vector arithmetic, and the shared loop tails call
// through it so tails stay bit-exact with the vector body. The 64-bit
// backends (AVX2/AVX-512) use this one; the IFMA backend uses
// ScalarRef52 (kernels_scalar52.h).
struct ScalarRef64 {
  static inline u64 shoup_mul(u64 x, u64 op, u64 quo, u64 q) {
    return scalar::shoup_mul(x, op, quo, q);
  }
  static constexpr auto mul_shoup = scalar::mul_shoup;
  static constexpr auto mul_shoup_acc = scalar::mul_shoup_acc;
  static constexpr auto mul_scalar_shoup = scalar::mul_scalar_shoup;
  static constexpr auto mul_scalar_shoup_acc = scalar::mul_scalar_shoup_acc;
  static constexpr auto ntt_fwd_bfly = scalar::ntt_fwd_bfly;
  static constexpr auto ntt_fwd_radix4 = scalar::ntt_fwd_radix4;
  static constexpr auto ntt_inv_radix4 = scalar::ntt_inv_radix4;
  static constexpr auto ntt_inv_bfly = scalar::ntt_inv_bfly;
  static constexpr auto ntt_inv_last = scalar::ntt_inv_last;
  static constexpr auto rescale_round = scalar::rescale_round;
};

}  // namespace simd
}  // namespace cham
