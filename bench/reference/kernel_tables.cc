// The 52-bit and double-word reference kernel tables (see
// kernel_tables.h).
//
// Each double-word (two 52-bit limb) body below is structurally
// identical to its 64-bit sibling in
// kernels_scalar.cc — same correction points, same lazy ranges — with
// every wide multiply (the Shoup quotient estimate and the Barrett
// quotient) routed through the limb-recomposed mulhi64. Because that
// recomposition is exact, every value below is bit-identical to the
// 64-bit reference; keep the two files in lockstep all the same — a
// structural divergence here silently weakens the wide-modulus IFMA
// fuzz oracle.
#include "reference/kernel_tables.h"

namespace cham {
namespace simd {
namespace scalar104 {

void mul_shoup(const u64* x, const u64* w_op, const u64* w_quo, u64* out,
               std::size_t n, u64 q) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = shoup_mul(x[i], w_op[i], w_quo[i], q);
  }
}

// The accumulating products fold the lazy result straight into the
// accumulator and reduce the sum from [0, 3q) with two conditional
// subtractions — one op fewer than reduce-then-add, mirroring the
// vector backend's dedicated double-word MAC body. The fully reduced
// output is the same value either way.
void mul_shoup_acc(const u64* x, const u64* w_op, const u64* w_quo,
                   u64* out, std::size_t n, u64 q) {
  const u64 two_q = q << 1;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 r = shoup_mul_lazy(x[i], w_op[i], w_quo[i], q);
    u64 s = out[i] + r;
    s = s >= two_q ? s - two_q : s;
    out[i] = s >= q ? s - q : s;
  }
}

void mul_scalar_shoup(const u64* x, u64 op, u64 quo, u64* out,
                      std::size_t n, u64 q) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = shoup_mul(x[i], op, quo, q);
  }
}

void mul_scalar_shoup_acc(const u64* x, u64 op, u64 quo, u64* out,
                          std::size_t n, u64 q) {
  const u64 two_q = q << 1;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 r = shoup_mul_lazy(x[i], op, quo, q);
    u64 s = out[i] + r;
    s = s >= two_q ? s - two_q : s;
    out[i] = s >= q ? s - q : s;
  }
}

#include "simd/kernels_ntt_scalar.inl"

void rescale_round(const u64* xl, const u64* xp, u64* out, std::size_t n,
                   u64 pv, u64 q, u64 q_barrett, u64 pinv_op, u64 pinv_quo) {
  const u64 half = pv >> 1;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 r = xp[i];
    const bool up = r > half;
    u64 t = up ? pv - r : r;
    // Barrett reduction of t on the limb-recomposed mulhi64 — the same
    // quotient as the 64-bit path (the recomposition is exact).
    t -= mulhi64(t, q_barrett) * q;
    if (t >= q) t -= q;
    if (t >= q) t -= q;
    u64 diff;
    if (up) {
      const u64 s = xl[i] + t;
      diff = s >= q ? s - q : s;
    } else {
      diff = xl[i] >= t ? xl[i] - t : xl[i] + q - t;
    }
    out[i] = shoup_mul(diff, pinv_op, pinv_quo, q);
  }
}

void barrett_reduce(const u64* x, u64* out, std::size_t n, u64 q,
                    u64 q_barrett) {
  for (std::size_t i = 0; i < n; ++i) {
    u64 t = x[i] - mulhi64(x[i], q_barrett) * q;
    if (t >= q) t -= q;
    if (t >= q) t -= q;
    out[i] = t;
  }
}

}  // namespace scalar104

const Kernels* scalar52_table() {
  static const Kernels table = {
      scalar::add,
      scalar::sub,
      scalar::negate,
      scalar52::mul_shoup,
      scalar52::mul_shoup_acc,
      scalar52::mul_scalar_shoup,
      scalar52::mul_scalar_shoup_acc,
      scalar52::ntt_fwd_bfly,
      scalar52::ntt_fwd_radix4,
      scalar52::ntt_fwd_group16,
      scalar52::ntt_inv_group16,
      scalar52::ntt_inv_radix4,
      scalar52::ntt_inv_bfly,
      scalar52::ntt_inv_last,
      scalar::permute,
      scalar::neg_rev,
      scalar52::rescale_round,
      scalar::barrett_reduce,
      scalar::dot,
      scalar::dot_pair,
  };
  return &table;
}

const Kernels* scalar104_table() {
  static const Kernels table = {
      scalar::add,
      scalar::sub,
      scalar::negate,
      scalar104::mul_shoup,
      scalar104::mul_shoup_acc,
      scalar104::mul_scalar_shoup,
      scalar104::mul_scalar_shoup_acc,
      scalar104::ntt_fwd_bfly,
      scalar104::ntt_fwd_radix4,
      scalar104::ntt_fwd_group16,
      scalar104::ntt_inv_group16,
      scalar104::ntt_inv_radix4,
      scalar104::ntt_inv_bfly,
      scalar104::ntt_inv_last,
      scalar::permute,
      scalar::neg_rev,
      scalar104::rescale_round,
      scalar104::barrett_reduce,
      scalar::dot,
      scalar::dot_pair,
  };
  return &table;
}

}  // namespace simd
}  // namespace cham
