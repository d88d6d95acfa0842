// AVX-512 backend: 8 u64 lanes, 64-bit limbs. The traits body lives in
// traits_avx512.inl so the avx512ifma TU can share it; it is included
// inside an anonymous namespace on purpose (see the note there).
#include "simd/tables.h"

#ifdef CHAM_SIMD_AVX512

#include <immintrin.h>

#include "simd/kernels_scalar.h"

namespace cham {
namespace simd {

namespace {

#include "simd/traits_avx512.inl"

}  // namespace

}  // namespace simd
}  // namespace cham

#include "simd/kernels_vec.inl"

namespace cham {
namespace simd {

const Kernels* avx512_table() {
  using K = VecKernels<Avx512>;
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

#else  // !CHAM_SIMD_AVX512

namespace cham {
namespace simd {

const Kernels* avx512_table() { return nullptr; }

}  // namespace simd
}  // namespace cham

#endif
