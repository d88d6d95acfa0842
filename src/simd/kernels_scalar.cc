#include "simd/kernels_scalar.h"

#include "simd/tables.h"

namespace cham {
namespace simd {
namespace scalar {

namespace {

using u128 = unsigned __int128;

// x mod q for any 64-bit x via q_barrett = floor(2^64/q): the
// approximate quotient undershoots floor(x/q) by < 2, so two conditional
// subtractions fully reduce.
inline u64 barrett(u64 x, u64 q, u64 q_barrett) {
  const u64 qhat = static_cast<u64>((static_cast<u128>(x) * q_barrett) >> 64);
  x -= qhat * q;
  if (x >= q) x -= q;
  if (x >= q) x -= q;
  return x;
}

// (hi·2^64 + lo) mod q: CrtSpans::reduce_words_mod for one word pair.
inline u64 fold_words(u64 hi, u64 lo, u64 q, u64 q_barrett, u64 r64_op,
                      u64 r64_quo) {
  const u64 s = shoup_mul(barrett(hi, q, q_barrett), r64_op, r64_quo, q) +
                barrett(lo, q, q_barrett);
  return s >= q ? s - q : s;
}

}  // namespace

void add(const u64* a, const u64* b, u64* out, std::size_t n, u64 q) {
  for (std::size_t i = 0; i < n; ++i) {
    const u64 s = a[i] + b[i];
    out[i] = s >= q ? s - q : s;
  }
}

void sub(const u64* a, const u64* b, u64* out, std::size_t n, u64 q) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = a[i] >= b[i] ? a[i] - b[i] : a[i] + q - b[i];
  }
}

void negate(const u64* a, u64* out, std::size_t n, u64 q) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = a[i] == 0 ? 0 : q - a[i];
  }
}

void mul_shoup(const u64* x, const u64* w_op, const u64* w_quo, u64* out,
               std::size_t n, u64 q) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = shoup_mul(x[i], w_op[i], w_quo[i], q);
  }
}

void mul_shoup_acc(const u64* x, const u64* w_op, const u64* w_quo,
                   u64* out, std::size_t n, u64 q) {
  for (std::size_t i = 0; i < n; ++i) {
    const u64 r = shoup_mul(x[i], w_op[i], w_quo[i], q);
    const u64 s = out[i] + r;
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
  for (std::size_t i = 0; i < n; ++i) {
    const u64 r = shoup_mul(x[i], op, quo, q);
    const u64 s = out[i] + r;
    out[i] = s >= q ? s - q : s;
  }
}

#include "simd/kernels_ntt_scalar.inl"

void permute(const u64* a, const u64* src_idx, const u64* flip, u64* out,
             std::size_t n, u64 q) {
  for (std::size_t i = 0; i < n; ++i) {
    const u64 v = a[src_idx[i]];
    out[i] = flip[i] ? (v == 0 ? 0 : q - v) : v;
  }
}

void neg_rev(const u64* a, u64* out, std::size_t n, u64 q) {
  out[0] = a[0];
  for (std::size_t j = 1; j < n; ++j) {
    const u64 v = a[n - j];
    out[j] = v == 0 ? 0 : q - v;
  }
}

void rescale_round(const u64* xl, const u64* xp, u64* out, std::size_t n,
                   u64 pv, u64 q, u64 q_barrett, u64 pinv_op, u64 pinv_quo) {
  const u64 half = pv >> 1;
  for (std::size_t i = 0; i < n; ++i) {
    const u64 r = xp[i];
    const bool up = r > half;
    const u64 t = barrett(up ? pv - r : r, q, q_barrett);
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
  for (std::size_t i = 0; i < n; ++i) out[i] = barrett(x[i], q, q_barrett);
}

namespace {

// C columns of the u128 dot body: their sums stay in registers while
// the terms stream down the columns, one cache line per term.
template <std::size_t C>
void dot_cols(const u64* x, const u64* w, u64* out, std::size_t terms,
              std::size_t stride, std::size_t flush, u64 q, u64 q_barrett,
              u64 r64_op, u64 r64_quo) {
  u128 acc[C] = {};
  const auto fold = [&](u128 v) {
    return fold_words(static_cast<u64>(v >> 64), static_cast<u64>(v), q,
                      q_barrett, r64_op, r64_quo);
  };
  for (std::size_t t0 = 0; t0 < terms;) {
    if (t0 > 0) {  // flush: keep summing on top of the residue
      for (std::size_t c = 0; c < C; ++c) acc[c] = fold(acc[c]);
    }
    const std::size_t end = terms - t0 > flush ? t0 + flush : terms;
    for (std::size_t t = t0; t < end; ++t) {
      const u64* xr = x + t * stride;
      const u64* wr = w + t * stride;
#pragma GCC unroll 4
      for (std::size_t c = 0; c < C; ++c) {
        acc[c] += static_cast<u128>(xr[c]) * wr[c];
      }
    }
    t0 = end;
  }
  for (std::size_t c = 0; c < C; ++c) out[c] = fold(acc[c]);
}

}  // namespace

void dot(const u64* x, const u64* w, u64* out, std::size_t terms,
         std::size_t len, std::size_t stride, u64 q, u64 q_barrett,
         u64 r64_op, u64 r64_quo) {
  const std::size_t flush = dot_flush_u128(q);
  std::size_t s = 0;
  for (; s + 4 <= len; s += 4) {
    dot_cols<4>(x + s, w + s, out + s, terms, stride, flush, q, q_barrett,
                r64_op, r64_quo);
  }
  for (; s < len; ++s) {
    dot_cols<1>(x + s, w + s, out + s, terms, stride, flush, q, q_barrett,
                r64_op, r64_quo);
  }
}

void dot_pair(const u64* x, std::size_t x_stride, const u64* c,
              const u64* wb, const u64* wa, std::size_t w_stride,
              u64* out_b, u64* out_a, std::size_t terms, std::size_t len,
              u64 q, u64 q_barrett, u64 r64_op, u64 r64_quo) {
  for (std::size_t s = 0; s < len; ++s) {
    u128 b = c != nullptr ? c[s] : 0;
    u128 a = 0;
    for (std::size_t t = 0; t < terms; ++t) {
      const u128 xv = x[t * x_stride + s];
      b += xv * wb[t * w_stride + s];
      a += xv * wa[t * w_stride + s];
    }
    out_b[s] = fold_words(static_cast<u64>(b >> 64), static_cast<u64>(b), q,
                          q_barrett, r64_op, r64_quo);
    out_a[s] = fold_words(static_cast<u64>(a >> 64), static_cast<u64>(a), q,
                          q_barrett, r64_op, r64_quo);
  }
}

}  // namespace scalar

const Kernels* scalar_table() {
  static const Kernels table = {
      scalar::add,
      scalar::sub,
      scalar::negate,
      scalar::mul_shoup,
      scalar::mul_shoup_acc,
      scalar::mul_scalar_shoup,
      scalar::mul_scalar_shoup_acc,
      scalar::ntt_fwd_bfly,
      scalar::ntt_fwd_radix4,
      scalar::ntt_fwd_group16,
      scalar::ntt_inv_group16,
      scalar::ntt_inv_radix4,
      scalar::ntt_inv_bfly,
      scalar::ntt_inv_last,
      scalar::permute,
      scalar::neg_rev,
      scalar::rescale_round,
      scalar::barrett_reduce,
      scalar::dot,
      scalar::dot_pair,
  };
  return &table;
}

}  // namespace simd
}  // namespace cham
