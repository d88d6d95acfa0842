#include "bfv/context.h"

#include <cmath>

#include "nt/bitops.h"
#include "nt/prime.h"

namespace cham {

BfvContextPtr BfvContext::create(const BfvParams& params) {
  CHAM_CHECK_MSG(is_power_of_two(params.n) && params.n >= 8,
                 "ring dimension must be a power of two >= 8");
  CHAM_CHECK_MSG(params.t >= 2 && (params.t & 1) == 1,
                 "plaintext modulus must be odd (packing divides by 2^k)");
  CHAM_CHECK_MSG(!params.q_primes.empty(), "need at least one q prime");
  CHAM_CHECK_MSG(params.special_prime != 0, "need a special prime");
  for (u64 q : params.q_primes) {
    CHAM_CHECK_MSG(is_prime(q), "ciphertext moduli must be prime");
    CHAM_CHECK_MSG(q % params.t != 0, "t must not divide q");
  }
  CHAM_CHECK_MSG(is_prime(params.special_prime),
                 "special modulus must be prime");

  auto ctx = std::shared_ptr<BfvContext>(new BfvContext());
  ctx->params_ = params;
  ctx->t_ = Modulus(params.t);
  ctx->base_q_ = RnsBase::create(params.n, params.q_primes);
  auto qp = params.q_primes;
  qp.push_back(params.special_prime);
  ctx->base_qp_ = RnsBase::create(params.n, qp);

  // Decryption headroom: t * Q must fit in 128 bits (the decryptor
  // rescales augmented ciphertexts to base_q first, then composes the
  // phase and multiplies by t before rounding).
  CHAM_CHECK_MSG(ctx->base_q_->total_modulus_log2() +
                         std::log2(static_cast<double>(params.t)) <
                     126.0,
                 "t * Q must fit in 128 bits");

  auto delta_residues = [&](const RnsBasePtr& base) {
    const u128 delta = base->total_modulus() / params.t;
    std::vector<u64> out(base->size());
    base->decompose(delta, out.data());
    return out;
  };
  ctx->delta_q_ = delta_residues(ctx->base_q_);
  ctx->delta_qp_ = delta_residues(ctx->base_qp_);

  // Gadget g_j = p * (Q/q_j) * [(Q/q_j)^{-1} mod q_j] reduced per prime of
  // base_qp. Computed with per-prime modular products to avoid overflow.
  const std::size_t dnum = params.q_primes.size();
  ctx->gadget_.resize(dnum);
  for (std::size_t j = 0; j < dnum; ++j) {
    const Modulus qj(params.q_primes[j]);
    // inv_j = (Q/q_j)^{-1} mod q_j
    u64 prod_mod_qj = 1;
    for (std::size_t l = 0; l < dnum; ++l) {
      if (l == j) continue;
      prod_mod_qj = qj.mul(prod_mod_qj, params.q_primes[l] % qj.value());
    }
    const u64 inv_j = qj.inv(prod_mod_qj);

    auto& g = ctx->gadget_[j];
    g.resize(ctx->base_qp_->size());
    for (std::size_t l = 0; l < ctx->base_qp_->size(); ++l) {
      const Modulus& ql = ctx->base_qp_->modulus(l);
      u64 v = params.special_prime % ql.value();
      for (std::size_t m = 0; m < dnum; ++m) {
        if (m == j) continue;
        v = ql.mul(v, params.q_primes[m] % ql.value());
      }
      v = ql.mul(v, inv_j % ql.value());
      g[l] = v;
    }
  }

  const std::size_t n = params.n;
  const int logn = log2_exact(n);
  std::vector<u64> exp_to_index(2 * n, ~u64{0});
  for (std::size_t i = 0; i < n; ++i) {
    exp_to_index[2 * bit_reverse(static_cast<std::uint32_t>(i), logn) + 1] = i;
  }
  ctx->slot_to_index_.resize(n);
  u64 g = 1;  // 3^j mod 2N
  for (std::size_t j = 0; j < n / 2; ++j) {
    ctx->slot_to_index_[j] = exp_to_index[g];                  // ψ^{3^j}
    ctx->slot_to_index_[j + n / 2] = exp_to_index[2 * n - g];  // ψ^{-3^j}
    g = g * 3 % (2 * n);
  }
  return ctx;
}

u64 BfvContext::rotation_galois_element(std::size_t r) const {
  // Square-and-multiply, O(log r). 2N is a power of two (not prime), so
  // Modulus::pow does not apply; operands stay < 2N < 2^32, keeping the
  // u64 products exact.
  const u64 two_n = 2 * n();
  u64 e = r % (n() / 2);
  u64 k = 1;
  u64 base = 3 % two_n;
  while (e != 0) {
    if (e & 1) k = (k * base) % two_n;
    base = (base * base) % two_n;
    e >>= 1;
  }
  return k;
}

}  // namespace cham
