#include "bfv/encoder.h"

namespace cham {

CoeffEncoder::CoeffEncoder(BfvContextPtr context) : ctx_(std::move(context)) {}

Plaintext CoeffEncoder::encode_vector(const std::vector<u64>& v) const {
  CHAM_CHECK_MSG(v.size() <= ctx_->n(), "vector longer than ring dimension");
  const u64 t = ctx_->plain_modulus().value();
  Plaintext pt;
  pt.coeffs.assign(ctx_->n(), 0);
  for (std::size_t j = 0; j < v.size(); ++j) pt.coeffs[j] = v[j] % t;
  return pt;
}

Plaintext CoeffEncoder::encode_matrix_row(const std::vector<u64>& row,
                                          u64 scale) const {
  Plaintext pt;
  encode_matrix_row_into(row.data(), row.size(), scale, pt);
  return pt;
}

void CoeffEncoder::encode_matrix_row_into(const u64* row, std::size_t len,
                                          u64 scale, Plaintext& pt) const {
  CHAM_CHECK_MSG(len > 0, "empty matrix row");
  CHAM_CHECK_MSG(len <= ctx_->n(), "row longer than ring dimension");
  const Modulus& t = ctx_->plain_modulus();
  const u64 s = scale % t.value();
  pt.coeffs.assign(ctx_->n(), 0);
  pt.coeffs[0] = t.mul(row[0] % t.value(), s);
  for (std::size_t j = 1; j < len; ++j) {
    pt.coeffs[ctx_->n() - j] = t.negate(t.mul(row[j] % t.value(), s));
  }
}

u64 CoeffEncoder::decode_coeff(const Plaintext& pt, std::size_t index) const {
  CHAM_CHECK(index < pt.n());
  return pt.coeffs[index];
}

BatchEncoder::BatchEncoder(BfvContextPtr context) : ctx_(std::move(context)) {
  const u64 t = ctx_->plain_modulus().value();
  const std::size_t n = ctx_->n();
  CHAM_CHECK_MSG((t - 1) % (2 * n) == 0,
                 "batching requires prime t ≡ 1 (mod 2N)");
  t_ntt_ = get_ntt_tables(n, ctx_->plain_modulus());
}

Plaintext BatchEncoder::encode(const std::vector<u64>& slots) const {
  const std::size_t n = ctx_->n();
  CHAM_CHECK_MSG(slots.size() <= n, "too many slots");
  const u64 t = ctx_->plain_modulus().value();
  const std::vector<u64>& slot_to_index = ctx_->slot_to_index();
  std::vector<u64> evals(n, 0);
  for (std::size_t j = 0; j < slots.size(); ++j) {
    evals[slot_to_index[j]] = slots[j] % t;
  }
  t_ntt_->inverse(evals);
  Plaintext pt;
  pt.coeffs = std::move(evals);
  return pt;
}

std::vector<u64> BatchEncoder::decode(const Plaintext& pt) const {
  const std::size_t n = ctx_->n();
  CHAM_CHECK(pt.n() == n);
  std::vector<u64> evals = pt.coeffs;
  t_ntt_->forward(evals);
  const std::vector<u64>& slot_to_index = ctx_->slot_to_index();
  std::vector<u64> slots(n);
  for (std::size_t j = 0; j < n; ++j) slots[j] = evals[slot_to_index[j]];
  return slots;
}

}  // namespace cham
