// Plaintext encoders.
//
// CoeffEncoder implements the paper's coefficient encoding (Sec. II-C,
// Eq. 1): the vector goes to ascending coefficients, a matrix row goes to
// the "reversed/negated" form so the polynomial product's constant
// coefficient is the dot product.
//
// BatchEncoder implements SIMD slot encoding (Sec. II-E "batch-encoding"):
// requires prime t ≡ 1 (mod 2N). Slots form a 2 × (N/2) matrix; the
// automorphism X -> X^3 rotates rows by one slot and X -> X^{2N-1} swaps
// the rows. BsgsHmvp's diagonal method runs on the row rotations.
#pragma once

#include "bfv/ciphertext.h"
#include "bfv/context.h"

namespace cham {

class CoeffEncoder {
 public:
  explicit CoeffEncoder(BfvContextPtr context);

  // pt(v) = Σ_j v_j X^j. Values are reduced mod t.
  Plaintext encode_vector(const std::vector<u64>& v) const;

  // Eq. 1: pt(A_i) = A_{i,0} - Σ_{j=1}^{N-1} A_{i,j} X^{N-j}, each entry
  // first multiplied by `scale` mod t (used to fold in the 2^{-K} packing
  // correction). Row may be shorter than N.
  Plaintext encode_matrix_row(const std::vector<u64>& row, u64 scale) const;
  // In-place variant for scratch-arena hot loops: overwrites pt (resized
  // to N) with the Eq. 1 encoding of row[0..len).
  void encode_matrix_row_into(const u64* row, std::size_t len, u64 scale,
                              Plaintext& pt) const;

  // Read coefficient `index` from a decrypted message polynomial.
  u64 decode_coeff(const Plaintext& pt, std::size_t index) const;

 private:
  BfvContextPtr ctx_;
};

class BatchEncoder {
 public:
  explicit BatchEncoder(BfvContextPtr context);

  // slots: length N; first N/2 entries are row 0, rest row 1.
  Plaintext encode(const std::vector<u64>& slots) const;
  std::vector<u64> decode(const Plaintext& pt) const;

  // Galois element that rotates both rows left by r slots: 3^r mod 2N.
  u64 rotation_galois_element(std::size_t r) const {
    return ctx_->rotation_galois_element(r);
  }
  // Galois element that swaps the two rows: 2N - 1.
  u64 row_swap_galois_element() const {
    return ctx_->row_swap_galois_element();
  }

 private:
  BfvContextPtr ctx_;
  std::shared_ptr<const NttTables> t_ntt_;
};

}  // namespace cham
