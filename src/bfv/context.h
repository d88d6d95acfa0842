// BfvContext: validated parameters plus every precomputed constant shared
// by encryptor/decryptor/evaluator — RNS bases (with and without the
// special modulus), Δ = floor(Q/t) residues at both levels, and the
// key-switch gadget constants.
#pragma once

#include <memory>

#include "bfv/params.h"
#include "ring/rns.h"

namespace cham {

class BfvContext;
using BfvContextPtr = std::shared_ptr<const BfvContext>;

class BfvContext : public std::enable_shared_from_this<BfvContext> {
 public:
  static BfvContextPtr create(const BfvParams& params);

  const BfvParams& params() const { return params_; }
  std::size_t n() const { return params_.n; }
  const Modulus& plain_modulus() const { return t_; }

  // Base without / with the special modulus.
  const RnsBasePtr& base_q() const { return base_q_; }
  const RnsBasePtr& base_qp() const { return base_qp_; }

  std::size_t dnum() const { return params_.q_primes.size(); }

  // Δ = floor(Q/t) as residues over base_q; Δ' = floor(Qp/t) over base_qp.
  const std::vector<u64>& delta_q() const { return delta_q_; }
  const std::vector<u64>& delta_qp() const { return delta_qp_; }

  // Key-switch gadget g_j = p * (Q/q_j) * [(Q/q_j)^{-1}]_{q_j}, as residues
  // over base_qp, one vector per digit j.
  const std::vector<std::vector<u64>>& ks_gadget() const { return gadget_; }

  // floor(Q/2) etc. are not needed; decryption works from composed values.
  u128 q_total() const { return base_q_->total_modulus(); }
  u128 qp_total() const { return base_qp_->total_modulus(); }

  // Galois element 3^r mod 2N that rotates both batch-encoded slot rows
  // left by r. The one implementation: BatchEncoder, Evaluator and the
  // BSGS key planner all forward here.
  u64 rotation_galois_element(std::size_t r) const;
  // Galois element 2N - 1 that swaps the two slot rows.
  u64 row_swap_galois_element() const { return 2 * n() - 1; }

  // The batching slot map, the one copy every slot-order consumer reads
  // (BatchEncoder, BsgsHmvp's matrix encode and request gathers, the
  // slot-order BSGS keys). Slot j of row r evaluates at
  // ψ^{(-1)^r·3^j mod 2N} and sits at NTT index slot_to_index()[j + r·N/2]
  // of the bit-reversed negacyclic transform (index i evaluates at
  // ψ^{2·rev(i)+1}). So the rotation by r (Galois element 3^r) is a
  // cyclic shift by r within each row, and the row swap exchanges the
  // rows. It depends on N only.
  const std::vector<u64>& slot_to_index() const { return slot_to_index_; }

 private:
  BfvContext() = default;
  BfvParams params_;
  Modulus t_;
  RnsBasePtr base_q_;
  RnsBasePtr base_qp_;
  std::vector<u64> delta_q_;
  std::vector<u64> delta_qp_;
  std::vector<std::vector<u64>> gadget_;
  std::vector<u64> slot_to_index_;
};

}  // namespace cham
