// Hoisted-rotation BSGS diagonal HMVP — the SIMD method as a contender.
//
// The plan is GAZELLE's hybrid diagonal method. An m×n matrix (n a
// power of two) is cut into D = min(next_pow2(m), n) extended
// diagonals, diag_d[s] = A[s mod D][(s+d) mod n] over the first n slots
// (zero on the padded rows m..D-1), so a wide matrix pays one diagonal
// per padded row instead of one per column. After the sweep, slot s
// holds the partial dot product of row s mod D over the columns
// s+d, d < D; log2(n/D) rotate-and-sum folds (by n/2, n/4, .., D) add
// those n/D partial sums into the first D slots, so A·v lands in the
// first m. Square and tall shapes have D = n and no fold: one diagonal
// per column, diag_d[s] = A[s][(s+d) mod n] for s < m.
//
// Two slot rows. BFV batching lays the N slots out as 2 × N/2, and a
// rotation turns both rows at once. The client sends v in row 0 only
// (encode_vector); with b >= 2 baby steps the server first forms
// ct₂ = ct + swap(rot_h(ct)), h = b/2, so row 1 carries v rotated left
// by h. Baby rotation i < h of ct₂ then carries baby steps i (row 0) and
// i + h (row 1), and each plaintext holds two diagonals, one per row
// (BsgsEncodedMatrix). A product runs h - 1 hoisted babies and D/2
// plaintext products instead of b - 1 and D, for three more rotations:
// rot_h, the row swap, and a swap-fold res += swap(res) after the
// mod-down that adds row 1's half of the diagonals into row 0. A·v still
// lands in the first m slots of row 0, so the client's layout and
// decrypt_result do not change. A plan with b = 1 has no baby step to
// share and keeps row 1 empty.
//
// The rotation cost is restructured around double hoisting (Halevi–Shoup
// digit sharing, plus Bossuat et al.'s one mod-down per sum):
//  * ct₂ is decomposed into evaluation-form key-switch digits ONCE. The
//    baby-step count b = min(baby_steps(n), D) comes from the column
//    count, so every lead, baby, giant and fold rotation is an element of
//    required_galois_elements(n): clients upload one key set per column
//    count, whatever the row count.
//  * MultPoly runs in BatchEncoder slot order (BfvContext::slot_to_index),
//    where slot j of row r evaluates at ψ^(±3^j) and the rotation by i is
//    a cyclic shift by i within each row. Each request's digits and p·ct₂
//    are gathered into slot order once, each row padded with its first
//    h - 1 words, so that baby i's operands are the request's rows read
//    at offset +i: no routing table, no gather. Left over base_qp without
//    its mod-down a baby rotation is slot-local, so the babies are fused
//    into MultPoly and no baby polynomial is stored: MultPoly runs in
//    tiles of min(N/2, 64) slots per limb, each (limb, tile) unit builds
//    its requests' h baby tiles in lane scratch (one dot_pair per baby,
//    against the key's slot-order planes, EvkManager::bsgs_keys), and
//    simd::Kernels::dot sums each slot's h products against the unit's
//    plaintext block without reduction and reduces once. A plaintext
//    tile is fetched once per giant step for the whole batch.
//  * A giant step rounds down only its a-side, to decompose it, and
//    key-switches with no mod-down. Its inner sum comes out in slot
//    order, where its b-side rotation by j·b is a row shift: the shifted
//    b-sides add into inner sum 0, a slot-order accumulator beside the
//    NTT-order key-switch outputs. Each a-side goes back to NTT order
//    before its INTT, and the accumulator once per request. Each request
//    sums the lot over base_qp and rounds down by p once, then folds
//    (decompose, then rotate_hoisted), the swap-fold first. Every sum
//    before a rounding is exact mod q and the (limb, tile) units are
//    disjoint, so results are bit-exact for every lane count, batch
//    composition and SIMD level.
//
// DESIGN.md §6h maps the shared decomposition onto CHAM's on-chip digit
// reuse and the tiles onto its banked operand RAMs, and documents the
// measured per-shape crossover vs the coefficient-encoding HmvpEngine.
#pragma once

#include "hmvp/hmvp.h"

namespace cham {

// Rotation and plaintext-product counts of SIMD-method runs (BsgsHmvp,
// and the bench-side strawman baselines that share its slot layout).
// A BsgsHmvp product with b >= 2 baby steps (h = b/2) counts
// (h-1) + (D/b-1) + log2(n/D) + 3 rotations, h-1 of them hoisted, and D/2
// plain products; with b = 1, (D-1) + log2(n/D) rotations and D products.
struct BaselineStats {
  std::uint64_t rotations = 0;   // ciphertext rotations (keyswitches)
  std::uint64_t rotations_hoisted = 0;  // rotations off a shared decomposition
  std::uint64_t plain_mults = 0;        // plaintext products

  void merge(const BaselineStats& o) {
    rotations += o.rotations;
    rotations_hoisted += o.rotations_hoisted;
    plain_mults += o.plain_mults;
  }
};

// Publish one finished run's counters to the process-wide registry as
// "<prefix>.runs/.rotations/.rotations_hoisted/.plain_mults" — the
// CHAM-METRICS side of every SIMD-method bench line.
void publish_baseline_stats(const char* prefix, const BaselineStats& st);

// A matrix pre-encoded into the NTT-domain plaintexts the BSGS giant-step
// sweep consumes: the D extended diagonals of the plan (see the file
// comment), two to a plaintext when b >= 2. Plaintext j·h + i (h = b/2,
// i < h) holds diagonal j·b + i in slot row 0 and diagonal j·b + h + i in
// row 1, both pre-rotated right by j·b slots (the single giant rotation
// of the inner sum re-aligns every term); a plan with b = 1 holds
// diagonal d alone, in row 0 of plaintext d. Each plaintext is
// centered-lifted to base_qp (the baby rotations it multiplies stay over
// base_qp) and NTT'd. Amortises the encode+transform passes across
// repeated products with the same matrix (the serving layer freezes one
// per matrix version, see MvpOperand).
// Layout: tile-major [limb][tile][plaintext][width] in BatchEncoder slot
// order, with width = min(N/2, 64) so that a tile never straddles the two
// slot rows: tile s holds slots s·width .. s·width + width - 1, and the h
// plaintexts one giant step needs for one tile are one contiguous
// h·width-word block (16 KiB at b = 64). Each (limb, tile) unit's rows
// are stored in chunks of up to 256 plaintexts (128 KiB). Each plaintext
// is gathered from NTT order straight into its tiles as it is encoded.
// Memory: |base_qp|·N·D/2 words when b >= 2 (96 MiB at N = 8192 and
// 1024×4096), |base_qp|·N·D when b = 1.
class BsgsEncodedMatrix {
 public:
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t diagonals() const { return diags_; }
  std::size_t baby() const { return baby_; }
  std::size_t giants() const { return diags_ / baby_; }
  // Slot rows each plaintext fills: 2 when b >= 2, else 1.
  std::size_t slot_rows() const { return baby_ >= 2 ? 2 : 1; }
  // Plaintexts per giant step (h = b/2 on two rows), and in all.
  std::size_t terms() const { return baby_ / slot_rows(); }
  std::size_t plaintexts() const { return diags_ / slot_rows(); }

 private:
  friend class BsgsHmvp;
  std::size_t rows_ = 0, cols_ = 0, diags_ = 0, baby_ = 0;
  // NTT residues over base_qp, in slot order:
  // [(limb·tiles + tile)·chunks + p / chunk] -> [p % chunk][width].
  std::vector<simd::AlignedU64Vec> diag_;
};

class BsgsHmvp {
 public:
  // n_cols must be a power of two <= N/2; rows <= N/2.
  BsgsHmvp(BfvContextPtr context, const GaloisKeys* gk);

  // The largest power of two <= sqrt(n_cols). A plan with D diagonals
  // runs min(baby_steps(n), D) baby steps.
  static std::size_t baby_steps(std::size_t n_cols);

  // Sorted, deduplicated Galois elements for every n_cols-column shape:
  // the lead, baby, giant and fold rotations of any row count's plan,
  // the row swap 2N - 1 among them whenever baby_steps(n_cols) >= 2.
  std::vector<u64> required_galois_elements(std::size_t n_cols) const;

  // The slot layout of ct(v): v tiled with period |v| across the N/2
  // row-0 slots, so slot rotations act as rotations mod |v|. |v| must be
  // a power of two <= N/2.
  Plaintext encode_vector(const std::vector<u64>& v) const;
  Ciphertext encrypt_vector(const std::vector<u64>& v,
                            const Encryptor& enc) const;

  // A·v with hoisted rotations: multiply_encoded over a freshly frozen
  // diagonal set. `threads` caps the pool lanes used for the encode, the
  // shared decomposition and the fused baby/giant sweep. Bit-exact for
  // every thread count.
  Ciphertext multiply(const RowSource& a, const Ciphertext& ct_v,
                      BaselineStats* stats = nullptr, int threads = 1) const;

  // Pre-encode the matrix's diagonals for repeated products (see
  // BsgsEncodedMatrix); diagonals encode in parallel on up to `threads`
  // pool lanes.
  BsgsEncodedMatrix encode_matrix(const RowSource& a, int threads = 1) const;

  // A·v against a pre-encoded diagonal set: skips the per-diagonal
  // encode + base_qp transform. Bit-exact with multiply(a, ct_v) for the
  // matrix the set was encoded from, for every thread count.
  Ciphertext multiply_encoded(const BsgsEncodedMatrix& a,
                              const Ciphertext& ct_v,
                              BaselineStats* stats = nullptr,
                              int threads = 1) const;

  // Coalesced same-matrix sweep (the serving layer's batching primitive):
  // the diagonal operands are fetched once for the whole batch. Unlike
  // the coefficient engine's key-free row sweep, every stage here
  // consumes per-session material, so each request (one slot-tiled
  // ciphertext) runs its own sub-batch: digit decomposition, baby tiles
  // and rotations against its session's frozen BsgsKeys. Result i is
  // bit-exact with multiply_encoded(a, batch[i].ct_v[0]) under that
  // request's keys, for every thread count and batch composition.
  std::vector<Ciphertext> multiply_encoded_batch(
      const BsgsEncodedMatrix& a, const std::vector<MvpRequest>& batch,
      BaselineStats* stats = nullptr, int threads = 1) const;

  // A·v read back from the first `rows` slots of ct's decryption.
  std::vector<u64> decrypt_result(const Ciphertext& ct, std::size_t rows,
                                  const Decryptor& dec) const;

 private:
  BfvContextPtr ctx_;
  const GaloisKeys* gk_;
  BatchEncoder encoder_;
  Evaluator eval_;
};

}  // namespace cham
