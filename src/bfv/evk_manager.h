// Central evaluation-key manager — the software analogue of CHAM's key
// SRAM (paper Fig. 1b): every piece of derived key material (Shoup-frozen
// and slot-order key-switch keys, automorph routing tables,
// evaluation-domain monomial twiddles, assembled pack-tree operand sets)
// is built exactly once per (params, session) and then shared, read-only,
// by every consumer — the HMVP row loop, the pack tree, BSGS rotations
// and the HeteroLR / Beaver apps.
//
// Identity: KeySwitchKey and GaloisKeys carry a process-unique `uid`
// assigned at construction (copies share it; a deserialized key gets a
// fresh one), so the frozen caches are keyed by key material rather than
// by object address — no ABA hazard when keys are destroyed and the
// address reused.
//
// Concurrency: lookups take a shared lock. Each frozen form of a key is
// built under the unique lock, so concurrent first access freezes exactly
// once (the `evk.freezes` counter counts frozen keys, `evk.hits` counts
// cache hits — CHAM-METRICS observability for key residency). Pack-key assembly runs
// outside the lock (its parts are themselves freeze-once), then the
// assembled set is published with first-writer-wins semantics.
#pragma once

#include <array>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "bfv/keys.h"

namespace cham {

// A key-switch key with both digit planes frozen into Shoup form, so the
// per-merge inner products run on mul_shoup instead of Barrett. Freezing
// costs one division per coefficient; the manager amortizes it over every
// key-switch of the process (EvkManager::frozen). Constructing one
// directly makes an unmanaged copy that no evk.* counter sees.
struct FrozenKsk {
  explicit FrozenKsk(const KeySwitchKey& ksk);

  std::vector<ShoupPoly> b, a;
};

// Slots per BSGS MultPoly tile at ring dimension n: a tile never
// straddles the two slot rows. BsgsHmvp's matrix tiles and SlotKsk's key
// blocks share it.
inline std::size_t bsgs_tile_width(std::size_t n) {
  return n / 2 < 64 ? n / 2 : 64;
}

// A key-switch key's digit planes gathered into BatchEncoder slot order
// (BfvContext::slot_to_index), operands only. The BSGS baby rotations
// read them at their tile's own slots while the request's digits are
// read at the rotation's offset, so they need no routing table, and
// their products run in the lazy dot_pair kernel, so they need no Shoup
// quotient plane: half the bytes of a FrozenKsk and no division.
// Tile-major, [limb][tile][b, a][digit][width] with width =
// bsgs_tile_width(N): everything one MultPoly unit reads of the key is
// one contiguous 2·dnum·width-word block.
struct SlotKsk {
  SlotKsk(const KeySwitchKey& ksk, const std::vector<u64>& slot_to_index);

  // Unit (limb l, tile t): b's digit k at + k·width, a's at
  // + (digits + k)·width.
  const u64* tile(std::size_t l, std::size_t t) const {
    return data_.data() + (l * tiles + t) * 2 * digits * width;
  }

  std::size_t width = 0, tiles = 0, digits = 0;

 private:
  simd::AlignedU64Vec data_;
};

// Frozen rotation operands for one BSGS plan over D extended diagonals
// of an n-column matrix with b baby steps. A plan with b >= 2 fills both
// slot rows: its lead rotations turn ct(v) into ct + swap(rot_h(ct)) with
// h = b/2, so row 1 carries v rotated by h and each baby rotation
// r = 1..h-1 serves baby steps r and r + h at once; its first fold adds
// the row swap back. A plan with b = 1 has no baby step to share and uses
// row 0 alone. Then come the giant-step rotations r = j·b (j < D/b) and
// the rotate-and-sum folds r = n/2, n/4, ..., D. Everything is resolved
// once, so the hoisted BSGS inner loops touch no registry locks and no
// key freezing. A baby runs in slot order, where its rotation is an
// offset read of the request's digits, so it carries only its key's
// slot-order planes (SlotKsk). Giants, lead rotations and folds carry
// the NTT-domain routing table (keyswitch_hoisted_qp permutes the
// digits with it) and the Shoup-frozen Galois KSK; the lead rotations
// and folds rotate base_q, coefficient-domain ciphertexts, so only they
// carry the coefficient table as well.
struct BsgsKeys {
  struct Rot {
    std::size_t r = 0;  // slot rotation amount (0 for the row swap)
    u64 element = 0;    // Galois element: 3^r mod 2N, or 2N - 1 to swap
    std::shared_ptr<const AutomorphTable> coeff;  // coeff domain; lead, folds
    std::shared_ptr<const AutomorphTable> ntt;    // eval domain; not babies
    std::shared_ptr<const FrozenKsk> ksk;         // frozen gk(element)
    std::shared_ptr<const SlotKsk> slots;         // babies only
  };
  std::vector<Rot> lead;    // r = h, then the row swap; empty when b = 1
  std::vector<Rot> babies;  // r = 1 .. h-1; none when b = 1
  std::vector<Rot> giants;  // r = j·b, j = 1 .. D/b - 1, in order
  std::vector<Rot> folds;   // the row swap if b >= 2, then r = n/2, .., D

  // Rotations one product runs (the row swap counts twice).
  std::size_t rotations() const {
    return lead.size() + babies.size() + giants.size() + folds.size();
  }
};

// Per-level operands of the NTT-resident pack tree, shared by every merge
// of every pack call: the evaluation-domain monomial twiddles for
// X^{N/2^l}, both automorphism routing tables for X -> X^{2^l+1}, and the
// Galois key frozen into Shoup form.
struct PackKeys {
  struct Level {
    std::size_t shift = 0;                        // N / 2^l
    std::shared_ptr<const ShoupPoly> mono;        // X^shift, eval domain
    std::shared_ptr<const AutomorphTable> coeff;  // automorph, coeff domain
    std::shared_ptr<const AutomorphTable> ntt;    // automorph, eval domain
    std::shared_ptr<const FrozenKsk> ksk;         // frozen gk(2^l + 1)
  };
  std::vector<Level> levels;  // indexed by level_log; [0] unused
};

class EvkManager {
 public:
  explicit EvkManager(BfvContextPtr context);

  // Process-wide manager registry: same (context, session) -> same
  // manager, for as long as anyone holds it (the registry keeps weak
  // references, so dropping every Evaluator releases the key material).
  //
  // Key-independent derived material (automorph routing tables, monomial
  // twiddles) is context geometry, not key material: every session-scoped
  // manager delegates those caches to the context's base (session "")
  // manager, so k sessions coalesced into one batched sweep share one
  // routing-table set instead of building k copies — the software
  // analogue of CHAM banking per-client keys while sharing the datapath
  // tables. Shoup-frozen KSKs, pack sets and BSGS sets stay per-session
  // (they are key material).
  static std::shared_ptr<EvkManager> shared(const BfvContextPtr& context,
                                            const std::string& session = "");

  const BfvContextPtr& context() const { return ctx_; }

  // Automorph routing tables keyed by Galois element. Coefficient-domain
  // (gather + sign flips) and NTT-domain (pure evaluation-slot
  // permutation) variants.
  std::shared_ptr<const AutomorphTable> automorph_table(u64 k);
  std::shared_ptr<const AutomorphTable> automorph_table_ntt(u64 k);

  // Evaluation-form multiplier for X^s over base_qp: slot i of limb l
  // carries ψ_l^{s·(2·rev(i)+1) mod 2N} in Shoup form, so a negacyclic
  // monomial shift of an NTT-resident polynomial is one pointwise
  // product. Cached per shift (the pack tree uses log C distinct s).
  std::shared_ptr<const ShoupPoly> monomial_ntt_qp(std::size_t s);

  // The Shoup-frozen form of `ksk`, built exactly once per key uid.
  std::shared_ptr<const FrozenKsk> frozen(const KeySwitchKey& ksk);
  // The slot-order operand planes of `ksk`, built exactly once per key
  // uid. `evk.freezes` counts keys, not forms: the first form built for
  // a uid counts its freeze, and a second form of an already-frozen key
  // counts as a hit.
  std::shared_ptr<const SlotKsk> frozen_slots(const KeySwitchKey& ksk);

  // The pack-tree operand set for gk covering levels 1..max_level_log,
  // cached per GaloisKeys uid; a deeper request extends the cached set
  // (shallower levels are shared, not rebuilt). Requires gk.has(2^l + 1)
  // for every level.
  std::shared_ptr<const PackKeys> pack_keys(const GaloisKeys& gk,
                                            int max_level_log);

  // The BSGS rotation operand set for the plan that sweeps `diags`
  // extended diagonals of an n_cols-wide matrix with `baby` baby steps
  // (powers of two, baby <= diags <= n_cols), cached per (GaloisKeys uid,
  // n_cols, diags, baby). Requires gk to hold every rotation of the plan;
  // BsgsHmvp's plans stay inside BsgsHmvp::required_galois_elements.
  std::shared_ptr<const BsgsKeys> bsgs_keys(const GaloisKeys& gk,
                                            std::size_t n_cols,
                                            std::size_t diags,
                                            std::size_t baby);

 private:
  BfvContextPtr ctx_;
  // Set on session-scoped managers by shared(): the context's base
  // manager, which owns the key-independent caches (tables, monomials).
  // Holding it shared keeps the base alive as long as any session does.
  std::shared_ptr<EvkManager> base_;
  mutable std::shared_mutex mu_;
  std::map<u64, std::shared_ptr<const AutomorphTable>> tables_coeff_;
  std::map<u64, std::shared_ptr<const AutomorphTable>> tables_ntt_;
  std::map<u64, std::shared_ptr<const ShoupPoly>> monomials_qp_;
  // The frozen forms of one key, each built on first use.
  struct FrozenForms {
    std::shared_ptr<const FrozenKsk> shoup;
    std::shared_ptr<const SlotKsk> slots;
  };
  template <typename Form, typename Build>
  std::shared_ptr<const Form> freeze(
      const KeySwitchKey& ksk, std::shared_ptr<const Form> FrozenForms::*form,
      const Build& build);
  std::map<u64, FrozenForms> frozen_;                          // KSK uid
  std::map<u64, std::shared_ptr<const PackKeys>> pack_;        // GK uid
  // (GK uid, n_cols, diags, baby) -> frozen BSGS rotation operand set
  std::map<std::array<u64, 4>, std::shared_ptr<const BsgsKeys>> bsgs_;
};

}  // namespace cham
