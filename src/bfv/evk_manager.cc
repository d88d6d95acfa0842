#include "bfv/evk_manager.h"

#include <mutex>
#include <utility>

#include "nt/bitops.h"
#include "obs/metrics.h"

namespace cham {

namespace {

obs::Counter& freeze_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("evk.freezes");
  return c;
}

obs::Counter& hit_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("evk.hits");
  return c;
}

}  // namespace

EvkManager::EvkManager(BfvContextPtr context) : ctx_(std::move(context)) {}

std::shared_ptr<EvkManager> EvkManager::shared(const BfvContextPtr& context,
                                               const std::string& session) {
  CHAM_CHECK(context != nullptr);
  using Key = std::pair<const BfvContext*, std::string>;
  // Leaked registry of weak references: managers (and through them the
  // key material) live exactly as long as their consumers, and a context
  // address reused after full teardown can never alias a live entry (an
  // entry is live only while its manager pins the context).
  static std::mutex* reg_mu = new std::mutex;
  static auto* reg = new std::map<Key, std::weak_ptr<EvkManager>>;
  std::lock_guard<std::mutex> lock(*reg_mu);
  // Resolve (or create) the base manager first so a session-scoped
  // manager can delegate its key-independent caches to it; done inline
  // under the same lock (no recursive shared() call).
  std::shared_ptr<EvkManager> base;
  if (!session.empty()) {
    std::weak_ptr<EvkManager>& base_slot = (*reg)[Key{context.get(), ""}];
    base = base_slot.lock();
    if (base == nullptr) {
      base = std::make_shared<EvkManager>(context);
      base_slot = base;
    }
  }
  std::weak_ptr<EvkManager>& slot = (*reg)[Key{context.get(), session}];
  if (auto existing = slot.lock()) return existing;
  auto made = std::make_shared<EvkManager>(context);
  made->base_ = std::move(base);
  slot = made;
  // Sweep expired entries so long-running processes that churn contexts
  // (tests, sessions) keep the registry at its live size.
  for (auto it = reg->begin(); it != reg->end();) {
    it = it->second.expired() ? reg->erase(it) : std::next(it);
  }
  return made;
}

std::shared_ptr<const AutomorphTable> EvkManager::automorph_table(u64 k) {
  if (base_ != nullptr) return base_->automorph_table(k);
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = tables_coeff_.find(k);
    if (it != tables_coeff_.end()) return it->second;
  }
  auto table = std::make_shared<const AutomorphTable>(
      make_automorph_table(ctx_->n(), k));
  std::unique_lock<std::shared_mutex> lock(mu_);
  // A racing creator may have inserted first; keep that instance.
  return tables_coeff_.emplace(k, std::move(table)).first->second;
}

std::shared_ptr<const AutomorphTable> EvkManager::automorph_table_ntt(u64 k) {
  if (base_ != nullptr) return base_->automorph_table_ntt(k);
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = tables_ntt_.find(k);
    if (it != tables_ntt_.end()) return it->second;
  }
  auto table = std::make_shared<const AutomorphTable>(
      make_automorph_table_ntt(ctx_->n(), k));
  std::unique_lock<std::shared_mutex> lock(mu_);
  return tables_ntt_.emplace(k, std::move(table)).first->second;
}

std::shared_ptr<const ShoupPoly> EvkManager::monomial_ntt_qp(std::size_t s) {
  if (base_ != nullptr) return base_->monomial_ntt_qp(s);
  const u64 key = static_cast<u64>(s);
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = monomials_qp_.find(key);
    if (it != monomials_qp_.end()) return it->second;
  }
  const RnsBasePtr& base = ctx_->base_qp();
  const std::size_t n = ctx_->n();
  CHAM_CHECK_MSG(s < 2 * n, "monomial exponent must be in [0, 2N)");
  const int log_n = log2_exact(n);
  const u64 mask = 2 * static_cast<u64>(n) - 1;
  RnsPoly tw(base, true);
  for (std::size_t l = 0; l < base->size(); ++l) {
    const Modulus& ql = base->modulus(l);
    // psipow[e] = ψ_l^e for e in [0, 2N); slot i of the evaluation form
    // of X^s·a(X) is a(ψ^{2·rev(i)+1}) scaled by ψ^{s·(2·rev(i)+1)}.
    std::vector<u64> psipow(2 * n);
    const u64 psi = base->ntt(l).psi();
    psipow[0] = 1;
    for (std::size_t e = 1; e < 2 * n; ++e)
      psipow[e] = ql.mul(psipow[e - 1], psi);
    u64* limb = tw.limb(l);
    for (std::size_t i = 0; i < n; ++i) {
      const u64 rev_i = bit_reverse(static_cast<std::uint32_t>(i), log_n);
      limb[i] = psipow[(static_cast<u64>(s) * (2 * rev_i + 1)) & mask];
    }
  }
  auto frozen = std::make_shared<const ShoupPoly>(tw);
  std::unique_lock<std::shared_mutex> lock(mu_);
  return monomials_qp_.emplace(key, std::move(frozen)).first->second;
}

FrozenKsk::FrozenKsk(const KeySwitchKey& ksk) {
  b.reserve(ksk.b.size());
  a.reserve(ksk.a.size());
  for (const RnsPoly& poly : ksk.b) b.emplace_back(poly);
  for (const RnsPoly& poly : ksk.a) a.emplace_back(poly);
}

SlotKsk::SlotKsk(const KeySwitchKey& ksk,
                 const std::vector<u64>& slot_to_index)
    : width(bsgs_tile_width(slot_to_index.size())),
      tiles(slot_to_index.size() / width),
      digits(ksk.b.size()) {
  const std::size_t limbs = ksk.b.empty() ? 0 : ksk.b[0].limbs();
  data_.resize(limbs * tiles * 2 * digits * width);
  for (std::size_t k = 0; k < digits; ++k) {
    CHAM_CHECK_MSG(ksk.b[k].is_ntt() && ksk.a[k].is_ntt(),
                   "key-switch key planes must be NTT-form");
    for (std::size_t l = 0; l < limbs; ++l) {
      for (std::size_t side = 0; side < 2; ++side) {
        const u64* src = (side == 0 ? ksk.b : ksk.a)[k].limb(l);
        for (std::size_t t = 0; t < tiles; ++t) {
          u64* dst = data_.data() +
                     (((l * tiles + t) * 2 + side) * digits + k) * width;
          const u64* idx = slot_to_index.data() + t * width;
          for (std::size_t w = 0; w < width; ++w) dst[w] = src[idx[w]];
        }
      }
    }
  }
}

// Build under the unique lock: concurrent first access serializes and
// the second arrival finds the entry, so each form of a key is built
// exactly once per key uid.
template <typename Form, typename Build>
std::shared_ptr<const Form> EvkManager::freeze(
    const KeySwitchKey& ksk, std::shared_ptr<const Form> FrozenForms::*form,
    const Build& build) {
  CHAM_CHECK_MSG(ksk.context == ctx_,
                 "key-switch key belongs to a different context");
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = frozen_.find(ksk.uid);
    if (it != frozen_.end() && it->second.*form != nullptr) {
      hit_counter().add(1);
      return it->second.*form;
    }
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, fresh] = frozen_.try_emplace(ksk.uid);
  std::shared_ptr<const Form>& out = it->second.*form;
  if (out == nullptr) {
    out = build();
    (fresh ? freeze_counter() : hit_counter()).add(1);
  } else {
    hit_counter().add(1);
  }
  return out;
}

std::shared_ptr<const FrozenKsk> EvkManager::frozen(const KeySwitchKey& ksk) {
  return freeze(ksk, &FrozenForms::shoup,
                [&] { return std::make_shared<const FrozenKsk>(ksk); });
}

std::shared_ptr<const SlotKsk> EvkManager::frozen_slots(
    const KeySwitchKey& ksk) {
  return freeze(ksk, &FrozenForms::slots, [&] {
    return std::make_shared<const SlotKsk>(ksk, ctx_->slot_to_index());
  });
}

std::shared_ptr<const BsgsKeys> EvkManager::bsgs_keys(const GaloisKeys& gk,
                                                      std::size_t n_cols,
                                                      std::size_t diags,
                                                      std::size_t baby) {
  CHAM_CHECK_MSG(is_power_of_two(n_cols) && is_power_of_two(diags) &&
                     is_power_of_two(baby) && baby <= diags &&
                     diags <= n_cols,
                 "BSGS plan must be powers of two with b <= D <= n");
  const std::array<u64, 4> key{gk.uid, static_cast<u64>(n_cols),
                               static_cast<u64>(diags),
                               static_cast<u64>(baby)};
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = bsgs_.find(key);
    if (it != bsgs_.end()) {
      hit_counter().add(1);
      return it->second;
    }
  }
  // Assembly outside the lock: tables and key freezes are each
  // exactly-once cached, so a racing assembly only duplicates shared_ptr
  // plumbing.
  auto make_rot = [&](std::size_t r, u64 element) {
    BsgsKeys::Rot rot;
    rot.r = r;
    rot.element = element;
    rot.ntt = automorph_table_ntt(element);
    rot.ksk = frozen(gk.get(element));
    return rot;
  };
  auto rotation = [&](std::size_t r) {
    return make_rot(r, ctx_->rotation_galois_element(r));
  };
  // Lead rotations and folds act on base_q, coefficient-domain ciphertexts.
  auto with_coeff = [&](BsgsKeys::Rot rot) {
    rot.coeff = automorph_table(rot.element);
    return rot;
  };
  auto keys = std::make_shared<BsgsKeys>();
  const std::size_t terms = baby >= 2 ? baby / 2 : 1;
  if (baby >= 2) {
    const BsgsKeys::Rot swap =
        with_coeff(make_rot(0, ctx_->row_swap_galois_element()));
    keys->lead = {with_coeff(rotation(terms)), swap};
    keys->folds.push_back(swap);
  }
  for (std::size_t i = 1; i < terms; ++i) {
    BsgsKeys::Rot baby;
    baby.r = i;
    baby.element = ctx_->rotation_galois_element(i);
    baby.slots = frozen_slots(gk.get(baby.element));
    keys->babies.push_back(std::move(baby));
  }
  for (std::size_t r = baby; r < diags; r += baby) {
    keys->giants.push_back(rotation(r));
  }
  for (std::size_t r = n_cols / 2; r >= diags; r /= 2) {
    keys->folds.push_back(with_coeff(rotation(r)));
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  return bsgs_.emplace(key, std::move(keys)).first->second;
}

std::shared_ptr<const PackKeys> EvkManager::pack_keys(const GaloisKeys& gk,
                                                      int max_level_log) {
  const std::size_t n = ctx_->n();
  CHAM_CHECK(max_level_log >= 1 &&
             (std::size_t{1} << max_level_log) <= n);
  const std::size_t want = static_cast<std::size_t>(max_level_log) + 1;
  std::shared_ptr<const PackKeys> have;
  {
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = pack_.find(gk.uid);
    if (it != pack_.end()) {
      if (it->second->levels.size() >= want) {
        hit_counter().add(1);
        return it->second;
      }
      have = it->second;  // extend below, sharing the built levels
    }
  }
  // Assembly happens outside the lock: each part is itself cached (and
  // the KSK freeze is exactly-once), so a racing assembly duplicates only
  // cheap shared_ptr plumbing.
  auto keys = std::make_shared<PackKeys>();
  keys->levels.resize(want);
  for (int l = 1; l <= max_level_log; ++l) {
    const std::size_t idx = static_cast<std::size_t>(l);
    if (have != nullptr && idx < have->levels.size()) {
      keys->levels[idx] = have->levels[idx];
      continue;
    }
    const u64 k = (1ULL << l) + 1;
    PackKeys::Level& lvl = keys->levels[idx];
    lvl.shift = n >> l;
    lvl.mono = monomial_ntt_qp(lvl.shift);
    lvl.coeff = automorph_table(k);
    lvl.ntt = automorph_table_ntt(k);
    lvl.ksk = frozen(gk.get(k));
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto [it, inserted] = pack_.emplace(gk.uid, keys);
  if (!inserted) {
    // First writer wins unless we assembled a deeper set.
    if (it->second->levels.size() >= want) return it->second;
    it->second = keys;
  }
  return keys;
}

}  // namespace cham
