// EvkManager: the central evaluation-key registry. These tests pin the
// sharing semantics (one manager per (context, session), one frozen form
// per key uid), the exactly-once freeze under concurrent first access,
// and the pack-key set extension behavior the HMVP/pack callers rely on.
#include "bfv/evk_manager.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "bfv/evaluator.h"
#include "bfv/keygen.h"
#include "obs/metrics.h"

namespace cham {
namespace {

u64 freezes() {
  return obs::MetricsRegistry::global().counter("evk.freezes").value();
}

u64 hits() {
  return obs::MetricsRegistry::global().counter("evk.hits").value();
}

struct EvkFixture {
  explicit EvkFixture(std::size_t n = 64, u64 seed = 11)
      : rng(seed), ctx(BfvContext::create(BfvParams::test(n))),
        keygen(ctx, rng) {}

  Rng rng;
  BfvContextPtr ctx;
  KeyGenerator keygen;
};

TEST(EvkManager, SharedReturnsOneManagerPerContextAndSession) {
  EvkFixture f;
  auto a = EvkManager::shared(f.ctx);
  auto b = EvkManager::shared(f.ctx);
  EXPECT_EQ(a.get(), b.get());
  auto other_session = EvkManager::shared(f.ctx, "party-b");
  EXPECT_NE(a.get(), other_session.get());
  EvkFixture g(64, 12);
  auto other_ctx = EvkManager::shared(g.ctx);
  EXPECT_NE(a.get(), other_ctx.get());
}

TEST(EvkManager, RegistryEntryDiesWithItsLastHolder) {
  EvkFixture f;
  EvkManager* first;
  {
    auto a = EvkManager::shared(f.ctx, "ephemeral");
    first = a.get();
  }
  // The weak registry entry expired; a new request builds a fresh manager
  // (possibly at the same address — only identity-over-time matters, so
  // check via the cache state instead of the pointer).
  auto b = EvkManager::shared(f.ctx, "ephemeral");
  (void)first;
  auto gk = f.keygen.make_galois_keys(1);
  const u64 before = freezes();
  b->frozen(gk.get(3));
  EXPECT_EQ(freezes(), before + 1) << "fresh manager must start cold";
}

TEST(EvkManager, FrozenIsBuiltOncePerKeyUid) {
  EvkFixture f;
  auto mgr = EvkManager::shared(f.ctx);
  auto gk = f.keygen.make_galois_keys(2);
  const u64 f0 = freezes();
  auto first = mgr->frozen(gk.get(3));
  EXPECT_EQ(freezes(), f0 + 1);
  const u64 h0 = hits();
  auto second = mgr->frozen(gk.get(3));
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(freezes(), f0 + 1) << "second access must not rebuild";
  EXPECT_EQ(hits(), h0 + 1);
  // A different element is a different uid.
  auto other = mgr->frozen(gk.get(5));
  EXPECT_NE(first.get(), other.get());
  EXPECT_EQ(freezes(), f0 + 2);
}

TEST(EvkManager, KeyCopiesShareTheFrozenForm) {
  EvkFixture f;
  auto mgr = EvkManager::shared(f.ctx);
  auto gk = f.keygen.make_galois_keys(1);
  const KeySwitchKey& original = gk.get(3);
  const KeySwitchKey copy = original;  // copies share the uid
  EXPECT_EQ(copy.uid, original.uid);
  EXPECT_EQ(mgr->frozen(original).get(), mgr->frozen(copy).get());
}

TEST(EvkManager, RejectsKeysFromAnotherContext) {
  EvkFixture f(64, 21);
  EvkFixture g(64, 22);
  auto mgr = EvkManager::shared(f.ctx);
  auto foreign = g.keygen.make_galois_keys(1);
  EXPECT_THROW(mgr->frozen(foreign.get(3)), CheckError);
}

TEST(EvkManager, ConcurrentFirstAccessFreezesExactlyOnce) {
  EvkFixture f;
  auto mgr = EvkManager::shared(f.ctx);
  auto gk = f.keygen.make_galois_keys(1);
  const KeySwitchKey& ksk = gk.get(3);
  const u64 before = freezes();
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const FrozenKsk>> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] { got[t] = mgr->frozen(ksk); });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(got[t].get(), got[0].get()) << t;
  }
  EXPECT_EQ(freezes(), before + 1)
      << "racing first accesses must serialize into a single freeze";
}

TEST(EvkManager, AutomorphTablesAndMonomialsAreCached) {
  EvkFixture f;
  auto mgr = EvkManager::shared(f.ctx);
  EXPECT_EQ(mgr->automorph_table(3).get(), mgr->automorph_table(3).get());
  EXPECT_EQ(mgr->automorph_table_ntt(5).get(),
            mgr->automorph_table_ntt(5).get());
  EXPECT_EQ(mgr->monomial_ntt_qp(8).get(), mgr->monomial_ntt_qp(8).get());
  EXPECT_NE(mgr->automorph_table(3).get(), mgr->automorph_table(5).get());
}

TEST(EvkManager, SessionsShareKeyIndependentCachesWithBase) {
  // Automorph tables and monomial twiddles are context geometry, not key
  // material: every session-scoped manager must resolve them to the base
  // manager's instances, so k coalesced sessions build one routing-table
  // set (DESIGN.md §6i). Key material stays banked per session.
  EvkFixture f;
  auto base = EvkManager::shared(f.ctx);
  auto s1 = EvkManager::shared(f.ctx, "tenant-1");
  auto s2 = EvkManager::shared(f.ctx, "tenant-2");
  ASSERT_NE(s1.get(), s2.get());
  EXPECT_EQ(s1->automorph_table(3).get(), base->automorph_table(3).get());
  EXPECT_EQ(s2->automorph_table(3).get(), base->automorph_table(3).get());
  EXPECT_EQ(s1->automorph_table_ntt(5).get(),
            s2->automorph_table_ntt(5).get());
  EXPECT_EQ(s1->monomial_ntt_qp(8).get(), s2->monomial_ntt_qp(8).get());
  // Frozen KSKs are keyed by uid in each session's own bank.
  auto gk = f.keygen.make_galois_keys(1);
  EXPECT_EQ(s1->frozen(gk.get(3)).get(), s1->frozen(gk.get(3)).get());
}

TEST(EvkManager, SessionManagerKeepsBaseAlive) {
  // The base manager a session delegates to must outlive the session's
  // holder even when nothing else references the base session.
  EvkFixture f(64, 31);
  auto s = EvkManager::shared(f.ctx, "lonely-tenant");
  auto table = s->automorph_table(3);
  // If the delegated base had died, a fresh base would rebuild the table;
  // the shared base_ reference keeps it identical instead.
  auto base = EvkManager::shared(f.ctx);
  EXPECT_EQ(base->automorph_table(3).get(), table.get());
}

TEST(EvkManager, PackKeysAreCachedAndExtendedInPlace) {
  EvkFixture f;
  auto mgr = EvkManager::shared(f.ctx);
  auto gk = f.keygen.make_galois_keys(3);
  auto shallow = mgr->pack_keys(gk, 2);
  ASSERT_EQ(shallow->levels.size(), 3u);
  auto again = mgr->pack_keys(gk, 2);
  EXPECT_EQ(shallow.get(), again.get());
  // Deepening reuses the already-built shallow levels (shared parts, not
  // rebuilt: same FrozenKsk instances) and caches the deeper set.
  const u64 before = freezes();
  auto deep = mgr->pack_keys(gk, 3);
  ASSERT_EQ(deep->levels.size(), 4u);
  EXPECT_EQ(deep->levels[1].ksk.get(), shallow->levels[1].ksk.get());
  EXPECT_EQ(deep->levels[2].ksk.get(), shallow->levels[2].ksk.get());
  EXPECT_EQ(freezes(), before + 1) << "only level 3's key is new";
  auto deep_again = mgr->pack_keys(gk, 3);
  EXPECT_EQ(deep.get(), deep_again.get());
  // A shallower request after deepening serves the deep set.
  EXPECT_EQ(mgr->pack_keys(gk, 1).get(), deep.get());
}

TEST(EvkManager, PackKeysRequireTheTreeElements) {
  EvkFixture f;
  auto mgr = EvkManager::shared(f.ctx);
  auto gk = f.keygen.make_galois_keys(1);  // only element 3
  EXPECT_THROW(mgr->pack_keys(gk, 2), CheckError);
}

TEST(EvkManager, BsgsKeysBuildCoefficientTablesForLeadAndFoldsOnly) {
  EvkFixture f;
  auto mgr = EvkManager::shared(f.ctx);
  const u64 swap = f.ctx->row_swap_galois_element();
  std::vector<u64> rotations = {swap};
  for (std::size_t r : {1, 2, 4, 8}) {
    rotations.push_back(f.ctx->rotation_galois_element(r));
  }
  auto gk = f.keygen.make_galois_keys(1, rotations);
  // 16 columns, 8 extended diagonals, 4 baby steps on two slot rows
  // (h = 2): lead rotations r = 2 and the row swap, one baby r = 1, one
  // giant r = 4, then the swap-fold and one fold r = 8.
  auto keys = mgr->bsgs_keys(gk, 16, 8, 4);
  ASSERT_EQ(keys->lead.size(), 2u);
  ASSERT_EQ(keys->babies.size(), 1u);
  ASSERT_EQ(keys->giants.size(), 1u);
  ASSERT_EQ(keys->folds.size(), 2u);
  EXPECT_EQ(keys->rotations(), 6u);
  EXPECT_EQ(keys->lead[0].r, 2u);
  EXPECT_EQ(keys->lead[1].element, swap);
  EXPECT_EQ(keys->folds[0].element, swap);
  // A baby carries its key's slot-order operand planes and nothing else:
  // no routing table, no Shoup-frozen key.
  const std::vector<u64>& slot = f.ctx->slot_to_index();
  for (const BsgsKeys::Rot& rot : keys->babies) {
    EXPECT_EQ(rot.coeff, nullptr) << "r = " << rot.r;
    EXPECT_EQ(rot.ntt, nullptr) << "r = " << rot.r;
    EXPECT_EQ(rot.ksk, nullptr) << "r = " << rot.r;
    ASSERT_NE(rot.slots, nullptr) << "r = " << rot.r;
    const KeySwitchKey& ksk = gk.get(rot.element);
    EXPECT_EQ(rot.slots.get(), mgr->frozen_slots(ksk).get());
    const SlotKsk& planes = *rot.slots;
    ASSERT_EQ(planes.digits, ksk.b.size());
    ASSERT_EQ(planes.width * planes.tiles, f.ctx->n());
    for (std::size_t l = 0; l < ksk.b[0].limbs(); ++l) {
      for (std::size_t t = 0; t < planes.tiles; ++t) {
        const u64* block = planes.tile(l, t);
        for (std::size_t k = 0; k < planes.digits; ++k) {
          for (std::size_t w = 0; w < planes.width; ++w) {
            const u64 at = slot[t * planes.width + w];
            ASSERT_EQ(block[k * planes.width + w], ksk.b[k].limb(l)[at]);
            ASSERT_EQ(block[(planes.digits + k) * planes.width + w],
                      ksk.a[k].limb(l)[at]);
          }
        }
      }
    }
  }
  for (const BsgsKeys::Rot& rot : keys->giants) {
    EXPECT_EQ(rot.coeff, nullptr) << "r = " << rot.r;
    EXPECT_EQ(rot.slots, nullptr) << "r = " << rot.r;
    EXPECT_EQ(rot.ntt.get(), mgr->automorph_table_ntt(rot.element).get());
  }
  for (const auto* steps : {&keys->lead, &keys->folds}) {
    for (const BsgsKeys::Rot& rot : *steps) {
      EXPECT_EQ(rot.coeff.get(), mgr->automorph_table(rot.element).get())
          << "element " << rot.element;
      EXPECT_EQ(rot.ntt.get(), mgr->automorph_table_ntt(rot.element).get());
    }
  }
  EXPECT_EQ(keys->folds[1].r, 8u);
  // The row swap is one frozen key, shared by the lead and the fold.
  EXPECT_EQ(keys->lead[1].ksk.get(), keys->folds[0].ksk.get());

  // A plan with one baby step has nothing to share: row 1 stays empty.
  auto one_row = mgr->bsgs_keys(gk, 16, 1, 1);
  EXPECT_TRUE(one_row->lead.empty());
  EXPECT_TRUE(one_row->babies.empty());
  ASSERT_EQ(one_row->folds.size(), 4u);
  EXPECT_EQ(one_row->folds[0].r, 8u);
}

// evk.freezes counts keys, not forms: a key frozen into slot order and
// later into Shoup form (or the other way round) is one freeze.
TEST(EvkManager, FrozenFormsOfOneKeyCountOneFreeze) {
  EvkFixture f;
  auto mgr = EvkManager::shared(f.ctx, "forms");
  auto gk = f.keygen.make_galois_keys(0, {f.ctx->rotation_galois_element(1),
                                          f.ctx->rotation_galois_element(2)});
  const KeySwitchKey& one = gk.get(f.ctx->rotation_galois_element(1));
  const KeySwitchKey& two = gk.get(f.ctx->rotation_galois_element(2));
  const u64 f0 = freezes(), h0 = hits();
  auto slots = mgr->frozen_slots(one);
  EXPECT_EQ(freezes(), f0 + 1);
  auto shoup = mgr->frozen(one);
  EXPECT_EQ(freezes(), f0 + 1);
  EXPECT_EQ(hits(), h0 + 1);
  EXPECT_EQ(mgr->frozen_slots(one).get(), slots.get());
  EXPECT_EQ(mgr->frozen(one).get(), shoup.get());
  EXPECT_EQ(hits(), h0 + 3);
  mgr->frozen(two);
  mgr->frozen_slots(two);
  EXPECT_EQ(freezes(), f0 + 2);
  EXPECT_EQ(hits(), h0 + 4);
}

TEST(EvkManager, EvaluatorsOnOneContextShareTheManager) {
  EvkFixture f;
  Evaluator a(f.ctx);
  Evaluator b(f.ctx);
  EXPECT_EQ(&a.evk(), &b.evk());
  // The freeze done through one evaluator is visible to the other.
  auto gk = f.keygen.make_galois_keys(1);
  auto via_a = a.evk().frozen(gk.get(3));
  const u64 before = freezes();
  auto via_b = b.evk().frozen(gk.get(3));
  EXPECT_EQ(via_a.get(), via_b.get());
  EXPECT_EQ(freezes(), before);
}

TEST(KeyGenerator, GaloisKeysDeduplicateTreeAndExtraElements) {
  EvkFixture f;
  // Tree levels 1..3 give {3, 5, 9}; the extras collide with all of them
  // and add one new element.
  auto gk = f.keygen.make_galois_keys(3, {3, 5, 9, 9, 7});
  EXPECT_EQ(gk.keys.size(), 4u);
  for (u64 k : {3u, 5u, 9u, 7u}) EXPECT_TRUE(gk.has(k)) << k;
  // Duplicate extras alone collapse to one key.
  auto only_extras = f.keygen.make_galois_keys(0, {15, 15, 15});
  EXPECT_EQ(only_extras.keys.size(), 1u);
}

}  // namespace
}  // namespace cham
