// Observability layer tests: span capture semantics (nesting, arguments,
// cross-lane ordering under the pool), log-scale histogram percentile
// accuracy against a sorted reference, the flat JSON writer and the
// metrics snapshot JSON, and the guarantee that tracing never perturbs
// HMVP results bit for bit.
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "hmvp/hmvp.h"
#include "nt/bitops.h"

namespace cham {
namespace {

using obs::Histogram;
using obs::JsonWriter;
using obs::MetricsRegistry;
using obs::TraceRecorder;

// A parked pool worker holds an open "pool.wait" span that it appends on
// its next wake-up; if that span latched tracing as enabled (a previous
// traced test), the late append would race with events()/clear() here.
// Quiescing runs one full-width job with tracing off: every worker wakes
// (a barrier forces full participation), flushes its stale span, and
// re-parks with a span latched disabled — after which no appends can
// happen until the pool is used again.
void quiesce_pool() {
  ThreadPool& pool = ThreadPool::global();
  const int lanes = static_cast<int>(pool.max_lanes());
  std::atomic<int> entered{0};
  pool.run(lanes, [&](int) {
    entered.fetch_add(1);
    while (entered.load() < lanes) std::this_thread::yield();
  });
}

// Scoped enable+clear of the process recorder; restores the prior state
// so traced test runs (CHAM_TRACE=...) keep working.
struct ScopedTrace {
  ScopedTrace() : was_enabled(TraceRecorder::instance().enabled()) {
    TraceRecorder::instance().disable();
    quiesce_pool();
    TraceRecorder::instance().clear();
    TraceRecorder::instance().enable();
  }
  ~ScopedTrace() {
    if (!was_enabled) TraceRecorder::instance().disable();
  }
  bool was_enabled;
};

TEST(Trace, SpanCapturesNameDurationAndArg) {
  // Span macros expand to nothing with -DCHAM_OBS=OFF.
#ifdef CHAM_OBS_DISABLED
  GTEST_SKIP() << "spans compiled out (CHAM_OBS=OFF)";
#endif
  ScopedTrace scoped;
  {
    CHAM_SPAN("outer");
    CHAM_SPAN_ARG("inner", 42);
  }
  TraceRecorder::instance().disable();
  auto events = TraceRecorder::instance().events();
  ASSERT_EQ(events.size(), 2u);

  // Destruction order: the inner span completes (and is appended) first.
  EXPECT_STREQ(events[0].name, "inner");
  EXPECT_EQ(events[0].arg, 42u);
  EXPECT_STREQ(events[1].name, "outer");
  EXPECT_EQ(events[1].arg, TraceRecorder::kNoArg);

  // The outer span encloses the inner one.
  EXPECT_LE(events[1].start_ns, events[0].start_ns);
  EXPECT_GE(events[1].start_ns + events[1].dur_ns,
            events[0].start_ns + events[0].dur_ns);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST(Trace, DisabledSpansRecordNothing) {
  TraceRecorder::instance().disable();
  quiesce_pool();
  TraceRecorder::instance().clear();
  {
    CHAM_SPAN("ignored");
    CHAM_SPAN_ARG("also_ignored", 7);
  }
  EXPECT_TRUE(TraceRecorder::instance().events().empty());
}

// A span that starts while tracing is enabled must be appended even if
// capture is switched off before it ends (the Span latched its state).
TEST(Trace, SpanOpenAcrossDisableStillAppends) {
  // Span macros expand to nothing with -DCHAM_OBS=OFF.
#ifdef CHAM_OBS_DISABLED
  GTEST_SKIP() << "spans compiled out (CHAM_OBS=OFF)";
#endif
  ScopedTrace scoped;
  {
    CHAM_SPAN("straddler");
    TraceRecorder::instance().disable();
  }
  auto events = TraceRecorder::instance().events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "straddler");
}

// Spans appended concurrently from every pool lane: per-thread rings keep
// append (completion) order, every lane's outer span encloses its
// iteration spans, and nothing is lost. The traced region also captures
// the pool's own pool.lane/pool.job dispatch spans, which are ignored
// here. Run under TSan in CI to certify the lock-free path.
TEST(Trace, SpansAcrossPoolLanes) {
  // Span macros expand to nothing with -DCHAM_OBS=OFF.
#ifdef CHAM_OBS_DISABLED
  GTEST_SKIP() << "spans compiled out (CHAM_OBS=OFF)";
#endif
  ScopedTrace scoped;
  ThreadPool& pool = ThreadPool::global();
  const int lanes = static_cast<int>(pool.max_lanes());
  constexpr std::uint64_t kSpansPerLane = 200;

  pool.run(lanes, [&](int lane) {
    CHAM_SPAN_ARG("lane.outer", lane);
    for (std::uint64_t i = 0; i < kSpansPerLane; ++i) {
      CHAM_SPAN_ARG("lane.iter", i);
    }
  });
  TraceRecorder::instance().disable();

  auto events = TraceRecorder::instance().events();
  EXPECT_EQ(TraceRecorder::instance().dropped(), 0u);

  // One thread can execute several lanes back to back, so a per-thread
  // ring reads as [iters of lane A..., outer A, iters of lane B...,
  // outer B, ...] (inner spans complete, and are appended, first).
  std::map<int, std::vector<obs::TraceEvent>> by_tid;
  for (const auto& e : events) {
    const std::string name(e.name);
    if (name == "lane.outer" || name == "lane.iter") {
      by_tid[e.tid].push_back(e);
    }
  }

  int outer_seen = 0;
  std::uint64_t iter_seen = 0;
  for (const auto& [tid, lane_events] : by_tid) {
    std::vector<obs::TraceEvent> pending_iters;
    std::uint64_t prev_end = 0;
    for (const auto& e : lane_events) {
      // Append order on one thread is completion order.
      EXPECT_GE(e.start_ns + e.dur_ns, prev_end) << "tid " << tid;
      prev_end = e.start_ns + e.dur_ns;
      if (std::string(e.name) == "lane.iter") {
        pending_iters.push_back(e);
        continue;
      }
      ++outer_seen;
      EXPECT_LT(e.arg, static_cast<std::uint64_t>(lanes));
      // This outer span closes one lane: it encloses exactly the
      // iteration spans accumulated since the previous outer.
      EXPECT_EQ(pending_iters.size(), kSpansPerLane);
      for (const auto& it : pending_iters) {
        ++iter_seen;
        EXPECT_GE(it.start_ns, e.start_ns);
        EXPECT_LE(it.start_ns + it.dur_ns, e.start_ns + e.dur_ns);
      }
      pending_iters.clear();
    }
    EXPECT_TRUE(pending_iters.empty()) << "iters without an enclosing outer";
  }
  EXPECT_EQ(outer_seen, lanes);
  EXPECT_EQ(iter_seen, static_cast<std::uint64_t>(lanes) * kSpansPerLane);
}

TEST(Trace, WritesValidChromeTraceJson) {
  // Span macros expand to nothing with -DCHAM_OBS=OFF.
#ifdef CHAM_OBS_DISABLED
  GTEST_SKIP() << "spans compiled out (CHAM_OBS=OFF)";
#endif
  ScopedTrace scoped;
  {
    CHAM_SPAN_ARG("json.span", 5);
  }
  TraceRecorder::instance().disable();
  std::ostringstream os;
  ASSERT_EQ(TraceRecorder::instance().write_json(os), 1u);
  const std::string j = os.str();
  EXPECT_NE(j.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(j.find("\"name\":\"json.span\""), std::string::npos);
  EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(j.find("\"args\":{\"v\":5}"), std::string::npos);
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));
  EXPECT_EQ(std::count(j.begin(), j.end(), '['),
            std::count(j.begin(), j.end(), ']'));
}

TEST(Histogram, BucketMappingInvariants) {
  for (std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7},
        std::uint64_t{8}, std::uint64_t{9}, std::uint64_t{255},
        std::uint64_t{1} << 20, (std::uint64_t{1} << 20) + 12345,
        ~std::uint64_t{0}}) {
    const int idx = Histogram::bucket_index(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, Histogram::kBuckets);
    // v lies in [lower_edge(idx), lower_edge(idx + 1)); the final octave's
    // upper edge saturates at 2^64 - 1.
    EXPECT_LE(Histogram::bucket_lower_edge(idx), v);
    const std::uint64_t next = Histogram::bucket_lower_edge(idx + 1);
    if (next != ~std::uint64_t{0}) {
      EXPECT_LT(v, next) << "v=" << v;
    }
  }
  // Small values are exact: one bucket per integer below 2*kSub.
  for (std::uint64_t v = 0; v < 2 * Histogram::kSub; ++v) {
    EXPECT_EQ(Histogram::bucket_lower_edge(Histogram::bucket_index(v)), v);
  }
}

TEST(Histogram, PercentilesMatchSortedReference) {
  Histogram h;
  Rng rng(123);
  std::vector<std::uint64_t> samples(10'000);
  for (auto& s : samples) {
    // Log-uniform-ish spread across 1..2^30 to cover many octaves.
    s = 1 + rng.uniform(std::uint64_t{1} << (1 + rng.uniform(30)));
  }
  for (auto s : samples) h.record(s);
  std::sort(samples.begin(), samples.end());

  EXPECT_EQ(h.count(), samples.size());
  EXPECT_EQ(h.max(), samples.back());

  for (double p : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    // Same rank arithmetic as Histogram::percentile: the ceil(p*n)-th
    // smallest sample, 1-based.
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(samples.size())));
    if (rank < 1) rank = 1;
    const std::uint64_t exact = samples[rank - 1];
    const std::uint64_t approx = h.percentile(p);
    // The histogram reports the lower edge of the bucket holding the
    // exact rank sample: identical bucket, value within one sub-bucket
    // width (12.5% relative error).
    EXPECT_EQ(Histogram::bucket_index(approx), Histogram::bucket_index(exact))
        << "p=" << p;
    EXPECT_LE(approx, exact);
    EXPECT_LE(exact - approx, exact / Histogram::kSub + 1) << "p=" << p;
  }
}

TEST(Histogram, PercentileOfEmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.percentile(0.5), 0u);
}

TEST(JsonWriter, RendersFieldsInOrderWithQuotesEscaped) {
  EXPECT_EQ(JsonWriter().str(), "{}");
  JsonWriter w;
  w.field("name", "a\"b\\c")
      .field("count", std::uint64_t{3})
      .field("level", -2)
      .field("ratio", 0.5)
      .raw("nested", "{\"x\":1}");
  EXPECT_EQ(w.str(),
            R"({"name":"a\"b\\c","count":3,"level":-2,"ratio":0.5,)"
            R"("nested":{"x":1}})");
  EXPECT_EQ(JsonWriter::escaped("plain"), "plain");
  EXPECT_EQ(JsonWriter::escaped("k\"ey"), "k\\\"ey");
}

TEST(JsonWriter, DoublesParseBackBitEqual) {
  for (double v : {0.1, 12.081937, 1256680.123456}) {
    const std::string j = JsonWriter().field("v", v).str();
    const std::string text = j.substr(5, j.size() - 6);  // {"v":...}
    const double back = std::strtod(text.c_str(), nullptr);
    EXPECT_EQ(std::memcmp(&back, &v, sizeof(v)), 0) << j;
  }
  EXPECT_EQ(JsonWriter().field("v", 1024.0).str(), R"({"v":1024})");
}

TEST(Metrics, SnapshotJsonRoundTrip) {
  MetricsRegistry reg;
  reg.counter("ops.total").add(7);
  reg.counter("ops.total").add(3);
  reg.gauge("load").set(2.5);
  Histogram& h = reg.histogram("lat_ns");
  for (std::uint64_t v : {10, 20, 30, 40, 1000}) h.record(v);

  const std::string j = reg.snapshot_json();

  // Counter accumulates across lookups (same handle by name).
  EXPECT_NE(j.find("\"ops.total\":10"), std::string::npos) << j;
  EXPECT_NE(j.find("\"load\":2.5"), std::string::npos) << j;
  // Histogram summary carries exactly the accessor values.
  std::ostringstream want;
  want << "\"lat_ns\":{\"count\":" << h.count() << ",\"sum\":" << h.sum()
       << ",\"max\":" << h.max() << ",\"p50\":" << h.percentile(0.50)
       << ",\"p95\":" << h.percentile(0.95)
       << ",\"p99\":" << h.percentile(0.99) << "}";
  EXPECT_NE(j.find(want.str()), std::string::npos) << j;
  EXPECT_EQ(std::count(j.begin(), j.end(), '{'),
            std::count(j.begin(), j.end(), '}'));

  // reset() zeroes but keeps every metric registered.
  reg.reset();
  const std::string z = reg.snapshot_json();
  EXPECT_NE(z.find("\"ops.total\":0"), std::string::npos) << z;
  EXPECT_NE(z.find("\"lat_ns\":{\"count\":0"), std::string::npos) << z;
}

TEST(Metrics, RegistryHandlesAreStableAndConcurrent) {
  MetricsRegistry reg;
  obs::Counter& c = reg.counter("shared");
  ThreadPool& pool = ThreadPool::global();
  const int lanes = static_cast<int>(pool.max_lanes());
  constexpr int kAddsPerLane = 10'000;
  pool.run(lanes, [&](int) {
    obs::Counter& mine = reg.counter("shared");  // same handle by name
    for (int i = 0; i < kAddsPerLane; ++i) mine.add();
  });
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(lanes) * kAddsPerLane);
}

// Tracing must be purely observational: the HMVP output with capture
// enabled is bit-identical to the output with capture disabled.
TEST(ObsIntegration, HmvpBitExactWithTracingOnAndOff) {
  const std::size_t n = 64;
  Rng rng(42);
  auto ctx = BfvContext::create(BfvParams::test(n));
  KeyGenerator keygen(ctx, rng);
  auto pk = keygen.make_public_key();
  auto gk = keygen.make_galois_keys(log2_exact(n));
  Encryptor encryptor(ctx, &pk, nullptr, rng);
  Decryptor decryptor(ctx, keygen.secret_key());
  HmvpEngine engine(ctx, &gk);

  auto a = DenseMatrix::random(40, n, ctx->params().t, rng);
  std::vector<u64> v(n);
  for (auto& x : v) x = rng.uniform(ctx->params().t);
  auto ct_v = engine.encrypt_vector(v, encryptor);

  const bool was_enabled = TraceRecorder::instance().enabled();
  TraceRecorder::instance().disable();
  auto res_off = engine.multiply(a, ct_v);

  quiesce_pool();
  TraceRecorder::instance().clear();
  TraceRecorder::instance().enable();
  auto res_on = engine.multiply(a, ct_v);
  TraceRecorder::instance().disable();
  quiesce_pool();

  // The traced run actually captured the pipeline stages... (the events
  // include stale pool.wait spans flushed by the quiesce; that is fine,
  // only hmvp.* matters here)
  [[maybe_unused]] bool saw_row = false;
  for (const auto& e : TraceRecorder::instance().events()) {
    if (std::string(e.name) == "hmvp.row") saw_row = true;
  }
#ifndef CHAM_OBS_DISABLED
  EXPECT_TRUE(saw_row);
#endif

  // ...without perturbing a single coefficient.
  ASSERT_EQ(res_on.packed.size(), res_off.packed.size());
  for (std::size_t i = 0; i < res_on.packed.size(); ++i) {
    EXPECT_EQ(res_on.packed[i].a.raw(), res_off.packed[i].a.raw());
    EXPECT_EQ(res_on.packed[i].b.raw(), res_off.packed[i].b.raw());
  }
  EXPECT_EQ(engine.decrypt_result(res_on, decryptor),
            engine.decrypt_result(res_off, decryptor));

  TraceRecorder::instance().clear();
  if (was_enabled) TraceRecorder::instance().enable();
}

}  // namespace
}  // namespace cham
