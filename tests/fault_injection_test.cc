// End-to-end robustness of the serving path over failing storage: the
// production stacking Checksummed(FaultInjecting(base)) under
// core::Server's wire path, over one tree and over a FragmentRouter. The
// contract: a fault fails (at most) the query it touched, transient
// faults are retried away, every reply is either a Status or bytes
// identical to a clean run, and a faulted answer is never cached.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "cache/semantic_cache.h"
#include "common/status.h"
#include "core/local_tp_backend.h"
#include "core/spatial_backend.h"
#include "core/server.h"
#include "core/wire_format.h"
#include "geometry/rect.h"
#include "partition/fragment_router.h"
#include "partition/str_partition.h"
#include "rtree/rtree.h"
#include "storage/checksummed_page_store.h"
#include "storage/fault_injecting_page_store.h"
#include "storage/page_manager.h"
#include "storage/page_store.h"
#include "tp/tpnn.h"

namespace lbsq {
namespace {

// One wire query of any kind (a range's radius rides in hx).
struct WireQuery {
  enum class Kind { kNn, kWindow, kRange };
  Kind kind = Kind::kNn;
  geo::Point p;
  size_t k = 0;
  double hx = 0.0;
  double hy = 0.0;
};

StatusOr<core::Server::WireBytes> Ask(core::Server& server,
                                      const WireQuery& q) {
  switch (q.kind) {
    case WireQuery::Kind::kNn: return server.NnQueryWireShared(q.p, q.k);
    case WireQuery::Kind::kWindow:
      return server.WindowQueryWireShared(q.p, q.hx, q.hy);
    case WireQuery::Kind::kRange: return server.RangeQueryWireShared(q.p, q.hx);
  }
  return Status::Internal("unknown query kind");
}

// The query a reply answers — the client's own on a miss, the covering
// entry's original one on a cache hit — and whether the reply is valid
// at the client's position.
WireQuery Answered(const WireQuery& q, const std::vector<uint8_t>& bytes,
                   bool* valid_at_client) {
  WireQuery answered = q;
  switch (q.kind) {
    case WireQuery::Kind::kNn: {
      const core::NnValidityResult r = core::wire::DecodeNnResult(bytes).value();
      answered.p = r.query();
      *valid_at_client = r.IsValidAt(q.p);
      break;
    }
    case WireQuery::Kind::kWindow: {
      const core::WindowValidityResult r =
          core::wire::DecodeWindowResult(bytes).value();
      answered.p = r.focus();
      *valid_at_client = r.IsValidAt(q.p);
      break;
    }
    case WireQuery::Kind::kRange: {
      const core::RangeValidityResult r =
          core::wire::DecodeRangeResult(bytes).value();
      answered.p = r.focus();
      *valid_at_client = r.IsValidAt(q.p);
      break;
    }
  }
  return answered;
}

std::vector<rtree::DataEntry> MakeData(size_t n) {
  std::mt19937 rng(17);
  std::uniform_real_distribution<double> coord(0.0, 1.0);
  std::vector<rtree::DataEntry> data;
  data.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    data.push_back({{coord(rng), coord(rng)}, static_cast<uint32_t>(i)});
  }
  return data;
}

std::vector<WireQuery> MakeNnWorkload(size_t n, uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> coord(0.02, 0.98);
  std::uniform_int_distribution<size_t> kdist(1, 8);
  std::vector<WireQuery> queries;
  for (size_t i = 0; i < n; ++i) {
    WireQuery q;
    q.p = {coord(rng), coord(rng)};
    q.k = kdist(rng);
    queries.push_back(q);
  }
  return queries;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  static constexpr size_t kPoints = 20000;

  // Builds the index through the full stack while faults are disarmed, so
  // every page is stored intact with its checksum stamped.
  void BuildStack(const storage::FaultInjectingPageStore::Options& options) {
    faulty_ = std::make_unique<storage::FaultInjectingPageStore>(&disk_,
                                                                 options);
    store_ = std::make_unique<storage::ChecksummedPageStore>(faulty_.get());
    tree_ = std::make_unique<rtree::RTree>(store_.get(), 64);
    tree_->BulkLoad(MakeData(kPoints));
    tree_->buffer().FlushAll();
  }

  // Serves `queries` through `server` (cache on) with the faults armed,
  // then checks every reply with them disarmed: a Status of
  // `expected_error`, or bytes identical to a clean server's answer to
  // the query the bytes encode. Only fresh OK answers may have entered
  // the cache, and replaying the workload afterwards serves clean bytes
  // only. Returns the number of error replies.
  size_t ServeUnderFaults(core::Server& server,
                          const std::vector<WireQuery>& queries,
                          StatusCode expected_error) {
    struct Reply {
      StatusOr<core::Server::WireBytes> bytes;
      bool from_cache = false;
    };
    std::vector<Reply> replies;
    faulty_->arm();
    for (const WireQuery& q : queries) {
      StatusOr<core::Server::WireBytes> bytes = Ask(server, q);
      replies.push_back({std::move(bytes), server.last_wire_from_cache()});
    }
    faulty_->disarm();
    EXPECT_EQ(replies.size(), queries.size());  // every query completed

    core::Server clean(tree_.get(), universe_);
    size_t errors = 0;
    size_t fresh = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!replies[i].bytes.ok()) {
        ++errors;
        EXPECT_EQ(replies[i].bytes.status().code(), expected_error)
            << "query " << i;
        continue;
      }
      if (!replies[i].from_cache) ++fresh;
      bool valid = false;
      const WireQuery answered =
          Answered(queries[i], **replies[i].bytes, &valid);
      EXPECT_TRUE(valid) << "query " << i;
      EXPECT_EQ(**replies[i].bytes, *Ask(clean, answered).value())
          << "query " << i;
    }
    EXPECT_EQ(server.query_errors(), errors);
    // A faulted answer is never cached: the cache saw exactly the fresh,
    // OK answers.
    const cache::CacheStats stats = server.cache_stats();
    EXPECT_EQ(stats.inserts + stats.rejected, fresh);

    for (size_t i = 0; i < queries.size(); ++i) {
      const StatusOr<core::Server::WireBytes> again = Ask(server, queries[i]);
      EXPECT_TRUE(again.ok()) << "query " << i;
      if (!again.ok()) continue;
      bool valid = false;
      const WireQuery answered = Answered(queries[i], **again, &valid);
      EXPECT_TRUE(valid) << "query " << i;
      EXPECT_EQ(**again, *Ask(clean, answered).value()) << "replay " << i;
    }
    return errors;
  }

  storage::PageManager disk_;
  std::unique_ptr<storage::FaultInjectingPageStore> faulty_;
  std::unique_ptr<storage::ChecksummedPageStore> store_;
  std::unique_ptr<rtree::RTree> tree_;
  geo::Rect universe_{0.0, 0.0, 1.0, 1.0};
};

// The acceptance scenario: a stream of queries over storage where 10% of
// page reads fail must (a) complete, (b) surface per-query errors in the
// replies and the counters, and (c) answer every other query
// bit-identically to a clean run.
TEST_F(FaultInjectionTest, BatchCompletesUnderTenPercentReadFaults) {
  storage::FaultInjectingPageStore::Options options;
  options.seed = 31;
  options.read_fault_probability = 0.10;
  BuildStack(options);

  core::Server server(tree_.get(), universe_);
  server.EnableCache(cache::CacheConfig{});
  // Every failed attempt drops the buffer pool, so the retry re-reads
  // from the faulty store; a deeper budget than the default makes "at
  // least one query survives" a statistical certainty.
  server.set_max_query_retries(6);
  const size_t errors = ServeUnderFaults(server, MakeNnWorkload(300, 37),
                                         StatusCode::kUnavailable);
  EXPECT_GT(faulty_->injected_read_faults(), 0u);
  // At a 10% per-read fault rate, multi-page traversals retry often.
  EXPECT_GT(server.query_retries(), 0u);
  // Retries must rescue a decent share: not every query errors out.
  EXPECT_LT(errors, 300u);
}

// Same scenario with silent corruption instead of hard read failures:
// the checksum layer converts flipped bits into kDataLoss errors — a
// wrong answer is never served as OK.
TEST_F(FaultInjectionTest, CorruptionYieldsDataLossNeverWrongAnswers) {
  storage::FaultInjectingPageStore::Options options;
  options.seed = 41;
  options.read_corruption_probability = 0.05;
  BuildStack(options);

  core::Server server(tree_.get(), universe_);
  server.EnableCache(cache::CacheConfig{});
  const size_t errors = ServeUnderFaults(server, MakeNnWorkload(200, 43),
                                         StatusCode::kDataLoss);
  EXPECT_GT(faulty_->injected_corruptions(), 0u);
  EXPECT_GT(store_->verification_failures(), 0u);
  EXPECT_GT(errors, 0u);
  EXPECT_LT(errors, 200u);
}

// The checked path without a cache: retries absorb a modest transient
// fault rate entirely, and the retry counter shows they ran.
TEST_F(FaultInjectionTest, ServerRetriesAbsorbTransientFaults) {
  storage::FaultInjectingPageStore::Options options;
  options.seed = 53;
  options.read_fault_probability = 0.02;
  BuildStack(options);

  core::Server server(tree_.get(), universe_);
  server.set_max_query_retries(8);
  const std::vector<WireQuery> queries = MakeNnWorkload(120, 59);

  // Clean reference answers.
  std::vector<std::vector<uint8_t>> clean_bytes;
  for (const WireQuery& q : queries) {
    clean_bytes.push_back(*Ask(server, q).value());
  }

  faulty_->arm();
  size_t ok = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    const StatusOr<core::Server::WireBytes> result = Ask(server, queries[i]);
    if (result.ok()) {
      ++ok;
      EXPECT_EQ(**result, clean_bytes[i]);
    } else {
      EXPECT_TRUE(IsRetryable(result.status()));
    }
  }
  faulty_->disarm();

  EXPECT_GT(server.query_retries(), 0u);
  // With a generous retry budget at a 2% fault rate, nearly everything
  // (and usually everything) succeeds.
  EXPECT_GT(ok, queries.size() * 3 / 4);
  EXPECT_EQ(server.query_errors(), queries.size() - ok);
}

// Window and range queries degrade the same way as NN.
TEST_F(FaultInjectionTest, AllQueryKindsDegradeGracefully) {
  storage::FaultInjectingPageStore::Options options;
  options.seed = 61;
  options.read_fault_probability = 0.10;
  BuildStack(options);

  std::mt19937 rng(67);
  std::uniform_real_distribution<double> coord(0.05, 0.95);
  std::vector<WireQuery> queries;
  for (int i = 0; i < 120; ++i) {
    WireQuery window;
    window.kind = WireQuery::Kind::kWindow;
    window.p = {coord(rng), coord(rng)};
    window.hx = 0.01;
    window.hy = 0.015;
    queries.push_back(window);
    WireQuery range;
    range.kind = WireQuery::Kind::kRange;
    range.p = {coord(rng), coord(rng)};
    range.hx = 0.012;
    queries.push_back(range);
  }

  core::Server server(tree_.get(), universe_);
  server.EnableCache(cache::CacheConfig{});
  const size_t errors =
      ServeUnderFaults(server, queries, StatusCode::kUnavailable);
  EXPECT_GT(faulty_->injected_read_faults(), 0u);
  EXPECT_LT(errors, queries.size());
}

// K = 4 fragments, each on its own Checksummed(FaultInjecting(base))
// stack behind a FragmentRouter. The router's DropBuffers must purge
// every fragment's pool between retries: transient faults are retried
// away, and corruption surfaces as kDataLoss, never as a wrong answer.
class ShardedFaultStack {
 public:
  ShardedFaultStack(const std::vector<rtree::DataEntry>& data,
                    const geo::Rect& universe,
                    storage::FaultInjectingPageStore::Options options) {
    partition::PartitionLayout layout(data, universe, 4);
    std::vector<std::vector<rtree::DataEntry>> buckets =
        partition::PartitionEntries(layout, data);
    std::vector<rtree::RTree*> trees;
    for (size_t f = 0; f < buckets.size(); ++f) {
      auto shard = std::make_unique<Shard>();
      options.seed += 1;
      shard->faulty = std::make_unique<storage::FaultInjectingPageStore>(
          &shard->disk, options);
      shard->store =
          std::make_unique<storage::ChecksummedPageStore>(shard->faulty.get());
      shard->tree = std::make_unique<rtree::RTree>(shard->store.get(), 16);
      shard->tree->BulkLoad(std::move(buckets[f]));
      shard->tree->buffer().FlushAll();
      trees.push_back(shard->tree.get());
      shards_.push_back(std::move(shard));
    }
    router_.emplace(std::move(trees), std::move(layout));
  }

  core::SpatialBackend* backend() { return &*router_; }
  void Arm(bool on) {
    for (const std::unique_ptr<Shard>& s : shards_) {
      if (on) {
        s->faulty->arm();
      } else {
        s->faulty->disarm();
      }
    }
  }
  uint64_t injected() const {
    uint64_t n = 0;
    for (const std::unique_ptr<Shard>& s : shards_) {
      n += s->faulty->injected_read_faults() + s->faulty->injected_corruptions();
    }
    return n;
  }

 private:
  struct Shard {
    storage::PageManager disk;
    std::unique_ptr<storage::FaultInjectingPageStore> faulty;
    std::unique_ptr<storage::ChecksummedPageStore> store;
    std::unique_ptr<rtree::RTree> tree;
  };
  std::vector<std::unique_ptr<Shard>> shards_;
  std::optional<partition::FragmentRouter> router_;
};

TEST_F(FaultInjectionTest, RouterRetriesTransientFaultsAndSurfacesCorruption) {
  const std::vector<rtree::DataEntry> data = MakeData(kPoints);
  const std::vector<WireQuery> queries = MakeNnWorkload(120, 71);

  // Runs the workload clean, then armed; returns the armed errors after
  // checking every OK reply against the clean bytes.
  auto run = [&](ShardedFaultStack& stack, core::Server& server,
                 StatusCode expected_error) {
    std::vector<std::vector<uint8_t>> clean;
    for (const WireQuery& q : queries) clean.push_back(*Ask(server, q).value());
    stack.Arm(true);
    size_t errors = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const StatusOr<core::Server::WireBytes> reply = Ask(server, queries[i]);
      if (reply.ok()) {
        EXPECT_EQ(**reply, clean[i]) << "query " << i;
      } else {
        ++errors;
        EXPECT_EQ(reply.status().code(), expected_error) << "query " << i;
      }
    }
    stack.Arm(false);
    EXPECT_GT(stack.injected(), 0u);
    EXPECT_EQ(server.query_errors(), errors);
    return errors;
  };

  storage::FaultInjectingPageStore::Options transient;
  transient.seed = 73;
  transient.read_fault_probability = 0.02;
  ShardedFaultStack flaky(data, universe_, transient);
  core::Server flaky_server(flaky.backend(), universe_);
  flaky_server.set_max_query_retries(8);
  const size_t transient_errors =
      run(flaky, flaky_server, StatusCode::kUnavailable);
  EXPECT_GT(flaky_server.query_retries(), 0u);
  EXPECT_LT(transient_errors, queries.size() / 4);

  storage::FaultInjectingPageStore::Options corrupt;
  corrupt.seed = 79;
  corrupt.read_corruption_probability = 0.05;
  ShardedFaultStack rotten(data, universe_, corrupt);
  core::Server rotten_server(rotten.backend(), universe_);
  const size_t corrupt_errors = run(rotten, rotten_server, StatusCode::kDataLoss);
  EXPECT_GT(corrupt_errors, 0u);
  EXPECT_LT(corrupt_errors, queries.size());
}


// Forwards to one tree, but runs the first Knn that asks for more than
// `wide` neighbours (the NN decorator's widened candidate fetch) with
// every page read failing. Only the pages of the `wide` nearest are
// buffered beforehand, so the fetch comes back partial: the pages it
// needs beyond them are substituted zero pages.
class FaultOnWideKnn final : public core::SpatialBackend {
 public:
  FaultOnWideKnn(rtree::RTree* tree, storage::FaultInjectingPageStore* faulty,
                 size_t wide)
      : inner_(tree), faulty_(faulty), wide_(wide) {}

  size_t size() const override { return inner_.size(); }
  uint64_t node_accesses() const override { return inner_.node_accesses(); }
  uint64_t page_accesses() const override { return inner_.page_accesses(); }
  std::vector<rtree::Neighbor> Knn(const geo::Point& q, size_t k) override {
    if (k <= wide_ || fired_) return inner_.Knn(q, k);
    fired_ = true;
    inner_.DropBuffers();
    inner_.Knn(q, wide_);
    faulty_->arm();
    std::vector<rtree::Neighbor> out = inner_.Knn(q, k);
    faulty_->disarm();
    faulted_size_ = out.size();
    return out;
  }
  void WindowQuery(const geo::Rect& w,
                   std::vector<rtree::DataEntry>* out) override {
    inner_.WindowQuery(w, out);
  }
  tp::TpnnResult Tpnn(const geo::Point& q, const geo::Vec2& l,
                      const geo::Point& o, rtree::ObjectId o_id) override {
    return inner_.Tpnn(q, l, o, o_id);
  }
  tp::TpknnResult Tpknn(const geo::Point& q, const geo::Vec2& l,
                        const std::vector<rtree::Neighbor>& answers) override {
    return inner_.Tpknn(q, l, answers);
  }
  void DropBuffers() override { inner_.DropBuffers(); }

  bool fired() const { return fired_; }
  size_t faulted_size() const { return faulted_size_; }

 private:
  core::RTreeBackend inner_;
  storage::FaultInjectingPageStore* faulty_;
  size_t wide_;
  bool fired_ = false;
  size_t faulted_size_ = 0;
};

// A transient fault during the NN decorator's widened fetch: the checked
// retry must serve bytes identical to a fault-free run, and candidates
// fetched before the buffer drop must never answer a TP query after it.
TEST_F(FaultInjectionTest, FaultDuringWidenedCandidateFetchRetriesClean) {
  storage::FaultInjectingPageStore::Options options;
  options.seed = 83;
  options.read_fault_probability = 1.0;
  BuildStack(options);
  const geo::Point q(0.37, 0.61);
  // At k = 100 the first fetch holds only the answers, so the first
  // TPkNN always widens.
  const size_t k = 100;
  core::Server clean(tree_.get(), universe_);
  const std::vector<uint8_t> want = *clean.NnQueryWireShared(q, k).value();

  FaultOnWideKnn backend(tree_.get(), faulty_.get(), k);
  core::Server server(&backend, universe_);
  const StatusOr<core::Server::WireBytes> got = server.NnQueryWireShared(q, k);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(**got, want);
  EXPECT_TRUE(backend.fired());
  EXPECT_GT(faulty_->injected_read_faults(), 0u);
  EXPECT_EQ(server.query_retries(), 1u);
  EXPECT_EQ(server.query_errors(), 0u);

  // The decorator on its own: the faulted widening is not held, and
  // after the drop a TP query at the same point goes to the inner
  // backend rather than to anything fetched before it.
  FaultOnWideKnn again(tree_.get(), faulty_.get(), k);
  core::LocalTpBackend local(&again);
  const geo::Vec2 l(0.6, -0.8);
  storage::PageStore::ClearReadError();
  const std::vector<rtree::Neighbor> answers = local.Knn(q, k);
  local.Tpknn(q, l, answers);
  EXPECT_TRUE(again.fired());
  // The faulted fetch returned candidates beyond the answers, which the
  // decorator could have answered from had it held them.
  EXPECT_GT(again.faulted_size(), k);
  EXPECT_FALSE(storage::PageStore::TakeReadError().ok());
  EXPECT_EQ(local.held(), 0u);
  local.DropBuffers();
  const uint64_t unheld = local.stats().unheld_fallbacks;
  const tp::TpknnResult retried = local.Tpknn(q, l, answers);
  EXPECT_TRUE(storage::PageStore::PendingReadError().ok());
  EXPECT_EQ(local.stats().unheld_fallbacks, unheld + 1);
  const tp::TpknnResult truth = tp::Tpknn(*tree_, q, l, answers);
  EXPECT_EQ(retried.found, truth.found);
  EXPECT_EQ(retried.incoming.id, truth.incoming.id);
  EXPECT_EQ(retried.displaced.id, truth.displaced.id);
  EXPECT_EQ(retried.time, truth.time);
}

}  // namespace
}  // namespace lbsq
