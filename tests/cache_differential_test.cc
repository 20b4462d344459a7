#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cache/semantic_cache.h"
#include "core/server.h"
#include "core/wire_format.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "workload/queries.h"

// Differential test of the cache-backed serving path: for a clustered
// workload of >= 10k queries, every wire answer the cached server
// returns must be
//   (a) semantically correct at the client's position — the decoded
//       answer set equals a fresh plain tree query there, and the
//       decoded validity region contains the position — and
//   (b) bit-identical to re-encoding a fresh engine run of the answer's
//       *original* query against the current tree. A cache hit replays
//       an older answer verbatim, so (b) proves the replayed bytes are
//       exactly what the server would produce today — i.e. no stale
//       answer survives the insert/delete epoch bump in the middle of
//       the run.
// The bump bypasses Server::Insert/Delete — an insert and a delete made
// on the tree directly, or a BulkLoad into the served empty tree — so it
// is the server's epoch guard that must catch it, with region scoping on
// or off, by invalidating the whole cache.

namespace lbsq::core {
namespace {

using test::Ids;
using test::SmallNodeOptions;
using test::TreeFixture;

const geo::Rect kUnit(0.0, 0.0, 1.0, 1.0);

std::vector<rtree::ObjectId> RangeIds(Server* server, const geo::Point& p,
                                      double radius) {
  std::vector<rtree::DataEntry> candidates =
      server->PlainWindowQuery(p, radius, radius);
  std::vector<rtree::ObjectId> ids;
  const double r2 = radius * radius;
  for (const rtree::DataEntry& e : candidates) {
    if (geo::SquaredDistance(p, e.point) <= r2) ids.push_back(e.id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

enum class Bump { kDirectUpdates, kBulkLoad };

void RunAcrossEpochBump(bool region_scoped, Bump bump) {
  constexpr size_t kQueries = 10000;
  constexpr size_t kPoints = 20000;
  constexpr double kHx = 0.02, kHy = 0.015;
  constexpr double kRadius = 0.025;

  const auto dataset = workload::MakeUnitUniform(kPoints, 811);
  // A bulk load needs an empty tree; it is served empty until the bump.
  TreeFixture fx(bump == Bump::kBulkLoad ? std::vector<rtree::DataEntry>{}
                                         : dataset.entries,
                 256);
  Server cached(fx.tree.get(), kUnit);
  Server fresh(fx.tree.get(), kUnit);

  cache::CacheConfig config;
  config.max_entries = 8192;
  config.max_bytes = 16u << 20;
  // Either way the bypassing update drops the whole cache. Region-scoped
  // kills through Server::Insert/Delete have their own differential
  // test (churn_differential_test.cc).
  config.region_scoped = region_scoped;
  cached.EnableCache(config);

  const std::vector<geo::Point> queries =
      workload::MakeHotspotQueries(kUnit, kQueries, 16, 812, /*sigma=*/0.01);
  const size_t bump_at = kQueries / 2;

  for (size_t i = 0; i < queries.size(); ++i) {
    const geo::Point& p = queries[i];

    if (i == bump_at) {
      // Dataset update mid-run, each step bumping the tree's update
      // epoch. Every cached answer is now stale.
      if (bump == Bump::kDirectUpdates) {
        fx.tree->Insert(p, /*id=*/kPoints + 1);
        ASSERT_TRUE(
            fx.tree->Delete(dataset.entries[0].point, dataset.entries[0].id));
      } else {
        fx.tree->BulkLoad(dataset.entries);
      }

      // Immediately after the bump: the next answer must not come from
      // the (entirely stale) cache, and it must see the new data.
      const auto bytes = *cached.NnQueryWireShared(p, 1).value();
      EXPECT_FALSE(cached.last_wire_from_cache());
      const NnValidityResult decoded = wire::DecodeNnResult(bytes).value();
      ASSERT_EQ(decoded.answers().size(), 1u);
      if (bump == Bump::kDirectUpdates) {
        EXPECT_EQ(decoded.answers()[0].entry.id, kPoints + 1);
      }
    }

    switch (i % 5) {
      case 0:
      case 1:
      case 2: {
        const size_t k = (i % 5 == 2) ? 4 : 1;
        const auto bytes = *cached.NnQueryWireShared(p, k).value();
        const NnValidityResult decoded = wire::DecodeNnResult(bytes).value();
        ASSERT_TRUE(decoded.IsValidAt(p));
        ASSERT_EQ(Ids(decoded.answers()), Ids(fresh.PlainNnQuery(p, k)));
        const auto replay =
            wire::EncodeNnResult(fresh.NnQuery(decoded.query(), k)).value();
        ASSERT_EQ(bytes, replay);
        break;
      }
      case 3: {
        const auto bytes = *cached.WindowQueryWireShared(p, kHx, kHy).value();
        const WindowValidityResult decoded =
            wire::DecodeWindowResult(bytes).value();
        ASSERT_TRUE(decoded.IsValidAt(p));
        ASSERT_EQ(Ids(decoded.result()),
                  Ids(fresh.PlainWindowQuery(p, kHx, kHy)));
        const auto replay =
            wire::EncodeWindowResult(
                fresh.WindowQuery(decoded.focus(), kHx, kHy))
                .value();
        ASSERT_EQ(bytes, replay);
        break;
      }
      default: {
        const auto bytes = *cached.RangeQueryWireShared(p, kRadius).value();
        const RangeValidityResult decoded =
            wire::DecodeRangeResult(bytes).value();
        ASSERT_TRUE(decoded.IsValidAt(p));
        ASSERT_EQ(Ids(decoded.result()), RangeIds(&fresh, p, kRadius));
        const auto replay =
            wire::EncodeRangeResult(
                fresh.RangeQuery(decoded.focus(), kRadius))
                .value();
        ASSERT_EQ(bytes, replay);
        break;
      }
    }
  }

  // The run must actually have exercised the cache on both sides of the
  // epoch bump: plenty of hits overall, exactly one invalidation, and
  // live (post-bump) entries at the end.
  const cache::CacheStats stats = cached.cache_stats();
  EXPECT_EQ(stats.epoch_invalidations, 1u);
  EXPECT_EQ(stats.entries_invalidated_by_update, 0u);
  EXPECT_GT(stats.hits, kQueries / 4);
  EXPECT_GT(stats.stale_drops, 0u);
  EXPECT_GT(stats.entries, 0u);
}

TEST(CacheDifferentialTest, CachedAnswersMatchFreshAcrossEpochBump) {
  struct Case {
    const char* name;
    bool region_scoped;
    Bump bump;
  };
  for (const Case& c : {Case{"epoch only", false, Bump::kDirectUpdates},
                        Case{"region scoped", true, Bump::kDirectUpdates},
                        Case{"bulk load", true, Bump::kBulkLoad}}) {
    SCOPED_TRACE(c.name);
    RunAcrossEpochBump(c.region_scoped, c.bump);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace lbsq::core
