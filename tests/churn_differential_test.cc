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

// Differential test of region-scoped cache invalidation under live
// churn: a 10k-query hotspot workload with Poisson-arrival inserts and
// deletes interleaved throughout (workload::MakeMixedWorkload). Two
// cached servers run over the SAME tree — one with region-scoped
// invalidation, one with the epoch-nuke fallback — plus an uncached
// oracle. Every update goes through the region-scoped server's
// Insert/Delete; the twin learns of it through its epoch guard. For
// every query:
//   (a) both cached servers agree on the decoded answer set and both
//       answers are valid at the client position (a hit legitimately
//       replays a *covering* earlier answer, so raw bytes may differ
//       while the answers must not — the epoch-nuke twin is nearly
//       always fresh, so agreement proves region-scoped retention never
//       serves a stale answer), and
//   (b) whenever the region-scoped server answers from cache, the bytes
//       must equal a fresh re-encode of the answer's *original* query
//       against the current tree — the repo-wide byte-identity bar for
//       a correct hit.
// The run is only meaningful if region-scoping actually retains more
// than the nuke path does, so the final stats must show strictly more
// region hits than epoch hits, a nonzero per-entry kill count and no
// epoch nuke on the region-scoped side (a guard nuke there would mean
// the surgical kill path went untested).

namespace lbsq::core {
namespace {

using test::TreeFixture;

const geo::Rect kUnit(0.0, 0.0, 1.0, 1.0);

TEST(ChurnDifferentialTest, RegionScopedHitsStayByteIdenticalUnderChurn) {
  constexpr size_t kQueries = 10000;
  constexpr size_t kPoints = 20000;
  constexpr double kHx = 0.02, kHy = 0.015;
  constexpr double kRadius = 0.025;

  const auto dataset = workload::MakeUnitUniform(kPoints, 1201);
  const workload::MixedWorkload mixed = workload::MakeMixedWorkload(
      dataset, kQueries, /*updates_per_kilo_query=*/100.0, /*hotspots=*/16,
      1202);
  ASSERT_GT(mixed.inserts, 0u);
  ASSERT_GT(mixed.deletes, 0u);

  TreeFixture fx(dataset.entries, 256);
  Server region(fx.tree.get(), kUnit);
  Server epoch(fx.tree.get(), kUnit);
  Server fresh(fx.tree.get(), kUnit);

  cache::CacheConfig config;
  config.max_entries = 8192;
  config.max_bytes = 16u << 20;
  config.region_scoped = true;
  region.EnableCache(config);
  config.region_scoped = false;
  epoch.EnableCache(config);

  size_t verified_hits = 0;
  size_t query_index = 0;
  for (const workload::MixedOp& op : mixed.ops) {
    switch (op.kind) {
      case workload::MixedOp::Kind::kInsert:
        region.Insert(op.point, op.id);
        continue;
      case workload::MixedOp::Kind::kDelete:
        ASSERT_TRUE(region.Delete(op.point, op.id));
        continue;
      case workload::MixedOp::Kind::kQuery:
        break;
    }

    const geo::Point& p = op.point;
    const size_t i = query_index++;
    switch (i % 5) {
      case 0:
      case 1:
      case 2: {
        const size_t k = (i % 5 == 2) ? 4 : 1;
        const auto bytes = *region.NnQueryWireShared(p, k).value();
        const bool hit = region.last_wire_from_cache();
        const NnValidityResult decoded = wire::DecodeNnResult(bytes).value();
        const NnValidityResult twin =
            wire::DecodeNnResult(*epoch.NnQueryWireShared(p, k).value())
                .value();
        ASSERT_TRUE(decoded.IsValidAt(p)) << "query " << i;
        ASSERT_TRUE(twin.IsValidAt(p)) << "query " << i;
        ASSERT_EQ(test::Ids(decoded.answers()), test::Ids(twin.answers()))
            << "query " << i;
        if (hit) {
          const auto replay =
              wire::EncodeNnResult(fresh.NnQuery(decoded.query(), k)).value();
          ASSERT_EQ(bytes, replay) << "query " << i;
          ++verified_hits;
        }
        break;
      }
      case 3: {
        const auto bytes = *region.WindowQueryWireShared(p, kHx, kHy).value();
        const bool hit = region.last_wire_from_cache();
        const WindowValidityResult decoded =
            wire::DecodeWindowResult(bytes).value();
        const WindowValidityResult twin =
            wire::DecodeWindowResult(
                *epoch.WindowQueryWireShared(p, kHx, kHy).value())
                .value();
        ASSERT_TRUE(decoded.IsValidAt(p)) << "query " << i;
        ASSERT_TRUE(twin.IsValidAt(p)) << "query " << i;
        ASSERT_EQ(test::Ids(decoded.result()), test::Ids(twin.result()))
            << "query " << i;
        if (hit) {
          const auto replay =
              wire::EncodeWindowResult(
                  fresh.WindowQuery(decoded.focus(), kHx, kHy))
                  .value();
          ASSERT_EQ(bytes, replay) << "query " << i;
          ++verified_hits;
        }
        break;
      }
      default: {
        const auto bytes = *region.RangeQueryWireShared(p, kRadius).value();
        const bool hit = region.last_wire_from_cache();
        const RangeValidityResult decoded =
            wire::DecodeRangeResult(bytes).value();
        const RangeValidityResult twin =
            wire::DecodeRangeResult(
                *epoch.RangeQueryWireShared(p, kRadius).value())
                .value();
        ASSERT_TRUE(decoded.IsValidAt(p)) << "query " << i;
        ASSERT_TRUE(twin.IsValidAt(p)) << "query " << i;
        ASSERT_EQ(test::Ids(decoded.result()), test::Ids(twin.result()))
            << "query " << i;
        if (hit) {
          const auto replay =
              wire::EncodeRangeResult(fresh.RangeQuery(decoded.focus(), kRadius))
                  .value();
          ASSERT_EQ(bytes, replay) << "query " << i;
          ++verified_hits;
        }
        break;
      }
    }
  }
  ASSERT_EQ(query_index, kQueries);

  // The update rate (~1 update per 10 queries) must leave the nuke twin
  // nearly cold while region-scoping keeps serving from cache — that
  // gap is the whole point of the change.
  const cache::CacheStats region_stats = region.cache_stats();
  const cache::CacheStats epoch_stats = epoch.cache_stats();
  EXPECT_GT(verified_hits, kQueries / 4);
  EXPECT_GT(region_stats.hits, epoch_stats.hits);
  EXPECT_GT(region_stats.entries_invalidated_by_update, 0u);
  EXPECT_EQ(region_stats.epoch_invalidations, 0u);
  EXPECT_GT(epoch_stats.epoch_invalidations, 0u);
  EXPECT_EQ(epoch_stats.entries_invalidated_by_update, 0u);
}

}  // namespace
}  // namespace lbsq::core
