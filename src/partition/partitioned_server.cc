#include "partition/partitioned_server.h"

#include <utility>

#include "common/check.h"

namespace lbsq::partition {

namespace internal {

FragmentSet::FragmentSet(std::vector<rtree::DataEntry> entries,
                         const geo::Rect& universe,
                         const PartitionedServerOptions& options) {
  LBSQ_CHECK(options.fragments >= 1);
  PartitionLayout layout(entries, universe, options.fragments);
  std::vector<std::vector<rtree::DataEntry>> buckets =
      PartitionEntries(layout, entries);

  fragments_.reserve(options.fragments);
  std::vector<rtree::RTree*> trees;
  trees.reserve(options.fragments);
  for (size_t f = 0; f < options.fragments; ++f) {
    auto fragment = std::make_unique<Fragment>();
    fragment->tree = std::make_unique<rtree::RTree>(
        &fragment->pages, options.buffer_capacity, options.tree_options);
    fragment->tree->BulkLoad(std::move(buckets[f]), options.bulk_fill);
    trees.push_back(fragment->tree.get());
    fragments_.push_back(std::move(fragment));
  }
  router_.emplace(std::move(trees), std::move(layout));
}

}  // namespace internal

PartitionedServer::PartitionedServer(std::vector<rtree::DataEntry> entries,
                                     const geo::Rect& universe,
                                     const PartitionedServerOptions& options)
    : FragmentSet(std::move(entries), universe, options),
      core::Server(&*router_, universe) {}

core::ServiceInfo PartitionedServer::info() const {
  core::ServiceInfo out = core::Server::info();
  out.fragments.reserve(fragments_.size());
  for (size_t f = 0; f < fragments_.size(); ++f) {
    core::FragmentStat stat;
    stat.mbr = router_->FragmentExtent(f);
    stat.points = router_->FragmentSize(f);
    if (const cache::SemanticCache* c = owner_cache(f)) {
      const cache::CacheStats s = c->stats();
      stat.cache_lookups = s.lookups;
      stat.cache_hits = s.hits;
    }
    out.fragments.push_back(stat);
  }
  return out;
}

}  // namespace lbsq::partition
