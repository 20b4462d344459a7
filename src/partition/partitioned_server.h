#ifndef LBSQ_PARTITION_PARTITIONED_SERVER_H_
#define LBSQ_PARTITION_PARTITIONED_SERVER_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "core/server.h"
#include "core/wire_service.h"
#include "geometry/rect.h"
#include "partition/fragment_router.h"
#include "partition/str_partition.h"
#include "rtree/rtree.h"
#include "storage/page_manager.h"

// Partitioned serving: the dataset is sharded into K spatial fragments,
// each owning its own R*-tree, page store and buffer pool, and a
// FragmentRouter presents them as one core::SpatialBackend. This class
// only builds the fragments; serving and updates are core::Server over
// the router. Because the router reproduces every query primitive
// exactly (see fragment_router.h) and the wire encoding is a pure
// function of the engine result, the bytes it emits are identical to a
// single-tree core::Server over the same dataset — the differential test
// holds them byte-for-byte equal.
//
// The router's fragments are the server's cache set: one owner cache per
// fragment plus a boundary cache (core/server.h). An update at p
// (core::Server::Insert/Delete) goes to owner(p)'s tree and kills entries
// only in owner(p)'s cache and the boundary cache; the other K-1 fragment
// caches are untouched.

namespace lbsq::partition {

struct PartitionedServerOptions {
  // Number of spatial fragments (K >= 1; K == 1 degenerates to a
  // single-tree server behind the router).
  size_t fragments = 4;
  // Per-fragment R*-tree shape and bulk-load fill.
  rtree::RTree::Options tree_options;
  double bulk_fill = 0.7;
  // Buffer-pool frames per fragment.
  size_t buffer_capacity = 256;
};

namespace internal {

// The fragments and their router, built before the core::Server base
// class that serves over them (a base-from-member: a base class is
// constructed before the derived class's own members).
struct FragmentSet {
  FragmentSet(std::vector<rtree::DataEntry> entries, const geo::Rect& universe,
              const PartitionedServerOptions& options);

  // One spatial shard: its page store and tree.
  struct Fragment {
    storage::PageManager pages;
    std::unique_ptr<rtree::RTree> tree;
  };
  std::vector<std::unique_ptr<Fragment>> fragments_;
  std::optional<FragmentRouter> router_;
};

}  // namespace internal

class PartitionedServer final : private internal::FragmentSet,
                                public core::Server {
 public:
  // Bulk-loads `entries` into the fragments of an STR layout derived
  // from them over `universe`.
  PartitionedServer(std::vector<rtree::DataEntry> entries,
                    const geo::Rect& universe,
                    const PartitionedServerOptions& options = {});

  // -- Introspection --------------------------------------------------------

  const PartitionLayout& layout() const { return router_->layout(); }
  FragmentRouter& router() { return *router_; }

  // Adds one entry per fragment (K == 1 included): its extent, points and
  // owner-cache traffic.
  core::ServiceInfo info() const override;
};

}  // namespace lbsq::partition

#endif  // LBSQ_PARTITION_PARTITIONED_SERVER_H_
