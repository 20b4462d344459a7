#ifndef LBSQ_CORE_SERVER_H_
#define LBSQ_CORE_SERVER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/semantic_cache.h"
#include "common/status.h"
#include "core/local_tp_backend.h"
#include "core/nn_validity.h"
#include "core/range_validity.h"
#include "core/spatial_backend.h"
#include "core/window_validity.h"
#include "core/wire_service.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "rtree/rtree.h"

// The server side of the mobile-computing scenario from the paper's
// introduction: it owns the query engines over one spatial index — any
// SpatialBackend, a single R*-tree or K fragments behind a
// partition::FragmentRouter — and serves location-based queries,
// counting how many it had to process. Mobile clients (mobile_client.h)
// hit it only when they leave the validity region of a previous answer.
//
// The *QueryWireShared methods are the one serving path of the
// repository, and Insert/Delete the one update path:
//
//   cache probe -> checked engine run with bounded retry -> encode ->
//   cache placement;   Insert/Delete -> backend update -> cache kill.
//
//   * Checked run. The engines are bracketed with the page store's
//     read-error channel: an answer computed while a page read failed is
//     never returned. Transient faults (kUnavailable) are retried (2
//     times by default, see set_max_query_retries) with the backend's
//     buffers dropped in between; anything else (kDataLoss) comes back as
//     the error, and the process stays up when a page goes bad.
//   * Cache set. EnableCache installs one semantic answer cache per
//     backend fragment and, when there is more than one fragment, a
//     boundary cache. A fresh entry goes to owner(q)'s cache iff its kill
//     footprint (the update positions that can invalidate it, clipped to
//     the universe) routes entirely to that fragment, else to the
//     boundary cache. A lookup probes owner(q) then the boundary cache:
//     an owned entry's validity region lies inside its kill footprint, so
//     any point it can serve routes to its owner. Over one tree the set
//     is a single cache.
//   * Kill path. Insert/Delete apply the update to the backend and, on
//     success, kill in owner(p)'s cache and the boundary cache only the
//     entries whose answer it can change (region-scoped InvalidateAt).
//     An update outside the universe, or config.region_scoped == false,
//     epoch-invalidates every cache.
//   * Epoch guard. Each wire query and update first compares the
//     backend's update epoch with the one recorded after this server's
//     last update. If the data moved by any other route (a tree mutated
//     directly, a BulkLoad), every cache is epoch-invalidated, so a
//     stale answer is never served.
//
// A cache hit returns the stored bytes of a previous answer whose
// validity region contains the query point, without touching the
// engines or the page store.

namespace lbsq::core {

class Server : public WireService {
 public:
  // Serves one R*-tree (wrapped in an owned RTreeBackend).
  Server(rtree::RTree* tree, const geo::Rect& universe);
  // Serves any backend; `backend` must outlive the server.
  Server(SpatialBackend* backend, const geo::Rect& universe);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // -- Engine queries (trusted storage, no cache) ---------------------------

  // Location-based k-NN query.
  NnValidityResult NnQuery(const geo::Point& q, size_t k) {
    ++served_[kNn];
    return nn_engine_.Query(q, k);
  }

  // Location-based window query (half-extents hx, hy around the focus).
  WindowValidityResult WindowQuery(const geo::Point& focus, double hx,
                                   double hy) {
    ++served_[kWindow];
    return window_engine_.Query(focus, hx, hy);
  }

  // Location-based range query ("everything within `radius` of me").
  RangeValidityResult RangeQuery(const geo::Point& focus, double radius) {
    ++served_[kRange];
    return range_engine_.Query(focus, radius);
  }

  // Conventional queries without validity-region computation — what a
  // pre-validity-region server would run for the naive re-query client.
  std::vector<rtree::Neighbor> PlainNnQuery(const geo::Point& q, size_t k) {
    ++served_[kNn];
    return backend_->Knn(q, k);
  }

  std::vector<rtree::DataEntry> PlainWindowQuery(const geo::Point& focus,
                                                 double hx, double hy) {
    ++served_[kWindow];
    std::vector<rtree::DataEntry> out;
    backend_->WindowQuery(geo::Rect::Centered(focus, hx, hy), &out);
    return out;
  }

  // -- Wire serving path ----------------------------------------------------

  // Installs (or, with config.enabled == false, removes) the cache set
  // the *QueryWireShared methods consult. Every cache gets the full
  // configured budget: the fragment caches partition the entry space by
  // ownership, they do not split one budget. Enabling starts from empty
  // caches synced to the backend's current update epoch.
  void EnableCache(const cache::CacheConfig& config);
  bool cache_enabled() const { return !caches_.empty(); }
  // Aggregate over every cache of the set.
  cache::CacheStats cache_stats() const;
  // True iff the last successful *QueryWireShared call was served from
  // the cache (no engine or page-store work).
  bool last_wire_from_cache() const override { return last_wire_from_cache_; }

  // Immutable, reference-counted wire answer. The *QueryWireShared
  // methods return the same payload object the cache stores, so the
  // serving layer can queue it into an iovec without copying; the
  // reference keeps the bytes alive even if the cache entry is evicted
  // or invalidated while the reply is still in a socket's write queue.
  using WireBytes = cache::CachedBytes;

  [[nodiscard]] StatusOr<WireBytes> NnQueryWireShared(const geo::Point& q,
                                                      size_t k) override;
  [[nodiscard]] StatusOr<WireBytes> WindowQueryWireShared(
      const geo::Point& focus, double hx, double hy) override;
  [[nodiscard]] StatusOr<WireBytes> RangeQueryWireShared(
      const geo::Point& focus, double radius) override;

  // -- Dataset updates ------------------------------------------------------

  // The only way a served dataset changes: applies the update to the
  // backend and kills the cache entries it can invalidate (see the
  // header comment). Delete returns false, killing nothing, if (p, id)
  // is absent.
  void Insert(const geo::Point& p, rtree::ObjectId id);
  bool Delete(const geo::Point& p, rtree::ObjectId id);

  // -- Counters -------------------------------------------------------------

  size_t nn_queries_served() const { return served_[kNn]; }
  size_t window_queries_served() const { return served_[kWindow]; }
  size_t range_queries_served() const { return served_[kRange]; }

  // Checked-path counters and retry budget.
  size_t query_errors() const { return query_errors_; }
  size_t query_retries() const { return query_retries_; }
  void set_max_query_retries(size_t n) { max_query_retries_ = n; }

  // Cache-placement and blast-radius telemetry: entries inserted into a
  // fragment (owner) cache vs. the boundary cache, and entries killed by
  // updates in each.
  size_t owner_cache_inserts() const { return owner_cache_inserts_; }
  size_t boundary_cache_inserts() const { return boundary_cache_inserts_; }
  size_t owner_cache_kills() const { return owner_cache_kills_; }
  size_t boundary_cache_kills() const { return boundary_cache_kills_; }

  const geo::Rect& universe() const override { return nn_engine_.universe(); }

  // Universe, point count and cache state; `fragments` stays empty (a
  // sharded subclass reports its fragments).
  ServiceInfo info() const override;

 protected:
  // Fragment f's owner cache; nullptr while the cache is off.
  const cache::SemanticCache* owner_cache(size_t f) const {
    return caches_.empty() ? nullptr : caches_[f].get();
  }

 private:
  enum Kind : size_t { kNn, kWindow, kRange };
  // The three query kinds as Serve sees them (server.cc).
  struct NnRequest;
  struct WindowRequest;
  struct RangeRequest;

  // The one wire body: probe, checked run, encode, place.
  template <typename Request>
  StatusOr<WireBytes> Serve(const Request& request);

  // Probes owner(p)'s cache, then the boundary cache.
  template <typename Request>
  bool Probe(const Request& request, WireBytes* out);

  // Inserts a fresh entry into owner(q)'s cache iff its kill footprint
  // (computed only when there is a boundary cache to choose) routes
  // entirely to that fragment, else into the boundary cache.
  template <typename FootprintFn, typename InsertFn>
  void Place(const geo::Point& q, const FootprintFn& footprint,
             const InsertFn& insert);

  // Runs `fn` bracketed by the read-error channel, retrying transient
  // faults with the backend's buffers dropped.
  template <typename Result, typename Fn>
  StatusOr<Result> RunChecked(const Fn& fn);

  // The epoch guard: epoch-invalidates every cache when the backend's
  // update epoch moved past the one recorded after this server's last
  // update.
  void SyncCacheEpoch();

  // The kill path for one applied update at `p` (see the header comment).
  void KillCachedAt(const geo::Point& p, cache::UpdateKind kind);

  // Epoch-invalidates every cache of the set.
  void InvalidateAllCaches();

  std::unique_ptr<RTreeBackend> owned_backend_;  // set by the tree ctor
  SpatialBackend* backend_;
  // The NN engine's view of backend_: step (ii) answered from each
  // query's own nearest neighbours (local_tp_backend.h). Buffer drops and
  // updates go through it so its candidates never outlive them.
  LocalTpBackend nn_backend_;
  NnValidityEngine nn_engine_;
  WindowValidityEngine window_engine_;
  RangeValidityEngine range_engine_;

  std::array<size_t, 3> served_ = {0, 0, 0};
  size_t query_errors_ = 0;
  size_t query_retries_ = 0;
  size_t max_query_retries_ = 2;

  // The cache set: caches_[f] is fragment f's owner cache (empty = cache
  // off); boundary_cache_ exists iff the backend has several fragments.
  std::vector<std::unique_ptr<cache::SemanticCache>> caches_;
  std::unique_ptr<cache::SemanticCache> boundary_cache_;
  uint64_t cache_data_epoch_ = 0;
  bool last_wire_from_cache_ = false;
  size_t owner_cache_inserts_ = 0;
  size_t boundary_cache_inserts_ = 0;
  size_t owner_cache_kills_ = 0;
  size_t boundary_cache_kills_ = 0;
};

}  // namespace lbsq::core

#endif  // LBSQ_CORE_SERVER_H_
