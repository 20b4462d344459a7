#include "core/server.h"

#include <utility>

#include "core/wire_format.h"
#include "storage/page_store.h"

namespace lbsq::core {

Server::Server(rtree::RTree* tree, const geo::Rect& universe)
    : owned_backend_(std::make_unique<RTreeBackend>(tree)),
      backend_(owned_backend_.get()),
      nn_backend_(backend_),
      nn_engine_(&nn_backend_, universe),
      window_engine_(backend_, universe),
      range_engine_(backend_, universe) {}

Server::Server(SpatialBackend* backend, const geo::Rect& universe)
    : backend_(backend),
      nn_backend_(backend),
      nn_engine_(&nn_backend_, universe),
      window_engine_(backend, universe),
      range_engine_(backend, universe) {}

// -- The three query kinds --------------------------------------------------
// What the one serving body (Serve) needs from each kind: the cache
// probe, the engine run, the encoder, and the cache entry with its kill
// footprint.

struct Server::NnRequest {
  static constexpr Kind kKind = kNn;
  using Result = NnValidityResult;
  geo::Point focus;
  size_t k;

  bool Probe(cache::SemanticCache& c, WireBytes* out) const {
    return c.LookupNnShared(focus, k, out);
  }
  Result Run(Server& s) const { return s.nn_engine_.Query(focus, k); }
  static StatusOr<std::vector<uint8_t>> Encode(const Result& r) {
    return wire::EncodeNnResult(r);
  }
  void Store(Server& s, const Result& r, const WireBytes& bytes) const {
    std::vector<geo::Point> answers;
    answers.reserve(r.answers().size());
    for (const rtree::Neighbor& n : r.answers()) {
      answers.push_back(n.entry.point);
    }
    std::vector<cache::BisectorConstraint> constraints;
    constraints.reserve(r.influence_pairs().size());
    for (const InfluencePair& pair : r.influence_pairs()) {
      constraints.push_back({pair.displaced.point, pair.incoming.point});
    }
    const geo::Rect bounds = r.region().BoundingBox();
    s.Place(
        focus,
        [&] {
          // The cache's own footprint definition, under-filled rule
          // included: an answer smaller than k dies by any insert, so its
          // footprint is the universe (boundary cache unless K == 1).
          return cache::SemanticCache::NnKillFootprint(
              k, s.universe(), bounds.Intersection(s.universe()), answers,
              constraints);
        },
        [&](cache::SemanticCache& c) {
          c.InsertNn(k, r.universe(), bounds, std::move(answers),
                     std::move(constraints), bytes);
        });
  }
};

struct Server::WindowRequest {
  static constexpr Kind kKind = kWindow;
  using Result = WindowValidityResult;
  geo::Point focus;
  double hx;
  double hy;

  bool Probe(cache::SemanticCache& c, WireBytes* out) const {
    return c.LookupWindowShared(focus, hx, hy, out);
  }
  Result Run(Server& s) const { return s.window_engine_.Query(focus, hx, hy); }
  static StatusOr<std::vector<uint8_t>> Encode(const Result& r) {
    return wire::EncodeWindowResult(r);
  }
  void Store(Server& s, const Result& r, const WireBytes& bytes) const {
    s.Place(
        focus,
        [&] {
          return cache::SemanticCache::WindowKillFootprint(r.region().base(),
                                                           hx, hy);
        },
        [&](cache::SemanticCache& c) {
          c.InsertWindow(hx, hy, r.region(), bytes);
        });
  }
};

struct Server::RangeRequest {
  static constexpr Kind kKind = kRange;
  using Result = RangeValidityResult;
  geo::Point focus;
  double radius;

  bool Probe(cache::SemanticCache& c, WireBytes* out) const {
    return c.LookupRangeShared(focus, radius, out);
  }
  Result Run(Server& s) const { return s.range_engine_.Query(focus, radius); }
  static StatusOr<std::vector<uint8_t>> Encode(const Result& r) {
    return wire::EncodeRangeResult(r);
  }
  void Store(Server& s, const Result& r, const WireBytes& bytes) const {
    s.Place(
        focus,
        [&] {
          return cache::SemanticCache::RangeKillFootprint(r.region().bounds(),
                                                          radius);
        },
        [&](cache::SemanticCache& c) {
          c.InsertRange(radius, r.region(), bytes);
        });
  }
};

// -- The serving path -------------------------------------------------------

template <typename Request>
StatusOr<Server::WireBytes> Server::Serve(const Request& request) {
  SyncCacheEpoch();
  last_wire_from_cache_ = false;
  ++served_[Request::kKind];
  WireBytes bytes;
  if (Probe(request, &bytes)) {
    last_wire_from_cache_ = true;
    return bytes;
  }
  StatusOr<typename Request::Result> result =
      RunChecked<typename Request::Result>(
          [&] { return request.Run(*this); });
  if (!result.ok()) return result.status();
  StatusOr<std::vector<uint8_t>> encoded = Request::Encode(*result);
  if (!encoded.ok()) return encoded.status();
  WireBytes shared = cache::MakeCachedBytes(std::move(*encoded));
  if (cache_enabled()) request.Store(*this, *result, shared);
  return shared;
}

template <typename Request>
bool Server::Probe(const Request& request, WireBytes* out) {
  if (caches_.empty()) return false;
  if (!boundary_cache_) return request.Probe(*caches_[0], out);
  if (request.Probe(*caches_[backend_->OwnerOf(request.focus)], out)) {
    return true;
  }
  return request.Probe(*boundary_cache_, out);
}

template <typename FootprintFn, typename InsertFn>
void Server::Place(const geo::Point& q, const FootprintFn& footprint,
                   const InsertFn& insert) {
  if (!boundary_cache_) {
    ++owner_cache_inserts_;
    insert(*caches_[0]);
    return;
  }
  const size_t owner = backend_->OwnerOf(q);
  // The footprint is clipped to the universe, as the cache's own
  // invalidation registration is (out-of-universe updates take the
  // epoch path, see KillCachedAt).
  if (backend_->StrictlyOwns(owner, footprint().Intersection(universe()))) {
    ++owner_cache_inserts_;
    insert(*caches_[owner]);
  } else {
    ++boundary_cache_inserts_;
    insert(*boundary_cache_);
  }
}

template <typename Result, typename Fn>
StatusOr<Result> Server::RunChecked(const Fn& fn) {
  for (size_t attempt = 0;; ++attempt) {
    storage::PageStore::ClearReadError();
    Result result = fn();
    Status error = storage::PageStore::TakeReadError();
    if (error.ok()) return result;
    // A failed fetch may have parked a substituted zero page in a buffer
    // pool; purge it, and the NN candidates that may have been read from
    // it, so neither the retry nor a later query silently serves it.
    nn_backend_.DropBuffers();
    if (!IsRetryable(error) || attempt >= max_query_retries_) {
      ++query_errors_;
      return error;
    }
    ++query_retries_;
  }
}

StatusOr<Server::WireBytes> Server::NnQueryWireShared(const geo::Point& q,
                                                      size_t k) {
  return Serve(NnRequest{q, k});
}

StatusOr<Server::WireBytes> Server::WindowQueryWireShared(
    const geo::Point& focus, double hx, double hy) {
  return Serve(WindowRequest{focus, hx, hy});
}

StatusOr<Server::WireBytes> Server::RangeQueryWireShared(
    const geo::Point& focus, double radius) {
  return Serve(RangeRequest{focus, radius});
}

// -- Dataset updates --------------------------------------------------------

void Server::Insert(const geo::Point& p, rtree::ObjectId id) {
  SyncCacheEpoch();
  nn_backend_.Insert(p, id);
  KillCachedAt(p, cache::UpdateKind::kInsert);
  cache_data_epoch_ = backend_->update_epoch();
}

bool Server::Delete(const geo::Point& p, rtree::ObjectId id) {
  SyncCacheEpoch();
  if (!nn_backend_.Delete(p, id)) return false;
  KillCachedAt(p, cache::UpdateKind::kDelete);
  cache_data_epoch_ = backend_->update_epoch();
  return true;
}

// -- The cache set ----------------------------------------------------------

void Server::EnableCache(const cache::CacheConfig& config) {
  caches_.clear();
  boundary_cache_.reset();
  if (!config.enabled) return;
  // Every cache spans the full universe (lookup and invalidation geometry
  // are universe-relative); ownership only decides where an entry lives.
  const size_t fragments = backend_->num_fragments();
  for (size_t f = 0; f < fragments; ++f) {
    caches_.push_back(std::make_unique<cache::SemanticCache>(universe(), config));
  }
  if (fragments > 1) {
    boundary_cache_ = std::make_unique<cache::SemanticCache>(universe(), config);
  }
  cache_data_epoch_ = backend_->update_epoch();
}

cache::CacheStats Server::cache_stats() const {
  cache::CacheStats total;
  for (const std::unique_ptr<cache::SemanticCache>& c : caches_) {
    total += c->stats();
  }
  if (boundary_cache_) total += boundary_cache_->stats();
  return total;
}

void Server::KillCachedAt(const geo::Point& p, cache::UpdateKind kind) {
  if (caches_.empty()) return;
  // The grids cannot scope an update outside the universe (they clamp it
  // into border cells), and region scoping may be configured off.
  if (!caches_[0]->config().region_scoped || !universe().Contains(p)) {
    InvalidateAllCaches();
    return;
  }
  const size_t owner = boundary_cache_ ? backend_->OwnerOf(p) : 0;
  owner_cache_kills_ += caches_[owner]->InvalidateAt(p, kind);
  if (boundary_cache_) {
    boundary_cache_kills_ += boundary_cache_->InvalidateAt(p, kind);
  }
}

void Server::InvalidateAllCaches() {
  for (const std::unique_ptr<cache::SemanticCache>& c : caches_) {
    c->Invalidate();
  }
  if (boundary_cache_) boundary_cache_->Invalidate();
}

void Server::SyncCacheEpoch() {
  if (caches_.empty()) return;
  const uint64_t epoch = backend_->update_epoch();
  if (epoch == cache_data_epoch_) return;
  InvalidateAllCaches();
  cache_data_epoch_ = epoch;
}

ServiceInfo Server::info() const {
  ServiceInfo out;
  out.universe = universe();
  out.points = backend_->size();
  out.cache_enabled = cache_enabled();
  return out;
}

}  // namespace lbsq::core
