// Open-loop serving benchmark: the real net::NetServer on loopback, as
// `lbsq_cli serve` deploys it (semantic cache on with the default
// CacheConfig, a push::PushScheduler attached; K=1 serves a file-backed
// ChecksummedPageStore index through a 256-frame buffer, K=4 serves
// PartitionedServer defaults), driven by Poisson arrivals at fixed
// offered rates from two generator threads, one connection each. Every
// request is timed from its due time, so a stall shows in the latency of
// everything queued behind it.
//
//   serve_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//               --workdir <dir>
//
// --trace 0 prints the end-to-end metrics: latency at the workload's
// nominal rate, set-up time and peak memory. --trace 1 re-runs the
// nominal rate untraced and then traced (spans from a WireService
// decorator on the loop thread), replays every cache miss in-process on
// a replica in the loop thread's order, timing each layer through a
// SpatialBackend decorator, prints the per-layer metrics, and last
// searches for the sustained rate under the workload's p99 limit. Spans
// are written to the work directory when the run ends. The last stdout
// line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Any reply that fails verification makes the run incorrect
// and the exit code 1.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_math.h"
#include "cache/semantic_cache.h"
#include "common/rng.h"
#include "core/nn_validity.h"
#include "core/range_validity.h"
#include "core/server.h"
#include "core/spatial_backend.h"
#include "core/window_validity.h"
#include "core/wire_format.h"
#include "core/wire_service.h"
#include "net/frame.h"
#include "net/net_server.h"
#include "partition/fragment_router.h"
#include "partition/partitioned_server.h"
#include "partition/str_partition.h"
#include "push/push_scheduler.h"
#include "rtree/knn.h"
#include "rtree/rtree.h"
#include "storage/checksummed_page_store.h"
#include "storage/file_page_manager.h"
#include "storage/page_manager.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace {

using namespace lbsq;
using servebench::Span;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();
double NowS() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// CPU time of the calling thread: unlike wall time it leaves out the
// time a virtual machine's host runs other guests on this vCPU.
double ThreadCpuS() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// -- Workloads ----------------------------------------------------------------

constexpr size_t kPoints = 200000;
// Two generators: with the loop thread that leaves one of the four
// vCPUs for the kernel's loopback work, so its scheduling stalls do not
// land on the measured path.
constexpr size_t kGenerators = 2;
constexpr size_t kHotspots = 16;
constexpr double kHotspotSigma = 0.0003;
constexpr size_t kBufferFrames = 256;  // lbsq_cli's attach buffer
constexpr size_t kSetupRepeats = 5;
// Verification sample: per phase and generator thread, 1 in every
// max(kSampleModulo, queries / kSampleCap) stream positions, so about
// kSampleCap replies spread over the whole phase; never more than twice
// that.
constexpr size_t kSampleModulo = 64;
constexpr size_t kSampleCap = 150;

// How a run's --seconds are spent. Untraced: settle, then the nominal
// rate for the rest. Traced: settle, then a third of the rest each for
// the nominal rate untraced, the nominal rate traced and the rate search.
constexpr double kSettleShare = 0.1;
constexpr double kTracedPartShare = (1.0 - kSettleShare) / 3.0;
// p50/p99 at the nominal rate are medians over up to this many windows.
constexpr size_t kLatencyWindows = 64;

struct Workload {
  const char* name;
  size_t fragments;       // 1: file-backed core::Server; >1: sharded
  bool hotspot;           // hotspot query locations (else uniform)
  double updates_per_kq;  // inserts/deletes per 1000 queries
  size_t warm_queries;    // in-process cache warm-up before timing
  double nominal_qps;     // fixed offered rate for p50/p99
  double p99_limit_ms;    // latency limit of the sustained-rate search

  // The generator may run late by a quarter of the latency limit before
  // a search step stops counting.
  double lag_bound_ms() const { return p99_limit_ms / 4.0; }
};

// Fixed once from the seed commit on a 4-vCPU x86-64 host (gcc 12, -O2,
// AVX2 hot loops): the latency limit sits just below each workload's
// saturation knee (sustained rates there: ~250k, ~1.7k and ~8k q/s). The
// nominal rate is a twelfth to a third of the sustained rate, low enough
// that most requests find the loop thread idle: at higher load the p50
// sits on the edge between requests that queue behind a
// multi-millisecond miss and those that do not, and a host that slows
// down for a while pushes the workload toward its knee, so the figures
// swing between runs.
constexpr Workload kWorkloads[] = {
    {"hotspot_hit", 1, true, 0.0, 30000, 20000.0, 20.0},
    {"scatter_miss", 1, false, 0.0, 500, 500.0, 50.0},
    {"churn_sharded", 4, true, 1000.0, 30000, 1500.0, 50.0},
};

enum class QType : uint8_t { kNn1, kNn10, kWindow, kRange };

// 60% 1-NN, 10% 10-NN, 20% windows, 10% ranges, by query ordinal.
QType TypeOfQuery(size_t ordinal) {
  switch (ordinal % 10) {
    case 6: return QType::kNn10;
    case 7: case 8: return QType::kWindow;
    case 9: return QType::kRange;
    default: return QType::kNn1;
  }
}

// Windows hold ~30 points and ranges ~15 at any dataset size n.
double WindowHalfExtent() { return 0.5 * std::sqrt(30.0 / kPoints); }
double RangeRadius() { return 0.4 * std::sqrt(30.0 / kPoints); }

struct StreamOp {
  geo::Point p;
  rtree::ObjectId id = 0;
  workload::MixedOp::Kind kind = workload::MixedOp::Kind::kQuery;
  QType type = QType::kNn1;
};

// The op stream a run consumes front to back. Query-only streams are
// cycled; the churn stream is not (its deletes name live objects).
struct Stream {
  std::vector<StreamOp> ops;
  bool cyclic = true;
  size_t cursor = 0;

  const StreamOp& at(size_t i) const { return ops[cyclic ? i % ops.size() : i]; }
};

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  return servebench::Mix64(seed * 0x100000001b3ull + salt);
}

// The deployment is a fixed "city": the dataset and the hotspot centers
// do not depend on --seed, so every seed measures the same server under
// a different draw of clients. The seed drives where each client stands
// around its hotspot, the query order, the update stream and every
// arrival time.
constexpr uint64_t kDataSeed = 20030609;
constexpr uint64_t kCenterSeed = 16;

workload::Dataset MakeCity() {
  return workload::MakeUnitUniform(kPoints, kDataSeed);
}

// Hotspot query locations (as in workload::MakeHotspotQueries, which
// draws its centers from the same seed as its points): centers from
// kCenterSeed, Gaussian offsets of kHotspotSigma from `seed`.
std::vector<geo::Point> HotspotLocations(const geo::Rect& universe,
                                         size_t count, uint64_t seed) {
  Rng centers_rng(kCenterSeed);
  std::vector<geo::Point> centers;
  for (size_t i = 0; i < kHotspots; ++i) {
    centers.push_back({centers_rng.Uniform(universe.min_x, universe.max_x),
                       centers_rng.Uniform(universe.min_y, universe.max_y)});
  }
  Rng rng(seed);
  const double scale = universe.width() * kHotspotSigma;
  std::vector<geo::Point> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const geo::Point& c = centers[rng.NextBounded(kHotspots)];
    out.push_back(
        {std::clamp(c.x + rng.Gaussian() * scale, universe.min_x, universe.max_x),
         std::clamp(c.y + rng.Gaussian() * scale, universe.min_y, universe.max_y)});
  }
  return out;
}

std::vector<geo::Point> QueryLocations(const Workload& w,
                                       const geo::Rect& universe, size_t count,
                                       uint64_t seed) {
  return w.hotspot ? HotspotLocations(universe, count, seed)
                   : workload::MakeUniformQueries(universe, count, seed);
}

Stream MakeStream(const Workload& w, const workload::Dataset& data,
                  uint64_t seed) {
  Stream s;
  if (w.updates_per_kq > 0.0) {
    // Updates and their interleaving from MakeMixedWorkload; its query
    // slots take hotspot_hit's locations.
    constexpr size_t kQueries = 400000;
    const workload::MixedWorkload mixed = workload::MakeMixedWorkload(
        data, kQueries, w.updates_per_kq, kHotspots, SubSeed(seed, 3),
        kHotspotSigma);
    const std::vector<geo::Point> locations =
        QueryLocations(w, data.universe, mixed.queries, SubSeed(seed, 1));
    s.cyclic = false;
    s.ops.reserve(mixed.ops.size());
    size_t ordinal = 0;
    for (const workload::MixedOp& op : mixed.ops) {
      StreamOp so{op.point, op.id, op.kind, QType::kNn1};
      if (op.kind == workload::MixedOp::Kind::kQuery) {
        so.p = locations[ordinal];
        so.type = TypeOfQuery(ordinal++);
      }
      s.ops.push_back(so);
    }
    return s;
  }
  const size_t count = size_t{1} << 20;
  const std::vector<geo::Point> points =
      QueryLocations(w, data.universe, count, SubSeed(seed, 1));
  s.ops.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    s.ops.push_back({points[i], 0, workload::MixedOp::Kind::kQuery,
                     TypeOfQuery(i)});
  }
  return s;
}

// -- Host and build facts -------------------------------------------------------

bool OptimizedBuild() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

std::string FactsJson(const Workload& w) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"compiler\":\"%s\",\"optimize\":%s,\"ndebug\":%s,\"avx2\":%s,"
      "\"hot_loops_avx2\":%s,\"nproc\":%ld,\"points\":%zu,\"fragments\":%zu,"
      "\"cache_max_entries\":%zu,\"cache_max_bytes\":%zu,"
      "\"buffer_frames\":%zu,\"generators\":%zu,\"nominal_qps\":%g,"
      "\"p99_limit_ms\":%g,\"lag_bound_ms\":%g}",
      __VERSION__, OptimizedBuild() ? "true" : "false",
#ifdef NDEBUG
      "true",
#else
      "false",
#endif
#ifdef __AVX2__
      "true",
#else
      "false",
#endif
      SERVEBENCH_HOT_LOOPS_AVX2 ? "true" : "false", sysconf(_SC_NPROCESSORS_ONLN), kPoints, w.fragments,
      cache::CacheConfig{}.max_entries, cache::CacheConfig{}.max_bytes,
      kBufferFrames, kGenerators, w.nominal_qps, w.p99_limit_ms,
      w.lag_bound_ms());
  return buf;
}

// -- File-backed index (the lbsq_cli build/attach layout) --------------------------

// Page 0: tree meta at offset 0, universe rect at offset 32.
void BuildIndexFile(const std::string& path, const workload::Dataset& data) {
  storage::FilePageManager file(path, storage::FilePageManager::Mode::kCreate);
  storage::ChecksummedPageStore store(&file);
  const storage::PageId header_page = store.Allocate();
  rtree::RTree tree(&store, kBufferFrames);
  tree.BulkLoad(data.entries);
  tree.buffer().FlushAll();
  storage::Page header;
  tree.meta().SerializeTo(&header, 0);
  header.WriteAt<double>(32, data.universe.min_x);
  header.WriteAt<double>(40, data.universe.min_y);
  header.WriteAt<double>(48, data.universe.max_x);
  header.WriteAt<double>(56, data.universe.max_y);
  store.Write(header_page, header);
  file.Sync();
  if (const Status saved = store.SaveTable(path + ".sum"); !saved.ok()) {
    std::fprintf(stderr, "cannot write checksum table: %s\n",
                 saved.ToString().c_str());
    std::exit(1);
  }
}

struct AttachedIndex {
  std::unique_ptr<storage::FilePageManager> file;
  std::unique_ptr<storage::ChecksummedPageStore> store;
  std::unique_ptr<rtree::RTree> tree;
  geo::Rect universe;
};

AttachedIndex AttachIndex(const std::string& path) {
  AttachedIndex idx;
  idx.file = std::make_unique<storage::FilePageManager>(
      path, storage::FilePageManager::Mode::kOpen);
  idx.store = std::make_unique<storage::ChecksummedPageStore>(idx.file.get());
  if (const Status loaded = idx.store->LoadTable(path + ".sum"); !loaded.ok()) {
    std::fprintf(stderr, "cannot load checksum table: %s\n",
                 loaded.ToString().c_str());
    std::exit(1);
  }
  storage::PageStore::ClearReadError();
  storage::Page header;
  idx.store->Read(0, &header);
  if (const Status s = storage::PageStore::TakeReadError(); !s.ok()) {
    std::fprintf(stderr, "index header corrupt: %s\n", s.ToString().c_str());
    std::exit(1);
  }
  const auto meta = rtree::RTree::Meta::DeserializeFrom(header, 0);
  idx.universe = geo::Rect(header.ReadAt<double>(32), header.ReadAt<double>(40),
                           header.ReadAt<double>(48), header.ReadAt<double>(56));
  idx.tree = std::make_unique<rtree::RTree>(idx.store.get(), kBufferFrames,
                                            rtree::RTree::Options(), meta);
  return idx;
}

// -- Tracing --------------------------------------------------------------------

enum SpanName : uint16_t {
  kClientRequest,   // send -> reply received, on the generator thread
  kServiceQuery,    // WireService::*QueryWireShared on the loop thread
  kUpdateApply,     // PartitionedServer::Insert/Delete on the loop thread
  kReplayMiss,      // one replayed miss
  kCoreEngine,      // validity-engine Query
  kRtreeKnn,        // SpatialBackend::Knn (step i)
  kRtreeWindow,     // SpatialBackend::WindowQuery
  kTpTpnn,          // SpatialBackend::Tpnn (step ii)
  kTpTpknn,         // SpatialBackend::Tpknn (step ii)
  kCoreEncode,      // wire::Encode*Result
  kCacheInsert,     // SemanticCache::Insert*
  kNumSpanNames,
};

const char* const kSpanNames[kNumSpanNames] = {
    "client.request", "service.query", "partition.update", "replay.miss",
    "core.engine",    "rtree.knn",     "rtree.window",     "tp.tpnn",
    "tp.tpknn",       "core.encode",   "cache.insert"};

// What the loop thread did, in its order: queries (with their service
// span and, on a miss, the bytes served) and applied updates.
struct LoopEvent {
  bool is_update = false;
  workload::MixedOp::Kind update_kind = workload::MixedOp::Kind::kQuery;
  QType type = QType::kNn1;
  geo::Point p;
  rtree::ObjectId id = 0;
  double start_s = 0.0;
  double end_s = 0.0;
  double posted_s = 0.0;  // updates: PostUpdate call time
  bool from_cache = false;
  core::WireService::WireBytes miss_bytes;  // served bytes of a miss
};

// WireService decorator: times each query on the loop thread and logs
// the loop's exact order of queries and updates.
class TracingService final : public core::WireService {
 public:
  explicit TracingService(core::WireService* inner) : inner_(inner) {
    log_.reserve(1 << 18);
  }

  const geo::Rect& universe() const override { return inner_->universe(); }
  core::ServiceInfo info() const override { return inner_->info(); }
  bool last_wire_from_cache() const override {
    return inner_->last_wire_from_cache();
  }

  StatusOr<WireBytes> NnQueryWireShared(const geo::Point& q,
                                        size_t k) override {
    const double t0 = NowS();
    StatusOr<WireBytes> r = inner_->NnQueryWireShared(q, k);
    Log(k == 1 ? QType::kNn1 : QType::kNn10, q, t0, r);
    return r;
  }
  StatusOr<WireBytes> WindowQueryWireShared(const geo::Point& focus,
                                            double hx, double hy) override {
    const double t0 = NowS();
    StatusOr<WireBytes> r = inner_->WindowQueryWireShared(focus, hx, hy);
    Log(QType::kWindow, focus, t0, r);
    return r;
  }
  StatusOr<WireBytes> RangeQueryWireShared(const geo::Point& focus,
                                           double radius) override {
    const double t0 = NowS();
    StatusOr<WireBytes> r = inner_->RangeQueryWireShared(focus, radius);
    Log(QType::kRange, focus, t0, r);
    return r;
  }

  // Loop thread: an update's apply closure finished.
  void LogUpdate(LoopEvent e) { log_.push_back(std::move(e)); }

  // Valid once the loop thread has been joined.
  const std::vector<LoopEvent>& log() const { return log_; }

 private:
  void Log(QType type, const geo::Point& p, double t0,
           const StatusOr<WireBytes>& r) {
    LoopEvent e;
    e.type = type;
    e.p = p;
    e.start_s = t0;
    e.end_s = NowS();
    e.from_cache = inner_->last_wire_from_cache();
    if (r.ok() && !e.from_cache) e.miss_bytes = *r;
    log_.push_back(std::move(e));
  }

  core::WireService* inner_;
  std::vector<LoopEvent> log_;
};

// SpatialBackend decorator: a span around every primitive the engines
// call, parented to the engine span of the miss being replayed.
class TimingBackend final : public core::SpatialBackend {
 public:
  TimingBackend(core::SpatialBackend* inner, std::vector<Span>* spans)
      : inner_(inner), spans_(spans) {}

  void set_parent(uint64_t request, int32_t parent) {
    request_ = request;
    parent_ = parent;
  }

  size_t size() const override { return inner_->size(); }
  uint64_t node_accesses() const override { return inner_->node_accesses(); }
  uint64_t page_accesses() const override { return inner_->page_accesses(); }

  std::vector<rtree::Neighbor> Knn(const geo::Point& q, size_t k) override {
    const double t0 = NowS();
    std::vector<rtree::Neighbor> r = inner_->Knn(q, k);
    Record(kRtreeKnn, t0);
    return r;
  }
  void WindowQuery(const geo::Rect& w,
                   std::vector<rtree::DataEntry>* out) override {
    const double t0 = NowS();
    inner_->WindowQuery(w, out);
    Record(kRtreeWindow, t0);
  }
  tp::TpnnResult Tpnn(const geo::Point& q, const geo::Vec2& l,
                      const geo::Point& o, rtree::ObjectId o_id) override {
    const double t0 = NowS();
    tp::TpnnResult r = inner_->Tpnn(q, l, o, o_id);
    Record(kTpTpnn, t0);
    return r;
  }
  tp::TpknnResult Tpknn(const geo::Point& q, const geo::Vec2& l,
                        const std::vector<rtree::Neighbor>& answers) override {
    const double t0 = NowS();
    tp::TpknnResult r = inner_->Tpknn(q, l, answers);
    Record(kTpTpknn, t0);
    return r;
  }
  void DropBuffers() override { inner_->DropBuffers(); }

 private:
  void Record(SpanName name, double t0) {
    spans_->push_back({request_, name, parent_, t0 * 1e6, NowS() * 1e6});
  }

  core::SpatialBackend* inner_;
  std::vector<Span>* spans_;
  uint64_t request_ = 0;
  int32_t parent_ = -1;
};

// Pins the calling thread to one CPU (modulo the CPUs online): the loop
// thread on CPU 0 and generator t on CPU 1 + t, so the measured threads
// never queue behind each other for a core.
void PinToCpu(size_t cpu) {
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  if (online <= 1) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<int>(cpu % static_cast<size_t>(online)), &set);
  (void)::sched_setaffinity(0, sizeof(set), &set);
}

// -- Deployment -------------------------------------------------------------------

// One serving stack: dataset, index, service with its cache warmed.
struct Deployment {
  workload::Dataset data;
  std::string index_path;
  AttachedIndex index;                                  // K=1
  std::unique_ptr<core::Server> server;                 // K=1
  std::unique_ptr<partition::PartitionedServer> sharded;  // K>1
  core::WireService* service = nullptr;

  cache::CacheStats cache_stats() const {
    return sharded ? sharded->cache_stats() : server->cache_stats();
  }
  // Node accesses and page reads of the serving index (all fragments).
  uint64_t node_accesses() const {
    return sharded ? sharded->router().node_accesses()
                   : index.tree->buffer().logical_accesses();
  }
  uint64_t buffer_hits() const {
    return sharded ? sharded->router().node_accesses() -
                         sharded->router().page_accesses()
                   : index.tree->buffer().hits();
  }
  uint64_t page_reads() const {
    return sharded ? sharded->router().page_accesses()
                   : index.tree->disk().read_count();
  }
};

bool Query(core::WireService* service, QType type, const geo::Point& p) {
  switch (type) {
    case QType::kNn1: return service->NnQueryWireShared(p, 1).ok();
    case QType::kNn10: return service->NnQueryWireShared(p, 10).ok();
    case QType::kWindow:
      return service
          ->WindowQueryWireShared(p, WindowHalfExtent(), WindowHalfExtent())
          .ok();
    case QType::kRange:
      return service->RangeQueryWireShared(p, RangeRadius()).ok();
  }
  return false;
}

std::unique_ptr<Deployment> Deploy(const Workload& w, uint64_t seed,
                                   const std::string& workdir) {
  auto d = std::make_unique<Deployment>();
  d->data = MakeCity();
  cache::CacheConfig config;  // lbsq_cli serve's defaults
  if (w.fragments == 1) {
    d->index_path = workdir + "/index.db";
    BuildIndexFile(d->index_path, d->data);
    d->index = AttachIndex(d->index_path);
    d->server = std::make_unique<core::Server>(d->index.tree.get(),
                                               d->index.universe);
    d->server->EnableCache(config);
    d->service = d->server.get();
  } else {
    partition::PartitionedServerOptions options;
    options.fragments = w.fragments;
    d->sharded = std::make_unique<partition::PartitionedServer>(
        d->data.entries, d->data.universe, options);
    d->sharded->EnableCache(config);
    d->service = d->sharded.get();
  }
  const std::vector<geo::Point> warm =
      QueryLocations(w, d->data.universe, w.warm_queries, SubSeed(seed, 2));
  for (size_t i = 0; i < warm.size(); ++i) {
    if (!Query(d->service, TypeOfQuery(i), warm[i])) {
      std::fprintf(stderr, "warm-up query failed\n");
      std::exit(1);
    }
  }
  return d;
}

// The NetServer + PushScheduler pair on its loop thread.
class Serving {
 public:
  explicit Serving(core::WireService* service)
      : net_(service, net::NetOptions{}),
        push_(service, push::PushConfig{}, net_.mutable_stats()) {
    push_.set_wake([this] { net_.Wake(); });
    net_.set_subscriptions(&push_);
    if (const Status s = net_.Listen(); !s.ok()) {
      std::fprintf(stderr, "cannot listen: %s\n", s.ToString().c_str());
      std::exit(1);
    }
    thread_ = std::thread([this] {
      PinToCpu(0);
      net_.Run();
    });
    // Keeps the loop thread's CPU out of its idle state: on a virtual
    // machine an idle vCPU halts, and waking it for each request added
    // 80-300 us to every reply at low load, varying with the host's load
    // from run to run. A SCHED_IDLE task yields to the loop thread the
    // moment it wakes.
    awake_ = std::thread([this] {
      PinToCpu(0);
      sched_param param{};
      (void)::sched_setscheduler(0, SCHED_IDLE, &param);
      while (!stop_awake_.load(std::memory_order_relaxed)) {
      }
    });
  }
  ~Serving() { Stop(); }
  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  // Stops the loop and joins it; stats() is valid afterwards.
  void Stop() {
    stop_awake_.store(true, std::memory_order_relaxed);
    if (awake_.joinable()) awake_.join();
    if (!thread_.joinable()) return;
    net_.RequestStop();
    thread_.join();
  }

  uint16_t port() const { return net_.port(); }
  push::PushScheduler& push() { return push_; }

  const net::NetStats& stats() const { return net_.stats(); }

 private:
  net::NetServer net_;
  push::PushScheduler push_;
  std::thread thread_;
  std::atomic<bool> stop_awake_{false};
  std::thread awake_;
};

// -- Open-loop generator ------------------------------------------------------------

struct Arrival {
  double due_s;     // absolute, NowS() clock
  size_t op;        // stream position
};

struct ReqRec {
  double due_s = 0.0;
  double sent_s = 0.0;
  double recv_s = 0.0;
  size_t op = 0;
  uint8_t state = 0;  // 0 outstanding, 1 answered, 2 error reply
};

struct VerifySample {
  size_t op = 0;
  std::vector<uint8_t> payload;
};

struct GeneratorResult {
  std::vector<ReqRec> reqs;
  std::vector<double> update_lag_ms;
  std::vector<VerifySample> samples;
  size_t backlog_at_end = 0;
  uint64_t bad_replies = 0;  // unknown request id or unsolicited type
  bool transport_error = false;
};

// Posts one update through the push scheduler; the closure runs on the
// loop thread.
struct UpdatePoster {
  push::PushScheduler* push = nullptr;
  partition::PartitionedServer* sharded = nullptr;
  TracingService* tracer = nullptr;
  // Every applied update in the loop thread's order (loop thread only
  // while serving; read after the loop has been joined).
  std::vector<LoopEvent>* applied_log = nullptr;
  std::atomic<uint64_t>* applied = nullptr;
  std::atomic<uint64_t>* failed = nullptr;

  void Post(const StreamOp& op) const {
    const double posted = NowS();
    auto* sharded_ptr = sharded;
    auto* tracer_ptr = tracer;
    auto* log_ptr = applied_log;
    auto* applied_ptr = applied;
    auto* failed_ptr = failed;
    const StreamOp copy = op;
    push->PostUpdate(
        op.p,
        op.kind == workload::MixedOp::Kind::kInsert ? cache::UpdateKind::kInsert
                                                    : cache::UpdateKind::kDelete,
        [=] {
          const double t0 = NowS();
          bool ok = true;
          if (copy.kind == workload::MixedOp::Kind::kInsert) {
            sharded_ptr->Insert(copy.p, copy.id);
          } else {
            ok = sharded_ptr->Delete(copy.p, copy.id);
          }
          const double t1 = NowS();
          LoopEvent e;
          e.is_update = true;
          e.update_kind = copy.kind;
          e.p = copy.p;
          e.id = copy.id;
          e.posted_s = posted;
          e.start_s = t0;
          e.end_s = t1;
          log_ptr->push_back(e);
          if (tracer_ptr != nullptr) tracer_ptr->LogUpdate(std::move(e));
          if (!ok) failed_ptr->fetch_add(1, std::memory_order_relaxed);
          applied_ptr->fetch_add(1, std::memory_order_release);
        });
  }
};

int ConnectLoopback(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  (void)::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

class Connection {
 public:
  explicit Connection(uint16_t port) : fd_(ConnectLoopback(port)) {
    if (fd_ < 0) {
      std::fprintf(stderr, "cannot connect to port %u\n", port);
      std::exit(1);
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Sends `arrivals` at their due times and collects every reply.
  // `sampled` picks the replies whose payloads are kept for
  // verification; updates go to `poster`.
  GeneratorResult Run(const std::vector<Arrival>& arrivals,
                      const Stream& stream, const UpdatePoster& poster,
                      const std::function<bool(size_t)>& sampled,
                      double drain_timeout_s);

 private:
  int fd_;
  net::FrameDecoder decoder_;
  uint32_t next_id_ = 1;
  std::vector<uint8_t> out_;
  size_t out_head_ = 0;
  std::vector<uint8_t> in_;
};

void AppendRequest(const StreamOp& op, uint32_t id, std::vector<uint8_t>* out) {
  std::vector<uint8_t> payload;
  net::FrameType type = net::FrameType::kNnRequest;
  switch (op.type) {
    case QType::kNn1:
    case QType::kNn10:
      payload = net::EncodeNnRequest({op.p, op.type == QType::kNn1 ? 1u : 10u});
      break;
    case QType::kWindow:
      type = net::FrameType::kWindowRequest;
      payload = net::EncodeWindowRequest(
          {op.p, WindowHalfExtent(), WindowHalfExtent()});
      break;
    case QType::kRange:
      type = net::FrameType::kRangeRequest;
      payload = net::EncodeRangeRequest({op.p, RangeRadius()});
      break;
  }
  net::AppendFrame(type, id, payload.data(), payload.size(), out);
}

GeneratorResult Connection::Run(const std::vector<Arrival>& arrivals,
                                const Stream& stream,
                                const UpdatePoster& poster,
                                const std::function<bool(size_t)>& sampled,
                                double drain_timeout_s) {
  GeneratorResult res;
  res.reqs.reserve(arrivals.size());
  const uint32_t base = next_id_;
  size_t next = 0;
  size_t answered = 0;
  bool backlog_taken = false;
  const double last_due = arrivals.empty() ? NowS() : arrivals.back().due_s;
  const double deadline = last_due + drain_timeout_s;
  in_.resize(64 << 10);

  for (;;) {
    double now = NowS();
    while (next < arrivals.size() && arrivals[next].due_s <= now) {
      const StreamOp& op = stream.at(arrivals[next].op);
      if (op.kind == workload::MixedOp::Kind::kQuery) {
        AppendRequest(op, next_id_++, &out_);
        ReqRec rec;
        rec.due_s = arrivals[next].due_s;
        rec.sent_s = now;
        rec.op = arrivals[next].op;
        res.reqs.push_back(rec);
      } else {
        poster.Post(op);
        res.update_lag_ms.push_back((NowS() - arrivals[next].due_s) * 1e3);
      }
      ++next;
    }
    if (out_head_ < out_.size()) {
      const ssize_t w = ::send(fd_, out_.data() + out_head_,
                               out_.size() - out_head_, MSG_NOSIGNAL);
      if (w > 0) {
        out_head_ += static_cast<size_t>(w);
        if (out_head_ == out_.size()) {
          out_.clear();
          out_head_ = 0;
        }
      } else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                 errno != EINTR) {
        res.transport_error = true;
        break;
      }
    }
    if (next == arrivals.size() && !backlog_taken) {
      res.backlog_at_end = res.reqs.size() - answered;
      backlog_taken = true;
    }
    if (next == arrivals.size() && answered == res.reqs.size() &&
        out_head_ == out_.size()) {
      break;
    }
    now = NowS();
    if (next == arrivals.size() && now > deadline) break;

    // Busy-poll: a sleeping generator's virtual CPU halts, and waking it
    // costs more than the requests being timed (see Serving).
    pollfd pfd{fd_, static_cast<short>(POLLIN | (out_head_ < out_.size()
                                                     ? POLLOUT : 0)), 0};
    const int ready = ::poll(&pfd, 1, 0);
    if (ready < 0 && errno != EINTR) {
      res.transport_error = true;
      break;
    }
    if (ready <= 0 || (pfd.revents & (POLLIN | POLLERR | POLLHUP)) == 0) {
      continue;
    }
    for (;;) {
      const ssize_t r = ::recv(fd_, in_.data(), in_.size(), 0);
      if (r > 0) {
        decoder_.Feed(in_.data(), static_cast<size_t>(r));
        continue;
      }
      if (r == 0) res.transport_error = true;
      if (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
        res.transport_error = true;
      }
      break;
    }
    const double recv_now = NowS();
    net::Frame frame;
    for (;;) {
      const net::FrameDecoder::Result fr = decoder_.Next(&frame);
      if (fr == net::FrameDecoder::Result::kNeedMore) break;
      if (fr == net::FrameDecoder::Result::kError) {
        res.transport_error = true;
        break;
      }
      const uint64_t idx = static_cast<uint64_t>(frame.request_id - base);
      if (idx >= res.reqs.size() || res.reqs[idx].state != 0) {
        ++res.bad_replies;
        continue;
      }
      ReqRec& rec = res.reqs[idx];
      rec.recv_s = recv_now;
      ++answered;
      if (frame.type != net::FrameType::kAnswer) {
        rec.state = 2;
        continue;
      }
      rec.state = 1;
      if (sampled(rec.op)) {
        res.samples.push_back({rec.op, std::move(frame.payload)});
      }
    }
    if (res.transport_error) break;
  }
  if (!backlog_taken) res.backlog_at_end = res.reqs.size() - answered;
  return res;
}

// -- Phases -------------------------------------------------------------------------

struct PhaseResult {
  double rate = 0.0;
  double wall_s = 0.0;  // first due to last reply
  std::vector<double> latency_ms;  // per query in due order; +inf = failed
  std::vector<double> lag_ms;      // queries and updates
  std::vector<double> send_to_reply_us;  // per answered query
  std::vector<size_t> answered_ops;      // stream positions of the above
  std::vector<double> answered_send_s;   // send time of the above
  std::vector<VerifySample> samples;
  size_t attempted = 0;
  size_t failed = 0;
  size_t backlog_at_end = 0;
  size_t updates = 0;
  uint64_t bad_replies = 0;
  bool transport_error = false;

  // The step's p99 is the median of up to three windows' p99s, so one
  // scheduling stall on the host does not decide a step.
  servebench::StepStats Step() const {
    servebench::StepStats s;
    s.rate = rate;
    s.samples = latency_ms.size();
    size_t windows = 0;
    s.p99_ms = servebench::WindowedPercentile(latency_ms, 0.99, 3, &windows);
    s.lag_p99_ms = servebench::Percentile(lag_ms, 0.99);
    s.backlog_at_end = backlog_at_end;
    return s;
  }
};

// Everything one open-loop phase needs.
struct LoadGenerator {
  const Workload* w = nullptr;
  uint64_t seed = 0;
  Stream* stream = nullptr;
  std::vector<std::unique_ptr<Connection>> conns;
  UpdatePoster poster;
  std::vector<LoopEvent> applied_log;
  std::atomic<uint64_t> posted{0};
  std::atomic<uint64_t> applied{0};
  std::atomic<uint64_t> failed_updates{0};
  uint64_t phase_counter = 0;

  void Connect(uint16_t port) {
    conns.clear();
    for (size_t t = 0; t < kGenerators; ++t) {
      conns.push_back(std::make_unique<Connection>(port));
    }
  }

  // One phase at `rate` for `duration_s`: the schedule is a pure
  // function of the seed, the phase ordinal and the rate.
  PhaseResult RunPhase(double rate, double duration_s, double drain_s);
};

PhaseResult LoadGenerator::RunPhase(double rate, double duration_s,
                                    double drain_s) {
  const uint64_t phase = phase_counter++;
  // `rate` is the offered query rate; updates arrive on top of it.
  const double op_rate = rate * (1.0 + w->updates_per_kq / 1000.0);
  const std::vector<double> due = servebench::PoissonSchedule(
      SubSeed(seed, 100 + phase), op_rate, duration_s);
  // Query ordinals go round-robin over the generators; every update goes
  // through generator 0 so updates keep their stream order.
  std::vector<std::vector<Arrival>> per_thread(kGenerators);
  const double t0 = NowS() + 0.02;
  size_t queries = 0;
  size_t updates = 0;
  if (!stream->cyclic && stream->cursor + due.size() > stream->ops.size()) {
    std::fprintf(stderr, "op stream exhausted\n");
    std::exit(1);
  }
  for (const double d : due) {
    const size_t op = stream->cursor++;
    const bool is_query =
        stream->at(op).kind == workload::MixedOp::Kind::kQuery;
    const size_t t = is_query ? queries++ % kGenerators : 0;
    if (!is_query) ++updates;
    per_thread[t].push_back({t0 + d, op});
  }
  posted.fetch_add(updates);
  // The sample is a pure function of the seed, the stream position and
  // the phase's query count.
  const uint64_t sample_modulo = std::max<size_t>(
      kSampleModulo, queries / (kGenerators * kSampleCap));

  std::vector<GeneratorResult> results(kGenerators);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kGenerators; ++t) {
    threads.emplace_back([&, t] {
      PinToCpu(1 + t);
      size_t kept = 0;
      auto sampled = [&](size_t op) {
        if (kept >= 2 * kSampleCap) return false;
        if (servebench::Mix64(seed ^ (op * 0x9e3779b97f4a7c15ull)) %
                sample_modulo != 0) {
          return false;
        }
        ++kept;
        return true;
      };
      results[t] = conns[t]->Run(per_thread[t], *stream, poster, sampled,
                                 drain_s);
    });
  }
  for (std::thread& th : threads) th.join();
  // Every posted update is applied before the phase ends.
  const double wait_until = NowS() + drain_s;
  while (applied.load(std::memory_order_acquire) < posted.load() &&
         NowS() < wait_until) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  PhaseResult out;
  out.rate = rate;
  out.updates = updates;
  double last = t0;
  // Sized exactly, so the memory a phase holds is a function of its op
  // count alone (the process's memory peak includes it).
  std::vector<std::pair<double, double>> due_latency;
  due_latency.reserve(queries);
  out.latency_ms.reserve(queries);
  out.lag_ms.reserve(due.size());
  out.send_to_reply_us.reserve(queries);
  out.answered_ops.reserve(queries);
  out.answered_send_s.reserve(queries);
  for (GeneratorResult& g : results) {
    out.bad_replies += g.bad_replies;
    out.transport_error = out.transport_error || g.transport_error;
    out.backlog_at_end += g.backlog_at_end;
    for (const double lag : g.update_lag_ms) out.lag_ms.push_back(lag);
    for (const ReqRec& r : g.reqs) {
      ++out.attempted;
      out.lag_ms.push_back((r.sent_s - r.due_s) * 1e3);
      if (r.state == 1) {
        due_latency.push_back({r.due_s, (r.recv_s - r.due_s) * 1e3});
        out.send_to_reply_us.push_back((r.recv_s - r.sent_s) * 1e6);
        out.answered_ops.push_back(r.op);
        out.answered_send_s.push_back(r.sent_s);
        last = std::max(last, r.recv_s);
      } else {
        ++out.failed;
        due_latency.push_back({r.due_s, std::numeric_limits<double>::infinity()});
      }
    }
    for (VerifySample& s : g.samples) out.samples.push_back(std::move(s));
  }
  std::sort(due_latency.begin(), due_latency.end());
  for (const auto& [due_s, ms] : due_latency) out.latency_ms.push_back(ms);
  if (applied.load() < posted.load()) out.transport_error = true;
  out.wall_s = last - t0;
  return out;
}

// -- Verification ---------------------------------------------------------------------

std::vector<rtree::ObjectId> SortedIds(const std::vector<rtree::DataEntry>& v) {
  std::vector<rtree::ObjectId> ids;
  for (const rtree::DataEntry& e : v) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

// Decodes a sampled answer and checks it: the right kind, k or extent,
// valid at the asking point, and (when `replica` is given) the same
// answer objects the replica index returns at that point.
bool VerifyAnswer(const StreamOp& op, const std::vector<uint8_t>& payload,
                  rtree::RTree* replica) {
  switch (op.type) {
    case QType::kNn1:
    case QType::kNn10: {
      const size_t k = op.type == QType::kNn1 ? 1 : 10;
      const auto d = core::wire::DecodeNnResult(payload);
      if (!d.ok() || d->answers().size() != k || !d->IsValidAt(op.p)) {
        return false;
      }
      if (replica == nullptr) return true;
      std::vector<rtree::ObjectId> got, want;
      for (const rtree::Neighbor& n : d->answers()) got.push_back(n.entry.id);
      for (const rtree::Neighbor& n : rtree::KnnBestFirst(*replica, op.p, k)) {
        want.push_back(n.entry.id);
      }
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      return got == want;
    }
    case QType::kWindow: {
      const auto d = core::wire::DecodeWindowResult(payload);
      if (!d.ok() || d->hx() != WindowHalfExtent() ||
          d->hy() != WindowHalfExtent() || !d->IsValidAt(op.p)) {
        return false;
      }
      if (replica == nullptr) return true;
      std::vector<rtree::DataEntry> want;
      replica->WindowQuery(
          geo::Rect::Centered(op.p, WindowHalfExtent(), WindowHalfExtent()),
          &want);
      return SortedIds(d->result()) == SortedIds(want);
    }
    case QType::kRange: {
      const auto d = core::wire::DecodeRangeResult(payload);
      if (!d.ok() || d->radius() != RangeRadius() || !d->IsValidAt(op.p)) {
        return false;
      }
      if (replica == nullptr) return true;
      std::vector<rtree::DataEntry> box, want;
      replica->WindowQuery(
          geo::Rect::Centered(op.p, RangeRadius(), RangeRadius()), &box);
      for (const rtree::DataEntry& e : box) {
        if (geo::Distance(e.point, op.p) <= RangeRadius()) want.push_back(e);
      }
      return SortedIds(d->result()) == SortedIds(want);
    }
  }
  return false;
}

// -- Replay -------------------------------------------------------------------------

// The replica a traced run replays its misses on: a second attach of
// the served index file (K=1) or fragment trees built exactly as
// PartitionedServer builds them (K>1), plus a replica cache.
struct Replica {
  AttachedIndex index;  // K=1
  std::vector<std::unique_ptr<storage::PageManager>> pages;  // K>1
  std::vector<std::unique_ptr<rtree::RTree>> trees;          // K>1
  std::optional<core::RTreeBackend> single;
  std::optional<partition::FragmentRouter> router;
  std::optional<TimingBackend> timing;
  std::optional<core::NnValidityEngine> nn;
  std::optional<core::WindowValidityEngine> window;
  std::optional<core::RangeValidityEngine> range;
  std::optional<cache::SemanticCache> cache;
};

void BuildReplica(const Workload& w, const Deployment& d,
                  std::vector<Span>* spans, Replica* r) {
  core::SpatialBackend* base = nullptr;
  if (w.fragments == 1) {
    r->index = AttachIndex(d.index_path);
    r->single.emplace(r->index.tree.get());
    base = &*r->single;
  } else {
    const partition::PartitionedServerOptions options;
    partition::PartitionLayout layout(d.data.entries, d.data.universe,
                                      w.fragments);
    std::vector<std::vector<rtree::DataEntry>> buckets =
        partition::PartitionEntries(layout, d.data.entries);
    std::vector<rtree::RTree*> raw;
    for (size_t f = 0; f < w.fragments; ++f) {
      r->pages.push_back(std::make_unique<storage::PageManager>());
      r->trees.push_back(std::make_unique<rtree::RTree>(
          r->pages.back().get(), options.buffer_capacity, options.tree_options));
      r->trees.back()->BulkLoad(std::move(buckets[f]), options.bulk_fill);
      raw.push_back(r->trees.back().get());
    }
    r->router.emplace(std::move(raw), std::move(layout));
    base = &*r->router;
  }
  r->timing.emplace(base, spans);
  r->nn.emplace(&*r->timing, d.data.universe);
  r->window.emplace(&*r->timing, d.data.universe);
  r->range.emplace(&*r->timing, d.data.universe);
  r->cache.emplace(d.data.universe, cache::CacheConfig{});
}

struct ReplayStats {
  size_t misses = 0;
  size_t byte_mismatches = 0;
  size_t replica_update_failures = 0;
  std::vector<double> engine_us[4];  // by QType
  std::vector<double> nn_step2_us;   // per NN miss: sum of TP spans
  std::vector<double> engine_self_us;
  std::vector<double> encode_us;
  std::vector<double> insert_us;
  std::vector<double> knn_us;     // per Knn call
  std::vector<double> window_us;  // per WindowQuery call
  double nn_misses = 0, tpnn_queries = 0, tpnn_na = 0, knn_na = 0;
  double named_child_us = 0.0;   // rtree + tp + core.self + encode + insert
  double served_miss_us = 0.0;   // the same misses' service spans
};

ReplayStats ReplayMisses(const std::vector<LoopEvent>& log, Replica* r,
                         std::vector<Span>* spans) {
  ReplayStats st;
  const double hx = WindowHalfExtent();
  const double radius = RangeRadius();
  uint64_t request = 1ull << 40;  // replay requests, apart from served ones
  for (const LoopEvent& e : log) {
    if (e.is_update) {
      const bool insert = e.update_kind == workload::MixedOp::Kind::kInsert;
      if (r->router) {
        const size_t owner = r->router->OwnerOf(e.p);
        if (insert) {
          r->trees[owner]->Insert(e.p, e.id);
        } else if (!r->trees[owner]->Delete(e.p, e.id)) {
          ++st.replica_update_failures;
        }
        r->router->RefreshFragment(owner);
      }
      r->cache->InvalidateAt(e.p, insert ? cache::UpdateKind::kInsert
                                         : cache::UpdateKind::kDelete);
      continue;
    }
    if (e.from_cache || !e.miss_bytes) continue;
    ++st.misses;
    ++request;
    const size_t first = spans->size();
    spans->push_back({request, kReplayMiss, -1, NowS() * 1e6, 0.0});
    const auto root = static_cast<int32_t>(first);
    const size_t engine_idx = spans->size();
    spans->push_back({request, kCoreEngine, root, NowS() * 1e6, 0.0});
    r->timing->set_parent(request, static_cast<int32_t>(engine_idx));

    StatusOr<std::vector<uint8_t>> bytes = std::vector<uint8_t>{};
    std::function<void(const cache::CachedBytes&)> insert;
    size_t encode_idx = 0;
    if (e.type == QType::kNn1 || e.type == QType::kNn10) {
      const size_t k = e.type == QType::kNn1 ? 1 : 10;
      auto result = std::make_shared<core::NnValidityResult>(r->nn->Query(e.p, k));
      (*spans)[engine_idx].end_us = NowS() * 1e6;
      const core::NnValidityEngine::Stats& s = r->nn->stats();
      st.nn_misses += 1;
      st.tpnn_queries += static_cast<double>(s.tpnn_queries);
      st.tpnn_na += static_cast<double>(s.tpnn_node_accesses);
      st.knn_na += static_cast<double>(s.nn_node_accesses);
      encode_idx = spans->size();
      spans->push_back({request, kCoreEncode, root, NowS() * 1e6, 0.0});
      bytes = core::wire::EncodeNnResult(*result);
      insert = [&, result, k](const cache::CachedBytes& shared) {
        std::vector<geo::Point> answers;
        for (const rtree::Neighbor& n : result->answers()) {
          answers.push_back(n.entry.point);
        }
        std::vector<cache::BisectorConstraint> constraints;
        for (const core::InfluencePair& pair : result->influence_pairs()) {
          constraints.push_back({pair.displaced.point, pair.incoming.point});
        }
        r->cache->InsertNn(k, result->universe(),
                           result->region().BoundingBox(), std::move(answers),
                           std::move(constraints), shared);
      };
    } else if (e.type == QType::kWindow) {
      auto result = std::make_shared<core::WindowValidityResult>(
          r->window->Query(e.p, hx, hx));
      (*spans)[engine_idx].end_us = NowS() * 1e6;
      encode_idx = spans->size();
      spans->push_back({request, kCoreEncode, root, NowS() * 1e6, 0.0});
      bytes = core::wire::EncodeWindowResult(*result);
      insert = [&, result](const cache::CachedBytes& shared) {
        r->cache->InsertWindow(hx, hx, result->region(), shared);
      };
    } else {
      auto result = std::make_shared<core::RangeValidityResult>(
          r->range->Query(e.p, radius));
      (*spans)[engine_idx].end_us = NowS() * 1e6;
      encode_idx = spans->size();
      spans->push_back({request, kCoreEncode, root, NowS() * 1e6, 0.0});
      bytes = core::wire::EncodeRangeResult(*result);
      insert = [&, result](const cache::CachedBytes& shared) {
        r->cache->InsertRange(radius, result->region(), shared);
      };
    }
    (*spans)[encode_idx].end_us = NowS() * 1e6;
    if (!bytes.ok() || *bytes != *e.miss_bytes) {
      ++st.byte_mismatches;
      continue;
    }
    const size_t insert_idx = spans->size();
    spans->push_back({request, kCacheInsert, root, NowS() * 1e6, 0.0});
    insert(cache::MakeCachedBytes(std::move(*bytes)));
    (*spans)[insert_idx].end_us = NowS() * 1e6;
    (*spans)[first].end_us = NowS() * 1e6;

    // Per-miss attribution from this request's spans.
    double tp_us = 0.0, backend_us = 0.0;
    for (size_t i = first; i < spans->size(); ++i) {
      const Span& s = (*spans)[i];
      switch (s.name) {
        case kRtreeKnn: st.knn_us.push_back(s.duration_us()); backend_us += s.duration_us(); break;
        case kRtreeWindow: st.window_us.push_back(s.duration_us()); backend_us += s.duration_us(); break;
        case kTpTpnn: case kTpTpknn: tp_us += s.duration_us(); backend_us += s.duration_us(); break;
        default: break;
      }
    }
    const double engine_us = (*spans)[engine_idx].duration_us();
    const double encode_us = (*spans)[encode_idx].duration_us();
    const double insert_us = (*spans)[insert_idx].duration_us();
    st.engine_us[static_cast<size_t>(e.type)].push_back(engine_us);
    if (e.type == QType::kNn1 || e.type == QType::kNn10) {
      st.nn_step2_us.push_back(tp_us);
    }
    st.engine_self_us.push_back(engine_us - backend_us);
    st.encode_us.push_back(encode_us);
    st.insert_us.push_back(insert_us);
    st.named_child_us += engine_us + encode_us + insert_us;
    st.served_miss_us += (e.end_s - e.start_s) * 1e6;
  }
  return st;
}

// -- Metrics output ---------------------------------------------------------------------

struct MetricOut {
  std::string name;
  double value;
  std::string unit;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double P(const std::vector<double>& v, double p) {
  const double x = servebench::Percentile(v, p);
  return std::isfinite(x) ? x : 0.0;
}

uint64_t PeakRssKb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_maxrss);
}

// p50 over the same windows as the p99 it is reported with.
double WindowedP50(const std::vector<double>& latency_ms, size_t windows) {
  size_t used = 0;
  const double p50 = servebench::WindowedPercentile(
      latency_ms, 0.5, std::max<size_t>(windows, 1), &used);
  return std::isfinite(p50) ? p50 : 0.0;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") a->workload = val;
    else if (key == "--seed") a->seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") a->seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") a->trace = val == "1";
    else if (key == "--workdir") a->workdir = val;
    else return false;
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workdir <dir>]\n");
    return 2;
  }
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wp = &w;
  }
  if (wp == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  std::printf("facts %s\n", FactsJson(w).c_str());
  if (!OptimizedBuild()) {
    std::fprintf(stderr, "refusing to report numbers from an unoptimized "
                         "build (__OPTIMIZE__ undefined)\n");
    return 1;
  }

  // The op stream comes first, from its own copy of the city: its
  // buffers then sit under every set-up and the load alike, a constant
  // in the memory peak.
  Stream stream = MakeStream(w, MakeCity(), args.seed);

  // Set-up, several times: dataset, index build + attach, service, cache
  // warm-up, server start, timed in CPU seconds of this thread (which
  // does all of it). The last deployment serves.
  std::vector<double> setup_s;
  std::unique_ptr<Deployment> dep;
  std::unique_ptr<Serving> serving;
  for (size_t i = 0; i < kSetupRepeats; ++i) {
    serving.reset();
    dep.reset();
    // Hand the torn-down deployment's heap back, so the next set-up's
    // memory peak does not depend on how the last one fragmented it.
    ::malloc_trim(0);
    const double t0 = NowS();
    const double cpu0 = ThreadCpuS();
    dep = Deploy(w, args.seed, args.workdir);
    serving = std::make_unique<Serving>(dep->service);
    setup_s.push_back(ThreadCpuS() - cpu0);
    std::printf("setup %zu: %.4f s wall, %.4f s cpu\n", i, NowS() - t0,
                setup_s.back());
  }

  LoadGenerator load;
  load.w = &w;
  load.seed = args.seed;
  load.stream = &stream;
  load.poster.sharded = dep->sharded.get();
  load.poster.applied = &load.applied;
  load.poster.applied_log = &load.applied_log;
  load.poster.failed = &load.failed_updates;
  load.poster.push = &serving->push();
  load.Connect(serving->port());

  // How long a phase waits for its last replies (and posted updates)
  // after its schedule ends; an overloaded search step needs it.
  const double drain_s = 10.0;
  size_t attempted = 0;
  size_t failed = 0;
  size_t verified = 0;
  size_t verify_failures = 0;
  bool transport_error = false;
  uint64_t bad_replies = 0;
  std::unique_ptr<Replica> verify_replica;
  std::vector<Span> spans;
  auto verify = [&](const PhaseResult& ph) {
    if (w.fragments == 1 && !verify_replica) {
      verify_replica = std::make_unique<Replica>();
      verify_replica->index = AttachIndex(dep->index_path);
    }
    for (const VerifySample& s : ph.samples) {
      ++verified;
      if (!VerifyAnswer(stream.at(s.op), s.payload,
                        w.fragments == 1 ? verify_replica->index.tree.get()
                                         : nullptr)) {
        ++verify_failures;
      }
    }
  };
  auto account = [&](const PhaseResult& ph, bool counts_failures) {
    attempted += ph.attempted + ph.updates;
    if (counts_failures) failed += ph.failed;
    transport_error = transport_error || ph.transport_error;
    bad_replies += ph.bad_replies;
    verify(ph);
  };

  std::vector<MetricOut> metrics;
  // Settle at the nominal rate first (verified, not timed): the cache's
  // churn dynamics and the connections reach their steady state.
  account(load.RunPhase(w.nominal_qps, kSettleShare * args.seconds, drain_s),
          true);
  // The traced run's untraced and traced nominal phases are equally
  // long, so its overhead ratio compares like with like.
  const double nominal_s =
      (args.trace ? kTracedPartShare : 1.0 - kSettleShare) * args.seconds;
  const PhaseResult nominal = load.RunPhase(w.nominal_qps, nominal_s, drain_s);
  account(nominal, true);
  // The process's peak resident memory so far: every set-up, and the
  // serving stack under the nominal load with whatever its cache, write
  // queues and (under churn) trees grew to.
  const double peak_rss_mb = static_cast<double>(PeakRssKb()) / 1024.0;
  // p50 and p99 at the nominal rate: medians of up to kLatencyWindows
  // consecutive windows' percentiles (each window holding at least 1000
  // samples), so one stall moves one window, not the figure.
  size_t p99_windows = 0;
  std::vector<double> window_p99s;
  const double p99 = servebench::WindowedPercentile(
      nominal.latency_ms, 0.99, kLatencyWindows, &p99_windows, &window_p99s);
  const double p50 = WindowedP50(nominal.latency_ms, p99_windows);
  std::printf("window p99s (ms):");
  for (const double v : window_p99s) std::printf(" %.3f", v);
  std::printf("\n");
  std::printf("nominal: %.0f q/s offered for %.1f s, %zu queries, %zu "
              "updates, %zu failed; p50 of %zu samples; p99 = median of %zu "
              "window p99s, each of >= %zu samples; whole-phase %s = %.3f ms\n",
              w.nominal_qps, nominal_s, nominal.attempted, nominal.updates,
              nominal.failed, nominal.latency_ms.size(), p99_windows,
              p99_windows == 0 ? 0 : nominal.latency_ms.size() / p99_windows,
              servebench::SampleStatement("p99", nominal.latency_ms.size(), 0.99)
                  .c_str(),
              servebench::Percentile(nominal.latency_ms, 0.99));
  const double error_ratio =
      Ratio(static_cast<double>(nominal.failed), static_cast<double>(nominal.attempted));

  if (!args.trace) {
    std::vector<double> sorted_setup = setup_s;
    metrics.push_back({"p50_ms", p50, "ms"});
    metrics.push_back({"setup_s", servebench::Percentile(sorted_setup, 0.5), "s"});
    metrics.push_back({"peak_rss_mb", peak_rss_mb, "MB"});
    // Printed, not gated: across ten seeds on a shared 4-vCPU host its
    // spread exceeded any bound the gate allows on churn_sharded, where
    // it is set by the few 10-NN misses a window holds. The traced run
    // reports it as loadgen.p99_ms.
    std::printf("p99_ms (not gated) = %.6g ms\n", std::isfinite(p99) ? p99 : 0.0);
    std::printf("error_ratio: %.6f (%zu of %zu)\n", error_ratio, nominal.failed,
                nominal.attempted);
    if (p99_windows == 0) {
      std::fprintf(stderr, "p99 unsupported: too few samples\n");
      transport_error = true;
    }
    serving->Stop();
  } else {
    // Untraced nominal phase done; now the same rate through a tracing
    // decorator on a fresh server over the same service.
    serving->Stop();
    TracingService tracer(dep->service);
    const cache::CacheStats c0 = dep->cache_stats();
    const uint64_t na0 = dep->node_accesses();
    const uint64_t hits0 = dep->buffer_hits();
    const uint64_t reads0 = dep->page_reads();
    uint64_t fq0 = 0, ff0 = 0;
    size_t okills0 = 0, bkills0 = 0;
    if (dep->sharded) {
      fq0 = dep->sharded->router().fanout_queries();
      ff0 = dep->sharded->router().fanout_fragments();
      okills0 = dep->sharded->owner_cache_kills();
      bkills0 = dep->sharded->boundary_cache_kills();
    }
    const size_t updates_before_trace = load.applied_log.size();
    auto traced_serving = std::make_unique<Serving>(&tracer);
    load.poster.push = &traced_serving->push();
    load.poster.tracer = &tracer;
    load.Connect(traced_serving->port());
    const double traced_s = kTracedPartShare * args.seconds;
    const PhaseResult traced = load.RunPhase(w.nominal_qps, traced_s, drain_s);
    account(traced, true);
    load.conns.clear();
    traced_serving->Stop();
    const net::NetStats ns = traced_serving->stats();
    const cache::CacheStats c1 = dep->cache_stats();

    // Served spans: one client span per answered request with the loop
    // thread's service span as its child (joined on the query point).
    const std::vector<LoopEvent>& log = tracer.log();
    struct Key {
      uint64_t x, y;
      bool operator==(const Key& o) const { return x == o.x && y == o.y; }
    };
    struct KeyHash {
      size_t operator()(const Key& k) const {
        return servebench::Mix64(k.x ^ servebench::Mix64(k.y));
      }
    };
    auto key_of = [](const geo::Point& p) {
      Key k{};
      std::memcpy(&k.x, &p.x, 8);
      std::memcpy(&k.y, &p.y, 8);
      return k;
    };
    std::unordered_map<Key, size_t, KeyHash> by_point;
    double busy_s = 0.0;
    std::vector<double> hit_us, miss_us, update_us, update_lag_us;
    size_t queries_served = 0, updates_applied = 0;
    for (size_t i = 0; i < log.size(); ++i) {
      const LoopEvent& e = log[i];
      busy_s += e.end_s - e.start_s;
      if (e.is_update) {
        ++updates_applied;
        spans.push_back({(1ull << 41) + i, kUpdateApply, -1, e.start_s * 1e6,
                         e.end_s * 1e6});
        update_us.push_back((e.end_s - e.start_s) * 1e6);
        update_lag_us.push_back((e.start_s - e.posted_s) * 1e6);
        continue;
      }
      ++queries_served;
      (e.from_cache ? hit_us : miss_us).push_back((e.end_s - e.start_s) * 1e6);
      auto [it, inserted] = by_point.emplace(key_of(e.p), i);
      if (!inserted) it->second = SIZE_MAX;  // ambiguous: drop from the join
    }
    for (size_t j = 0; j < traced.answered_ops.size(); ++j) {
      const StreamOp& op = stream.at(traced.answered_ops[j]);
      const auto it = by_point.find(key_of(op.p));
      if (it == by_point.end() || it->second == SIZE_MAX) continue;
      const LoopEvent& e = log[it->second];
      const double sent_us = traced.answered_send_s[j] * 1e6;
      const auto client = static_cast<int32_t>(spans.size());
      spans.push_back({j, kClientRequest, -1, sent_us,
                       sent_us + traced.send_to_reply_us[j]});
      spans.push_back({j, kServiceQuery, client, e.start_s * 1e6, e.end_s * 1e6});
    }
    std::vector<double> overhead_us;
    {
      const std::vector<double> self = servebench::SelfTimes(spans);
      for (size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name == kClientRequest) overhead_us.push_back(self[i]);
      }
    }

    // Replay every miss, in the loop thread's order, on a replica.
    // The replica starts from the dataset plus every update applied
    // before the traced phase, then follows the traced log.
    Replica replica;
    BuildReplica(w, *dep, &spans, &replica);
    const std::vector<LoopEvent> before_trace(
        load.applied_log.begin(),
        load.applied_log.begin() + static_cast<ptrdiff_t>(updates_before_trace));
    const ReplayStats warm = ReplayMisses(before_trace, &replica, &spans);
    ReplayStats rs = ReplayMisses(log, &replica, &spans);
    rs.replica_update_failures += warm.replica_update_failures;
    std::printf("replay: %zu misses, %zu byte mismatches, %zu replica "
                "update failures\n",
                rs.misses, rs.byte_mismatches, rs.replica_update_failures);
    if (rs.byte_mismatches != 0 || rs.replica_update_failures != 0) {
      verify_failures += rs.byte_mismatches + rs.replica_update_failures;
    }

    size_t traced_windows = 0;
    (void)servebench::WindowedPercentile(traced.latency_ms, 0.99, kLatencyWindows,
                                         &traced_windows);
    const double traced_p50 = WindowedP50(traced.latency_ms, traced_windows);
    const double lookups = static_cast<double>(c1.lookups - c0.lookups);
    const double served = static_cast<double>(queries_served);
    metrics.push_back({"net.overhead_us.p50", P(overhead_us, 0.5), "us"});
    metrics.push_back({"net.overhead_us.p99", P(overhead_us, 0.99), "us"});
    metrics.push_back({"net.frames_per_writev",
                       Ratio(static_cast<double>(ns.frames_out),
                             static_cast<double>(ns.writev_calls)), "count"});
    metrics.push_back({"net.copied_share",
                       Ratio(static_cast<double>(ns.bytes_copied),
                             static_cast<double>(ns.bytes_out)), "ratio"});
    metrics.push_back({"service.busy_share", Ratio(busy_s, traced.wall_s), "ratio"});
    metrics.push_back({"service.hit_us.p50", P(hit_us, 0.5), "us"});
    metrics.push_back({"service.miss_us.p50", P(miss_us, 0.5), "us"});
    metrics.push_back({"service.miss_us.p99", P(miss_us, 0.99), "us"});
    metrics.push_back({"cache.hit_rate",
                       Ratio(static_cast<double>(c1.hits - c0.hits), lookups), "ratio"});
    metrics.push_back({"cache.evictions_per_query",
                       Ratio(static_cast<double>(c1.evictions - c0.evictions), served),
                       "count"});
    metrics.push_back({"cache.kills_per_update",
                       Ratio(static_cast<double>(c1.entries_invalidated_by_update -
                                                 c0.entries_invalidated_by_update),
                             static_cast<double>(updates_applied)),
                       "count"});
    metrics.push_back({"cache.insert_us.p50", P(rs.insert_us, 0.5), "us"});
    metrics.push_back({"core.nn1_us.p50", P(rs.engine_us[0], 0.5), "us"});
    metrics.push_back({"core.nn10_us.p50", P(rs.engine_us[1], 0.5), "us"});
    metrics.push_back({"core.window_us.p50", P(rs.engine_us[2], 0.5), "us"});
    metrics.push_back({"core.range_us.p50", P(rs.engine_us[3], 0.5), "us"});
    metrics.push_back({"core.self_us.p50", P(rs.engine_self_us, 0.5), "us"});
    metrics.push_back({"core.encode_us.p50", P(rs.encode_us, 0.5), "us"});
    metrics.push_back({"core.tpnn_per_nn_query", Ratio(rs.tpnn_queries, rs.nn_misses), "count"});
    metrics.push_back({"tp.step2_us.p50", P(rs.nn_step2_us, 0.5), "us"});
    metrics.push_back({"tp.node_accesses_per_nn_query", Ratio(rs.tpnn_na, rs.nn_misses), "count"});
    metrics.push_back({"rtree.knn_us.p50", P(rs.knn_us, 0.5), "us"});
    metrics.push_back({"rtree.window_us.p50", P(rs.window_us, 0.5), "us"});
    metrics.push_back({"rtree.knn_node_accesses_per_nn_query", Ratio(rs.knn_na, rs.nn_misses), "count"});
    metrics.push_back({"storage.buffer_hit_rate",
                       Ratio(static_cast<double>(dep->buffer_hits() - hits0),
                             static_cast<double>(dep->node_accesses() - na0)),
                       "ratio"});
    metrics.push_back({"storage.page_reads_per_query",
                       Ratio(static_cast<double>(dep->page_reads() - reads0), served),
                       "count"});
    double fanout = 0.0, boundary_share = 0.0;
    if (dep->sharded) {
      fanout = Ratio(static_cast<double>(dep->sharded->router().fanout_fragments() - ff0),
                     static_cast<double>(dep->sharded->router().fanout_queries() - fq0));
      const double ok = static_cast<double>(dep->sharded->owner_cache_kills() - okills0);
      const double bk = static_cast<double>(dep->sharded->boundary_cache_kills() - bkills0);
      boundary_share = Ratio(bk, ok + bk);
    }
    metrics.push_back({"partition.fanout_per_query", fanout, "count"});
    metrics.push_back({"partition.boundary_kill_share", boundary_share, "ratio"});
    metrics.push_back({"partition.update_us.p50", P(update_us, 0.5), "us"});
    metrics.push_back({"partition.update_us.p99", P(update_us, 0.99), "us"});
    metrics.push_back({"push.update_lag_us.p99", P(update_lag_us, 0.99), "us"});
    metrics.push_back({"loadgen.lag_ms.p99", P(nominal.lag_ms, 0.99), "ms"});
    metrics.push_back({"loadgen.p99_ms", std::isfinite(p99) ? p99 : 0.0, "ms"});
    metrics.push_back({"loadgen.samples", static_cast<double>(nominal.latency_ms.size()),
                       "count"});
    metrics.push_back({"loadgen.error_ratio", error_ratio, "ratio"});
    metrics.push_back({"trace.overhead_ratio", Ratio(traced_p50, p50), "ratio"});
    metrics.push_back({"trace.miss_attributed_share",
                       Ratio(rs.named_child_us, rs.served_miss_us), "ratio"});
    std::printf("traced: %zu queries served (%zu hits, %zu misses), %zu "
                "updates, %zu client/service pairs joined; %s; %s\n",
                queries_served, hit_us.size(), miss_us.size(), updates_applied,
                overhead_us.size(),
                servebench::SampleStatement("service.miss_us p99", miss_us.size(), 0.99).c_str(),
                servebench::SampleStatement("partition.update_us p99", update_us.size(), 0.99).c_str());

    // Spans are kept in memory during the run and written out now.
    const std::string path = args.workdir + "/spans-" + w.name + ".tsv";
    if (FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "# facts %s\n# request\tname\tparent\tstart_us\tend_us\n",
                   FactsJson(w).c_str());
      for (const Span& s : spans) {
        std::fprintf(f, "%llu\t%s\t%d\t%.3f\t%.3f\n",
                     static_cast<unsigned long long>(s.request),
                     kSpanNames[s.name], s.parent, s.start_us, s.end_us);
      }
      std::fclose(f);
      std::printf("spans: %zu written to %s\n", spans.size(), path.c_str());
    }

    // Sustained rate, last and untraced on a fresh server over the same
    // service: the highest offered rate whose step keeps p99 under the
    // limit with the generator on schedule and no backlog. Printed, not
    // gated: on a shared 4-vCPU host its run-to-run spread exceeded any
    // bound the gate allows, and under churn every step's updates also
    // change the index the next step is measured on.
    serving = std::make_unique<Serving>(dep->service);
    load.poster.push = &serving->push();
    load.poster.tracer = nullptr;
    load.Connect(serving->port());
    servebench::RateSearch search(w.nominal_qps, 2.0, 0.05);
    const servebench::StepLimits limits{w.p99_limit_ms, w.lag_bound_ms()};
    // The untraced nominal phase is the search's first step.
    search.Report(w.nominal_qps, servebench::JudgeStep(nominal.Step(), limits) ==
                                     servebench::Verdict::kPass);
    const double budget_end = NowS() + kTracedPartShare * args.seconds;
    for (;;) {
      const double rate = search.NextRate();
      const double step_s = std::max(1.2, 3000.0 / rate);
      if (NowS() + step_s > budget_end) break;
      const PhaseResult ph = load.RunPhase(rate, step_s, drain_s);
      account(ph, false);
      const servebench::StepStats st = ph.Step();
      const servebench::Verdict v = servebench::JudgeStep(st, limits);
      search.Report(rate, v == servebench::Verdict::kPass);
      std::printf("step: %.0f q/s x %.2f s: p99 %.3f ms, lag p99 %.3f ms, "
                  "backlog %zu, %zu samples -> %s\n",
                  rate, step_s, st.p99_ms, st.lag_p99_ms, st.backlog_at_end,
                  st.samples, servebench::VerdictName(v));
    }
    std::printf("sustained_qps (not gated) = %.6g 1/s: %zu steps, %zu of "
                "them at the 5%% stair\n",
                search.estimate(), search.steps(), search.floor_steps());
  }
  load.conns.clear();
  serving.reset();

  const uint64_t failed_updates = load.failed_updates.load();
  failed += failed_updates + verify_failures;
  failed += static_cast<size_t>(bad_replies);
  if (transport_error) failed = std::max<size_t>(failed, 1);
  const bool correct = failed == 0;
  std::printf("verification: %zu sampled replies checked, %zu failed; %llu "
              "bad replies; %llu failed updates%s\n",
              verified, verify_failures,
              static_cast<unsigned long long>(bad_replies),
              static_cast<unsigned long long>(failed_updates),
              transport_error ? "; TRANSPORT ERROR" : "");
  for (const MetricOut& m : metrics) {
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<size_t>(attempted, 1));
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
