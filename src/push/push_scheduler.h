#ifndef LBSQ_PUSH_PUSH_SCHEDULER_H_
#define LBSQ_PUSH_PUSH_SCHEDULER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <vector>

#include "common/annotations.h"
#include "core/wire_service.h"
#include "geometry/point.h"
#include "net/net_server.h"
#include "net/net_stats.h"
#include "push/subscription_registry.h"

// The push scheduler: the net::SubscriptionHandler that turns trajectory
// subscriptions into unsolicited kPush frames (DESIGN.md section 13).
//
// Per subscription it runs the kArmed -> kPushed -> adopt cycle of
// subscription_registry.h: analyze the answer the client holds (the
// decoded wire bytes — see push/predictor.h for why that is what makes
// pushes byte-identical to pulls), schedule the emission at
// crossing_time - push_lead, emit the adjacent region's answer through
// the subscriber's ReplySink, and at crossing_time adopt the pushed
// answer as current and re-arm from the crossing point. Chaining uses
// the *stored* crossing time as the next base, so predicted crossings
// track the ideal trajectory exactly instead of accumulating timer
// jitter.
//
// Dataset churn enters through PostUpdate: any thread enqueues the
// update point plus a closure that applies the mutation; the loop thread
// runs the closure and then the liability scan (corrective pushes and
// revokes) inside OnTick, before any frame received after the wake is
// read. That ordering is what makes the differential test deterministic:
// a client that posts an update and then pings is guaranteed the
// corrective push precedes the pong in its frame stream.
//
// Threading: Subscribe / OnTick / OnConnectionClose run on the loop
// thread. PostUpdate and AdvanceVirtualTime are the thread-safe inlets;
// both end by waking the loop. This file is an event-loop surface for
// lbsq_lint: nothing here may block or sleep.

namespace lbsq::push {

class PushScheduler : public net::SubscriptionHandler {
 public:
  PushScheduler(core::WireService* service, const PushConfig& config,
                net::NetStats* stats);

  PushScheduler(const PushScheduler&) = delete;
  PushScheduler& operator=(const PushScheduler&) = delete;

  // Wired by the owner to EventLoop::Wake (via NetServer::Wake) before
  // the loop runs; PostUpdate/AdvanceVirtualTime call it.
  void set_wake(std::function<void()> wake) { wake_ = std::move(wake); }

  // net::SubscriptionHandler (loop thread).
  [[nodiscard]] StatusOr<core::WireService::WireBytes> Subscribe(
      uint64_t connection_id, uint32_t request_id,
      const net::SubscribeRequest& request, net::ReplySink* reply) override;
  void OnConnectionClose(uint64_t connection_id) override;
  int OnTick() override;

  // Thread-safe: queues a dataset update. The loop thread runs `apply`
  // (the update itself, through core::Server::Insert/Delete, which also
  // kills the cache entries — single-writer discipline: only the serving
  // thread ever mutates the dataset) and then scans subscriptions whose
  // held or pushed region the update at `point` could have killed.
  void PostUpdate(const geo::Point& point, cache::UpdateKind kind,
                  std::function<void()> apply);

  // Thread-safe; only meaningful with PushConfig::virtual_clock. Moves
  // the scheduler clock forward and wakes the loop so due pushes fire.
  void AdvanceVirtualTime(double seconds);

  // Loop-thread-only (or quiescent) telemetry for benches/tests.
  uint64_t push_cache_hits() const { return push_cache_hits_; }
  uint64_t push_queries() const { return push_queries_; }

 private:
  struct DueEvent {
    double due;
    uint64_t handle;
    uint64_t generation;  // stale if != subscription's current generation
    bool operator>(const DueEvent& other) const { return due > other.due; }
  };
  struct PostedUpdate {
    geo::Point point;
    cache::UpdateKind kind;
    std::function<void()> apply;
  };

  double Now() const;
  void Schedule(Subscription* sub, double due);
  // Runs the full engine query for a subscription kind at `q`, counting
  // cache-vs-fresh telemetry.
  StatusOr<core::WireService::WireBytes> QueryAt(
      const net::SubscribeRequest& query, const geo::Point& q);
  // Emits the kPush of the region at sub->next_query (kArmed -> kPushed;
  // also the corrective re-push path while kPushed).
  void Emit(Subscription* sub, bool corrective);
  // crossing_time passed: the pushed answer becomes current; re-arm or
  // go idle from the crossing point.
  void Adopt(Subscription* sub);
  // Sends kRevoke and removes the subscription.
  void Revoke(Subscription* sub, net::RevokeReason reason);
  void ApplyPostedUpdates();
  void ScanUpdate(const PostedUpdate& update);

  core::WireService* service_ LBSQ_EXCLUDED(const_after_init);
  PushConfig config_ LBSQ_EXCLUDED(const_after_init);
  net::NetStats* stats_ LBSQ_EXCLUDED(loop_thread_only);
  std::function<void()> wake_ LBSQ_EXCLUDED(const_after_init);

  SubscriptionRegistry registry_ LBSQ_EXCLUDED(loop_thread_only);
  std::priority_queue<DueEvent, std::vector<DueEvent>, std::greater<DueEvent>>
      due_ LBSQ_EXCLUDED(loop_thread_only);

  std::chrono::steady_clock::time_point epoch_ LBSQ_EXCLUDED(const_after_init);

  mutable std::mutex mutex_;
  double virtual_now_ LBSQ_GUARDED_BY(mutex_) = 0.0;
  std::vector<PostedUpdate> posted_ LBSQ_GUARDED_BY(mutex_);

  uint64_t push_queries_ LBSQ_EXCLUDED(loop_thread_only) = 0;
  uint64_t push_cache_hits_ LBSQ_EXCLUDED(loop_thread_only) = 0;
};

}  // namespace lbsq::push

#endif  // LBSQ_PUSH_PUSH_SCHEDULER_H_
