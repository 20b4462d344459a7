// Tests of predictive push serving (src/push + the kSubscribe/kPush/
// kRevoke protocol): exit-point prediction on decoded wire answers, the
// subscription registry's caps and refresh rule, the end-to-end push
// pipeline over loopback under a virtual clock, and the central
// differential property from ISSUE/DESIGN.md section 13 — a subscribed
// trajectory client receives a byte-identical answer sequence to a
// pull-only client walking the same path against an identical replica,
// with interleaved inserts and deletes, cache on and cache off.

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/semantic_cache.h"
#include "core/region_exit.h"
#include "core/server.h"
#include "core/wire_format.h"
#include "net/frame.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "push/predictor.h"
#include "push/push_scheduler.h"
#include "push/subscription_registry.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace lbsq::push {
namespace {

using test::SmallNodeOptions;
using test::TreeFixture;

const geo::Rect kUnit(0.0, 0.0, 1.0, 1.0);

// -- Exit-point prediction on decoded answers --------------------------------

struct PredictionFixture {
  explicit PredictionFixture(size_t n = 900, uint64_t seed = 101)
      : dataset(workload::MakeUnitUniform(n, seed)),
        fx(dataset.entries, 64, SmallNodeOptions()),
        server(fx.tree.get(), kUnit) {}

  workload::Dataset dataset;
  TreeFixture fx;
  core::Server server;
};

TEST(RegionExitTest, NnCrossingLeavesRegionExactlyOnce) {
  PredictionFixture fx;
  const geo::Point pos{0.41, 0.52};
  const geo::Vec2 vel{0.35, 0.1};
  const auto bytes = fx.server.NnQueryWireShared(pos, 4);
  ASSERT_TRUE(bytes.ok());
  const auto decoded = core::wire::DecodeNnResult(**bytes);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded->IsValidAt(pos));

  const core::TrajectoryPrediction p = core::PredictExit(*decoded, pos, vel);
  ASSERT_TRUE(p.has_crossing);
  EXPECT_GT(p.exit_time, 0.0);
  // The predicted point is the first point along the ray no longer
  // served by the held answer; a breath before it, the answer held.
  EXPECT_FALSE(decoded->IsValidAt(p.next_query));
  EXPECT_TRUE(decoded->IsValidAt(pos + vel * (p.exit_time * 0.999)));
  EXPECT_TRUE(kUnit.Contains(p.next_query));
}

TEST(RegionExitTest, WindowAndRangeCrossings) {
  PredictionFixture fx;
  const geo::Point pos{0.5, 0.5};
  const geo::Vec2 vel{-0.2, 0.3};

  const auto wbytes = fx.server.WindowQueryWireShared(pos, 0.03, 0.02);
  ASSERT_TRUE(wbytes.ok());
  const auto window = core::wire::DecodeWindowResult(**wbytes);
  ASSERT_TRUE(window.ok());
  const core::TrajectoryPrediction wp =
      core::PredictExit(*window, kUnit, pos, vel);
  ASSERT_TRUE(wp.has_crossing);
  EXPECT_FALSE(window->IsValidAt(wp.next_query));
  EXPECT_TRUE(window->IsValidAt(pos + vel * (wp.exit_time * 0.999)));

  const auto rbytes = fx.server.RangeQueryWireShared(pos, 0.05);
  ASSERT_TRUE(rbytes.ok());
  const auto range = core::wire::DecodeRangeResult(**rbytes);
  ASSERT_TRUE(range.ok());
  const core::TrajectoryPrediction rp =
      core::PredictExit(*range, kUnit, pos, vel);
  ASSERT_TRUE(rp.has_crossing);
  EXPECT_FALSE(range->IsValidAt(rp.next_query));
  EXPECT_TRUE(range->IsValidAt(pos + vel * (rp.exit_time * 0.999)));
}

TEST(RegionExitTest, ZeroVelocityAndOffUniverseTrajectoriesDoNotCross) {
  PredictionFixture fx;
  const geo::Point pos{0.5, 0.5};
  const auto bytes = fx.server.NnQueryWireShared(pos, 2);
  ASSERT_TRUE(bytes.ok());
  const auto decoded = core::wire::DecodeNnResult(**bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(
      core::PredictExit(*decoded, pos, geo::Vec2{0.0, 0.0}).has_crossing);

  // A point near the universe edge heading straight out: the trajectory
  // exits the universe with the region, so there is no next region to
  // push and no crossing is reported.
  const geo::Point edge{0.999, 0.5};
  const auto edge_bytes = fx.server.NnQueryWireShared(edge, 1);
  ASSERT_TRUE(edge_bytes.ok());
  const auto edge_decoded = core::wire::DecodeNnResult(**edge_bytes);
  ASSERT_TRUE(edge_decoded.ok());
  EXPECT_FALSE(
      core::PredictExit(*edge_decoded, edge, geo::Vec2{1.0, 0.0})
          .has_crossing);
}

// The prediction the server acts on and the prediction the client can
// reproduce are the same computation on the same bytes — spelled out
// here as the byte-level idempotence of decode-predict.
TEST(RegionExitTest, PredictionIsBitStableAcrossDecodes) {
  PredictionFixture fx;
  const geo::Point pos{0.3, 0.7};
  const geo::Vec2 vel{0.9, -0.4};
  const auto bytes = fx.server.NnQueryWireShared(pos, 3);
  ASSERT_TRUE(bytes.ok());
  const net::SubscribeRequest query{net::SubscribeKind::kNn, pos, vel, 3,
                                    0.0, 0.0, 0.0};
  const AnswerAnalysis a = AnalyzeAnswer(query, kUnit, **bytes, pos, vel);
  const AnswerAnalysis b = AnalyzeAnswer(query, kUnit, **bytes, pos, vel);
  ASSERT_TRUE(a.ok);
  ASSERT_TRUE(b.ok);
  ASSERT_EQ(a.prediction.has_crossing, b.prediction.has_crossing);
  if (a.prediction.has_crossing) {
    EXPECT_EQ(a.prediction.exit_time, b.prediction.exit_time);
    EXPECT_EQ(a.prediction.next_query.x, b.prediction.next_query.x);
    EXPECT_EQ(a.prediction.next_query.y, b.prediction.next_query.y);
  }
}

// -- Subscription registry ---------------------------------------------------

TEST(SubscriptionRegistryTest, CapsAndRefresh) {
  PushConfig config;
  config.max_subscriptions = 3;
  config.max_per_connection = 2;
  SubscriptionRegistry registry(config);

  net::SubscribeRequest nn{net::SubscribeKind::kNn, {0.5, 0.5}, {1.0, 0.0},
                           2,  0.0, 0.0, 0.0};
  net::SubscribeRequest range{net::SubscribeKind::kRange, {0.5, 0.5},
                              {1.0, 0.0}, 1, 0.0, 0.0, 0.05};
  bool replaced = false;

  Subscription* a = registry.Add(1, 10, nn, nullptr, &replaced);
  ASSERT_NE(a, nullptr);
  EXPECT_FALSE(replaced);
  Subscription* b = registry.Add(1, 11, range, nullptr, &replaced);
  ASSERT_NE(b, nullptr);
  // Per-connection cap: a third distinct query on connection 1 is
  // refused...
  net::SubscribeRequest window{net::SubscribeKind::kWindow, {0.5, 0.5},
                               {1.0, 0.0}, 1, 0.01, 0.01, 0.0};
  EXPECT_EQ(registry.Add(1, 12, window, nullptr, &replaced), nullptr);
  // ...but re-subscribing an existing query refreshes in place, beyond
  // any cap, with the new position and a bumped generation.
  nn.position = {0.6, 0.5};
  const uint64_t gen_before = a->generation;
  Subscription* a2 = registry.Add(1, 13, nn, nullptr, &replaced);
  EXPECT_EQ(a2, a);
  EXPECT_TRUE(replaced);
  EXPECT_EQ(a2->id, 13u);
  EXPECT_EQ(a2->position.x, 0.6);
  EXPECT_GT(a2->generation, gen_before);
  EXPECT_EQ(registry.size(), 2u);

  // Global cap: connection 2 gets one, connection 3 is refused.
  ASSERT_NE(registry.Add(2, 20, nn, nullptr, &replaced), nullptr);
  EXPECT_EQ(registry.Add(3, 30, nn, nullptr, &replaced), nullptr);

  EXPECT_EQ(registry.DropConnection(1), 2u);
  EXPECT_EQ(registry.size(), 1u);
  // Connection 1's slots are free again.
  ASSERT_NE(registry.Add(1, 14, nn, nullptr, &replaced), nullptr);
  EXPECT_FALSE(replaced);
}

// -- Loopback push serving ---------------------------------------------------

// A NetServer with an attached PushScheduler on its own thread, driven
// by the scheduler's virtual clock so push timing is deterministic.
class PushHarness {
 public:
  PushHarness(core::WireService* service, const PushConfig& config)
      : net_(service, net::NetOptions{}),
        scheduler_(service, config, net_.mutable_stats()) {
    scheduler_.set_wake([this] { net_.Wake(); });
    net_.set_subscriptions(&scheduler_);
  }

  ~PushHarness() {
    if (thread_.joinable()) {
      net_.RequestStop();
      thread_.join();
    }
  }

  [[nodiscard]] Status Start() {
    Status status = net_.Listen();
    if (!status.ok()) return status;
    thread_ = std::thread([this] { net_.Run(); });
    return Status::Ok();
  }

  uint16_t port() const { return net_.port(); }
  PushScheduler* scheduler() { return &scheduler_; }

  net::NetStats Finish(bool drain = true) {
    if (drain) {
      net_.RequestDrain();
    } else {
      net_.RequestStop();
    }
    thread_.join();
    return net_.stats();
  }

 private:
  net::NetServer net_;
  PushScheduler scheduler_;
  std::thread thread_;
};

PushConfig VirtualClockConfig() {
  PushConfig config;
  config.virtual_clock = true;
  config.push_lead = 0.05;
  return config;
}

TEST(PushServingTest, SubscribeAnswersLikeAPullAndPushesTheNextRegion) {
  PredictionFixture fx;
  // Expected bytes come from an identical replica: the served server
  // belongs to the loop thread once the harness starts, and in-process
  // queries against it would race the emission path.
  TreeFixture reference_fx(fx.dataset.entries, 64, SmallNodeOptions());
  core::Server reference(reference_fx.tree.get(), kUnit);
  PushHarness harness(&fx.server, VirtualClockConfig());
  ASSERT_TRUE(harness.Start().ok());
  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());

  const net::SubscribeRequest req{net::SubscribeKind::kNn,
                                  {0.42, 0.37},
                                  {0.5, 0.25},
                                  3,
                                  0.0,
                                  0.0,
                                  0.0};
  uint32_t sub_id = 0;
  const auto answer = client.Subscribe(req, &sub_id);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_NE(sub_id, 0u);
  // The subscribe's synchronous answer is exactly a pull's answer.
  EXPECT_EQ(*answer, *reference.NnQueryWireShared(req.position, req.k).value());

  // The client reproduces the server's prediction from the bytes alone.
  const AnswerAnalysis analysis =
      AnalyzeAnswer(req, kUnit, *answer, req.position, req.velocity);
  ASSERT_TRUE(analysis.ok);
  ASSERT_TRUE(analysis.prediction.has_crossing);

  // Cross: the push must arrive, carry the subscription id, name the
  // predicted crossing point bit-for-bit, and hold the bytes a pull at
  // that point would return.
  harness.scheduler()->AdvanceVirtualTime(analysis.prediction.exit_time +
                                          1e-9);
  const auto push = client.WaitPush(5000);
  ASSERT_TRUE(push.ok()) << push.status().ToString();
  ASSERT_EQ(push->type, net::FrameType::kPush);
  EXPECT_EQ(push->request_id, sub_id);
  const auto envelope = net::DecodePushEnvelope(push->payload);
  ASSERT_TRUE(envelope.ok());
  EXPECT_EQ(envelope->at.x, analysis.prediction.next_query.x);
  EXPECT_EQ(envelope->at.y, analysis.prediction.next_query.y);
  EXPECT_EQ(envelope->answer,
            *reference.NnQueryWireShared(envelope->at, req.k).value());

  client.Close();
  const net::NetStats stats = harness.Finish();
  EXPECT_EQ(stats.subscribes_accepted, 1u);
  EXPECT_GE(stats.pushes_sent, 1u);
  EXPECT_EQ(stats.subscriptions_active, 0u);
  EXPECT_EQ(stats.subscriptions_closed, 1u);
  EXPECT_EQ(stats.pushes_revoked, stats.subscriptions_revoked);
  EXPECT_EQ(stats.subscribes_accepted,
            stats.subscriptions_active + stats.subscriptions_replaced +
                stats.subscriptions_revoked + stats.subscriptions_closed);
}

TEST(PushServingTest, UpdateKillingAnIdleRegionRevokes) {
  PredictionFixture fx;
  PushHarness harness(&fx.server, VirtualClockConfig());
  ASSERT_TRUE(harness.Start().ok());
  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());

  // Zero velocity: the subscription parks as kIdle — churn liability
  // only.
  const geo::Point pos{0.55, 0.61};
  const net::SubscribeRequest req{net::SubscribeKind::kNn, pos,
                                  {0.0, 0.0},  1,   0.0, 0.0, 0.0};
  uint32_t sub_id = 0;
  const auto answer = client.Subscribe(req, &sub_id);
  ASSERT_TRUE(answer.ok());
  const auto decoded = core::wire::DecodeNnResult(*answer);
  ASSERT_TRUE(decoded.ok());
  ASSERT_FALSE(decoded->answers().empty());

  // Delete the subscriber's nearest neighbor: the held region dies, and
  // with no crossing ever coming, the server must revoke.
  const rtree::DataEntry victim = decoded->answers()[0].entry;
  core::Server* server = &fx.server;
  harness.scheduler()->PostUpdate(
      victim.point, cache::UpdateKind::kDelete,
      [server, victim] {
        ASSERT_TRUE(server->Delete(victim.point, victim.id));
      });

  const auto revoke = client.WaitPush(5000);
  ASSERT_TRUE(revoke.ok()) << revoke.status().ToString();
  ASSERT_EQ(revoke->type, net::FrameType::kRevoke);
  EXPECT_EQ(revoke->request_id, sub_id);
  const auto notice = net::DecodeRevokeNotice(revoke->payload);
  ASSERT_TRUE(notice.ok());
  EXPECT_EQ(notice->reason, net::RevokeReason::kRegionKilled);
  // The client falls back to a pull, which reflects the delete.
  const auto repull = client.NnQueryWire(pos, 1);
  ASSERT_TRUE(repull.ok());
  const auto redecoded = core::wire::DecodeNnResult(*repull);
  ASSERT_TRUE(redecoded.ok());
  EXPECT_FALSE(redecoded->answers()[0].entry.id == victim.id);

  client.Close();
  const net::NetStats stats = harness.Finish();
  EXPECT_EQ(stats.subscriptions_revoked, 1u);
  EXPECT_EQ(stats.pushes_revoked, 1u);
  EXPECT_EQ(stats.subscriptions_active, 0u);
  EXPECT_EQ(stats.subscribes_accepted,
            stats.subscriptions_active + stats.subscriptions_replaced +
                stats.subscriptions_revoked + stats.subscriptions_closed);
}

TEST(PushServingTest, CapsRejectPerRequestAndConnectionSurvives) {
  PredictionFixture fx;
  PushConfig config = VirtualClockConfig();
  config.max_per_connection = 1;
  PushHarness harness(&fx.server, config);
  ASSERT_TRUE(harness.Start().ok());
  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());

  net::SubscribeRequest nn{net::SubscribeKind::kNn, {0.4, 0.4}, {0.0, 0.0},
                           2,  0.0, 0.0, 0.0};
  ASSERT_TRUE(client.Subscribe(nn).ok());
  // A second, different query trips the per-connection cap — as a
  // per-request error, not a connection failure.
  const net::SubscribeRequest range{net::SubscribeKind::kRange, {0.4, 0.4},
                                    {0.0, 0.0}, 1, 0.0, 0.0, 0.03};
  const auto refused = client.Subscribe(range);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnavailable);
  // Re-subscribing the same query is a refresh, never capped.
  nn.position = {0.45, 0.4};
  EXPECT_TRUE(client.Subscribe(nn).ok());
  EXPECT_TRUE(client.Ping().ok());

  client.Close();
  const net::NetStats stats = harness.Finish();
  EXPECT_EQ(stats.subscribes_accepted, 2u);
  EXPECT_EQ(stats.subscriptions_replaced, 1u);
  EXPECT_EQ(stats.subscriptions_closed, 1u);
  EXPECT_EQ(stats.subscribes_accepted,
            stats.subscriptions_active + stats.subscriptions_replaced +
                stats.subscriptions_revoked + stats.subscriptions_closed);
}

// -- The differential property -----------------------------------------------

// Walks one subscribed client along random-waypoint trajectory segments
// with interleaved inserts and deletes, and checks every answer the
// client holds — the subscribe answer, the pushed answer it adopts at
// each crossing, and the corrective re-push after a killing delete —
// against a pull at the same point from an identical replica dataset
// receiving the same updates at the same sequence positions. Byte
// identity throughout is the prediction-soundness argument of DESIGN.md
// section 13 made executable.
//
// The client follows the protocol's adoption rule: the answer for the
// upcoming crossing is the LAST push received for that crossing point
// (correctives supersede earlier pushes; a crossing closer than the
// push lead is emitted immediately, so one crossing can legitimately
// see several pushes). Pushes for crossing points of an abandoned
// trajectory — emitted just before a turn's re-subscribe — are
// discarded, exactly as a real client would drop regions it will never
// enter. Every phase is fenced with a sync ping so the inbox is
// deterministic when drained.
// Drains every push currently fenced into the client's inbox and keeps
// the answer of the last one addressed to `at` — the adoption rule.
// Pushes for other points (regions of an abandoned trajectory) are
// dropped. Returns false when no push for `at` had arrived.
bool DrainLatestPushFor(net::NetClient* client, const geo::Point& at,
                        std::vector<uint8_t>* answer) {
  bool found = false;
  net::NetClient::Reply reply;
  while (client->TakePush(&reply)) {
    EXPECT_EQ(reply.type, net::FrameType::kPush);
    if (reply.type != net::FrameType::kPush) continue;
    auto envelope = net::DecodePushEnvelope(reply.payload);
    EXPECT_TRUE(envelope.ok());
    if (!envelope.ok()) continue;
    if (envelope->at.x != at.x || envelope->at.y != at.y) continue;
    *answer = std::move(envelope->answer);
    found = true;
  }
  return found;
}

void RunTrajectoryDifferential(bool cache_enabled) {
  const auto dataset = workload::MakeUnitUniform(1100, 977);
  TreeFixture served_fx(dataset.entries, 64, SmallNodeOptions());
  core::Server served(served_fx.tree.get(), kUnit);
  TreeFixture reference_fx(dataset.entries, 64, SmallNodeOptions());
  core::Server reference(reference_fx.tree.get(), kUnit);
  if (cache_enabled) {
    cache::CacheConfig config;
    config.enabled = true;
    served.EnableCache(config);
    reference.EnableCache(config);
  }

  PushHarness harness(&served, VirtualClockConfig());
  ASSERT_TRUE(harness.Start().ok());
  net::NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.port()).ok());

  const auto waypoints =
      workload::MakeRandomWaypointTrajectory(dataset, 16, 0.05, 979);
  ASSERT_GE(waypoints.size(), 9u);
  core::Server* served_server = &served;
  PushScheduler* scheduler = harness.scheduler();

  double mirror = 0.0;  // exact mirror of the scheduler's virtual clock
  rtree::ObjectId next_id = 500'000;
  size_t crossings_checked = 0;

  // Three trajectory segments; re-subscribing at each segment start is
  // the client "turning" (registry refresh in place).
  for (size_t seg = 0; seg < 3; ++seg) {
    const geo::Point p0 = waypoints[seg * 3];
    const geo::Point toward = waypoints[seg * 3 + 1];
    geo::Vec2 vel = (toward - p0) * 4.0;
    if (vel.SquaredNorm() == 0.0) vel = geo::Vec2{0.5, 0.25};
    net::SubscribeRequest req{net::SubscribeKind::kNn, p0, vel, 4,
                              0.0,  0.0, 0.0};

    const auto subscribed = client.Subscribe(req);
    ASSERT_TRUE(subscribed.ok()) << subscribed.status().ToString();
    ASSERT_EQ(*subscribed, *reference.NnQueryWireShared(p0, req.k).value())
        << "subscribe answer diverged at segment " << seg;

    std::vector<uint8_t> held = *subscribed;
    geo::Point pos = p0;
    double base = mirror;  // server stamped crossing_time from this base

    for (size_t crossing = 0; crossing < 2; ++crossing) {
      const AnswerAnalysis analysis =
          AnalyzeAnswer(req, kUnit, held, pos, vel);
      ASSERT_TRUE(analysis.ok);
      if (!analysis.prediction.has_crossing) break;
      const double t_cross = base + analysis.prediction.exit_time;
      const geo::Point at = analysis.prediction.next_query;

      // An update lands before the crossing's answer is final. If the
      // push is still pending (crossing further out than the lead) the
      // emission will see it; if it already went out, the liability
      // scan re-pushes when the insert lands in the shipped footprint —
      // and when it does not, the kill-footprint argument says the
      // shipped bytes are unaffected. Either way the last push must
      // equal a fresh pull. (Both replicas mutate at the same sequence
      // position; the served side mutates on the loop thread via
      // PostUpdate, and the sync ping fences the update before
      // anything sent after it.)
      const geo::Point armed_insert{
          std::min(0.999, std::abs(at.x)),
          std::min(0.999, std::abs(at.y) * 0.5 + 0.25)};
      const rtree::ObjectId armed_id = next_id++;
      scheduler->PostUpdate(
          armed_insert, cache::UpdateKind::kInsert,
          [served_server, armed_insert, armed_id] {
            served_server->Insert(armed_insert, armed_id);
          });
      ASSERT_TRUE(client.Ping().ok());
      reference.Insert(armed_insert, armed_id);

      // Step the clock into the lead window (a no-op when the crossing
      // is nearer than the lead and the push already went out), then
      // fence the emission tick.
      const double lead_target = t_cross - 0.05 + 1e-9;
      if (lead_target > mirror) {
        scheduler->AdvanceVirtualTime(lead_target - mirror);
        mirror += lead_target - mirror;
      }
      ASSERT_TRUE(client.Ping().ok());
      std::vector<uint8_t> pushed;
      ASSERT_TRUE(DrainLatestPushFor(&client, at, &pushed))
          << "no push for the crossing at segment " << seg << " crossing "
          << crossing;
      ASSERT_EQ(pushed, *reference.NnQueryWireShared(at, req.k).value())
          << "pushed answer diverged at segment " << seg << " crossing "
          << crossing;

      // Now an update that kills the in-flight answer: delete one of
      // its result points. The server is still liable for the shipped
      // bytes, so a corrective re-push must arrive — fenced before the
      // sync ping's pong.
      const auto pushed_decoded = core::wire::DecodeNnResult(pushed);
      ASSERT_TRUE(pushed_decoded.ok());
      ASSERT_FALSE(pushed_decoded->answers().empty());
      const rtree::DataEntry victim = pushed_decoded->answers()[0].entry;
      scheduler->PostUpdate(
          victim.point, cache::UpdateKind::kDelete,
          [served_server, victim] {
            EXPECT_TRUE(served_server->Delete(victim.point, victim.id));
          });
      ASSERT_TRUE(client.Ping().ok());
      ASSERT_TRUE(reference.Delete(victim.point, victim.id));

      std::vector<uint8_t> corrective;
      ASSERT_TRUE(DrainLatestPushFor(&client, at, &corrective))
          << "no corrective push for a killed in-flight answer";
      ASSERT_EQ(corrective, *reference.NnQueryWireShared(at, req.k).value())
          << "corrective answer diverged at segment " << seg << " crossing "
          << crossing;

      // Cross. The server adopts the bytes of its last push — the same
      // bytes the client keeps — and re-arms from the stored crossing
      // time, so the chain stays on the ideal trajectory. The ping
      // fences the adoption tick before the next crossing's update can
      // race it.
      scheduler->AdvanceVirtualTime(t_cross + 1e-9 - mirror);
      mirror += t_cross + 1e-9 - mirror;
      ASSERT_TRUE(client.Ping().ok());
      held = corrective;
      pos = at;
      base = t_cross;
      ++crossings_checked;
    }
  }
  ASSERT_GE(crossings_checked, 4u) << "trajectory exercised too few crossings";

  client.Close();
  const net::NetStats stats = harness.Finish();
  EXPECT_EQ(stats.subscribes_accepted, 3u);
  EXPECT_EQ(stats.subscriptions_replaced, 2u);
  EXPECT_GE(stats.pushes_corrective, crossings_checked);
  EXPECT_EQ(stats.pushes_revoked, stats.subscriptions_revoked);
  EXPECT_EQ(stats.subscribes_accepted,
            stats.subscriptions_active + stats.subscriptions_replaced +
                stats.subscriptions_revoked + stats.subscriptions_closed);
  if (cache_enabled) {
    EXPECT_GT(served.cache_stats().lookups, 0u);
  }
}

TEST(PushDifferentialTest, TrajectoryMatchesPullOnlyCacheOff) {
  RunTrajectoryDifferential(/*cache_enabled=*/false);
}

TEST(PushDifferentialTest, TrajectoryMatchesPullOnlyCacheOn) {
  RunTrajectoryDifferential(/*cache_enabled=*/true);
}

}  // namespace
}  // namespace lbsq::push
