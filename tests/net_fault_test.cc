// Deterministic socket-fault harness for the net subsystem: misbehaving
// clients (garbage framing, oversized length fields, half-a-frame then
// stall, mid-frame disconnect, silent idling) hammer a live server while
// a well-behaved client keeps querying with the semantic cache ON. The
// loop must stay up, every reply to the well-behaved client must be
// bit-identical to an in-process replay of the same query sequence, and
// the NetStats counters must account for every connection: by the end,
// accepts == clean_closes + drops with each fault counted under its
// cause.
//
// Determinism argument for the cache-on byte comparison: the semantic
// cache's contents depend only on the order queries reach the engines.
// All valid queries arrive on the single well-behaved connection, whose
// frames the loop processes in FIFO order; the misbehaving clients never
// get a valid request past the codec. So the served cache evolves
// exactly like the in-process replay on an identically built tree.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "cache/semantic_cache.h"
#include "core/server.h"
#include "net/event_loop.h"
#include "net/frame.h"
#include "net/net_client.h"
#include "net/net_server.h"
#include "push/push_scheduler.h"
#include "tests/test_util.h"
#include "workload/datasets.h"
#include "workload/queries.h"

namespace lbsq::net {
namespace {

using test::SmallNodeOptions;
using test::TreeFixture;

const geo::Rect kUnit(0.0, 0.0, 1.0, 1.0);

// A client that speaks raw bytes — the only way to be properly rude.
class RawSocket {
 public:
  ~RawSocket() { Close(); }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      Close();
      return false;
    }
    const int one = 1;
    (void)setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  bool SendAll(const std::vector<uint8_t>& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads until the peer closes; returns everything received.
  std::vector<uint8_t> RecvUntilEof() {
    std::vector<uint8_t> out;
    uint8_t chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      out.insert(out.end(), chunk, chunk + n);
    }
    return out;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  int fd_ = -1;
};

std::vector<uint8_t> OversizedHeader() {
  // A syntactically perfect header whose length field claims ~4 GiB.
  std::vector<uint8_t> bytes = EncodeFrame(FrameType::kPing, 9, {});
  const uint32_t huge = 0xfffffff0;
  std::memcpy(bytes.data() + 8, &huge, sizeof(huge));
  bytes.resize(kFrameHeaderBytes);
  return bytes;
}

TEST(NetFaultTest, LoopSurvivesMisbehavingClientsAndAccountsEveryDrop) {
  // Identical trees for the served and reference servers, cache ON both.
  const auto dataset = workload::MakeUnitUniform(1500, 1201);
  TreeFixture reference_fx(dataset.entries, 64, SmallNodeOptions());
  auto reference = std::make_unique<core::Server>(reference_fx.tree.get(), kUnit);
  TreeFixture served_fx(dataset.entries, 64, SmallNodeOptions());
  auto served = std::make_unique<core::Server>(served_fx.tree.get(), kUnit);
  cache::CacheConfig config;
  config.enabled = true;
  reference->EnableCache(config);
  served->EnableCache(config);

  const auto queries = workload::MakeHotspotQueries(kUnit, 40, 3, 1203, 0.01);
  std::vector<std::vector<uint8_t>> want;
  for (const geo::Point& q : queries) {
    want.push_back(*reference->NnQueryWireShared(q, 4).value());
  }
  ASSERT_GT(reference->cache_stats().hits, 0u) << "workload never hit";

  NetOptions options;
  options.partial_frame_timeout_ms = 150;
  options.idle_timeout_ms = 400;
  options.drain_timeout_ms = 500;
  NetServer net(served.get(), options);
  ASSERT_TRUE(net.Listen().ok());
  const uint16_t port = net.port();
  std::thread serving([&net] { net.Run(); });

  // The well-behaved client: first half of the workload.
  NetClient good;
  ASSERT_TRUE(good.Connect("127.0.0.1", port).ok());
  for (size_t i = 0; i < 20; ++i) {
    const auto answer = good.NnQueryWire(queries[i], 4);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(*answer, want[i]) << "bytes differ at query " << i;
  }

  // Fault 1: pure garbage — the server must reply with a decodable Error
  // frame, then disconnect.
  {
    RawSocket rude;
    ASSERT_TRUE(rude.Connect(port));
    ASSERT_TRUE(rude.SendAll(std::vector<uint8_t>(64, 0xee)));
    const std::vector<uint8_t> reply = rude.RecvUntilEof();
    FrameDecoder decoder;
    decoder.Feed(reply.data(), reply.size());
    Frame frame;
    ASSERT_EQ(decoder.Next(&frame), FrameDecoder::Result::kFrame)
        << "no error frame before disconnect";
    EXPECT_EQ(frame.type, FrameType::kError);
    EXPECT_FALSE(DecodeErrorPayload(frame.payload).ok());
  }

  // Fault 2: oversized length field — rejected on the header alone.
  {
    RawSocket rude;
    ASSERT_TRUE(rude.Connect(port));
    ASSERT_TRUE(rude.SendAll(OversizedHeader()));
    const std::vector<uint8_t> reply = rude.RecvUntilEof();
    EXPECT_GE(reply.size(), kFrameHeaderBytes) << "expected an error frame";
  }

  // Fault 3: mid-frame disconnect — half a header, then gone.
  {
    RawSocket rude;
    ASSERT_TRUE(rude.Connect(port));
    std::vector<uint8_t> half = EncodeFrame(FrameType::kPing, 3, {1, 2, 3});
    half.resize(6);
    ASSERT_TRUE(rude.SendAll(half));
  }  // destructor closes mid-frame

  // Faults 4 and 5 stay open and go silent: a half-frame (slowloris) and
  // a fully idle connection. The deadlines must kill both.
  RawSocket slowloris;
  ASSERT_TRUE(slowloris.Connect(port));
  {
    std::vector<uint8_t> half = EncodeFrame(FrameType::kPing, 4, {1, 2, 3});
    half.resize(6);
    ASSERT_TRUE(slowloris.SendAll(half));
  }
  RawSocket idler;
  ASSERT_TRUE(idler.Connect(port));

  // The loop is still serving: second half of the workload, still
  // bit-identical — the faults never perturbed the cache sequence.
  for (size_t i = 20; i < queries.size(); ++i) {
    const auto answer = good.NnQueryWire(queries[i], 4);
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_EQ(*answer, want[i]) << "bytes differ at query " << i;
  }

  // Wait out the idle deadline (400 ms), pinging so the well-behaved
  // connection stays alive while the two stalled ones die.
  const auto wait_until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1000);
  while (std::chrono::steady_clock::now() < wait_until) {
    ASSERT_TRUE(good.Ping().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
  }
  good.Close();

  net.RequestDrain();
  serving.join();
  const NetStats& stats = net.stats();

  // Every connection is accounted for, each fault under its cause.
  EXPECT_EQ(stats.accepts, 6u);
  EXPECT_EQ(stats.clean_closes, 1u);  // the well-behaved client
  EXPECT_EQ(stats.drops, 5u);
  EXPECT_EQ(stats.clean_closes + stats.drops, stats.accepts);
  EXPECT_EQ(stats.protocol_errors, 2u);         // garbage + oversized
  EXPECT_EQ(stats.partial_frame_timeouts, 1u);  // slowloris
  EXPECT_EQ(stats.idle_timeouts, 1u);           // idler
  EXPECT_EQ(stats.bad_requests, 0u);
  EXPECT_EQ(stats.query_errors, 0u);
  EXPECT_GT(served->cache_stats().hits, 0u);
}

// A subscriber that vanishes mid-push: subscribe with a crossing armed,
// disconnect, then drive the virtual clock far past every crossing the
// subscription could ever schedule. Depending on which the loop sees
// first — the wake or the EOF — the emission either finds the
// subscription already dropped, or queues into a connection that is
// about to close; both must end with the registry empty, every
// emission-side write going to a still-tracked connection (never a dead
// fd), and the close accounted in NetStats. A leaked subscription would
// keep scheduling forever and show up as subscriptions_active != 0.
TEST(NetFaultTest, SubscriberDisconnectMidPushLeaksNoSubscription) {
  const auto dataset = workload::MakeUnitUniform(900, 1301);
  TreeFixture fx(dataset.entries, 64, SmallNodeOptions());
  core::Server served(fx.tree.get(), kUnit);

  push::PushConfig config;
  config.enabled = true;
  config.virtual_clock = true;
  config.push_lead = 0.05;
  NetOptions options;
  options.drain_timeout_ms = 500;
  NetServer net(&served, options);
  push::PushScheduler scheduler(&served, config, net.mutable_stats());
  scheduler.set_wake([&net] { net.Wake(); });
  net.set_subscriptions(&scheduler);
  ASSERT_TRUE(net.Listen().ok());
  std::thread serving([&net] { net.Run(); });

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", net.port()).ok());
  const SubscribeRequest req{
      SubscribeKind::kNn, {0.4, 0.5}, {0.3, 0.1}, 4, 0.0, 0.0, 0.0};
  uint32_t sub_id = 0;
  const auto answer = client.Subscribe(req, &sub_id);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  ASSERT_GT(sub_id, 0u);

  client.Close();
  for (int i = 0; i < 50; ++i) {
    scheduler.AdvanceVirtualTime(1.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  net.RequestDrain();
  serving.join();
  const NetStats& stats = net.stats();
  EXPECT_EQ(stats.accepts, 1u);
  EXPECT_EQ(stats.subscribes_accepted, 1u);
  EXPECT_EQ(stats.subscriptions_active, 0u) << "subscription leaked";
  EXPECT_EQ(stats.subscriptions_closed, 1u);
  EXPECT_EQ(stats.pushes_revoked, stats.subscriptions_revoked);
  EXPECT_EQ(stats.subscribes_accepted,
            stats.subscriptions_active + stats.subscriptions_replaced +
                stats.subscriptions_revoked + stats.subscriptions_closed);
}

}  // namespace
}  // namespace lbsq::net
