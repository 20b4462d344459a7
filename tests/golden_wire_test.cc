#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/semantic_cache.h"
#include "common/status.h"
#include "core/server.h"
#include "core/wire_service.h"
#include "geometry/point.h"
#include "geometry/rect.h"
#include "net/frame.h"
#include "partition/partitioned_server.h"
#include "rtree/rtree.h"
#include "tests/test_util.h"

// The frozen wire oracle. Every other differential compares the serving
// path against a twin built from the same engines, so a change to the
// engines or the encoder drifts both sides together; this test compares
// against bytes committed to tests/golden/wire_corpus.txt instead.
//
// One fixed dataset, one fixed query stream (kNN with k = 1 and k = 10,
// windows and ranges around a few hotspots, so the cache hits) and one
// fixed interleaved insert/delete churn script are replayed through each
// serving configuration. The corpus holds the 64-bit FNV-1a hash of
// every reply's wire bytes, the hash of the INFO reply at the end of the
// run, and full hex dumps of the first reply of each kind.
//
// A mismatch prints the line this build produced. There is no switch to
// rewrite the corpus: changing it is a deliberate wire change, made by
// hand and recorded in CHANGES.md.

namespace lbsq {
namespace {

const geo::Rect kUnit(0.0, 0.0, 1.0, 1.0);
constexpr size_t kPoints = 3000;
constexpr size_t kQueries = 400;
constexpr size_t kHotspots = 8;
constexpr size_t kQueriesPerUpdate = 4;
constexpr double kJitter = 0.01;
constexpr double kHalfExtent = 0.02;
constexpr double kRadius = 0.02;

// SplitMix64: the corpus depends on no generator outside this file.
struct SplitMix {
  uint64_t state;
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
};

uint64_t Fnv1a(const std::vector<uint8_t>& bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Hex(const std::vector<uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xf]);
  }
  return out;
}

std::string Hash(uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// One step of the fixed script: a query of one of four kinds, or an
// update.
struct Step {
  enum class Kind { kNn1, kNn10, kWindow, kRange, kInsert, kDelete };
  Kind kind;
  geo::Point p;
  rtree::ObjectId id = 0;
};

const char* KindName(Step::Kind kind) {
  switch (kind) {
    case Step::Kind::kNn1: return "nn1";
    case Step::Kind::kNn10: return "nn10";
    case Step::Kind::kWindow: return "window";
    case Step::Kind::kRange: return "range";
    default: return "update";
  }
}

struct Script {
  std::vector<rtree::DataEntry> entries;
  std::vector<Step> steps;
};

Script MakeScript() {
  SplitMix rng{20031};
  Script s;
  s.entries.reserve(kPoints);
  for (size_t i = 0; i < kPoints; ++i) {
    const double x = rng.Unit();
    const double y = rng.Unit();
    s.entries.push_back({{x, y}, static_cast<rtree::ObjectId>(i)});
  }
  std::vector<geo::Point> hotspots;
  for (size_t h = 0; h < kHotspots; ++h) {
    hotspots.push_back({0.1 + 0.8 * rng.Unit(), 0.1 + 0.8 * rng.Unit()});
  }
  auto near = [&](const geo::Point& c) {
    return geo::Point{c.x + kJitter * (2.0 * rng.Unit() - 1.0),
                      c.y + kJitter * (2.0 * rng.Unit() - 1.0)};
  };
  size_t updates = 0;
  for (size_t i = 0; i < kQueries; ++i) {
    const Step::Kind kinds[] = {Step::Kind::kNn1, Step::Kind::kNn10,
                                Step::Kind::kWindow, Step::Kind::kRange};
    s.steps.push_back({kinds[i % 4], near(hotspots[rng.Next() % kHotspots])});
    if ((i + 1) % kQueriesPerUpdate != 0) continue;
    // Alternate: insert a fresh point near a hotspot, then delete an
    // original point (397 is coprime to kPoints, so no point is deleted
    // twice).
    if (updates % 2 == 0) {
      s.steps.push_back({Step::Kind::kInsert,
                         near(hotspots[rng.Next() % kHotspots]),
                         static_cast<rtree::ObjectId>(kPoints + updates)});
    } else {
      const rtree::DataEntry& victim = s.entries[(updates * 397) % kPoints];
      s.steps.push_back({Step::Kind::kDelete, victim.point, victim.id});
    }
    ++updates;
  }
  return s;
}

// Replays the script through `server`, applying updates through its
// Insert/Delete; returns the corpus lines the run produces.
std::vector<std::string> Replay(const std::string& config,
                                core::Server& server, bool with_dumps) {
  const Script script = MakeScript();
  std::vector<std::string> lines;
  bool dumped[4] = {false, false, false, false};
  size_t query = 0;
  for (const Step& step : script.steps) {
    StatusOr<core::WireService::WireBytes> reply;
    switch (step.kind) {
      case Step::Kind::kInsert:
        server.Insert(step.p, step.id);
        continue;
      case Step::Kind::kDelete:
        EXPECT_TRUE(server.Delete(step.p, step.id))
            << config << " delete " << step.id;
        continue;
      case Step::Kind::kNn1:
        reply = server.NnQueryWireShared(step.p, 1);
        break;
      case Step::Kind::kNn10:
        reply = server.NnQueryWireShared(step.p, 10);
        break;
      case Step::Kind::kWindow:
        reply = server.WindowQueryWireShared(step.p, kHalfExtent, kHalfExtent);
        break;
      case Step::Kind::kRange:
        reply = server.RangeQueryWireShared(step.p, kRadius);
        break;
    }
    const std::string prefix = config + " " + std::to_string(query) + " " +
                               KindName(step.kind) + " ";
    ++query;
    if (!reply.ok()) {
      lines.push_back("hash " + prefix + "error:" + reply.status().ToString());
      continue;
    }
    const std::vector<uint8_t>& bytes = **reply;
    lines.push_back("hash " + prefix + Hash(Fnv1a(bytes)));
    const size_t kind_index = static_cast<size_t>(step.kind);
    if (with_dumps && !dumped[kind_index]) {
      dumped[kind_index] = true;
      lines.push_back("dump " + prefix + Hex(bytes));
    }
  }
  lines.push_back("info " + config + " " +
                  Hash(Fnv1a(net::EncodeServerInfo(server.info()))));
  return lines;
}

std::vector<std::string> RunServer(bool cache_on) {
  const Script script = MakeScript();
  test::TreeFixture fx(script.entries, 64);
  core::Server server(fx.tree.get(), kUnit);
  if (cache_on) server.EnableCache(cache::CacheConfig{});
  return Replay(cache_on ? "server_cache" : "server_nocache", server,
                /*with_dumps=*/!cache_on);
}

std::vector<std::string> RunPartitioned(size_t fragments) {
  const Script script = MakeScript();
  partition::PartitionedServerOptions options;
  options.fragments = fragments;
  partition::PartitionedServer server(script.entries, kUnit, options);
  server.EnableCache(cache::CacheConfig{});
  return Replay("partitioned_k" + std::to_string(fragments), server,
                /*with_dumps=*/false);
}

// The corpus lines of one configuration (comments and blank lines
// skipped), in file order.
std::vector<std::string> CorpusLines(const std::string& config) {
  std::ifstream in(LBSQ_GOLDEN_CORPUS);
  EXPECT_TRUE(in.good()) << "cannot open " << LBSQ_GOLDEN_CORPUS;
  std::vector<std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.find(' ');
    if (line.compare(space + 1, config.size() + 1, config + " ") == 0) {
      out.push_back(line);
    }
  }
  return out;
}

void ExpectMatchesCorpus(const std::string& config,
                         const std::vector<std::string>& actual) {
  const std::vector<std::string> expected = CorpusLines(config);
  EXPECT_EQ(actual.size(), expected.size()) << config << " line count";
  for (size_t i = 0; i < std::max(actual.size(), expected.size()); ++i) {
    const std::string& want = i < expected.size() ? expected[i] : "<none>";
    const std::string& got = i < actual.size() ? actual[i] : "<none>";
    if (want != got) {
      ADD_FAILURE() << "corpus mismatch\n  expected: " << want
                    << "\n  actual:   " << got;
    }
  }
}

TEST(GoldenWireTest, ServerCacheOff) {
  ExpectMatchesCorpus("server_nocache", RunServer(false));
}

TEST(GoldenWireTest, ServerCacheOn) {
  ExpectMatchesCorpus("server_cache", RunServer(true));
}

TEST(GoldenWireTest, PartitionedK1CacheOn) {
  ExpectMatchesCorpus("partitioned_k1", RunPartitioned(1));
}

TEST(GoldenWireTest, PartitionedK4CacheOn) {
  ExpectMatchesCorpus("partitioned_k4", RunPartitioned(4));
}

}  // namespace
}  // namespace lbsq
