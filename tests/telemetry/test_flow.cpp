// Flow-accounting unit tests: flow-key extraction (including a seeded
// fuzz over hostile name bytes), Count-Min error bounds, Space-Saving
// top-k determinism, the wait-free per-link counters and their
// trailing-window utilization, and the FlowAccountant's attribution /
// staged-transfer ledgers plus its Prometheus export.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.hpp"
#include "telemetry/flow.hpp"

namespace lidc::telemetry {
namespace {

std::vector<std::string_view> views(const std::vector<std::string>& parts) {
  return std::vector<std::string_view>(parts.begin(), parts.end());
}

TEST(FlowKeyTest, ToStringRoundTrips) {
  FlowKey key;
  key.group = "data";
  key.tenant = "acme";
  key.tag = "wf/align-7";
  EXPECT_EQ(key.toString(), "data|acme|wf/align-7");
  EXPECT_EQ(FlowKey::fromString(key.toString()), key);

  // Missing fields come back as "-".
  EXPECT_EQ(FlowKey::fromString("data"), (FlowKey{"data", "-", "-"}));
  EXPECT_EQ(FlowKey::fromString("data|acme"), (FlowKey{"data", "acme", "-"}));
}

TEST(FlowKeyTest, SanitizeKeepsSafeCharsAndCapsLength) {
  EXPECT_EQ(sanitizeFlowComponent(""), "-");
  EXPECT_EQ(sanitizeFlowComponent("wf/align-7.v2"), "wf/align-7.v2");
  EXPECT_EQ(sanitizeFlowComponent("a|b\"c\nd"), "a_b_c_d");
  const std::string longName(kMaxFlowComponent * 3, 'x');
  EXPECT_EQ(sanitizeFlowComponent(longName).size(), kMaxFlowComponent);
}

TEST(FlowKeyTest, ExtractsGroupTenantAndTag) {
  // Label wins for tenant; tag only ever comes from the label.
  FlowLabel label{"acme", "wf/genome"};
  FlowKey key = extractFlowKey(
      views({"ndn", "k8s", "data", "sra", "SRR123"}), label);
  EXPECT_EQ(key, (FlowKey{"data", "acme", "wf/genome"}));

  // Unlabeled submit names fall back to the in-name tenant component.
  key = extractFlowKey(views({"ndn", "k8s", "submit", "noisy", "app=BLAST"}),
                       {});
  EXPECT_EQ(key, (FlowKey{"submit", "noisy", "-"}));

  // Publish names carry "tenant=<t>" as a regular component.
  key = extractFlowKey(views({"ndn", "k8s", "publish", "tenant=acme", "out"}),
                       {});
  EXPECT_EQ(key, (FlowKey{"publish", "acme", "-"}));

  // Anything outside /ndn/k8s lands in "other".
  key = extractFlowKey(views({"totally", "unrelated"}), {});
  EXPECT_EQ(key, (FlowKey{"other", "-", "-"}));
  key = extractFlowKey({}, {});
  EXPECT_EQ(key, (FlowKey{"other", "-", "-"}));
}

/// Seeded fuzz: hostile byte soup in, sane deterministic keys out. The
/// extraction is a total function — no throw, safe charset, bounded
/// length — and identical per seed (two passes, byte-identical keys).
TEST(FlowKeyTest, FuzzedHostileNamesYieldSaneDeterministicKeys) {
  auto runPass = [](std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::string> keys;
    for (int iter = 0; iter < 2000; ++iter) {
      const std::size_t count = rng() % 8;
      std::vector<std::string> parts;
      for (std::size_t i = 0; i < count; ++i) {
        std::string part;
        const std::size_t len = rng() % 160;
        for (std::size_t j = 0; j < len; ++j) {
          part.push_back(static_cast<char>(rng() % 256));
        }
        parts.push_back(std::move(part));
      }
      // Sometimes steer into the /ndn/k8s fast path so both branches
      // see hostile bytes.
      if (count >= 3 && rng() % 2 == 0) {
        parts[0] = "ndn";
        parts[1] = "k8s";
      }
      FlowLabel label;
      if (rng() % 3 == 0) label.tenant = "bad|tenant\x01";
      if (rng() % 3 == 0) label.tag = std::string(300, '\xff');
      keys.push_back(extractFlowKey(views(parts), label).toString());
    }
    return keys;
  };

  const auto first = runPass(0xfeedULL);
  const auto second = runPass(0xfeedULL);
  EXPECT_EQ(first, second);  // deterministic per seed

  for (const std::string& serialized : first) {
    const FlowKey key = FlowKey::fromString(serialized);
    for (const std::string* field : {&key.group, &key.tenant, &key.tag}) {
      EXPECT_LE(field->size(), kMaxFlowComponent);
      EXPECT_FALSE(field->empty());
      for (const char c : *field) {
        const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                          c == '=' || c == '&' || c == ':' || c == '/' ||
                          c == '-';
        ASSERT_TRUE(safe) << "unsafe byte " << static_cast<int>(c) << " in "
                          << serialized;
      }
    }
    // Round-trip safety: sanitized fields contain no separator, so the
    // serialized key always parses back to the same three fields.
    EXPECT_EQ(key.toString(), serialized);
  }
}

TEST(CountMinSketchTest, NeverUnderestimatesAndBoundsExcess) {
  CountMinSketch cms(256, 4);
  std::mt19937_64 rng(7);
  std::map<std::string, std::uint64_t> exact;
  for (int i = 0; i < 5000; ++i) {
    // Zipf-ish: low ids vastly more frequent.
    const std::uint64_t id = rng() % (1 + rng() % 400);
    const std::string key = "key-" + std::to_string(id);
    cms.add(key, 1);
    ++exact[key];
  }
  const double bound =
      2.0 * static_cast<double>(cms.total()) / static_cast<double>(cms.width());
  std::size_t overBound = 0;
  for (const auto& [key, count] : exact) {
    const std::uint64_t estimate = cms.estimate(key);
    ASSERT_GE(estimate, count) << key;  // one-sided error, always
    if (static_cast<double>(estimate - count) > bound) ++overBound;
  }
  // error <= 2N/w holds per-key w.p. 1 - 2^-depth; allow a thin tail.
  EXPECT_LE(overBound, exact.size() / 16);
}

TEST(SpaceSavingTest, FindsHeavyHittersWithBoundedError) {
  SpaceSaving topk(4);
  // Two heavy hitters among a stream of distinct light keys.
  for (int i = 0; i < 300; ++i) {
    topk.add("heavy-a", 10);
    topk.add("heavy-b", 6);
    topk.add("light-" + std::to_string(i), 1);
  }
  const auto top = topk.top();
  ASSERT_GE(top.size(), 2u);
  EXPECT_EQ(top[0].key, "heavy-a");
  EXPECT_EQ(top[1].key, "heavy-b");
  // Space-Saving guarantee: true count lies in [count - error, count].
  EXPECT_GE(top[0].count, 3000u);
  EXPECT_LE(top[0].count - top[0].error, 3000u);
  EXPECT_LE(top.size(), topk.capacity());
}

TEST(SpaceSavingTest, CmsGateKeepsOneOffKeysFromChurningHitters) {
  SpaceSaving topk(2);
  topk.add("heavy-a", 50);
  topk.add("heavy-b", 40);
  // A flood of distinct one-off keys: each has CMS estimate ~1, far
  // below the current minimum (40), so none may evict a heavy hitter.
  for (int i = 0; i < 1000; ++i) topk.add("noise-" + std::to_string(i), 1);
  const auto top = topk.top();
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, "heavy-a");
  EXPECT_EQ(top[1].key, "heavy-b");
  EXPECT_EQ(top[0].error, 0u);  // never evicted, exact count
}

TEST(SpaceSavingTest, DeterministicAcrossIdenticalRuns) {
  auto run = [] {
    SpaceSaving topk(3);
    std::mt19937_64 rng(42);
    for (int i = 0; i < 2000; ++i) {
      topk.add("k" + std::to_string(rng() % 50), 1 + rng() % 8);
    }
    std::string out;
    for (const auto& entry : topk.top()) {
      out += entry.key + "=" + std::to_string(entry.count) + "+-" +
             std::to_string(entry.error) + ";";
    }
    return out;
  };
  EXPECT_EQ(run(), run());
}

TEST(LinkFlowStatsTest, CountsPacketsAndSplitsBytes) {
  sim::Simulator sim;
  LinkFlowStats stats(sim, sim::Duration::seconds(1).toNanos());
  stats.onInterest(40);
  stats.onInterest(40);
  stats.onData(1500);
  stats.onNack();
  stats.onCsBytes(1000);
  stats.onUpstreamBytes(500);

  EXPECT_EQ(stats.interests(), 2u);
  EXPECT_EQ(stats.dataPackets(), 1u);
  EXPECT_EQ(stats.nacks(), 1u);
  EXPECT_EQ(stats.bytes(), 1580u);
  EXPECT_EQ(stats.csBytes(), 1000u);
  EXPECT_EQ(stats.upstreamBytes(), 500u);
}

TEST(LinkFlowStatsTest, TrailingWindowExcludesCurrentAndStaleBuckets) {
  sim::Simulator sim;
  LinkFlowStats stats(sim, sim::Duration::seconds(1).toNanos());

  // t=0.5s: lands in the (incomplete) current bucket — invisible.
  sim.scheduleAt(sim::Time() + sim::Duration::millis(500),
                 [&stats] { stats.onData(1000); });
  sim.run();
  EXPECT_EQ(stats.trailingWindowBytes(), 0u);
  EXPECT_EQ(stats.trailingWindowNs(), 0u);

  // t=1.5s: the t=0..1s bucket is now complete and visible.
  sim.scheduleAt(sim::Time() + sim::Duration::millis(1500), [] {});
  sim.run();
  EXPECT_EQ(stats.trailingWindowBytes(), 1000u);
  EXPECT_EQ(stats.trailingWindowNs(),
            static_cast<std::uint64_t>(sim::Duration::seconds(1).toNanos()));

  // Far in the future the bucket has aged out of the ring's window.
  sim.scheduleAt(sim::Time() + sim::Duration::seconds(100), [] {});
  sim.run();
  EXPECT_EQ(stats.trailingWindowBytes(), 0u);
  EXPECT_EQ(stats.trailingWindowNs(),
            (LinkFlowStats::kBuckets - 1) * sim::Duration::seconds(1).toNanos());
}

TEST(FlowAccountantTest, AttributesBytesToTalkersTenantsAndCacheSplit) {
  sim::Simulator sim;
  FlowAccountant accountant(sim);
  accountant.registerLink("link://a->b");

  const FlowKey noisy{"data", "noisy", "-"};
  const FlowKey acme{"data", "acme", "wf/genome"};
  accountant.attribute("link://a->b", noisy, 9000, /*fromCache=*/false);
  accountant.attribute("link://a->b", acme, 1000, /*fromCache=*/true);
  accountant.attribute("link://ghost", acme, 5, false);  // unregistered: no-op

  EXPECT_EQ(accountant.link("link://a->b")->upstreamBytes(), 9000u);
  EXPECT_EQ(accountant.link("link://a->b")->csBytes(), 1000u);
  EXPECT_DOUBLE_EQ(accountant.dominantShare("link://a->b"), 0.9);
  EXPECT_EQ(accountant.dominantTenant("link://a->b"), "noisy");

  const auto talkers = accountant.topTalkers("link://a->b");
  ASSERT_EQ(talkers.size(), 2u);
  EXPECT_EQ(talkers[0].key, noisy.toString());
  EXPECT_EQ(talkers[0].count, 9000u);
  EXPECT_EQ(talkers[1].key, acme.toString());
  EXPECT_TRUE(accountant.topTalkers("link://ghost").empty());
}

TEST(FlowAccountantTest, UtilizationUsesTrailingWindowOverCapacity) {
  sim::Simulator sim;
  FlowAccountant accountant(sim);
  accountant.setLinkCapacity("link://a->b", 8000.0);  // 1000 bytes/s

  // 500 bytes in the first one-second bucket = 50% once it completes.
  sim.scheduleAt(sim::Time() + sim::Duration::millis(100), [&accountant] {
    accountant.link("link://a->b")->onData(500);
  });
  sim.scheduleAt(sim::Time() + sim::Duration::millis(1500), [] {});
  sim.run();
  EXPECT_NEAR(accountant.utilization("link://a->b"), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(accountant.utilization("link://unknown"), 0.0);
}

TEST(FlowAccountantTest, StagedLedgerTracksTransfersPerKey) {
  sim::Simulator sim;
  FlowAccountant accountant(sim);
  const std::uint64_t before = accountant.revision();
  accountant.recordTransfer({"staging", "acme", "plan-1"}, 4096);
  accountant.recordTransfer({"staging", "acme", "plan-1"}, 1024);
  accountant.recordTransfer({"submit", "noisy", "-"}, 64);

  EXPECT_EQ(accountant.stagedBytes(), 5184u);
  EXPECT_EQ(accountant.stagedBytes("acme"), 5120u);
  EXPECT_EQ(accountant.stagedBytes("noisy"), 64u);
  const auto ledger = accountant.stagedLedger();
  EXPECT_EQ(ledger.at(FlowKey{"staging", "acme", "plan-1"}), 5120u);
  EXPECT_GT(accountant.revision(), before);
}

TEST(FlowAccountantTest, PrometheusExportCarriesAllFamilies) {
  sim::Simulator sim;
  FlowAccountant accountant(sim);
  accountant.setLinkCapacity("link://a->b", 1e9);
  accountant.link("link://a->b")->onInterest(40);
  accountant.link("link://a->b")->onData(1500);
  accountant.attribute("link://a->b", {"data", "noisy", "-"}, 1500, false);
  accountant.recordTransfer({"staging", "acme", "plan-1"}, 2048);

  const std::string text = accountant.toPrometheus();
  EXPECT_NE(text.find("lidc_link_interests_total{link=\"link://a->b\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lidc_link_data_total{link=\"link://a->b\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("lidc_link_bytes_total{link=\"link://a->b\"} 1540"),
            std::string::npos);
  EXPECT_NE(text.find("lidc_link_upstream_bytes_total{link=\"link://a->b\"} 1500"),
            std::string::npos);
  EXPECT_NE(
      text.find("lidc_link_capacity_bits_per_sec{link=\"link://a->b\"} 1000000000"),
      std::string::npos);
  EXPECT_NE(
      text.find("lidc_flow_tenant_bytes_total{link=\"link://a->b\",tenant=\"noisy\"} 1500"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "lidc_flow_topk_bytes{group=\"data\",link=\"link://a->b\",rank=\"1\",tag=\"-\",tenant=\"noisy\"} 1500"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "lidc_flow_staged_bytes_total{group=\"staging\",tag=\"plan-1\",tenant=\"acme\"} 2048"),
      std::string::npos);

  // The export itself is deterministic.
  EXPECT_EQ(text, accountant.toPrometheus());
}

TEST(FlowAccountantTest, CountersAboveAMillionExportExactly) {
  sim::Simulator sim;
  FlowAccountant accountant(sim);
  accountant.registerLink("link://a->b");
  accountant.link("link://a->b")->onData(1234567);
  accountant.recordTransfer({"staging", "acme", "plan-1"}, 7654321);

  const std::string text = accountant.toPrometheus();
  EXPECT_NE(text.find("lidc_link_bytes_total{link=\"link://a->b\"} 1234567\n"),
            std::string::npos);
  const auto flat = parsePrometheusText(text);
  EXPECT_EQ(flat.at("lidc_link_bytes_total{link=\"link://a->b\"}"), 1234567.0);
  EXPECT_EQ(flat.at("lidc_flow_staged_bytes_total{group=\"staging\",tag=\"plan-1\","
                    "tenant=\"acme\"}"),
            7654321.0);
}

TEST(FlowAccountantTest, MirrorsLinkFamiliesIntoRegistry) {
  sim::Simulator sim;
  FlowAccountant accountant(sim);
  accountant.setLinkCapacity("link://a->b", 1e6);
  accountant.link("link://a->b")->onData(2000);

  MetricsRegistry registry;
  accountant.attachTelemetry(registry);
  const auto flat = registry.flatten();
  EXPECT_EQ(flat.at("lidc_link_data_total{link=\"link://a->b\"}"), 1.0);
  EXPECT_EQ(flat.at("lidc_link_bytes_total{link=\"link://a->b\"}"), 2000.0);
  EXPECT_EQ(flat.at("lidc_link_capacity_bits_per_sec{link=\"link://a->b\"}"),
            1e6);
}

}  // namespace
}  // namespace lidc::telemetry
