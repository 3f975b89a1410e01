// Status-namespace GC: terminal jobs are evicted after the retention
// window — on contact (touch eviction) and by the reaper sweep while it
// is armed — so a long-lived gateway's records, its JobManager and the
// cluster's K8s Jobs and Pods stop growing without bound. Also covers
// the migration-plane status alias: polls under a dead cluster's old
// name are answered with the local successor's status until the alias
// retires with it.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/overlay.hpp"
#include "core/semantic_name.hpp"

namespace lidc::core {
namespace {

struct GcRig {
  explicit GcRig(sim::Duration retention, bool enableGc = true) {
    overlay = std::make_unique<ClusterOverlay>(sim);
    overlay->addNode("client-host");
    ComputeClusterConfig config;
    config.name = "east";
    config.gateway.enableStatusGc = enableGc;
    config.gateway.statusRetention = retention;
    cc = &overlay->addCluster(config);
    cc->cluster().registerApp("sleeper", [](k8s::AppContext&) {
      k8s::AppResult result;
      result.runtime = sim::Duration::seconds(5);
      return result;
    });
    cc->gateway().jobs().mapAppToImage("sleep", "sleeper");
    overlay->connect("client-host", "east",
                     net::LinkParams{sim::Duration::millis(5)});
    overlay->announceCluster("east");
    client = std::make_unique<LidcClient>(
        *overlay->topology().node("client-host"), "user");
  }

  /// Submits a sleeper and runs until the world is idle (job terminal).
  SubmitResult submitAndFinish() {
    ComputeRequest request;
    request.app = "sleep";
    request.cpu = MilliCpu::fromCores(1);
    request.memory = ByteSize::fromGiB(1);
    std::optional<Result<SubmitResult>> ack;
    client->submit(request,
                   [&ack](Result<SubmitResult> r) { ack = std::move(r); });
    sim.run();
    EXPECT_TRUE(ack.has_value() && ack->ok());
    return ack->ok() ? **ack : SubmitResult{};
  }

  /// One status poll at the current sim time.
  Result<JobStatusSnapshot> poll(const ndn::Name& statusName) {
    std::optional<Result<JobStatusSnapshot>> out;
    client->queryStatus(statusName, [&out](Result<JobStatusSnapshot> r) {
      out = std::move(r);
    });
    sim.run();
    EXPECT_TRUE(out.has_value());
    return out.has_value() ? *out
                           : Result<JobStatusSnapshot>(
                                 Status::Internal("poll never settled"));
  }

  void advance(sim::Duration by) {
    sim.runUntil(sim.now() + by);
  }

  sim::Simulator sim;
  std::unique_ptr<ClusterOverlay> overlay;
  ComputeCluster* cc = nullptr;
  std::unique_ptr<LidcClient> client;
};

TEST(StatusGcTest, TerminalJobsServeWithinRetentionThenEvictOnTouch) {
  GcRig rig(sim::Duration::minutes(2));
  const SubmitResult ack = rig.submitAndFinish();
  const ndn::Name statusName(ack.statusName);

  // Within retention the terminal status is still served.
  auto fresh = rig.poll(statusName);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_EQ(fresh->state, k8s::JobState::kCompleted);
  EXPECT_EQ(rig.cc->gateway().counters().statusEvicted, 0u);

  // Past retention, the first contact evicts: the poll answers NotFound
  // and the job table entry is gone.
  rig.advance(sim::Duration::minutes(3));
  auto stale = rig.poll(statusName);
  EXPECT_FALSE(stale.ok());
  EXPECT_EQ(rig.cc->gateway().counters().statusEvicted, 1u);
  EXPECT_FALSE(rig.cc->gateway().jobs().status(ack.jobId).ok());

  // Idempotent: later polls are plain misses, not double evictions.
  auto again = rig.poll(statusName);
  EXPECT_FALSE(again.ok());
  EXPECT_EQ(rig.cc->gateway().counters().statusEvicted, 1u);
}

TEST(StatusGcTest, ReaperSweepEvictsExpiredTerminalsWithoutContact) {
  GcRig rig(sim::Duration::minutes(2));
  const SubmitResult first = rig.submitAndFinish();

  // Age the first job past retention, then launch a second job: its
  // launch re-arms the reaper, whose sweep collects the expired
  // terminal entry with no poller ever touching it.
  rig.advance(sim::Duration::minutes(3));
  const SubmitResult second = rig.submitAndFinish();
  EXPECT_GE(rig.cc->gateway().counters().statusEvicted, 1u);
  EXPECT_FALSE(rig.cc->gateway().jobs().status(first.jobId).ok());
  // The younger terminal entry survived the sweep.
  auto survivor = rig.poll(ndn::Name(second.statusName));
  ASSERT_TRUE(survivor.ok()) << survivor.status();
  EXPECT_EQ(survivor->state, k8s::JobState::kCompleted);
}

TEST(StatusGcTest, DisabledGcRetainsTerminalStatusIndefinitely) {
  GcRig rig(sim::Duration::minutes(2), /*enableGc=*/false);
  const SubmitResult ack = rig.submitAndFinish();
  rig.advance(sim::Duration::hours(2));
  auto old = rig.poll(ndn::Name(ack.statusName));
  ASSERT_TRUE(old.ok()) << old.status();
  EXPECT_EQ(old->state, k8s::JobState::kCompleted);
  EXPECT_EQ(rig.cc->gateway().counters().statusEvicted, 0u);
}

TEST(StatusGcTest, StatusAliasAnswersOldNameAndAgesOut) {
  GcRig rig(sim::Duration::minutes(2));
  const SubmitResult ack = rig.submitAndFinish();

  // A migration landed: the job that was "west-3" on the dead cluster
  // lives on here. The gateway registers the exact old-name route on
  // its own forwarder; the overlay-wide route is the coordinator's
  // routeInstaller's job, so steer the client-side route here too.
  rig.cc->gateway().addStatusAlias("west", "west-3", ack.jobId);
  rig.overlay->topology().installRoutesTo(makeStatusName("west", "west-3"),
                                          "east");
  const ndn::Fib& gatewayFib = rig.overlay->topology().node("east")->fib();
  EXPECT_NE(gatewayFib.findExact(makeStatusName("west", "west-3")), nullptr);

  auto aliased = rig.poll(makeStatusName("west", "west-3"));
  ASSERT_TRUE(aliased.ok()) << aliased.status();
  EXPECT_EQ(aliased->state, k8s::JobState::kCompleted);
  EXPECT_EQ(aliased->cluster, "east");
  EXPECT_EQ(rig.cc->gateway().counters().aliasServed, 1u);

  // Unknown foreign names still nack — the alias table is exact.
  auto unknown = rig.poll(makeStatusName("west", "west-9"));
  EXPECT_FALSE(unknown.ok());

  // Aliases age out with the same retention as terminal status. A new
  // launch arms the reaper, whose sweep drops the expired alias.
  rig.advance(sim::Duration::minutes(3));
  (void)rig.submitAndFinish();
  auto expired = rig.poll(makeStatusName("west", "west-3"));
  EXPECT_FALSE(expired.ok());
  // The alias's exact route retired with it.
  EXPECT_EQ(gatewayFib.findExact(makeStatusName("west", "west-3")), nullptr);
}

// A steady stream of short jobs for four retention windows, with a gray
// window and one migration alias: K8s Jobs and Pods, gateway records and
// both indexes stay within the jobs that finished in the last retention
// window plus one reaper interval, plus the jobs in flight. Once all of
// it has aged out, one launch arms the sweep and only that job remains.
TEST(StatusGcTest, JobStateStaysWithinOneRetentionWindow) {
  const sim::Duration retention = sim::Duration::minutes(2);
  const sim::Duration reaperInterval = sim::Duration::seconds(30);
  GcRig rig(retention);
  // Canonical names, one per job, so every launch registers a dedup key.
  ClientOptions options;
  options.bypassCache = false;
  rig.client = std::make_unique<LidcClient>(
      *rig.overlay->topology().node("client-host"), "user", options);
  k8s::Cluster& cluster = rig.cc->cluster();
  Gateway& gateway = rig.cc->gateway();

  std::vector<sim::Time> finishedAt;
  cluster.onJobFinished(
      [&](const k8s::Job&) { finishedAt.push_back(rig.sim.now()); });
  std::vector<std::string> jobIds;
  auto submit = [&](int n) {
    ComputeRequest request;
    request.app = "sleep";
    request.cpu = MilliCpu::fromCores(1);
    request.memory = ByteSize::fromGiB(1);
    request.params["n"] = std::to_string(n);
    rig.client->submit(request, [&jobIds](Result<SubmitResult> r) {
      ASSERT_TRUE(r.ok()) << r.status();
      jobIds.push_back(r->jobId);
    });
  };

  constexpr int kJobs = 240;  // one every 2 s: 8 minutes, 4 windows
  constexpr int kGrayJob = 90;
  constexpr int kAliasedJob = 10;
  std::string grayId;
  sim::Time grayAt;
  std::string aliasTarget;
  for (int n = 0; n < kJobs; ++n) {
    gateway.setGrayFailure(n == kGrayJob);
    if (n == kGrayJob) grayAt = rig.sim.now();
    submit(n);
    rig.advance(sim::Duration::seconds(2));
    ASSERT_EQ(jobIds.size(), static_cast<std::size_t>(n + 1));
    if (n == kGrayJob) grayId = jobIds.back();
    if (n == kAliasedJob) {
      aliasTarget = jobIds.back();
      gateway.addStatusAlias("west", "west-3", aliasTarget);
    }
    if (n % 15 != 14) continue;

    const sim::Time now = rig.sim.now();
    const auto live = [&](sim::Time since) {
      return now - since <= retention + reaperInterval;
    };
    const auto recent = static_cast<std::size_t>(
        std::count_if(finishedAt.begin(), finishedAt.end(), live));
    const std::size_t inFlight = gateway.counters().jobsLaunched - finishedAt.size();
    const std::size_t grayLive = n >= kGrayJob && live(grayAt);
    SCOPED_TRACE("after job " + std::to_string(n));
    EXPECT_LE(cluster.jobsInNamespace("ndnk8s").size(), recent + inFlight);
    EXPECT_LE(cluster.podsInNamespace("ndnk8s").size(), recent + inFlight);
    const auto sizes = gateway.jobTableSizes();
    EXPECT_LE(sizes.records, recent + inFlight + grayLive);
    EXPECT_LE(sizes.dedup, inFlight);
    EXPECT_EQ(sizes.aliases, gateway.jobs().status(aliasTarget).ok() ? 1u : 0u);
  }
  // Without retirement every job would still be there.
  EXPECT_GT(gateway.counters().jobsLaunched,
            2 * cluster.jobsInNamespace("ndnk8s").size());

  // Let everything finish and age out, then launch once more: the sweep
  // it arms leaves only that job's state.
  rig.advance(retention + sim::Duration::minutes(1));
  submit(kJobs);
  rig.advance(reaperInterval + sim::Duration::seconds(1));
  EXPECT_EQ(cluster.jobsInNamespace("ndnk8s").size(), 1u);
  EXPECT_EQ(cluster.podsInNamespace("ndnk8s").size(), 1u);
  const auto sizes = gateway.jobTableSizes();
  EXPECT_EQ(sizes.records, 1u);
  EXPECT_EQ(sizes.dedup, 0u);
  EXPECT_EQ(sizes.aliases, 0u);
  auto last = rig.poll(makeStatusName("east", jobIds.back()));
  ASSERT_TRUE(last.ok()) << last.status();
  EXPECT_EQ(last->state, k8s::JobState::kCompleted);
  // The gray id answers NotFound once retired, no longer Pending.
  auto gray = rig.poll(makeStatusName("east", grayId));
  ASSERT_FALSE(gray.ok());
  EXPECT_EQ(gray.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace lidc::core
