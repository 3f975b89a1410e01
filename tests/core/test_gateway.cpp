// Gateway behaviour in isolation: a single forwarder hosting the
// gateway AppFace and a client AppFace — no network links, so these
// tests pinpoint the gateway logic itself (parsing, validation,
// admission control, dedup, result cache, status).
#include "core/gateway.hpp"

#include <gtest/gtest.h>

#include "common/kv.hpp"
#include "core/wire_format.hpp"
#include "ndn/app_face.hpp"

namespace lidc::core {
namespace {

class GatewayTest : public ::testing::Test {
 protected:
  GatewayTest() : forwarder_("gw-node", sim_), cluster_("cluster-x", sim_) {
    cluster_.addNode("n0", k8s::Resources{MilliCpu::fromCores(4),
                                          ByteSize::fromGiB(8)});
    (void)cluster_.createPvc("datalake-pvc", ByteSize::fromGiB(1));
    cluster_.registerApp("sleeper", [](k8s::AppContext& context) {
      k8s::AppResult result;
      const auto it = context.spec.args.find("duration_s");
      const double seconds =
          it == context.spec.args.end() ? 60.0 : std::stod(it->second);
      result.runtime = sim::Duration::seconds(seconds);
      result.resultPath = "/ndn/k8s/data/results/out";
      result.outputBytes = 1234;
      return result;
    });

    ValidatorRegistry validators;
    validators.add("BLAST", makeBlastValidator());
    gateway_ = std::make_unique<Gateway>(forwarder_, cluster_, std::move(validators),
                                         options_);
    gateway_->jobs().mapAppToImage("sleep", "sleeper");

    client_ = std::make_shared<ndn::AppFace>("app://client", sim_, 77);
    forwarder_.addFace(client_);

    // These tests exercise the gateway's own dedup/result-cache logic;
    // disable the forwarder's Content Store so every Interest reaches
    // the gateway instead of being answered by the NDN cache.
    forwarder_.cs().setCapacity(0);
  }

  ComputeRequest sleepRequest(double seconds = 60.0, std::uint64_t cores = 1) {
    ComputeRequest request;
    request.app = "sleep";
    request.cpu = MilliCpu::fromCores(cores);
    request.memory = ByteSize::fromGiB(1);
    request.params["duration_s"] = std::to_string(seconds);
    return request;
  }

  /// Sends a compute Interest; returns the decoded ack.
  Result<SubmitResult> submit(const ComputeRequest& request) {
    return express(ndn::Interest(request.toName()), decodeAck);
  }

  /// Sends one Interest and decodes the reply's content with `decode`;
  /// the raw content stays in `lastReply_`.
  template <typename Decode>
  auto express(const ndn::Interest& interest, Decode decode)
      -> decltype(decode(std::string_view())) {
    decltype(decode(std::string_view())) reply = Status::Internal("no reply");
    lastReply_.clear();
    client_->expressInterest(interest,
                             [&](const ndn::Interest&, const ndn::Data& data) {
                               lastReply_ = data.contentView();
                               reply = decode(data.contentView());
                             });
    sim_.runUntil(sim_.now() + sim::Duration::millis(100));
    return reply;
  }

  sim::Simulator sim_;
  ndn::Forwarder forwarder_;
  k8s::Cluster cluster_;
  GatewayOptions options_;
  std::unique_ptr<Gateway> gateway_;
  std::shared_ptr<ndn::AppFace> client_;
  std::string lastReply_;
};

TEST_F(GatewayTest, LaunchReturnsJobIdAndStatusName) {
  const auto ack = submit(sleepRequest());
  ASSERT_TRUE(ack.ok()) << ack.status();
  EXPECT_EQ(ack->cluster, "cluster-x");
  // On the wire: decodeAck would rebuild a missing status_name.
  EXPECT_EQ(kv::Reader(lastReply_).get("status_name"),
            "/ndn/k8s/status/cluster-x/" + ack->jobId);
  EXPECT_EQ(ack->statusName, "/ndn/k8s/status/cluster-x/" + ack->jobId);
  EXPECT_EQ(gateway_->counters().jobsLaunched, 1u);
}

TEST_F(GatewayTest, MalformedNameRejected) {
  const auto ack =
      express(ndn::Interest(ndn::Name("/ndn/k8s/compute/not-a-kv-pair")), decodeAck);
  EXPECT_EQ(ack.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(gateway_->counters().computeRejected, 1u);
}

TEST_F(GatewayTest, ValidatorRejectionReported) {
  ComputeRequest bad;
  bad.app = "BLAST";
  bad.cpu = MilliCpu::fromCores(2);
  bad.memory = ByteSize::fromGiB(4);
  bad.params["srr_id"] = "BOGUS";
  const auto ack = submit(bad);
  ASSERT_EQ(ack.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ack.status().message().find("SRR"), std::string::npos);
}

TEST_F(GatewayTest, CapacityExhaustionNacks) {
  // Cluster has 4 cores; a 16-core job cannot fit anywhere, ever.
  int nacks = 0;
  ComputeRequest huge = sleepRequest(10.0, /*cores=*/16);
  client_->expressInterest(
      ndn::Interest(huge.toName()), [](const ndn::Interest&, const ndn::Data&) {},
      [&](const ndn::Interest&, const ndn::Nack& nack) {
        ++nacks;
        EXPECT_EQ(nack.reason(), ndn::NackReason::kCongestion);
      });
  sim_.runUntil(sim_.now() + sim::Duration::millis(100));
  EXPECT_EQ(nacks, 1);
  EXPECT_EQ(gateway_->counters().capacityRejected, 1u);
}

TEST_F(GatewayTest, AdmissionControlCanBeDisabled) {
  gateway_->setAdmissionControl(false);
  const auto ack = submit(sleepRequest(10.0, /*cores=*/16));
  // Job object is created and stays Pending (no nack).
  EXPECT_TRUE(ack.ok());
  EXPECT_EQ(cluster_.pendingUnschedulable(), 1u);
}

TEST_F(GatewayTest, InFlightDedupJoinsSameJob) {
  // Two canonical (no request id) identical submissions: one job.
  const auto first = submit(sleepRequest());
  const auto second = submit(sleepRequest());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->jobId, second->jobId);
  EXPECT_TRUE(second->deduplicated);
  EXPECT_EQ(gateway_->counters().jobsLaunched, 1u);
  EXPECT_EQ(gateway_->counters().inflightDedup, 1u);
}

TEST_F(GatewayTest, UniqueRequestIdsLaunchSeparateJobs) {
  ComputeRequest a = sleepRequest();
  a.requestId = "r1";
  ComputeRequest b = sleepRequest();
  b.requestId = "r2";
  const auto ackA = submit(a);
  const auto ackB = submit(b);
  ASSERT_TRUE(ackA.ok() && ackB.ok());
  EXPECT_NE(ackA->jobId, ackB->jobId);
  EXPECT_EQ(gateway_->counters().jobsLaunched, 2u);
}

TEST_F(GatewayTest, CompletedJobServedFromResultCache) {
  const auto first = submit(sleepRequest());
  ASSERT_TRUE(first.ok());
  sim_.run();  // job completes

  const auto second = submit(sleepRequest());
  ASSERT_TRUE(second.ok());
  ASSERT_TRUE(second->cached);
  EXPECT_EQ(second->jobId, first->jobId);
  EXPECT_EQ(second->resultPath, "/ndn/k8s/data/results/out");
  EXPECT_EQ(second->outputBytes, 1234u);
  EXPECT_EQ(gateway_->counters().cacheHits, 1u);
  EXPECT_EQ(gateway_->counters().jobsLaunched, 1u);
}

TEST_F(GatewayTest, CacheDisabledAlwaysLaunches) {
  GatewayOptions noCache;
  noCache.enableResultCache = false;
  // Fresh world with caching off.
  sim::Simulator sim;
  ndn::Forwarder forwarder("gw2", sim);
  k8s::Cluster cluster("cluster-y", sim);
  cluster.addNode("n0", k8s::Resources{MilliCpu::fromCores(4), ByteSize::fromGiB(8)});
  cluster.registerApp("sleeper", [](k8s::AppContext&) {
    k8s::AppResult result;
    result.runtime = sim::Duration::seconds(1);
    return result;
  });
  Gateway gateway(forwarder, cluster, ValidatorRegistry{}, noCache);
  gateway.jobs().mapAppToImage("sleep", "sleeper");
  forwarder.cs().setCapacity(0);
  auto client = std::make_shared<ndn::AppFace>("app://c", sim, 3);
  forwarder.addFace(client);

  ComputeRequest request;
  request.app = "sleep";
  request.cpu = MilliCpu::fromCores(1);
  request.memory = ByteSize::fromGiB(1);

  std::vector<std::string> jobIds;
  for (int i = 0; i < 2; ++i) {
    client->expressInterest(ndn::Interest(request.toName()),
                            [&](const ndn::Interest&, const ndn::Data& data) {
                              const auto ack = decodeAck(data.contentView());
                              ASSERT_TRUE(ack.ok()) << ack.status();
                              jobIds.push_back(ack->jobId);
                            });
    sim.run();  // complete each job fully
  }
  ASSERT_EQ(jobIds.size(), 2u);
  EXPECT_NE(jobIds[0], jobIds[1]);
  EXPECT_EQ(gateway.counters().jobsLaunched, 2u);
}

TEST_F(GatewayTest, StatusLifecycle) {
  const auto ack = submit(sleepRequest(100.0));
  ASSERT_TRUE(ack.ok()) << ack.status();
  const ndn::Name statusName(ack->statusName);

  auto poll = [&]() {
    ndn::Interest interest(statusName);
    interest.setMustBeFresh(true);
    return express(interest, decodeStatus);
  };

  // Immediately after submit: Pending (pod starting).
  const auto pending = poll();
  ASSERT_TRUE(pending.ok()) << pending.status();
  EXPECT_EQ(pending->state, k8s::JobState::kPending);
  // After pod startup: Running.
  sim_.runUntil(sim_.now() + sim::Duration::seconds(5));
  const auto running = poll();
  ASSERT_TRUE(running.ok()) << running.status();
  EXPECT_EQ(running->state, k8s::JobState::kRunning);
  // After completion: Completed with result info.
  sim_.runUntil(sim_.now() + sim::Duration::seconds(120));
  const auto done = poll();
  ASSERT_TRUE(done.ok()) << done.status();
  EXPECT_EQ(done->state, k8s::JobState::kCompleted);
  EXPECT_EQ(done->resultPath, "/ndn/k8s/data/results/out");
  EXPECT_TRUE(kv::Reader(lastReply_).has("runtime_s"));
  EXPECT_GT(done->runtime.toSeconds(), 0.0);
}

TEST_F(GatewayTest, UnknownJobStatusIsError) {
  const auto status =
      express(ndn::Interest(makeStatusName("cluster-x", "job-ghost")), decodeStatus);
  EXPECT_EQ(status.status().code(), StatusCode::kNotFound);
}

TEST_F(GatewayTest, StatusForOtherClusterNacked) {
  int nacks = 0;
  client_->expressInterest(
      ndn::Interest(makeStatusName("cluster-x", "j") /*valid*/),
      [](const ndn::Interest&, const ndn::Data&) {}, nullptr, nullptr);
  // A name under a different cluster's status prefix has no route at all
  // on this forwarder; but if it reaches the gateway face, it is nacked.
  ndn::Name foreign = kStatusPrefix;
  foreign.append("cluster-z").append("job-1");
  forwarder_.registerPrefix(foreign.prefix(kStatusPrefix.size() + 1),
                            gateway_->faceId());
  client_->expressInterest(
      ndn::Interest(foreign), [](const ndn::Interest&, const ndn::Data&) {},
      [&](const ndn::Interest&, const ndn::Nack&) { ++nacks; });
  sim_.runUntil(sim_.now() + sim::Duration::millis(100));
  EXPECT_EQ(nacks, 1);
}

TEST_F(GatewayTest, FailedJobReportsError) {
  cluster_.registerApp("failer", [](k8s::AppContext&) {
    k8s::AppResult result;
    result.runtime = sim::Duration::seconds(5);
    result.status = Status::Internal("segfault in pod");
    return result;
  });
  ComputeRequest request;
  request.app = "failer";
  request.cpu = MilliCpu::fromCores(1);
  request.memory = ByteSize::fromGiB(1);
  const auto ack = submit(request);
  ASSERT_TRUE(ack.ok()) << ack.status();
  // On the wire: decodeAck would rebuild a missing status_name.
  ASSERT_TRUE(kv::Reader(lastReply_).has("status_name"));
  sim_.run();

  ndn::Interest interest{ndn::Name(ack->statusName)};
  interest.setMustBeFresh(true);
  const auto status = express(interest, decodeStatus);
  ASSERT_TRUE(status.ok()) << status.status();
  EXPECT_EQ(status->state, k8s::JobState::kFailed);
  EXPECT_NE(status->error.find("segfault"), std::string::npos);
}

TEST_F(GatewayTest, FailedJobsAreNotCached) {
  cluster_.registerApp("failer", [](k8s::AppContext&) {
    k8s::AppResult result;
    result.runtime = sim::Duration::seconds(1);
    result.status = Status::Internal("boom");
    return result;
  });
  ComputeRequest request;
  request.app = "failer";
  request.cpu = MilliCpu::fromCores(1);
  request.memory = ByteSize::fromGiB(1);
  (void)submit(request);
  sim_.run();
  // A repeat launches a fresh job rather than serving the failure.
  const auto again = submit(request);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_FALSE(again->cached);
  EXPECT_EQ(gateway_->counters().jobsLaunched, 2u);
}

}  // namespace
}  // namespace lidc::core
