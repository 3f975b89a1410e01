// Centralized-controller baseline behaviour, including the failure
// modes the paper attributes to logically centralized control planes.
#include "core/centralized.hpp"

#include <gtest/gtest.h>

#include "core/overlay.hpp"

namespace lidc::core {
namespace {

class CentralizedTest : public ::testing::Test {
 protected:
  void SetUp() override {
    overlay_ = std::make_unique<ClusterOverlay>(sim_);
    controller_ = std::make_unique<CentralizedController>(sim_);
  }

  ComputeCluster& addSleepCluster(const std::string& name,
                                  sim::Duration rpcLatency,
                                  std::uint64_t cores = 8) {
    ComputeClusterConfig config;
    config.name = name;
    config.perNode = k8s::Resources{MilliCpu::fromCores(cores),
                                    ByteSize::fromGiB(16)};
    auto& cluster = overlay_->addCluster(config);
    cluster.cluster().registerApp("sleeper", [](k8s::AppContext&) {
      k8s::AppResult result;
      result.runtime = sim::Duration::seconds(30);
      return result;
    });
    cluster.gateway().jobs().mapAppToImage("sleep", "sleeper");
    controller_->registerCluster(cluster, rpcLatency);
    return cluster;
  }

  ComputeRequest sleepRequest(std::uint64_t cores = 1) {
    ComputeRequest request;
    request.app = "sleep";
    request.cpu = MilliCpu::fromCores(cores);
    request.memory = ByteSize::fromGiB(1);
    return request;
  }

  sim::Simulator sim_;
  std::unique_ptr<ClusterOverlay> overlay_;
  std::unique_ptr<CentralizedController> controller_;
};

TEST_F(CentralizedTest, PlacesJobOnLeastLoadedCluster) {
  auto& a = addSleepCluster("a", sim::Duration::millis(10));
  addSleepCluster("b", sim::Duration::millis(10));
  // Pre-load cluster a.
  a.cluster().addNode("extra", k8s::Resources{});  // no-op capacity
  std::optional<CentralizedController::SubmitAck> first;
  controller_->submit(sleepRequest(4), [&](Result<CentralizedController::SubmitAck> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    first = *r;
  });
  sim_.runUntil(sim_.now() + sim::Duration::seconds(1));
  ASSERT_TRUE(first.has_value());
  // Second submission goes to the other cluster (least loaded).
  std::optional<CentralizedController::SubmitAck> second;
  controller_->submit(sleepRequest(1), [&](Result<CentralizedController::SubmitAck> r) {
    ASSERT_TRUE(r.ok());
    second = *r;
  });
  sim_.runUntil(sim_.now() + sim::Duration::seconds(1));
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(first->cluster, second->cluster);
  EXPECT_EQ(controller_->jobsPlaced(), 2u);
}

TEST_F(CentralizedTest, SubmitLatencyIncludesAllRpcLegs) {
  addSleepCluster("a", sim::Duration::millis(30));
  std::optional<CentralizedController::SubmitAck> ack;
  controller_->submit(sleepRequest(), [&](Result<CentralizedController::SubmitAck> r) {
    ASSERT_TRUE(r.ok());
    ack = *r;
  });
  sim_.run();
  ASSERT_TRUE(ack.has_value());
  // client->controller (20) + controller->cluster (30) + back (30+20).
  EXPECT_NEAR(ack->latency.toMillis(), 100.0, 1.0);
}

TEST_F(CentralizedTest, ControllerDownIsSinglePointOfFailure) {
  addSleepCluster("healthy", sim::Duration::millis(10));
  controller_->setDown(true);
  std::optional<Status> failure;
  controller_->submit(sleepRequest(), [&](Result<CentralizedController::SubmitAck> r) {
    ASSERT_FALSE(r.ok());
    failure = r.status();
  });
  sim_.run();
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->code(), StatusCode::kUnavailable);
  // The healthy cluster never got the job.
  EXPECT_EQ(controller_->jobsPlaced(), 0u);
}

TEST_F(CentralizedTest, DeadClusterKeepsReceivingJobsUntilHeartbeat) {
  addSleepCluster("zombie", sim::Duration::millis(10));
  addSleepCluster("alive", sim::Duration::millis(10));
  // Make "zombie" the clear choice (alive is loaded).
  controller_->setClusterReachable("zombie", false);

  // Before the next heartbeat, the controller still believes in zombie
  // and may route there; such jobs are lost.
  int failures = 0;
  int successes = 0;
  for (int i = 0; i < 4; ++i) {
    controller_->submit(sleepRequest(),
                        [&](Result<CentralizedController::SubmitAck> r) {
                          if (r.ok()) {
                            ++successes;
                          } else {
                            ++failures;
                          }
                        });
  }
  sim_.runUntil(sim_.now() + CentralizedController::kHeartbeatInterval * 0.5);
  EXPECT_GT(controller_->jobsLost() + static_cast<std::uint64_t>(successes), 0u);

  // After a heartbeat, the controller routes around the corpse.
  sim_.runUntil(sim_.now() + CentralizedController::kHeartbeatInterval);
  std::optional<CentralizedController::SubmitAck> ack;
  controller_->submit(sleepRequest(), [&](Result<CentralizedController::SubmitAck> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    ack = *r;
  });
  sim_.runUntil(sim_.now() + sim::Duration::seconds(6));
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->cluster, "alive");
}

TEST_F(CentralizedTest, NoClusterFitsIsResourceExhausted) {
  addSleepCluster("tiny", sim::Duration::millis(5), /*cores=*/1);
  std::optional<Status> failure;
  controller_->submit(sleepRequest(8), [&](Result<CentralizedController::SubmitAck> r) {
    ASSERT_FALSE(r.ok());
    failure = r.status();
  });
  sim_.run();
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->code(), StatusCode::kResourceExhausted);
}

TEST_F(CentralizedTest, StatusQueriesRouteThroughController) {
  addSleepCluster("a", sim::Duration::millis(10));
  std::optional<CentralizedController::SubmitAck> ack;
  controller_->submit(sleepRequest(), [&](Result<CentralizedController::SubmitAck> r) {
    ASSERT_TRUE(r.ok());
    ack = *r;
  });
  sim_.runUntil(sim_.now() + sim::Duration::seconds(1));
  ASSERT_TRUE(ack.has_value());

  std::optional<CentralizedController::StatusReport> report;
  controller_->queryStatus(ack->jobId,
                           [&](Result<CentralizedController::StatusReport> r) {
                             ASSERT_TRUE(r.ok()) << r.status();
                             report = *r;
                           });
  sim_.runUntil(sim_.now() + sim::Duration::seconds(1));
  ASSERT_TRUE(report.has_value());

  // Unknown job.
  std::optional<Status> failure;
  controller_->queryStatus("job-ghost",
                           [&](Result<CentralizedController::StatusReport> r) {
                             ASSERT_FALSE(r.ok());
                             failure = r.status();
                           });
  sim_.runUntil(sim_.now() + sim::Duration::seconds(1));
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->code(), StatusCode::kNotFound);
}

TEST_F(CentralizedTest, UnregisterRemovesCluster) {
  addSleepCluster("gone", sim::Duration::millis(5));
  controller_->unregisterCluster("gone");
  std::optional<Status> failure;
  controller_->submit(sleepRequest(), [&](Result<CentralizedController::SubmitAck> r) {
    ASSERT_FALSE(r.ok());
    failure = r.status();
  });
  sim_.run();
  ASSERT_TRUE(failure.has_value());
}

}  // namespace
}  // namespace lidc::core
