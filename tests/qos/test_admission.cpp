// AdmissionController in isolation: DRR fairness, strict FIFO within a
// tenant, rate/quota/queue gates, priority preemption, expiry, and the
// byte-identical decision log the determinism suite pins.
#include "qos/admission.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace lidc::qos {
namespace {

TenantSpec makeSpec(const std::string& id, double weight = 1.0,
                    int priorityClass = 0) {
  TenantSpec spec;
  spec.id = id;
  spec.weight = weight;
  spec.priorityClass = priorityClass;
  return spec;
}

class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionController& controller(AdmissionOptions options = {}) {
    controller_ = std::make_unique<AdmissionController>(sim_, tenants_,
                                                        "cluster-x", options);
    controller_->setCapacityProbe(
        [this](const AdmissionJob&) { return allow_; });
    return *controller_;
  }

  AdmissionJob job(const std::string& tenant, const std::string& tag,
                   std::uint64_t cpu = 100, std::uint64_t mem = 1 << 20) {
    AdmissionJob j;
    j.tenant = tenant;
    j.cpuMillicores = cpu;
    j.memoryBytes = mem;
    j.tag = tag;
    j.launch = [this, tag] { launches_.push_back(tag); };
    j.evict = [this, tag](const std::string& reason) {
      evictions_.push_back(tag + ":" + reason);
    };
    return j;
  }

  sim::Simulator sim_;
  TenantRegistry tenants_;
  std::unique_ptr<AdmissionController> controller_;
  bool allow_ = true;
  std::vector<std::string> launches_;
  std::vector<std::string> evictions_;
};

TEST_F(AdmissionTest, DrrHonorsWeightsWithFifoWithinTenant) {
  ASSERT_TRUE(tenants_.registerTenant(makeSpec("alpha", 1.0)).ok());
  ASSERT_TRUE(tenants_.registerTenant(makeSpec("bravo", 2.0)).ok());
  // deficitCap=1 so blocked tenants cannot bank bursts: the post-open
  // drain order is the per-round weighted interleave.
  AdmissionOptions options;
  options.deficitCap = 1.0;
  auto& ctl = controller(options);

  // Queue everything while downstream is blocked, then open the gate:
  // the drain order is pure DRR.
  allow_ = false;
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(ctl.offer(job("alpha", "a" + std::to_string(i))),
              AdmitDecision::kQueued);
  }
  for (int i = 0; i < 6; ++i) {
    ASSERT_EQ(ctl.offer(job("bravo", "b" + std::to_string(i))),
              AdmitDecision::kQueued);
  }
  EXPECT_TRUE(launches_.empty());
  EXPECT_EQ(ctl.queueDepth(), 12u);

  allow_ = true;
  ctl.drain();

  // weight 2 drains two jobs per round to alpha's one; once bravo
  // empties, alpha continues alone. FIFO within each tenant throughout.
  const std::vector<std::string> expected{"a0", "b0", "b1", "a1", "b2", "b3",
                                          "a2", "b4", "b5", "a3", "a4", "a5"};
  EXPECT_EQ(launches_, expected);
  EXPECT_EQ(ctl.admitted("alpha"), 6u);
  EXPECT_EQ(ctl.admitted("bravo"), 6u);
  EXPECT_EQ(ctl.queueDepth(), 0u);
}

TEST_F(AdmissionTest, TokenBucketRejectsBurstOverRate) {
  TenantSpec spec = makeSpec("metered");
  spec.quota.submitRatePerSec = 1.0;
  spec.quota.submitBurst = 2.0;
  ASSERT_TRUE(tenants_.registerTenant(spec).ok());
  auto& ctl = controller();

  EXPECT_EQ(ctl.offer(job("metered", "j0")), AdmitDecision::kQueued);
  EXPECT_EQ(ctl.offer(job("metered", "j1")), AdmitDecision::kQueued);
  EXPECT_EQ(ctl.offer(job("metered", "j2")), AdmitDecision::kRejectedRate);
  EXPECT_EQ(ctl.rejected("metered", "rate"), 1u);
  EXPECT_EQ(ctl.rejected("metered"), 1u);

  // Tokens refill on simulated time.
  sim_.runUntil(sim_.now() + sim::Duration::seconds(1));
  EXPECT_EQ(ctl.offer(job("metered", "j3")), AdmitDecision::kQueued);
}

TEST_F(AdmissionTest, QuotaCountsQueuedPlusInFlight) {
  TenantSpec spec = makeSpec("capped");
  spec.quota.maxJobsInFlight = 2;
  ASSERT_TRUE(tenants_.registerTenant(spec).ok());
  auto& ctl = controller();

  // Both admitted jobs launch immediately and stay in flight.
  EXPECT_EQ(ctl.offer(job("capped", "j0")), AdmitDecision::kQueued);
  EXPECT_EQ(ctl.offer(job("capped", "j1")), AdmitDecision::kQueued);
  EXPECT_EQ(ctl.jobsInFlight("capped"), 2u);
  EXPECT_EQ(ctl.offer(job("capped", "j2")), AdmitDecision::kRejectedQuota);
  EXPECT_EQ(ctl.rejected("capped", "quota"), 1u);

  // Releasing an in-flight job frees quota for the next offer.
  ctl.releaseJob("capped", 100, 1 << 20);
  EXPECT_EQ(ctl.offer(job("capped", "j3")), AdmitDecision::kQueued);
}

TEST_F(AdmissionTest, CpuQuotaGatesProjectedUsage) {
  TenantSpec spec = makeSpec("cpu-capped");
  spec.quota.maxCpuMillicores = 250;
  ASSERT_TRUE(tenants_.registerTenant(spec).ok());
  auto& ctl = controller();

  EXPECT_EQ(ctl.offer(job("cpu-capped", "j0", 100)), AdmitDecision::kQueued);
  EXPECT_EQ(ctl.offer(job("cpu-capped", "j1", 100)), AdmitDecision::kQueued);
  EXPECT_EQ(ctl.offer(job("cpu-capped", "j2", 100)),
            AdmitDecision::kRejectedQuota);
}

TEST_F(AdmissionTest, PerTenantQueueCap) {
  ASSERT_TRUE(tenants_.registerTenant(makeSpec("busy")).ok());
  AdmissionOptions options;
  options.maxQueuePerTenant = 2;
  auto& ctl = controller(options);

  allow_ = false;
  EXPECT_EQ(ctl.offer(job("busy", "j0")), AdmitDecision::kQueued);
  EXPECT_EQ(ctl.offer(job("busy", "j1")), AdmitDecision::kQueued);
  EXPECT_EQ(ctl.offer(job("busy", "j2")), AdmitDecision::kRejectedQueueFull);
  EXPECT_EQ(ctl.rejected("busy", "queue-full"), 1u);
}

TEST_F(AdmissionTest, HighPriorityPreemptsLowestQueuedWhenSaturated) {
  ASSERT_TRUE(tenants_.registerTenant(makeSpec("low", 1.0, 0)).ok());
  ASSERT_TRUE(tenants_.registerTenant(makeSpec("mid", 1.0, 1)).ok());
  ASSERT_TRUE(tenants_.registerTenant(makeSpec("high", 1.0, 2)).ok());
  AdmissionOptions options;
  options.maxQueueTotal = 2;
  auto& ctl = controller(options);

  allow_ = false;
  ASSERT_EQ(ctl.offer(job("low", "l0")), AdmitDecision::kQueued);
  ASSERT_EQ(ctl.offer(job("low", "l1")), AdmitDecision::kQueued);

  // Same priority cannot preempt: the queue is simply full.
  EXPECT_EQ(ctl.offer(job("mid", "m0")), AdmitDecision::kQueued)
      << "mid outranks low, so it preempts";
  // l1 (the newest queued entry of the lowest class) was evicted.
  EXPECT_EQ(evictions_, (std::vector<std::string>{"l1:preempted"}));
  EXPECT_EQ(ctl.preempted("low"), 1u);

  // A second same-priority offer from `low` cannot preempt anyone.
  EXPECT_EQ(ctl.offer(job("low", "l2")), AdmitDecision::kRejectedQueueFull);

  // high preempts again — the remaining low entry goes first.
  EXPECT_EQ(ctl.offer(job("high", "h0")), AdmitDecision::kQueued);
  EXPECT_EQ(ctl.preempted("low"), 2u);
  EXPECT_EQ(ctl.queueDepth("low"), 0u);
  EXPECT_EQ(ctl.queueDepth("mid"), 1u);
  EXPECT_EQ(ctl.queueDepth("high"), 1u);

  const std::string& log = ctl.decisionLog();
  EXPECT_NE(log.find("preempt tenant=low by=mid tag=l1"), std::string::npos);
  EXPECT_NE(log.find("preempt tenant=low by=high tag=l0"), std::string::npos);
}

TEST_F(AdmissionTest, QueuedEntriesExpire) {
  ASSERT_TRUE(tenants_.registerTenant(makeSpec("slow")).ok());
  auto& ctl = controller();

  allow_ = false;
  AdmissionJob j = job("slow", "stale");
  j.expiresAt = sim_.now() + sim::Duration::millis(150);
  ASSERT_EQ(ctl.offer(std::move(j)), AdmitDecision::kQueued);

  // The backstop timer keeps draining while work is queued; once past
  // the deadline the entry is dropped and the sim goes idle.
  sim_.run();
  EXPECT_EQ(ctl.expired("slow"), 1u);
  EXPECT_EQ(ctl.queueDepth(), 0u);
  EXPECT_EQ(evictions_, (std::vector<std::string>{"stale:expired"}));
  EXPECT_TRUE(launches_.empty());
}

TEST_F(AdmissionTest, UnknownTenantGetsNoState) {
  ASSERT_TRUE(tenants_.registerTenant(makeSpec("real")).ok());
  auto& ctl = controller();

  EXPECT_EQ(ctl.offer(job("ghost", "g0")),
            AdmitDecision::kRejectedUnknownTenant);
  const std::string flood(4096, 'x');
  EXPECT_EQ(ctl.offer(job(flood, "g1")), AdmitDecision::kRejectedUnknownTenant);
  EXPECT_EQ(ctl.rejectedUnknownTenant(), 2u);
  // No per-tenant state accrued, and the log line is bounded.
  EXPECT_EQ(ctl.admitted("ghost"), 0u);
  EXPECT_EQ(ctl.decisionLog().find(flood), std::string::npos);
}

TEST_F(AdmissionTest, RejectIsRecordedOnceInTheLogAndOnceInTheRing) {
  TenantSpec spec = makeSpec("solo");
  spec.quota.maxJobsInFlight = 1;
  ASSERT_TRUE(tenants_.registerTenant(spec).ok());
  auto& ctl = controller();
  telemetry::FlightRecorder recorder(sim_, 16);
  ctl.setFlightRecorder(&recorder);

  ASSERT_EQ(ctl.offer(job("solo", "j0")), AdmitDecision::kQueued);
  ASSERT_EQ(ctl.offer(job("solo", "j1")), AdmitDecision::kRejectedQuota);

  const std::string reject = "reject tenant=solo reason=quota tag=j1";
  const std::string& log = ctl.decisionLog();
  const auto at = log.find(reject);
  ASSERT_NE(at, std::string::npos);
  EXPECT_EQ(log.find(reject, at + 1), std::string::npos);
  EXPECT_NE(log.find("admit tenant=solo tag=j0"), std::string::npos);

  // Only the reject reaches the ring, under "qos", with the log's text.
  const auto events = recorder.lastN(16);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].component, "qos");
  EXPECT_EQ(events[0].severity, log::Level::kWarn);
  EXPECT_EQ(events[0].message, reject);
}

TEST_F(AdmissionTest, TelemetryMirrorsCounters) {
  ASSERT_TRUE(tenants_.registerTenant(makeSpec("alpha")).ok());
  auto& ctl = controller();
  telemetry::MetricsRegistry metrics;
  ctl.attachTelemetry(metrics);

  EXPECT_EQ(ctl.offer(job("alpha", "j0")), AdmitDecision::kQueued);
  EXPECT_EQ(ctl.offer(job("ghost", "g0")),
            AdmitDecision::kRejectedUnknownTenant);

  const auto flat = metrics.flatten("lidc_qos");
  EXPECT_EQ(
      flat.at("lidc_qos_admitted_total{cluster=\"cluster-x\",tenant=\"alpha\"}"),
      1.0);
  EXPECT_EQ(flat.at("lidc_qos_rejected_total{cluster=\"cluster-x\","
                    "reason=\"unknown-tenant\",tenant=\"unknown\"}"),
            1.0);
  EXPECT_EQ(flat.at("lidc_qos_queue_depth{cluster=\"cluster-x\"}"), 0.0);
  // The queue-wait histogram fed one sample at zero wait.
  EXPECT_EQ(flat.at("lidc_qos_queue_wait_us_count{cluster=\"cluster-x\","
                    "tenant=\"alpha\"}"),
            1.0);
}

// Two identical runs — same seed-free deterministic schedule — must
// produce byte-identical decision logs (the admission half of the
// end-to-end determinism pin).
TEST_F(AdmissionTest, DecisionLogIsByteIdenticalAcrossRuns) {
  auto runOnce = [](std::string& logOut) {
    sim::Simulator sim;
    TenantRegistry tenants;
    ASSERT_TRUE(tenants.registerTenant(makeSpec("alpha", 1.0, 0)).ok());
    ASSERT_TRUE(tenants.registerTenant(makeSpec("bravo", 2.0, 1)).ok());
    AdmissionOptions options;
    options.maxQueueTotal = 6;
    AdmissionController ctl(sim, tenants, "cluster-x", options);
    // Downstream admits at most two jobs at a time; each launch
    // schedules its own release, so the backstop timer paces the rest.
    std::size_t inflight = 0;
    ctl.setCapacityProbe(
        [&inflight](const AdmissionJob&) { return inflight < 2; });

    auto offerJob = [&](const std::string& tenant, const std::string& tag) {
      AdmissionJob j;
      j.tenant = tenant;
      j.cpuMillicores = 100;
      j.memoryBytes = 1 << 20;
      j.tag = tag;
      j.launch = [&sim, &ctl, &inflight, tenant] {
        ++inflight;
        sim.scheduleAfter(sim::Duration::millis(250),
                          [&ctl, &inflight, tenant] {
                            --inflight;
                            ctl.releaseJob(tenant, 100, 1 << 20);
                          });
      };
      j.evict = [](const std::string&) {};
      (void)ctl.offer(std::move(j));
    };

    for (int i = 0; i < 4; ++i) {
      sim.scheduleAt(sim::Time() + sim::Duration::millis(10 * i), [&, i] {
        offerJob("alpha", "a" + std::to_string(i));
        offerJob("bravo", "b" + std::to_string(i));
      });
    }
    // A late high-priority burst that saturates the queue and preempts.
    sim.scheduleAt(sim::Time() + sim::Duration::millis(45), [&] {
      for (int i = 0; i < 4; ++i) offerJob("bravo", "hot" + std::to_string(i));
    });
    sim.run();
    logOut = ctl.decisionLog();
  };

  std::string first;
  std::string second;
  runOnce(first);
  runOnce(second);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // Sanity: the scenario exercised queueing (non-zero waits), not just
  // immediate launches.
  EXPECT_NE(first.find("wait_us="), std::string::npos);
}

}  // namespace
}  // namespace lidc::qos
