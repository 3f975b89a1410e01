// Seeded fuzzing of the tenant-scoped submit path: malformed and
// missing tenant components, garbage job descriptions, random bytes.
// The invariants: the parser never crashes (ASan/UBSan clean in CI),
// unknown or malformed tenants are rejected cleanly — exactly one
// terminal reply per Interest — and the gateway keeps serving valid
// work afterwards.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/gateway.hpp"
#include "core/wire_format.hpp"
#include "ndn/app_face.hpp"
#include "qos/tenant.hpp"

namespace lidc::core {
namespace {

class SubmitFuzzTest : public ::testing::Test {
 protected:
  SubmitFuzzTest() : forwarder_("gw-node", sim_), cluster_("cluster-x", sim_) {
    cluster_.addNode("n0", k8s::Resources{MilliCpu::fromCores(8),
                                          ByteSize::fromGiB(16)});
    (void)cluster_.createPvc("datalake-pvc", ByteSize::fromGiB(1));
    cluster_.registerApp("sleeper", [](k8s::AppContext&) {
      k8s::AppResult result;
      result.runtime = sim::Duration::seconds(1);
      result.resultPath = "/ndn/k8s/data/results/out";
      return result;
    });

    qos::TenantSpec good;
    good.id = "good";
    EXPECT_TRUE(tenants_.registerTenant(good).ok());

    gateway_ = std::make_unique<Gateway>(forwarder_, cluster_,
                                         ValidatorRegistry{}, options_);
    gateway_->jobs().mapAppToImage("sleep", "sleeper");
    gateway_->enableQos(tenants_);

    client_ = std::make_shared<ndn::AppFace>("app://fuzzer", sim_, 99);
    forwarder_.addFace(client_);
    forwarder_.cs().setCapacity(0);
  }

  ComputeRequest sleepRequest() {
    ComputeRequest request;
    request.app = "sleep";
    request.cpu = MilliCpu::fromCores(1);
    request.memory = ByteSize::fromGiB(1);
    request.params["duration_s"] = "1";
    return request;
  }

  sim::Simulator sim_;
  ndn::Forwarder forwarder_;
  k8s::Cluster cluster_;
  qos::TenantRegistry tenants_;
  GatewayOptions options_;
  std::unique_ptr<Gateway> gateway_;
  std::shared_ptr<ndn::AppFace> client_;
};

/// One random name component: printable garbage, raw bytes, separators,
/// oversized runs — whatever the wire could carry.
std::string fuzzComponent(Rng& rng) {
  const std::uint64_t shape = rng.uniform(5);
  std::string out;
  const std::size_t len = static_cast<std::size_t>(rng.uniform(65));
  switch (shape) {
    case 0:  // lowercase-ish, sometimes a valid tenant id
      for (std::size_t i = 0; i < len; ++i) {
        out.push_back(static_cast<char>('a' + rng.uniform(26)));
      }
      break;
    case 1:  // raw bytes, including NUL and high bit
      for (std::size_t i = 0; i < len; ++i) {
        out.push_back(static_cast<char>(rng.uniform(256)));
      }
      break;
    case 2:  // k=v-shaped garbage aimed at the job-description parser
      out = "app=";
      for (std::size_t i = 0; i < len; ++i) {
        out.push_back(static_cast<char>('!' + rng.uniform(94)));
      }
      break;
    case 3:  // separator soup
      for (std::size_t i = 0; i < len; ++i) {
        out.push_back("&=%/ "[rng.uniform(5)]);
      }
      break;
    default:  // oversized single-char run (bounded-log check)
      out.assign(len * 8, 'x');
      break;
  }
  return out;
}

TEST_F(SubmitFuzzTest, ParserNeverCrashesOnRandomNames) {
  Rng rng(20260808);
  for (int i = 0; i < 2000; ++i) {
    ndn::Name name = kSubmitPrefix;
    const std::uint64_t extra = rng.uniform(4);
    for (std::uint64_t c = 0; c < extra; ++c) name.append(fuzzComponent(rng));
    const auto parsed = parseSubmitName(name);
    if (parsed.ok()) {
      // Anything that parses must carry a non-empty tenant and a
      // round-trippable request.
      EXPECT_FALSE(parsed->first.empty());
      EXPECT_FALSE(parsed->second.app.empty());
    }
  }
  // Truncated names and foreign prefixes are errors, not crashes.
  EXPECT_FALSE(parseSubmitName(kSubmitPrefix).ok());
  EXPECT_FALSE(parseSubmitName(ndn::Name("/ndn/k8s/compute/x")).ok());
  ndn::Name emptyTenant = kSubmitPrefix;
  emptyTenant.append(std::string_view{});
  emptyTenant.append("app=sleep");
  EXPECT_FALSE(parseSubmitName(emptyTenant).ok());
}

TEST_F(SubmitFuzzTest, GatewaySurvivesMalformedSubmitStorm) {
  Rng rng(4242);
  const ndn::Name validTemplate = makeSubmitName("good", sleepRequest());

  int replies = 0;
  int nacks = 0;
  int timeouts = 0;
  int sent = 0;
  auto express = [&](const ndn::Name& name) {
    ++sent;
    ndn::Interest interest(name);
    client_->expressInterest(
        interest, [&](const ndn::Interest&, const ndn::Data&) { ++replies; },
        [&](const ndn::Interest&, const ndn::Nack&) { ++nacks; },
        [&](const ndn::Interest&) { ++timeouts; });
  };

  for (int i = 0; i < 300; ++i) {
    ndn::Name name = kSubmitPrefix;
    // Paced so the occasional fuzz input that parses into a runnable
    // job cannot pile up queue waits past the Interest lifetime — the
    // storm probes robustness, not capacity.
    const sim::Time sendAt = sim_.now() + sim::Duration::millis(50 * i);
    switch (rng.uniform(4)) {
      case 0:  // missing tenant: job description where the tenant goes
        name.append("app=sleep&cpu_m=1000&mem_b=1073741824");
        break;
      case 1: {  // unknown tenant, valid job description
        name = makeSubmitName("evil" + std::to_string(rng.uniform(10)),
                              sleepRequest());
        break;
      }
      case 2: {  // valid tenant, mangled job description
        name.append("good");
        name.append(fuzzComponent(rng));
        break;
      }
      default: {  // random component soup
        const std::uint64_t extra = rng.uniform(4);
        for (std::uint64_t c = 0; c < extra; ++c) {
          name.append(fuzzComponent(rng));
        }
        break;
      }
    }
    sim_.scheduleAt(sendAt, [&express, name] { express(name); });
  }
  sim_.run();

  // Every malformed Interest got exactly one terminal signal — reject
  // Data or nack — and none brought the gateway down.
  EXPECT_EQ(replies + nacks + timeouts, sent);
  EXPECT_EQ(timeouts, 0);
  EXPECT_GT(gateway_->admission()->rejectedUnknownTenant(), 0u);

  // The gateway still serves a clean tenant-scoped submit.
  Result<SubmitResult> ack = Status::Internal("no reply");
  client_->expressInterest(ndn::Interest(validTemplate),
                           [&](const ndn::Interest&, const ndn::Data& data) {
                             ack = decodeAck(data.contentView());
                           });
  sim_.run();
  ASSERT_TRUE(ack.ok()) << "valid submit must still be admitted";
  EXPECT_EQ(ack->cluster, "cluster-x");
}

}  // namespace
}  // namespace lidc::core
