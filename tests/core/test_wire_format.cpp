// The client's reading of gateway replies: a value cannot forge a field,
// and a reply the client cannot read is an Internal error that fails over
// like a dark status endpoint, never a guessed state.
#include "core/wire_format.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "core/client.hpp"
#include "core/gateway.hpp"

namespace lidc::core {
namespace {

ComputeRequest sleepRequest() {
  ComputeRequest request;
  request.app = "sleep";
  request.cpu = MilliCpu::fromCores(1);
  request.memory = ByteSize::fromGiB(1);
  return request;
}

TEST(WireFormatTest, JobIdCannotForgeAStatusField) {
  sim::Simulator sim;
  ndn::Forwarder forwarder("gw-node", sim);
  k8s::Cluster cluster("c1", sim);
  Gateway gateway(forwarder, cluster, ValidatorRegistry{}, GatewayOptions{});
  LidcClient client(forwarder, "user");

  std::optional<Result<JobStatusSnapshot>> status;
  client.queryStatus(makeStatusName("c1", "x;state=Completed"),
                     [&](Result<JobStatusSnapshot> r) { status = std::move(r); });
  sim.run();
  ASSERT_TRUE(status.has_value());
  ASSERT_FALSE(status->ok()) << "forged state " << k8s::jobStateName((*status)->state);
  EXPECT_EQ(status->status().code(), StatusCode::kNotFound);
}

/// A gateway stand-in that answers every compute Interest with `ack` and
/// every status Interest with `status`, verbatim.
struct FakeGatewayWorld {
  FakeGatewayWorld(std::string ackPayload, std::string statusPayload,
                   ClientOptions options = {})
      : ack(std::move(ackPayload)), status(std::move(statusPayload)) {
    face = std::make_shared<ndn::AppFace>("app://fake-gateway", sim);
    forwarder.registerPrefix(ndn::Name("/ndn/k8s"), forwarder.addFace(face), 0);
    face->setInterestHandler([this](const ndn::Interest& interest) {
      const bool isStatus = kStatusPrefix.isPrefixOf(interest.name());
      if (!isStatus) ++submits;
      ndn::Data data(interest.name());
      data.setContent(isStatus ? status : ack);
      data.sign();
      face->putData(std::move(data));
    });
    client = std::make_unique<LidcClient>(forwarder, "user", options);
  }

  std::string ack;
  std::string status;
  int submits = 0;
  sim::Simulator sim;
  ndn::Forwarder forwarder{"host", sim};
  std::shared_ptr<ndn::AppFace> face;
  std::unique_ptr<LidcClient> client;
};

const char kGoodAck[] = "cluster=c1;job_id=j1;status_name=/ndn/k8s/status/c1/j1";

Status queryStatusOf(const std::string& payload) {
  FakeGatewayWorld world(kGoodAck, payload);
  std::optional<Result<JobStatusSnapshot>> status;
  world.client->queryStatus(
      makeStatusName("c1", "j1"),
      [&](Result<JobStatusSnapshot> r) { status = std::move(r); });
  world.sim.run();
  if (!status.has_value()) return Status::Internal("no answer");
  return status->status();
}

TEST(WireFormatTest, StatusWithUnknownStateIsMalformed) {
  const Status status = queryStatusOf("cluster=c1;state=Exploded");
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
}

TEST(WireFormatTest, StatusWithNeitherStateNorErrorIsMalformed) {
  const Status status = queryStatusOf("cluster=c1");
  EXPECT_EQ(status.code(), StatusCode::kInternal) << status;
}

TEST(WireFormatTest, AckWithNeitherJobIdNorErrorIsMalformed) {
  FakeGatewayWorld world("cluster=c1", "cluster=c1;state=Running");
  std::optional<Result<SubmitResult>> ack;
  world.client->submit(sleepRequest(),
                       [&](Result<SubmitResult> r) { ack = std::move(r); });
  world.sim.run();
  ASSERT_TRUE(ack.has_value());
  EXPECT_EQ(ack->status().code(), StatusCode::kInternal) << ack->status();
}

TEST(WireFormatTest, MalformedStatusFailsOverLikeADarkEndpoint) {
  ClientOptions options;
  options.maxFailovers = 1;
  FakeGatewayWorld world(kGoodAck, "cluster=c1;state=Exploded", options);
  std::optional<Result<JobOutcome>> outcome;
  world.client->runToCompletion(sleepRequest(),
                                [&](Result<JobOutcome> r) { outcome = std::move(r); });
  world.sim.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->status().code(), StatusCode::kInternal) << outcome->status();
  EXPECT_EQ(world.submits, 2);  // the first attempt and one failover
}

}  // namespace
}  // namespace lidc::core
