// Client dataset publishing through /ndn/k8s/publish command Interests:
// digest-bound names, integrity rejection, size limits, and the
// publish -> compute -> retrieve loop the paper describes.
#include <gtest/gtest.h>

#include "core/client.hpp"
#include "core/overlay.hpp"

namespace lidc::core {
namespace {

class PublishTest : public ::testing::Test {
 protected:
  void SetUp() override {
    overlay_ = std::make_unique<ClusterOverlay>(sim_);
    overlay_->addNode("client-host");
    ComputeClusterConfig config;
    config.name = "lake";
    cluster_ = &overlay_->addCluster(config);
    overlay_->connect("client-host", "lake",
                      net::LinkParams{sim::Duration::millis(8)});
    overlay_->announceCluster("lake");
    client_ = std::make_unique<LidcClient>(
        *overlay_->topology().node("client-host"), "publisher");
  }

  Result<ndn::Name> publish(const std::string& path,
                            std::vector<std::uint8_t> bytes) {
    std::optional<Result<ndn::Name>> out;
    client_->publishData(path, std::move(bytes),
                         [&](Result<ndn::Name> r) { out = std::move(r); });
    sim_.runUntil(sim_.now() + sim::Duration::seconds(2));
    return out.value_or(Status::Internal("no answer"));
  }

  sim::Simulator sim_;
  std::unique_ptr<ClusterOverlay> overlay_;
  ComputeCluster* cluster_ = nullptr;
  std::unique_ptr<LidcClient> client_;
};

TEST_F(PublishTest, PublishStoresIntoTheLake) {
  const std::string text = "intermediate result bytes";
  auto stored = publish("intermediate/run-7", {text.begin(), text.end()});
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_EQ(stored->toUri(), "/ndn/k8s/data/intermediate/run-7");
  auto bytes = cluster_->store().get(*stored);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(std::string(bytes->begin(), bytes->end()), text);
  EXPECT_EQ(cluster_->gateway().counters().publishesAccepted, 1u);
}

TEST_F(PublishTest, PublishedObjectIsRetrievableByAnyone) {
  const std::vector<std::uint8_t> blob(5'000, 0x5A);
  auto stored = publish("shared/blob", blob);
  ASSERT_TRUE(stored.ok());

  LidcClient other(*overlay_->topology().node("client-host"), "reader",
                   ClientOptions{}, 77);
  std::optional<std::vector<std::uint8_t>> fetched;
  other.fetchData(*stored, [&](Result<std::vector<std::uint8_t>> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    fetched = std::move(*r);
  });
  sim_.run();
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, blob);
}

TEST_F(PublishTest, EmptyPayloadRejected) {
  auto stored = publish("x", {});
  ASSERT_FALSE(stored.ok());
  EXPECT_NE(stored.status().message().find("payload"), std::string::npos);
  EXPECT_EQ(cluster_->gateway().counters().publishesRejected, 1u);
}

TEST_F(PublishTest, OversizedPayloadRejected) {
  // Shrink the limit on a second cluster and target it directly.
  ComputeClusterConfig config;
  config.name = "tiny";
  config.gateway.maxPublishBytes = 100;
  auto& tiny = overlay_->addCluster(config);
  overlay_->connect("client-host", "tiny",
                    net::LinkParams{sim::Duration::millis(2)});
  overlay_->announceCluster("tiny");

  auto stored = publish("big", std::vector<std::uint8_t>(500, 1));
  // The nearest gateway ("tiny", 2 ms) rejects with an error Data that
  // names the limit, counts the rejection, and stores nothing.
  ASSERT_FALSE(stored.ok());
  EXPECT_NE(stored.status().message().find("exceeds"), std::string::npos);
  EXPECT_NE(stored.status().message().find("100"), std::string::npos);
  EXPECT_EQ(tiny.gateway().counters().publishesRejected, 1u);
  EXPECT_EQ(tiny.gateway().counters().publishesAccepted, 0u);
  EXPECT_FALSE(tiny.store().contains(ndn::Name("/ndn/k8s/data/big")));
  // The far cluster never saw the Interest, so its counters stay clean.
  EXPECT_EQ(cluster_->gateway().counters().publishesRejected, 0u);
}

TEST_F(PublishTest, PayloadAtExactLimitAccepted) {
  ComputeClusterConfig config;
  config.name = "tiny";
  config.gateway.maxPublishBytes = 100;
  auto& tiny = overlay_->addCluster(config);
  overlay_->connect("client-host", "tiny",
                    net::LinkParams{sim::Duration::millis(2)});
  overlay_->announceCluster("tiny");

  // The limit is inclusive: exactly maxPublishBytes must be stored.
  auto stored = publish("fits", std::vector<std::uint8_t>(100, 7));
  ASSERT_TRUE(stored.ok()) << stored.status();
  EXPECT_EQ(tiny.gateway().counters().publishesAccepted, 1u);
  EXPECT_EQ(tiny.gateway().counters().publishesRejected, 0u);
  auto bytes = tiny.store().get(*stored);
  ASSERT_TRUE(bytes.has_value());
  EXPECT_EQ(bytes->size(), 100u);
}

TEST_F(PublishTest, TamperedDigestRejected) {
  // Hand-craft publish Interests whose digest does not match.
  auto face = std::make_shared<ndn::AppFace>(
      "app://raw", sim_, 5);
  overlay_->topology().node("client-host")->addFace(face);
  auto rejection = [&](const ndn::Interest& interest) {
    std::optional<std::string> error;
    face->expressInterest(interest, [&](const ndn::Interest&, const ndn::Data& data) {
      const auto stored = decodePublished(data.contentView());
      if (stored.status().code() == StatusCode::kInvalidArgument) {
        error = stored.status().message();
      }
    });
    sim_.run();
    return error;
  };

  ndn::Name name = kPublishPrefix;
  name.append("evil").append("sha=12345");
  ndn::Interest interest(name);
  interest.setMustBeFresh(true);
  interest.setApplicationParameters("payload");
  const auto error = rejection(interest);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("digest"), std::string::npos);
  EXPECT_FALSE(cluster_->store().contains(ndn::Name("/ndn/k8s/data/evil")));

  // A name digested from the memo, then new parameters: the gateway must
  // check the bytes that arrive, not a digest of the old ones.
  ndn::Interest swapped;
  swapped.setApplicationParameters("payload");
  ndn::Name swappedName = kPublishPrefix;
  swappedName.append("swapped").append(
      "sha=" + std::to_string(swapped.applicationParametersDigest()));
  swapped.setName(std::move(swappedName));
  swapped.setMustBeFresh(true);
  swapped.setApplicationParameters("payloaD");
  EXPECT_EQ(rejection(swapped), "payload digest mismatch");
  EXPECT_FALSE(cluster_->store().contains(ndn::Name("/ndn/k8s/data/swapped")));
}

TEST_F(PublishTest, PublishThenComputeOnIt) {
  // The full loop: publish a dataset, run the compression app on it,
  // retrieve the compressed result.
  std::vector<std::uint8_t> dataset(20'000);
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    dataset[i] = static_cast<std::uint8_t>(i % 5);
  }
  auto stored = publish("uploads/mydata", dataset);
  ASSERT_TRUE(stored.ok()) << stored.status();

  ComputeRequest request;
  request.app = "compress";
  request.cpu = MilliCpu::fromCores(2);
  request.memory = ByteSize::fromGiB(1);
  request.params["input"] = "uploads/mydata";

  std::optional<JobOutcome> outcome;
  client_->runToCompletion(request, [&](Result<JobOutcome> r) {
    ASSERT_TRUE(r.ok()) << r.status();
    outcome = *r;
  });
  sim_.run();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_EQ(outcome->finalStatus.state, k8s::JobState::kCompleted);
  EXPECT_TRUE(
      cluster_->store().contains(ndn::Name(outcome->finalStatus.resultPath)));
}

}  // namespace
}  // namespace lidc::core
