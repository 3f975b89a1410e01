// Retriever hardening against a misbehaving file server: meta that
// disagrees with itself, per-segment sizes that contradict the
// advertised segment_size (including compensating errors whose total
// still matches), and truncated reassembly — all must fail loudly with
// Internal instead of silently accepting corrupt bytes.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/strings.hpp"
#include "datalake/retriever.hpp"
#include "net/link.hpp"

namespace lidc::datalake {
namespace {

/// A file server under our control: serves a fixed meta string and a
/// fixed byte vector per segment index, properly signed so only the
/// advertised/actual size disagreement is under test.
class LyingFileServer {
 public:
  LyingFileServer(sim::Simulator& sim, ndn::Forwarder& forwarder) {
    face_ = std::make_shared<ndn::AppFace>("app://lying-server", sim);
    const auto faceId = forwarder.addFace(face_);
    forwarder.registerPrefix(ndn::Name("/ndn/k8s/data"), faceId, /*cost=*/0);
    face_->setInterestHandler([this](const ndn::Interest& interest) {
      const ndn::Name& name = interest.name();
      const std::string last = name[name.size() - 1].toString();
      if (last == "meta") {
        ndn::Data data(name);
        data.setContent(meta);
        data.sign();
        face_->putData(std::move(data));
        return;
      }
      if (strings::startsWith(last, "seg=")) {
        const auto index = strings::parseUint(std::string_view(last).substr(4));
        if (index && *index < segments.size()) {
          ndn::Data data(name);
          data.setContent(segments[*index]);
          data.sign();
          face_->putData(std::move(data));
          return;
        }
      }
      face_->putNack(interest, ndn::NackReason::kNoRoute);
    });
  }

  std::string meta;
  std::vector<std::vector<std::uint8_t>> segments;

 private:
  std::shared_ptr<ndn::AppFace> face_;
};

class RetrieverHardeningTest : public ::testing::Test {
 protected:
  RetrieverHardeningTest() : client_("client", sim_), server_("server", sim_) {
    auto [clientToServer, serverToClient] = net::Link::connect(
        sim_, client_, server_, net::LinkParams{sim::Duration::millis(2)});
    client_.registerPrefix(ndn::Name("/ndn/k8s/data"), clientToServer);
    liar_ = std::make_unique<LyingFileServer>(sim_, server_);
    clientApp_ = std::make_shared<ndn::AppFace>("app://client", sim_, 5);
    client_.addFace(clientApp_);
    retriever_ = std::make_unique<Retriever>(*clientApp_);
  }

  static std::vector<std::uint8_t> bytesOf(std::size_t size) {
    return std::vector<std::uint8_t>(size, 0x5a);
  }

  /// Runs one fetch to quiescence and returns its result.
  Result<std::vector<std::uint8_t>> fetch() {
    std::optional<Result<std::vector<std::uint8_t>>> result;
    retriever_->fetch(ndn::Name("/ndn/k8s/data/object"),
                      [&result](Result<std::vector<std::uint8_t>> r) {
                        result = std::move(r);
                      });
    sim_.run();
    if (!result.has_value()) return Status::Internal("fetch never completed");
    return *result;
  }

  sim::Simulator sim_;
  ndn::Forwarder client_;
  ndn::Forwarder server_;
  std::unique_ptr<LyingFileServer> liar_;
  std::shared_ptr<ndn::AppFace> clientApp_;
  std::unique_ptr<Retriever> retriever_;
};

TEST_F(RetrieverHardeningTest, HonestServerStillPasses) {
  liar_->meta = "segments=2;size=1536;segment_size=1024";
  liar_->segments = {bytesOf(1024), bytesOf(512)};
  auto result = fetch();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 1536u);
}

TEST_F(RetrieverHardeningTest, SegmentCountContradictingSegmentSizeIsRejected) {
  // 1000 bytes at segment_size 1024 implies 1 segment, not 3.
  liar_->meta = "segments=3;size=1000;segment_size=1024";
  liar_->segments = {bytesOf(400), bytesOf(400), bytesOf(200)};
  auto result = fetch();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("implies"), std::string::npos);
}

TEST_F(RetrieverHardeningTest, CompensatingSegmentSizesAreRejected) {
  // Totals match the advertised size, but segment 0 is short and
  // segment 1 long — a corruption a total-size check alone would accept.
  liar_->meta = "segments=2;size=2048;segment_size=1024";
  liar_->segments = {bytesOf(1000), bytesOf(1048)};
  auto result = fetch();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("carries"), std::string::npos);
}

TEST_F(RetrieverHardeningTest, TruncatedFinalSegmentIsRejected) {
  liar_->meta = "segments=2;size=2048;segment_size=1024";
  liar_->segments = {bytesOf(1024), bytesOf(512)};
  auto result = fetch();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST_F(RetrieverHardeningTest, LegacyMetaWithoutSegmentSizeStillWorks) {
  liar_->meta = "segments=2;size=2048";
  liar_->segments = {bytesOf(1024), bytesOf(1024)};
  auto result = fetch();
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 2048u);
}

TEST_F(RetrieverHardeningTest, LegacyMetaSizeMismatchIsRejectedAtReassembly) {
  liar_->meta = "segments=2;size=2048";
  liar_->segments = {bytesOf(1024), bytesOf(512)};  // 1536 != 2048
  auto result = fetch();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("advertised"), std::string::npos);
}

TEST_F(RetrieverHardeningTest, LegacyMetaHugeSizeIsRejectedBeforeAllocating) {
  // Without segment_size no per-segment check runs, so only the total
  // stands between a hostile size= and a 4 EiB reserve().
  liar_->meta = "segments=1;size=4611686018427387904";
  liar_->segments = {bytesOf(16)};
  auto result = fetch();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("advertised"), std::string::npos);
}

TEST_F(RetrieverHardeningTest, ZeroSegmentsWithNonZeroSizeIsMalformed) {
  liar_->meta = "segments=0;size=100;segment_size=64";
  auto result = fetch();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("malformed"), std::string::npos);
}

TEST_F(RetrieverHardeningTest, SegmentsWithZeroSizeIsMalformed) {
  liar_->meta = "segments=2;size=0;segment_size=1024";
  liar_->segments = {bytesOf(1024), bytesOf(1024)};
  auto result = fetch();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("malformed"), std::string::npos);
}

}  // namespace
}  // namespace lidc::datalake
