// Data authentication (paper SVII): the retriever rejects Data failing
// signature verification — a malicious or corrupted producer cannot
// feed clients bad bytes silently.
#include <gtest/gtest.h>

#include "datalake/retriever.hpp"
#include "ndn/app_face.hpp"
#include "ndn/forwarder.hpp"
#include "net/link.hpp"

namespace lidc::datalake {
namespace {

class SecurityTest : public ::testing::Test {
 protected:
  SecurityTest() : client_("client", sim_), server_("server", sim_) {
    auto [toServer, toClient] = net::Link::connect(
        sim_, client_, server_, net::LinkParams{sim::Duration::millis(1)});
    client_.registerPrefix(ndn::Name("/ndn/k8s/data"), toServer);
    // No verification in the CS path: disable caches so the malicious
    // producer is always consulted.
    client_.cs().setCapacity(0);
    server_.cs().setCapacity(0);
    // These tests exercise the retriever's own (application-layer)
    // verification, so the routers' on-path integrity filter — which
    // would otherwise drop the tampered Data before the app sees it
    // (test_forwarder covers that) — is switched off.
    client_.setDataVerification(false);
    server_.setDataVerification(false);

    producer_ = std::make_shared<ndn::AppFace>("app://evil", sim_, 66);
    server_.addFace(producer_);
    server_.registerPrefix(ndn::Name("/ndn/k8s/data"), producer_->id());

    clientApp_ = std::make_shared<ndn::AppFace>("app://c", sim_, 5);
    client_.addFace(clientApp_);
  }

  /// Producer serving a 1-segment object; `tamper` breaks the segment's
  /// signature.
  void serveObject(bool tamperSegment) {
    producer_->setInterestHandler([this, tamperSegment](const ndn::Interest& i) {
      const std::string last = i.name()[i.name().size() - 1].toString();
      ndn::Data data(i.name());
      if (last == "meta") {
        data.setContent("segments=1;size=5;segment_size=1024");
        data.sign();
      } else {
        data.setContent("hello");
        data.sign();
        if (tamperSegment) {
          // Flip content after signing: signature no longer matches.
          auto bytes = data.content();
          bytes[0] ^= 0xFF;
          data.setContent(std::move(bytes));
        }
      }
      // Bypass putData's auto-signing: inject the packet as-is.
      producer_->receiveData(data);
    });
  }

  sim::Simulator sim_;
  ndn::Forwarder client_;
  ndn::Forwarder server_;
  std::shared_ptr<ndn::AppFace> producer_;
  std::shared_ptr<ndn::AppFace> clientApp_;
};

TEST_F(SecurityTest, ValidSignaturesPass) {
  serveObject(false);
  Retriever retriever(*clientApp_);
  std::optional<std::string> fetched;
  retriever.fetch(ndn::Name("/ndn/k8s/data/obj"),
                  [&](Result<std::vector<std::uint8_t>> r) {
                    ASSERT_TRUE(r.ok()) << r.status();
                    fetched = std::string(r->begin(), r->end());
                  });
  sim_.run();
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, "hello");
}

TEST_F(SecurityTest, TamperedSegmentRejected) {
  serveObject(true);
  Retriever retriever(*clientApp_);
  std::optional<Status> failure;
  retriever.fetch(ndn::Name("/ndn/k8s/data/obj"),
                  [&](Result<std::vector<std::uint8_t>> r) {
                    ASSERT_FALSE(r.ok());
                    failure = r.status();
                  });
  sim_.run();
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->code(), StatusCode::kPermissionDenied);
}

TEST_F(SecurityTest, VerificationCanBeDisabled) {
  serveObject(true);
  RetrieveOptions lax;
  lax.verifySignatures = false;
  Retriever retriever(*clientApp_, lax);
  bool fetched = false;
  retriever.fetch(ndn::Name("/ndn/k8s/data/obj"),
                  [&](Result<std::vector<std::uint8_t>> r) {
                    fetched = r.ok();
                  });
  sim_.run();
  EXPECT_TRUE(fetched);  // caller opted out of authentication
}

// A poisoned cache entry must not wedge the transfer: the retriever's
// re-fetch carries the bad payload's digest as an exclusion hint (plus
// MustBeFresh), so the content store skips the poisoned entry and the
// Interest reaches the producer, which now serves good bytes.
TEST_F(SecurityTest, IntegrityRetryWithExclusionRecoversPoisonedCacheEntry) {
  // Re-enable the client-side CS and let it cache without verifying —
  // the worst case: a poisoned entry is already inside a cache that
  // will happily re-serve it.
  client_.cs().setCapacity(64);
  client_.cs().setVerification(false);

  int segmentServes = 0;
  producer_->setInterestHandler([this, &segmentServes](const ndn::Interest& i) {
    const std::string last = i.name()[i.name().size() - 1].toString();
    ndn::Data data(i.name());
    // Long freshness: MustBeFresh alone would NOT skip the cached
    // poison; only the exclusion hint can.
    data.setFreshnessPeriod(sim::Duration::seconds(30));
    if (last == "meta") {
      data.setContent("segments=1;size=5;segment_size=1024");
      data.sign();
    } else {
      data.setContent("hello");
      data.sign();
      if (segmentServes++ == 0) {
        // First serve is corrupted in the producer's buffer; later
        // serves are clean.
        auto bytes = data.content();
        bytes[0] ^= 0xFF;
        data.setContent(std::move(bytes));
      }
    }
    producer_->receiveData(data);
  });

  Retriever retriever(*clientApp_);
  std::optional<std::string> fetched;
  retriever.fetch(ndn::Name("/ndn/k8s/data/obj"),
                  [&](Result<std::vector<std::uint8_t>> r) {
                    ASSERT_TRUE(r.ok()) << r.status();
                    fetched = std::string(r->begin(), r->end());
                  });
  sim_.run();
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(*fetched, "hello");
  EXPECT_EQ(retriever.integrityRetries(), 1u);
  EXPECT_EQ(segmentServes, 2);  // poisoned serve + the recovering one
}

// Bounded attempts: a producer that only ever serves poison exhausts
// the retriever's two integrity retries and the transfer fails
// PERMISSION_DENIED instead of looping forever.
TEST_F(SecurityTest, IntegrityRetriesAreBounded) {
  serveObject(/*tamperSegment=*/true);
  Retriever retriever(*clientApp_);
  std::optional<Status> failure;
  retriever.fetch(ndn::Name("/ndn/k8s/data/obj"),
                  [&](Result<std::vector<std::uint8_t>> r) {
                    ASSERT_FALSE(r.ok());
                    failure = r.status();
                  });
  sim_.run();
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(retriever.integrityRetries(), 2u);
}

}  // namespace
}  // namespace lidc::datalake
