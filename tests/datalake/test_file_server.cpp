// File server tests: the lake's producer application serving
// meta/segment Data for stored objects — correct segmentation math,
// nacks for missing objects and malformed names (instead of silence
// that would wedge consumers into timeouts), and overwrite visibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "datalake/file_server.hpp"
#include "datalake/retriever.hpp"
#include "net/link.hpp"

namespace lidc::datalake {
namespace {

const ndn::Name kPrefix("/ndn/k8s/data");

class FileServerTest : public ::testing::Test {
 protected:
  FileServerTest()
      : client_("client", sim_),
        server_("server", sim_),
        pvc_("lake", ByteSize::fromMiB(4)),
        store_(pvc_) {
    auto [clientToServer, serverToClient] = net::Link::connect(
        sim_, client_, server_, net::LinkParams{sim::Duration::millis(2)});
    (void)serverToClient;
    client_.registerPrefix(kPrefix, clientToServer);
    fileServer_ = std::make_unique<FileServer>(server_, store_, kPrefix,
                                               /*segmentSize=*/1024);
    clientApp_ = std::make_shared<ndn::AppFace>("app://client", sim_, 5);
    client_.addFace(clientApp_);
    retriever_ = std::make_unique<Retriever>(*clientApp_);
  }

  struct Reply {
    bool data = false;
    bool nack = false;
    bool timeout = false;
    std::string content;
  };

  /// One raw Interest, run to quiescence.
  Reply express(const ndn::Name& name, bool mustBeFresh = false) {
    Reply reply;
    ndn::Interest interest(name);
    interest.setMustBeFresh(mustBeFresh).setLifetime(sim::Duration::seconds(1));
    clientApp_->expressInterest(
        std::move(interest),
        [&reply](const ndn::Interest&, const ndn::Data& data) {
          reply.data = true;
          reply.content = data.contentAsString();
        },
        [&reply](const ndn::Interest&, const ndn::Nack&) { reply.nack = true; },
        [&reply](const ndn::Interest&) { reply.timeout = true; });
    sim_.run();
    return reply;
  }

  /// Full object retrieval through the segment protocol.
  Result<std::vector<std::uint8_t>> fetch(const ndn::Name& name) {
    std::optional<Result<std::vector<std::uint8_t>>> result;
    retriever_->fetch(name, [&result](Result<std::vector<std::uint8_t>> r) {
      result = std::move(r);
    });
    sim_.run();
    if (!result.has_value()) return Status::Internal("fetch never completed");
    return *result;
  }

  sim::Simulator sim_;
  ndn::Forwarder client_;
  ndn::Forwarder server_;
  k8s::PersistentVolumeClaim pvc_;
  ObjectStore store_;
  std::unique_ptr<FileServer> fileServer_;
  std::shared_ptr<ndn::AppFace> clientApp_;
  std::unique_ptr<Retriever> retriever_;
};

TEST_F(FileServerTest, ServesMetaAndSegmentsForStoredObject) {
  // 2.5 segments at segmentSize 1024.
  std::vector<std::uint8_t> bytes(2560);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_TRUE(store_.put(ndn::Name("/ndn/k8s/data/obj"), bytes).ok());

  const Reply meta = express(ndn::Name("/ndn/k8s/data/obj/meta"));
  ASSERT_TRUE(meta.data);
  EXPECT_EQ(meta.content, "segments=3;size=2560;segment_size=1024");

  // The bare object name aliases meta, so prefix discovery works.
  const Reply bare = express(ndn::Name("/ndn/k8s/data/obj"));
  ASSERT_TRUE(bare.data);
  EXPECT_EQ(bare.content, meta.content);

  // End-to-end reassembly returns the exact bytes.
  auto fetched = fetch(ndn::Name("/ndn/k8s/data/obj"));
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_EQ(*fetched, bytes);
  EXPECT_GE(fileServer_->interestsServed(), 5u);  // 2x meta + 3 segments
  EXPECT_EQ(fileServer_->interestsRejected(), 0u);
}

TEST_F(FileServerTest, MissingObjectIsNackedNotSilent) {
  EXPECT_TRUE(express(ndn::Name("/ndn/k8s/data/ghost/meta")).nack);
  EXPECT_TRUE(express(ndn::Name("/ndn/k8s/data/ghost/seg=0")).nack);
  EXPECT_EQ(fileServer_->interestsRejected(), 2u);

  auto fetched = fetch(ndn::Name("/ndn/k8s/data/ghost"));
  EXPECT_FALSE(fetched.ok());
}

TEST_F(FileServerTest, MalformedNamesAreRejected) {
  ASSERT_TRUE(store_.putText(ndn::Name("/ndn/k8s/data/obj"), "payload").ok());

  // The bare served prefix names no object.
  EXPECT_TRUE(express(kPrefix).nack);
  // Unparseable and out-of-range segment indices.
  EXPECT_TRUE(express(ndn::Name("/ndn/k8s/data/obj/seg=abc")).nack);
  EXPECT_TRUE(express(ndn::Name("/ndn/k8s/data/obj/seg=99")).nack);
  EXPECT_EQ(fileServer_->interestsRejected(), 3u);
  EXPECT_EQ(fileServer_->interestsServed(), 0u);
}

TEST_F(FileServerTest, WrappingSegmentIndexIsRejected) {
  std::vector<std::uint8_t> bytes(2048, 'a');
  std::fill(bytes.begin() + 1024, bytes.end(), 'b');
  ASSERT_TRUE(store_.put(ndn::Name("/ndn/k8s/data/obj"), bytes).ok());

  // (2^54 + 1) * 1024 wraps a 64-bit offset to 1024: unchecked, this
  // name would be answered with segment 1's bytes, and caches would
  // keep that copy.
  const Reply wrapped = express(ndn::Name("/ndn/k8s/data/obj/seg=18014398509481985"));
  EXPECT_TRUE(wrapped.nack);
  EXPECT_FALSE(wrapped.data);
  EXPECT_TRUE(express(ndn::Name("/ndn/k8s/data/obj/seg=2")).nack);
  EXPECT_EQ(fileServer_->interestsRejected(), 2u);
  EXPECT_EQ(fileServer_->interestsServed(), 0u);

  const Reply last = express(ndn::Name("/ndn/k8s/data/obj/seg=1"));
  ASSERT_TRUE(last.data);
  EXPECT_EQ(last.content, std::string(1024, 'b'));
}

TEST_F(FileServerTest, OverwriteServesNewBytesToFreshConsumers) {
  const ndn::Name name("/ndn/k8s/data/obj");
  ASSERT_TRUE(store_.putText(name, "version-one").ok());
  auto first = fetch(name);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(std::string(first->begin(), first->end()), "version-one");

  // Overwrite with a different size. Plain Interests may keep riding
  // the cached copies (NDN names are immutable as far as Content
  // Stores care), but MustBeFresh consumers see the replacement once
  // the cached Data ages out of freshness.
  ASSERT_TRUE(store_.putText(name, "v2").ok());
  const Reply cached = express(ndn::Name("/ndn/k8s/data/obj/meta"));
  ASSERT_TRUE(cached.data);
  EXPECT_EQ(cached.content, "segments=1;size=11;segment_size=1024");

  sim_.runUntil(sim_.now() + sim::Duration::seconds(11));
  const Reply meta =
      express(ndn::Name("/ndn/k8s/data/obj/meta"), /*mustBeFresh=*/true);
  ASSERT_TRUE(meta.data);
  EXPECT_EQ(meta.content, "segments=1;size=2;segment_size=1024");
  const Reply segment =
      express(ndn::Name("/ndn/k8s/data/obj/seg=0"), /*mustBeFresh=*/true);
  ASSERT_TRUE(segment.data);
  EXPECT_EQ(segment.content, "v2");
}

TEST_F(FileServerTest, EmptyObjectRoundTrips) {
  const ndn::Name name("/ndn/k8s/data/empty");
  ASSERT_TRUE(store_.put(name, std::vector<std::uint8_t>{}).ok());
  const Reply meta = express(ndn::Name("/ndn/k8s/data/empty/meta"));
  ASSERT_TRUE(meta.data);
  EXPECT_EQ(meta.content, "segments=0;size=0;segment_size=1024");

  auto fetched = fetch(name);
  ASSERT_TRUE(fetched.ok()) << fetched.status();
  EXPECT_TRUE(fetched->empty());
}

}  // namespace
}  // namespace lidc::datalake
