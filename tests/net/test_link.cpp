#include "net/link.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ndn/app_face.hpp"

namespace lidc::net {
namespace {

class LinkTest : public ::testing::Test {
 protected:
  LinkTest() : a_("a", sim_), b_("b", sim_) {}

  /// Wires a consumer app on a_ and a producer app on b_ serving /p.
  void wire(LinkParams params) {
    auto [aToB, bToA] = Link::connect(sim_, a_, b_, params, &link_);
    consumer_ = std::make_shared<ndn::AppFace>("app://c", sim_, 1);
    a_.addFace(consumer_);
    a_.registerPrefix(ndn::Name("/p"), aToB);

    producer_ = std::make_shared<ndn::AppFace>("app://p", sim_, 2);
    b_.addFace(producer_);
    b_.registerPrefix(ndn::Name("/p"), producer_->id());
    producer_->setInterestHandler([this](const ndn::Interest& interest) {
      ndn::Data data(interest.name());
      data.setContent(std::string(payloadSize_, 'x'));
      data.sign();
      producer_->putData(std::move(data));
    });
  }

  sim::Simulator sim_;
  ndn::Forwarder a_;
  ndn::Forwarder b_;
  std::shared_ptr<Link> link_;
  std::shared_ptr<ndn::AppFace> consumer_;
  std::shared_ptr<ndn::AppFace> producer_;
  std::size_t payloadSize_ = 10;
};

TEST_F(LinkTest, LatencyOnlyRoundTrip) {
  wire(LinkParams{sim::Duration::millis(25), 0.0, 0.0});
  bool got = false;
  consumer_->expressInterest(ndn::Interest(ndn::Name("/p/x")),
                             [&](const ndn::Interest&, const ndn::Data&) {
                               got = true;
                             });
  sim_.run();
  EXPECT_TRUE(got);
  EXPECT_DOUBLE_EQ(sim_.now().toSeconds(), 0.050);
}

TEST_F(LinkTest, BandwidthAddsSerializationDelay) {
  // 1 Mbit/s; a ~64 KiB data packet takes ~0.5 s to serialize.
  payloadSize_ = 64 * 1024;
  wire(LinkParams{sim::Duration::millis(1), 1e6, 0.0});
  bool got = false;
  consumer_->expressInterest(ndn::Interest(ndn::Name("/p/x")),
                             [&](const ndn::Interest&, const ndn::Data&) {
                               got = true;
                             });
  sim_.run();
  EXPECT_TRUE(got);
  EXPECT_GT(sim_.now().toSeconds(), 0.5);
  EXPECT_LT(sim_.now().toSeconds(), 0.7);
}

TEST_F(LinkTest, SerializationIsFifoPerDirection) {
  payloadSize_ = 8 * 1024;  // ~65 ms serialization each at 1 Mbit/s
  wire(LinkParams{sim::Duration::millis(1), 1e6, 0.0});
  int got = 0;
  sim::Time lastArrival;
  for (int i = 0; i < 4; ++i) {
    consumer_->expressInterest(
        ndn::Interest(ndn::Name("/p/obj" + std::to_string(i))),
        [&](const ndn::Interest&, const ndn::Data&) {
          ++got;
          lastArrival = sim_.now();
        });
  }
  sim_.run();
  EXPECT_EQ(got, 4);
  // Four back-to-back ~65 ms transmissions must take > 0.25 s in total.
  EXPECT_GT(lastArrival.toSeconds(), 0.25);
}

TEST_F(LinkTest, LossDropsDeterministically) {
  wire(LinkParams{sim::Duration::millis(1), 0.0, 1.0});  // 100% loss
  int timeouts = 0;
  ndn::Interest interest{ndn::Name("/p/x")};
  interest.setLifetime(sim::Duration::millis(200));
  consumer_->expressInterest(
      interest, [](const ndn::Interest&, const ndn::Data&) { FAIL(); }, nullptr,
      [&](const ndn::Interest&) { ++timeouts; });
  sim_.run();
  EXPECT_EQ(timeouts, 1);
  EXPECT_GE(link_->packetsDropped(), 1u);
}

TEST_F(LinkTest, PartialLossEventuallyDelivers) {
  wire(LinkParams{sim::Duration::millis(1), 0.0, 0.5});
  int delivered = 0;
  for (int i = 0; i < 50; ++i) {
    consumer_->expressInterest(
        ndn::Interest(ndn::Name("/p/o" + std::to_string(i))),
        [&](const ndn::Interest&, const ndn::Data&) { ++delivered; });
  }
  sim_.run();
  EXPECT_GT(delivered, 5);
  EXPECT_LT(delivered, 50);
  EXPECT_GT(link_->packetsDropped(), 0u);
}

TEST_F(LinkTest, DownLinkNacksImmediatelyUpRestores) {
  wire(LinkParams{sim::Duration::millis(1), 0.0, 0.0});
  link_->setUp(false);
  // The strategy sees the dead face and nacks NoRoute right away —
  // faster failure signalling than a timeout.
  int nacks = 0;
  ndn::Interest interest{ndn::Name("/p/x")};
  interest.setLifetime(sim::Duration::millis(100));
  consumer_->expressInterest(
      interest, [](const ndn::Interest&, const ndn::Data&) { FAIL(); },
      [&](const ndn::Interest&, const ndn::Nack& nack) {
        ++nacks;
        EXPECT_EQ(nack.reason(), ndn::NackReason::kNoRoute);
      });
  sim_.run();
  EXPECT_EQ(nacks, 1);

  link_->setUp(true);
  bool got = false;
  consumer_->expressInterest(ndn::Interest(ndn::Name("/p/y")),
                             [&](const ndn::Interest&, const ndn::Data&) {
                               got = true;
                             });
  sim_.run();
  EXPECT_TRUE(got);
}

TEST_F(LinkTest, SeededLossAndCorruptionFollowOnePinnedSequence) {
  // Both faces talk straight to the link: their receive handlers log
  // what arrives instead of forwarding it. Each send is logged as its
  // kind and outcome: d delivered, x lost, - not sent (link down), with
  // * when the corruption draw fired. The corruption draw comes first,
  // so it fires even for a Data that the loss draw or the down link
  // then stops.
  const auto [aToB, bToA] =
      Link::connect(sim_, a_, b_, LinkParams{sim::Duration::millis(1), 0.0, 0.3, 0.3},
                    &link_, /*lossSeed=*/11);
  ndn::Face& faceA = *a_.face(aToB);
  ndn::Face& faceB = *b_.face(bToA);
  std::string arrivals;
  faceB.onReceiveInterest = [&](ndn::Face&, const ndn::Interest& interest) {
    arrivals += " I" + interest.name().at(1).toString();
  };
  faceB.onReceiveNack = [&](ndn::Face&, const ndn::Nack& nack) {
    arrivals += " N" + nack.interest().name().at(1).toString();
  };
  faceA.onReceiveData = [&](ndn::Face&, const ndn::Data& data) {
    arrivals += " D" + data.name().at(1).toString() + (data.verify() ? "" : "*");
  };

  std::string sends;
  auto send = [&](char kind, auto&& transmit) {
    const std::uint64_t delivered = link_->packetsDelivered();
    const std::uint64_t dropped = link_->packetsDropped();
    const std::uint64_t corrupted = link_->packetsCorrupted();
    transmit();
    sends += ' ';
    sends += kind;
    sends += link_->packetsDelivered() > delivered ? 'd'
             : link_->packetsDropped() > dropped   ? 'x'
                                                   : '-';
    if (link_->packetsCorrupted() > corrupted) sends += '*';
  };
  std::vector<ndn::Interest> interests;
  std::vector<ndn::Data> data;
  for (int i = 0; i < 12; ++i) {
    const ndn::Name name("/p/" + std::to_string(i));
    interests.emplace_back(name);
    interests.back().setApplicationParameters("params-" + std::to_string(i));
    data.emplace_back(name);
    data.back().setContent(std::string(16, static_cast<char>('a' + i))).sign();
  }
  for (int i = 0; i < 12; ++i) {
    if (i == 4) link_->setUp(false);
    if (i == 8) link_->setUp(true);
    send('I', [&] { faceA.sendInterest(interests[i]); });
    send('D', [&] { faceB.sendData(data[i]); });
    send('N', [&] {
      faceA.sendNack(ndn::Nack(interests[i], ndn::NackReason::kCongestion));
    });
  }
  sim_.run();

  EXPECT_EQ(sends,
            " Ix Dx* Nx Id Dx Nd Id Dd Nd Ix Dx Nd I- D- N- I- D- N- I- D- N- I- D-* N-"
            " Id Dx Nd Id Dx Nx Ix Dd Nx Id Dx* Nd");
  EXPECT_EQ(arrivals, " I1 N1 I2 D2 N2 N3 I8 N8 I9 D10 I11 N11");
  // The sender's packets are untouched: a flip goes into the copy on
  // the wire, never into the shared payload.
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(data[i].contentAsString(), std::string(16, static_cast<char>('a' + i)));
    EXPECT_TRUE(data[i].verify()) << i;
    const auto& params = interests[i].applicationParameters();
    EXPECT_EQ(std::string(params.begin(), params.end()), "params-" + std::to_string(i));
  }
}

}  // namespace
}  // namespace lidc::net
