// Forwarder pipeline tests over real two/three-node topologies:
// producer/consumer exchange, CS hits, Interest aggregation, loop
// suppression, timeouts, and nack propagation.
#include "ndn/forwarder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>

#include "ndn/app_face.hpp"
#include "net/link.hpp"

namespace lidc::ndn {
namespace {

class ForwarderTest : public ::testing::Test {
 protected:
  ForwarderTest()
      : consumerNode_("consumer", sim_), producerNode_("producer", sim_) {
    net::Link::connect(sim_, consumerNode_, producerNode_,
                       net::LinkParams{sim::Duration::millis(5), 0.0, 0.0});

    consumerApp_ = std::make_shared<AppFace>("app://consumer", sim_, 1);
    consumerNode_.addFace(consumerApp_);

    producerApp_ = std::make_shared<AppFace>("app://producer", sim_, 2);
    producerNode_.addFace(producerApp_);
    producerNode_.registerPrefix(Name("/data"), producerApp_->id());

    // Consumer's route to the producer: its link face is id 1.
    consumerNode_.registerPrefix(Name("/data"), 1);

    producerApp_->setInterestHandler([this](const Interest& interest) {
      ++producerInterests_;
      if (!respond_) return;
      Data data(interest.name());
      data.setContent("payload");
      data.setFreshnessPeriod(sim::Duration::seconds(10));
      data.sign();
      producerApp_->putData(std::move(data));
    });
  }

  Interest makeInterest(const std::string& uri) {
    Interest interest((Name(uri)));
    interest.setLifetime(sim::Duration::seconds(2));
    return interest;
  }

  sim::Simulator sim_;
  Forwarder consumerNode_;
  Forwarder producerNode_;
  std::shared_ptr<AppFace> consumerApp_;
  std::shared_ptr<AppFace> producerApp_;
  int producerInterests_ = 0;
  bool respond_ = true;
};

TEST_F(ForwarderTest, BasicExchangeDeliversData) {
  int received = 0;
  consumerApp_->expressInterest(makeInterest("/data/x"),
                                [&](const Interest&, const Data& data) {
                                  ++received;
                                  EXPECT_EQ(data.contentAsString(), "payload");
                                });
  sim_.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(producerInterests_, 1);
  // RTT = 2 * 5ms.
  EXPECT_DOUBLE_EQ(sim_.now().toSeconds(), 0.010);
}

TEST_F(ForwarderTest, SecondRequestServedFromContentStore) {
  consumerApp_->expressInterest(makeInterest("/data/x"),
                                [](const Interest&, const Data&) {});
  sim_.run();
  int received = 0;
  consumerApp_->expressInterest(makeInterest("/data/x"),
                                [&](const Interest&, const Data&) { ++received; });
  sim_.run();
  EXPECT_EQ(received, 1);
  // The producer never saw the second Interest.
  EXPECT_EQ(producerInterests_, 1);
  EXPECT_GE(consumerNode_.counters().nCsHits, 1u);
}

TEST_F(ForwarderTest, ConcurrentIdenticalInterestsAggregate) {
  // Two different downstream apps on the same node asking the same name:
  // only one Interest goes upstream.
  auto secondApp = std::make_shared<AppFace>("app://consumer2", sim_, 3);
  consumerNode_.addFace(secondApp);
  int received = 0;
  Interest i1 = makeInterest("/data/agg");
  i1.setNonce(111);
  Interest i2 = makeInterest("/data/agg");
  i2.setNonce(222);
  consumerApp_->expressInterest(i1, [&](const Interest&, const Data&) { ++received; });
  secondApp->expressInterest(i2, [&](const Interest&, const Data&) { ++received; });
  sim_.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(producerInterests_, 1);
}

TEST_F(ForwarderTest, DuplicateNonceNacked) {
  // The same nonce arriving on a different face of the producer node is
  // a loop; inject directly.
  auto otherApp = std::make_shared<AppFace>("app://other", sim_, 4);
  producerNode_.addFace(otherApp);

  respond_ = false;
  Interest looped = makeInterest("/data/loop");
  looped.setNonce(777);
  int nacks = 0;
  // First arrival via the link (from consumer), second via otherApp.
  consumerApp_->expressInterest(looped, [](const Interest&, const Data&) {});
  sim_.runUntil(sim::Time::fromNanos(sim::Duration::millis(6).toNanos()));
  otherApp->expressInterest(
      looped, [](const Interest&, const Data&) {},
      [&](const Interest&, const Nack& nack) {
        ++nacks;
        EXPECT_EQ(nack.reason(), NackReason::kDuplicate);
      });
  sim_.run();
  EXPECT_EQ(nacks, 1);
  EXPECT_GE(producerNode_.counters().nDuplicateNonce, 1u);
}

TEST_F(ForwarderTest, NoRouteProducesNack) {
  int nacks = 0;
  consumerApp_->expressInterest(
      makeInterest("/unrouted/name"), [](const Interest&, const Data&) {},
      [&](const Interest&, const Nack& nack) {
        ++nacks;
        EXPECT_EQ(nack.reason(), NackReason::kNoRoute);
      });
  sim_.run();
  EXPECT_EQ(nacks, 1);
}

TEST_F(ForwarderTest, UnansweredInterestTimesOut) {
  respond_ = false;
  int timeouts = 0;
  consumerApp_->expressInterest(
      makeInterest("/data/silent"), [](const Interest&, const Data&) {},
      nullptr, [&](const Interest&) { ++timeouts; });
  sim_.run();
  EXPECT_EQ(timeouts, 1);
  EXPECT_GE(producerNode_.counters().nUnsatisfied, 1u);
  // Both PITs are clean afterwards.
  EXPECT_EQ(consumerNode_.pit().size(), 0u);
  EXPECT_EQ(producerNode_.pit().size(), 0u);
}

TEST_F(ForwarderTest, HopLimitZeroIsDropped) {
  respond_ = false;
  Interest interest = makeInterest("/data/h");
  interest.setHopLimit(0);
  consumerApp_->expressInterest(interest, [](const Interest&, const Data&) {});
  sim_.run();
  EXPECT_EQ(producerInterests_, 0);
}

TEST_F(ForwarderTest, HopLimitCountsTheForwardersCrossed) {
  // consumer app -> first -> second -> third, whose producer app serves
  // /hop. Each forwarder that sends the Interest on spends one hop.
  Forwarder first("first", sim_);
  Forwarder second("second", sim_);
  Forwarder third("third", sim_);
  const auto [firstToSecond, secondToFirst] =
      net::Link::connect(sim_, first, second, net::LinkParams{});
  const auto [secondToThird, thirdToSecond] =
      net::Link::connect(sim_, second, third, net::LinkParams{});
  auto consumer = std::make_shared<AppFace>("app://hop-consumer", sim_, 5);
  first.addFace(consumer);
  auto producer = std::make_shared<AppFace>("app://hop-producer", sim_, 6);
  third.addFace(producer);
  first.registerPrefix(Name("/hop"), firstToSecond);
  second.registerPrefix(Name("/hop"), secondToThird);
  third.registerPrefix(Name("/hop"), producer->id());
  int produced = 0;
  producer->setInterestHandler([&](const Interest& interest) {
    ++produced;
    Data data(interest.name());
    data.setContent("hop");
    producer->putData(std::move(data));
  });

  // Limit 2: first and second forward it, and third drops it on arrival.
  Interest limited = makeInterest("/hop/2");
  limited.setHopLimit(2);
  consumer->expressInterest(limited, [](const Interest&, const Data&) {});
  sim_.run();
  EXPECT_EQ(first.counters().nOutInterests, 1u);
  EXPECT_EQ(second.counters().nOutInterests, 1u);
  EXPECT_EQ(third.counters().nInInterests, 1u);
  EXPECT_EQ(third.counters().nOutInterests, 0u);
  EXPECT_EQ(produced, 0);

  // Limit 3 leaves one hop for the producer's own forwarder.
  int received = 0;
  Interest enough = makeInterest("/hop/3");
  enough.setHopLimit(3);
  consumer->expressInterest(enough,
                            [&](const Interest&, const Data&) { ++received; });
  sim_.run();
  EXPECT_EQ(produced, 1);
  EXPECT_EQ(received, 1);
}

TEST_F(ForwarderTest, UnsolicitedDataDropped) {
  Data data(Name("/data/unsolicited"));
  data.sign();
  producerApp_->putData(data);
  sim_.run();
  EXPECT_GE(producerNode_.counters().nUnsolicitedData, 1u);
}

TEST_F(ForwarderTest, FaceRemovalCleansFib) {
  consumerNode_.removeFace(1);
  int nacks = 0;
  consumerApp_->expressInterest(
      makeInterest("/data/x"), [](const Interest&, const Data&) {},
      [&](const Interest&, const Nack&) { ++nacks; });
  sim_.run();
  EXPECT_EQ(nacks, 1);
}

TEST_F(ForwarderTest, CountersTrackTraffic) {
  consumerApp_->expressInterest(makeInterest("/data/x"),
                                [](const Interest&, const Data&) {});
  sim_.run();
  EXPECT_EQ(consumerNode_.counters().nInInterests, 1u);
  EXPECT_EQ(consumerNode_.counters().nOutInterests, 1u);
  EXPECT_EQ(consumerNode_.counters().nInData, 1u);
  EXPECT_EQ(producerNode_.counters().nSatisfied, 1u);
}

TEST_F(ForwarderTest, RegistryExportsCountersAndFaceTotals) {
  telemetry::MetricsRegistry registry;
  consumerNode_.attachTelemetry(registry);
  // An exchange, a timeout and a no-route nack.
  consumerApp_->expressInterest(makeInterest("/data/x"),
                                [](const Interest&, const Data&) {});
  sim_.run();
  respond_ = false;
  consumerApp_->expressInterest(makeInterest("/data/silent"),
                                [](const Interest&, const Data&) {});
  consumerApp_->expressInterest(makeInterest("/unrouted/name"),
                                [](const Interest&, const Data&) {});
  sim_.run();

  const ForwarderCounters& c = consumerNode_.counters();
  ASSERT_EQ(c.nUnsatisfied, 1u);
  ASSERT_EQ(c.nNoRoute, 1u);
  const auto exported = registry.flatten();
  const auto value = [&exported](const std::string& name) {
    return static_cast<std::uint64_t>(exported.at(name + "{node=\"consumer\"}"));
  };
  EXPECT_EQ(value("lidc_forwarder_in_interests"), c.nInInterests);
  EXPECT_EQ(value("lidc_forwarder_out_interests"), c.nOutInterests);
  EXPECT_EQ(value("lidc_forwarder_in_data"), c.nInData);
  EXPECT_EQ(value("lidc_forwarder_out_data"), c.nOutData);
  EXPECT_EQ(value("lidc_forwarder_cs_hits"), c.nCsHits);
  EXPECT_EQ(value("lidc_forwarder_cs_misses"), c.nCsMisses);
  EXPECT_EQ(value("lidc_forwarder_satisfied"), c.nSatisfied);
  EXPECT_EQ(value("lidc_forwarder_unsatisfied"), c.nUnsatisfied);
  EXPECT_EQ(value("lidc_forwarder_duplicate_nonce"), c.nDuplicateNonce);
  EXPECT_EQ(value("lidc_forwarder_no_route"), c.nNoRoute);
  EXPECT_EQ(value("lidc_forwarder_unsolicited_data"), c.nUnsolicitedData);
  EXPECT_EQ(value("lidc_integrity_drops_total"), c.nIntegrityDrops);

  // The node's faces: its link face (id 1) and the consumer app.
  ASSERT_EQ(consumerNode_.faceCount(), 2u);
  FaceCounters faces;
  for (const FaceId id : {FaceId{1}, consumerApp_->id()}) {
    const FaceCounters& f = consumerNode_.face(id)->counters();
    faces.nInInterests += f.nInInterests;
    faces.nOutInterests += f.nOutInterests;
    faces.nInData += f.nInData;
    faces.nOutData += f.nOutData;
    faces.nInNacks += f.nInNacks;
    faces.nOutNacks += f.nOutNacks;
    faces.nInBytes += f.nInBytes;
    faces.nOutBytes += f.nOutBytes;
  }
  EXPECT_EQ(value("lidc_face_in_interests"), faces.nInInterests);
  EXPECT_EQ(value("lidc_face_out_interests"), faces.nOutInterests);
  EXPECT_EQ(value("lidc_face_in_data"), faces.nInData);
  EXPECT_EQ(value("lidc_face_out_data"), faces.nOutData);
  EXPECT_EQ(value("lidc_face_in_nacks"), faces.nInNacks);
  EXPECT_EQ(value("lidc_face_out_nacks"), faces.nOutNacks);
  EXPECT_EQ(value("lidc_face_in_bytes"), faces.nInBytes);
  EXPECT_EQ(value("lidc_face_out_bytes"), faces.nOutBytes);
  EXPECT_GT(faces.nOutNacks, 0u);
}

TEST_F(ForwarderTest, StrategyChoiceByLongestPrefix) {
  consumerNode_.setStrategy(Name("/data"),
                            std::make_unique<MulticastStrategy>(consumerNode_));
  EXPECT_EQ(consumerNode_.findStrategy(Name("/data/deep/name")).name(), "multicast");
  EXPECT_EQ(consumerNode_.findStrategy(Name("/other")).name(), "best-route");
}

TEST_F(ForwarderTest, NestedSatisfactionInsideDataDelivery) {
  // A producer on the consumer's own node answers from its Interest
  // handler, so the Data arrives inside the pipeline that forwarded the
  // Interest; the consumer's onData then expresses a second Interest,
  // whose Data is satisfied inside the outer onIncomingData.
  auto local = std::make_shared<AppFace>("app://local", sim_, 3);
  consumerNode_.addFace(local);
  consumerNode_.registerPrefix(Name("/local"), local->id());
  local->setInterestHandler([&local](const Interest& interest) {
    Data data(interest.name());
    data.setContent("now");
    local->putData(std::move(data));
  });

  int first = 0;
  int second = 0;
  consumerApp_->expressInterest(
      makeInterest("/local/one"),
      [&](const Interest& interest, const Data& data) {
        ++first;
        EXPECT_EQ(interest.name(), Name("/local/one"));
        EXPECT_EQ(data.name(), Name("/local/one"));
        consumerApp_->expressInterest(
            makeInterest("/local/two"),
            [&](const Interest& inner, const Data& innerData) {
              ++second;
              EXPECT_EQ(inner.name(), Name("/local/two"));
              EXPECT_EQ(innerData.name(), Name("/local/two"));
            },
            [](const Interest&, const Nack&) { FAIL(); },
            [](const Interest&) { FAIL(); });
        EXPECT_EQ(second, 1);  // answered before the inner express returned
      },
      [](const Interest&, const Nack&) { FAIL(); }, [](const Interest&) { FAIL(); });
  EXPECT_EQ(first, 1);
  EXPECT_EQ(consumerNode_.pit().size(), 0u);
  sim_.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 1);
  EXPECT_EQ(consumerNode_.pit().size(), 0u);
  EXPECT_EQ(consumerApp_->pendingInterestCount(), 0u);
  EXPECT_EQ(consumerNode_.counters().nSatisfied, 2u);
}

TEST_F(ForwarderTest, MatchedEntryErasedByANestedPipelineIsStillServed) {
  // One Data for /local/x matches two entries: MustBeFresh false (from
  // the consumer), then true (from a second app). Delivering the first
  // runs the consumer's onData, which has the producer put /local/x again
  // and then expresses /local/y. That nested Data erases both entries,
  // the second of which the outer pipeline has yet to serve, and the new
  // Interest makes an entry. The outer pipeline must still read the
  // second entry as it was (its app gets the Data twice), and must leave
  // the /local/y entry alone, so that its Data is not unsolicited.
  auto producer = std::make_shared<AppFace>("app://local", sim_, 3);
  auto other = std::make_shared<AppFace>("app://other", sim_, 4);
  consumerNode_.addFace(producer);
  consumerNode_.addFace(other);
  consumerNode_.registerPrefix(Name("/local"), producer->id());
  const auto put = [&producer](const char* uri) {
    Data data((Name(uri)));
    data.setContent("v");
    producer->putData(std::move(data));
  };
  producer->setInterestHandler([&](const Interest& interest) {
    if (interest.name() == Name("/local/y")) {
      sim_.scheduleAfter(sim::Duration::millis(1), [&put] { put("/local/y"); });
    }
  });
  const auto noNack = [](const Interest&, const Nack&) { FAIL(); };
  const auto noTimeout = [](const Interest&) { FAIL(); };

  int x = 0;
  int y = 0;
  int otherX = 0;
  consumerApp_->expressInterest(
      makeInterest("/local/x"),
      [&](const Interest&, const Data&) {
        ++x;
        put("/local/x");
        consumerApp_->expressInterest(
            makeInterest("/local/y"), [&](const Interest&, const Data&) { ++y; }, noNack,
            noTimeout);
      },
      noNack, noTimeout);
  Interest fresh = makeInterest("/local/x");
  fresh.setMustBeFresh(true);
  other->expressInterest(fresh, [&](const Interest&, const Data&) { ++otherX; }, noNack,
                         noTimeout);
  ASSERT_EQ(consumerNode_.pit().size(), 2u);
  sim_.scheduleAfter(sim::Duration::millis(1), [&put] { put("/local/x"); });
  sim_.run();

  EXPECT_EQ(x, 1);
  EXPECT_EQ(otherX, 1);
  EXPECT_EQ(y, 1);
  // The consumer's face: /local/x from both pipelines, then /local/y.
  EXPECT_EQ(consumerApp_->counters().nOutData, 3u);
  // The second app's face: /local/x from the nested pipeline, then again
  // from the outer one, after its record was consumed.
  EXPECT_EQ(other->counters().nOutData, 2u);
  EXPECT_EQ(producer->counters().nOutInterests, 3u);
  EXPECT_EQ(consumerNode_.counters().nSatisfied, 5u);
  EXPECT_EQ(consumerNode_.counters().nUnsolicitedData, 0u);
  EXPECT_EQ(consumerNode_.pit().size(), 0u);
  EXPECT_EQ(consumerApp_->pendingInterestCount(), 0u);
  EXPECT_EQ(other->pendingInterestCount(), 0u);
}

TEST_F(ForwarderTest, SatisfiedInterestsLeaveNoTimersQueued) {
  // One Interest per ms with a 4 s lifetime, each answered in 10 ms. A
  // satisfied Interest cancels its two PIT timers and its AppFace timeout;
  // if cancelled timers stayed queued until their lifetime ran out, about
  // 3 x 4,000 of them would pile up here.
  constexpr int kInterests = 5000;
  int sent = 0;
  int satisfied = 0;
  std::size_t peakQueued = 0;
  std::function<void()> sendNext = [&] {
    peakQueued = std::max(peakQueued, sim_.pendingEvents());
    Interest interest(Name("/data/probe/" + std::to_string(sent)));
    interest.setLifetime(sim::Duration::seconds(4));
    consumerApp_->expressInterest(interest,
                                  [&](const Interest&, const Data&) { ++satisfied; });
    if (++sent < kInterests) sim_.scheduleAfter(sim::Duration::millis(1), sendNext);
  };
  sim_.scheduleAfter(sim::Duration::millis(1), sendNext);
  sim_.runUntil(sim::Time() + sim::Duration::millis(kInterests + 20));
  EXPECT_EQ(satisfied, kInterests);
  EXPECT_LT(peakQueued, 100u);
  EXPECT_LT(sim_.pendingEvents(), 100u);
}

}  // namespace
}  // namespace lidc::ndn
