#include "ndn/app_face.hpp"

#include <gtest/gtest.h>

#include <list>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ndn/forwarder.hpp"
#include "net/link.hpp"

namespace lidc::ndn {
namespace {

class AppFaceTest : public ::testing::Test {
 protected:
  AppFaceTest() : node_("node", sim_) {
    consumer_ = std::make_shared<AppFace>("app://c", sim_, 1);
    producer_ = std::make_shared<AppFace>("app://p", sim_, 2);
    node_.addFace(consumer_);
    node_.addFace(producer_);
    node_.registerPrefix(Name("/p"), producer_->id());
  }

  sim::Simulator sim_;
  Forwarder node_;
  std::shared_ptr<AppFace> consumer_;
  std::shared_ptr<AppFace> producer_;
};

TEST_F(AppFaceTest, NonceAutoAssignedWhenZero) {
  std::uint32_t seenNonce = 0;
  producer_->setInterestHandler([&](const Interest& interest) {
    seenNonce = interest.nonce();
  });
  consumer_->expressInterest(Interest(Name("/p/x")),
                             [](const Interest&, const Data&) {});
  sim_.run();
  EXPECT_NE(seenNonce, 0u);
}

TEST_F(AppFaceTest, ExplicitNoncePreserved) {
  std::uint32_t seenNonce = 0;
  producer_->setInterestHandler([&](const Interest& interest) {
    seenNonce = interest.nonce();
  });
  Interest interest(Name("/p/x"));
  interest.setNonce(424242);
  consumer_->expressInterest(interest, [](const Interest&, const Data&) {});
  sim_.run();
  EXPECT_EQ(seenNonce, 424242u);
}

TEST_F(AppFaceTest, CanBePrefixInterestAcceptsDeeperData) {
  producer_->setInterestHandler([this](const Interest& interest) {
    Data data(Name(interest.name()).append("v1").append("seg=0"));
    data.sign();
    producer_->putData(std::move(data));
  });
  Name receivedName;
  Interest interest(Name("/p/obj"));
  interest.setCanBePrefix(true);
  consumer_->expressInterest(interest, [&](const Interest&, const Data& data) {
    receivedName = data.name();
  });
  sim_.run();
  EXPECT_EQ(receivedName, Name("/p/obj/v1/seg=0"));
}

TEST_F(AppFaceTest, PendingCountTracksLifecycle) {
  producer_->setInterestHandler([this](const Interest& interest) {
    Data data(interest.name());
    data.sign();
    producer_->putData(std::move(data));
  });
  EXPECT_EQ(consumer_->pendingInterestCount(), 0u);
  consumer_->expressInterest(Interest(Name("/p/x")),
                             [](const Interest&, const Data&) {});
  // Resolution is synchronous within one event cascade here; after run
  // the pending set must be empty.
  sim_.run();
  EXPECT_EQ(consumer_->pendingInterestCount(), 0u);
}

TEST_F(AppFaceTest, TimeoutFiresExactlyOnceAndCleansUp) {
  int timeouts = 0;
  Interest interest(Name("/p/silent"));
  interest.setLifetime(sim::Duration::millis(100));
  consumer_->expressInterest(
      interest, [](const Interest&, const Data&) { FAIL(); }, nullptr,
      [&](const Interest&) { ++timeouts; });
  sim_.run();
  EXPECT_EQ(timeouts, 1);
  EXPECT_EQ(consumer_->pendingInterestCount(), 0u);
}

TEST_F(AppFaceTest, PutDataIsSignedAutomatically) {
  producer_->setInterestHandler([this](const Interest& interest) {
    Data data(interest.name());
    data.setContent("unsigned");
    producer_->putData(std::move(data));  // putData signs
  });
  bool verified = false;
  consumer_->expressInterest(Interest(Name("/p/x")),
                             [&](const Interest&, const Data& data) {
                               verified = data.verify();
                             });
  sim_.run();
  EXPECT_TRUE(verified);
}

TEST_F(AppFaceTest, DownFaceDropsTraffic) {
  producer_->setInterestHandler([](const Interest&) { FAIL(); });
  consumer_->setUp(false);
  consumer_->expressInterest(Interest(Name("/p/x")),
                             [](const Interest&, const Data&) { FAIL(); });
  sim_.run();
  // Nothing crashed; the Interest never entered the forwarder (counter 0).
  EXPECT_EQ(consumer_->counters().nInInterests, 0u);
}

TEST_F(AppFaceTest, ThirtyTwoThousandOutstandingAllComplete) {
  // The producer sits one 5 ms link away, so every Interest is
  // outstanding on the consumer face before the first Data returns.
  Forwarder remote("remote", sim_);
  const FaceId toRemote =
      net::Link::connect(sim_, node_, remote,
                         net::LinkParams{sim::Duration::millis(5), 0.0, 0.0})
          .first;
  auto farProducer = std::make_shared<AppFace>("app://far", sim_, 3);
  remote.addFace(farProducer);
  remote.registerPrefix(Name("/far"), farProducer->id());
  node_.registerPrefix(Name("/far"), toRemote);
  farProducer->setInterestHandler([&farProducer](const Interest& interest) {
    Data data(interest.name());
    data.setContent("v");
    farProducer->putData(std::move(data));
  });

  constexpr int kOutstanding = 32768;
  std::vector<int> fired(kOutstanding, 0);
  for (int i = 0; i < kOutstanding; ++i) {
    Interest interest(Name("/far").appendNumber(static_cast<std::uint64_t>(i)));
    interest.setLifetime(sim::Duration::seconds(4));
    consumer_->expressInterest(
        interest,
        [&fired, i](const Interest& sent, const Data& data) {
          EXPECT_EQ(sent.name(), data.name());
          ++fired[static_cast<std::size_t>(i)];
        },
        [](const Interest&, const Nack&) { FAIL(); }, [](const Interest&) { FAIL(); });
  }
  EXPECT_EQ(consumer_->pendingInterestCount(), static_cast<std::size_t>(kOutstanding));
  sim_.run();
  EXPECT_EQ(consumer_->pendingInterestCount(), 0u);
  EXPECT_EQ(std::count(fired.begin(), fired.end(), 1), kOutstanding);
  EXPECT_EQ(node_.pit().size(), 0u);
  EXPECT_EQ(remote.pit().size(), 0u);
}

/// AppFace's matching as a linear scan of a list in the order expressed (the
/// implementation the name-indexed table replaced), kept as the reference.
class ReferenceAppFace {
 public:
  explicit ReferenceAppFace(sim::Simulator& sim) : sim_(sim) {}

  void expressInterest(Interest interest, AppFace::DataCallback onData,
                       AppFace::NackCallback onNack, AppFace::TimeoutCallback onTimeout) {
    pending_.push_back(Pending{interest, std::move(onData), std::move(onNack),
                               std::move(onTimeout), sim::EventHandle{}});
    auto it = std::prev(pending_.end());
    it->timeoutEvent = sim_.scheduleAfter(interest.lifetime(), [this, it] {
      Pending pending = std::move(*it);
      pending_.erase(it);
      if (pending.onTimeout) pending.onTimeout(pending.interest);
    });
  }

  void sendData(const Data& data) {
    while (true) {
      auto it = std::find_if(pending_.begin(), pending_.end(), [&](const Pending& p) {
        const bool match = p.interest.canBePrefix() ? p.interest.name().isPrefixOf(data.name())
                                                    : p.interest.name() == data.name();
        return match && !(p.interest.excludeDigest().has_value() &&
                          *p.interest.excludeDigest() == data.contentDigest());
      });
      if (it == pending_.end()) return;
      Pending pending = std::move(*it);
      pending_.erase(it);
      pending.timeoutEvent.cancel();
      if (pending.onData) pending.onData(pending.interest, data);
    }
  }

  void sendNack(const Nack& nack) {
    auto it = std::find_if(pending_.begin(), pending_.end(), [&](const Pending& p) {
      return p.interest.name() == nack.interest().name();
    });
    if (it == pending_.end()) return;
    Pending pending = std::move(*it);
    pending_.erase(it);
    pending.timeoutEvent.cancel();
    if (pending.onNack) pending.onNack(pending.interest, nack);
  }

  [[nodiscard]] std::size_t pendingInterestCount() const { return pending_.size(); }

 private:
  struct Pending {
    Interest interest;
    AppFace::DataCallback onData;
    AppFace::NackCallback onNack;
    AppFace::TimeoutCallback onTimeout;
    sim::EventHandle timeoutEvent;
  };
  sim::Simulator& sim_;
  std::list<Pending> pending_;
};

/// Names over a two-letter alphabet and up to three components, so exact
/// duplicates and prefixes of one another are common.
Name smallName(Rng& rng) {
  Name name("/p");
  const std::size_t count = rng.uniform(3);
  for (std::size_t i = 0; i < count; ++i) name.append(rng.bernoulli(0.5) ? "x" : "y");
  return name;
}

/// Drives the same seeded operations into one face and logs every
/// callback with its arguments. Callbacks re-express by a rule that reads
/// only the Interest, so both faces re-express identically.
template <typename FaceT>
class ModelRunner {
 public:
  ModelRunner(FaceT& face, std::vector<std::string>& log) : face_(face), log_(log) {}

  void express(const Interest& interest) {
    face_.expressInterest(
        interest,
        [this](const Interest& sent, const Data& data) {
          log_.push_back("data " + describe(sent) + " <- " + data.name().toUri() + " " +
                         data.contentAsString());
          reexpress(sent);
        },
        [this](const Interest& sent, const Nack& nack) {
          log_.push_back("nack " + describe(sent) + " reason " +
                         std::to_string(static_cast<int>(nack.reason())));
          reexpress(sent);
        },
        [this](const Interest& sent) {
          log_.push_back("timeout " + describe(sent));
          reexpress(sent);
        });
  }

 private:
  static std::string describe(const Interest& interest) {
    std::string text = interest.name().toUri() + " n" + std::to_string(interest.nonce());
    if (interest.canBePrefix()) text += " cbp";
    if (interest.excludeDigest()) text += " x" + std::to_string(*interest.excludeDigest());
    return text;
  }
  void reexpress(const Interest& sent) {
    // Every third callback expresses again: the same name (which the
    // same Data may still satisfy) or one component shorter.
    if (sent.nonce() % 3 != 0 || sent.nonce() > 1'000'000) return;
    Interest again(sent.name().size() > 1 && sent.nonce() % 2 == 0
                       ? sent.name().prefix(sent.name().size() - 1)
                       : sent.name());
    again.setNonce(sent.nonce() * 7 + 1'000'001);
    again.setCanBePrefix(sent.nonce() % 4 == 0);
    again.setLifetime(sim::Duration::millis(50));
    express(again);
  }

  FaceT& face_;
  std::vector<std::string>& log_;
};

class AppFaceReferenceModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AppFaceReferenceModel, CallbacksMatchTheListScanInOrderAndArguments) {
  Rng rng(GetParam());
  sim::Simulator sim;
  AppFace face("app://model", sim, 1);
  ReferenceAppFace reference(sim);
  std::vector<std::string> got;
  std::vector<std::string> want;
  ModelRunner<AppFace> faceRunner(face, got);
  ModelRunner<ReferenceAppFace> referenceRunner(reference, want);

  const std::vector<std::string> payloads = {"a", "b", "c"};
  std::uint32_t nonce = 1;
  for (int op = 0; op < 3000; ++op) {
    const std::uint64_t kind = rng.uniform(100);
    if (kind < 45) {
      Interest interest(smallName(rng));
      interest.setNonce(nonce++);
      interest.setCanBePrefix(rng.bernoulli(0.3));
      interest.setLifetime(sim::Duration::millis(static_cast<std::int64_t>(10 + rng.uniform(300))));
      if (rng.uniform(4) == 0) {
        // Excludes one payload under the Interest's own name (the digest
        // is seeded from the name).
        Data poison(interest.name());
        poison.setContent(payloads[rng.uniform(payloads.size())]);
        interest.setExcludeDigest(poison.contentDigest());
      }
      faceRunner.express(interest);
      referenceRunner.express(interest);
    } else if (kind < 75) {
      Data data(smallName(rng));
      if (rng.bernoulli(0.3)) data.setName(Name(data.name()).append("deeper"));
      data.setContent(payloads[rng.uniform(payloads.size())]);
      face.sendData(data);
      reference.sendData(data);
    } else if (kind < 85) {
      const Nack nack(Interest(smallName(rng)), NackReason::kNoRoute);
      face.sendNack(nack);
      reference.sendNack(nack);
    } else {
      sim.runUntil(sim.now() + sim::Duration::millis(static_cast<std::int64_t>(rng.uniform(120))));
    }
    ASSERT_EQ(got, want) << "op " << op;
    ASSERT_EQ(face.pendingInterestCount(), reference.pendingInterestCount()) << "op " << op;
  }
  sim.run();
  EXPECT_EQ(got, want);
  EXPECT_EQ(face.pendingInterestCount(), 0u);
  // Every kind of completion happened, re-expressions included.
  const auto count = [&got](const std::string& prefix) {
    return std::count_if(got.begin(), got.end(),
                         [&prefix](const std::string& line) { return line.rfind(prefix, 0) == 0; });
  };
  EXPECT_GT(count("data "), 100);
  EXPECT_GT(count("nack "), 20);
  EXPECT_GT(count("timeout "), 100);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AppFaceReferenceModel, ::testing::Values(1, 7, 2024, 99991));

}  // namespace
}  // namespace lidc::ndn
