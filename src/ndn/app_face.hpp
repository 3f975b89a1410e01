// Application endpoint face, modeled on the ndn-cxx Face API: consumers
// call expressInterest() with callbacks, producers install an Interest
// handler and answer with putData(). LIDC clients, gateways, and data
// lake file servers all sit on AppFaces.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/open_index.hpp"
#include "common/rng.hpp"
#include "common/slot_pool.hpp"
#include "ndn/face.hpp"
#include "sim/simulator.hpp"

namespace lidc::ndn {

class AppFace : public Face {
 public:
  using DataCallback = std::function<void(const Interest&, const Data&)>;
  using NackCallback = std::function<void(const Interest&, const Nack&)>;
  using TimeoutCallback = std::function<void(const Interest&)>;
  using InterestHandler = std::function<void(const Interest&)>;

  AppFace(std::string uri, sim::Simulator& sim, std::uint64_t nonceSeed = 1)
      : Face(std::move(uri)), sim_(sim), nonce_rng_(nonceSeed) {}

  /// Consumer side: sends an Interest into the forwarder; exactly one of
  /// onData / onNack / onTimeout will fire.
  void expressInterest(Interest interest, DataCallback onData,
                       NackCallback onNack = nullptr,
                       TimeoutCallback onTimeout = nullptr);

  /// Producer side: receives Interests the forwarder routes to this face.
  void setInterestHandler(InterestHandler handler) {
    interest_handler_ = std::move(handler);
  }

  /// Producer side: publishes Data back into the forwarder.
  void putData(Data data);

  /// Producer side: sends a Nack for an Interest this app cannot serve.
  void putNack(const Interest& interest, NackReason reason);

  [[nodiscard]] std::size_t pendingInterestCount() const noexcept {
    return pending_count_;
  }

  // --- Face overrides: forwarder -> application delivery ---
  void sendInterest(const Interest& interest) override;
  void sendData(const Data& data) override;
  void sendNack(const Nack& nack) override;

 private:
  struct Callbacks {
    DataCallback onData;
    NackCallback onNack;
    TimeoutCallback onTimeout;
  };
  struct Chain;
  /// One expressed Interest awaiting its Data, Nack or timeout. Records
  /// live in pooled slots that never move, so a callback may express more
  /// Interests while its own record's Interest is still being read.
  struct Pending {
    Interest interest;
    Callbacks callbacks;
    sim::EventHandle timeoutEvent;
    /// Expression order: matching fires the earliest-expressed record first.
    std::uint64_t seq = 0;
    /// The records pending under the same name, and the neighbours in it.
    Chain* chain = nullptr;
    Pending* older = nullptr;
    Pending* newer = nullptr;
  };
  /// The records pending under one exact name, in the order expressed.
  struct Chain {
    Pending* oldest = nullptr;
    Pending* newest = nullptr;
  };
  struct ChainHash {
    std::size_t operator()(const Chain& chain) const noexcept {
      return chain.oldest->interest.name().hash();
    }
  };

  /// The chain of records pending under exactly `name`, or null.
  [[nodiscard]] Chain* chainOf(const Name& name) const;
  /// The earliest-expressed record this Data satisfies now, or null.
  [[nodiscard]] Pending* matchForData(const Data& data) const;
  /// Appends a record to its name's chain (and to the prefix list).
  void index(Pending* record);
  /// Takes a record out of its chain and the prefix list.
  void unindex(Pending* record);
  /// Unindexes a record, cancels its timeout and runs `fire` on its
  /// callbacks, moved to a local that is destroyed only after `fire`
  /// returns and the slot is back in the pool.
  template <typename Fire>
  void complete(Pending* record, Fire&& fire);

  sim::Simulator& sim_;
  Rng nonce_rng_;
  SlotPool<Pending, 8> pool_;
  SlotPool<Chain, 8> chains_;
  /// One chain per distinct pending name.
  OpenIndex<Chain, ChainHash> index_;
  std::size_t pending_count_ = 0;
  std::uint64_t next_seq_ = 0;
  /// CanBePrefix records (also in their name's chain), in the order expressed.
  std::vector<Pending*> prefix_records_;
  InterestHandler interest_handler_;
};

}  // namespace lidc::ndn
