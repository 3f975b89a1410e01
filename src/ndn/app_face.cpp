#include "ndn/app_face.hpp"

#include <algorithm>

namespace lidc::ndn {

namespace {
/// Copy-assigned into a freed slot: drops the Interest's parameters and
/// keeps its name buffer.
const Interest kFreed;
}  // namespace

template <typename Fire>
void AppFace::complete(Pending* record, Fire&& fire) {
  unindex(record);
  record->timeoutEvent.cancel();  // does nothing when the timeout is what fires
  Callbacks callbacks = std::move(record->callbacks);
  fire(callbacks, record->interest);
  record->interest = kFreed;
  pool_.release(record);
}

void AppFace::expressInterest(Interest interest, DataCallback onData,
                              NackCallback onNack, TimeoutCallback onTimeout) {
  if (interest.nonce() == 0) {
    interest.setNonce(static_cast<std::uint32_t>(nonce_rng_() & 0xFFFFFFFFu) | 1u);
  }

  Pending* record = pool_.acquire();
  record->interest = std::move(interest);
  record->callbacks = {std::move(onData), std::move(onNack), std::move(onTimeout)};
  record->seq = next_seq_++;
  index(record);

  // App-level timeout mirrors the Interest lifetime.
  record->timeoutEvent = sim_.scheduleAfter(record->interest.lifetime(), [this, record] {
    complete(record, [](Callbacks& callbacks, const Interest& interest) {
      if (callbacks.onTimeout) callbacks.onTimeout(interest);
    });
  });

  // Into the forwarder.
  receiveInterest(record->interest);
}

void AppFace::putData(Data data) {
  if (!data.verify()) data.sign();
  receiveData(data);
}

void AppFace::putNack(const Interest& interest, NackReason reason) {
  receiveNack(Nack(interest, reason));
}

void AppFace::sendInterest(const Interest& interest) {
  countOutInterest(interest);
  if (interest_handler_) interest_handler_(interest);
}

void AppFace::sendData(const Data& data) {
  countOutData(data);
  // All pending Interests this Data satisfies fire (typically one), one
  // at a time. Each pass looks again, so a record that a callback adds
  // can still be satisfied by the same Data.
  while (Pending* record = matchForData(data)) {
    complete(record, [&data](Callbacks& callbacks, const Interest& interest) {
      if (callbacks.onData) callbacks.onData(interest, data);
    });
  }
}

void AppFace::sendNack(const Nack& nack) {
  countOutNack();
  // The earliest-expressed record with exactly the nacked name.
  Chain* chain = chainOf(nack.interest().name());
  if (chain == nullptr) return;
  complete(chain->oldest, [&nack](Callbacks& callbacks, const Interest& interest) {
    if (callbacks.onNack) callbacks.onNack(interest, nack);
  });
}

AppFace::Pending* AppFace::matchForData(const Data& data) const {
  // An Interest excluding this payload's digest is not satisfied by
  // it — otherwise an integrity re-fetch expressed from inside a Data
  // callback would be consumed by the very poison it is escaping.
  const auto excluded = [&data](const Interest& interest) {
    return interest.excludeDigest().has_value() &&
           *interest.excludeDigest() == data.contentDigest();
  };
  // Every record under the exact name is satisfied; the chain is in
  // the order expressed.
  Pending* match = nullptr;
  if (const Chain* chain = chainOf(data.name())) {
    for (Pending* record = chain->oldest; record != nullptr; record = record->newer) {
      if (!excluded(record->interest)) {
        match = record;
        break;
      }
    }
  }
  // A CanBePrefix record expressed earlier may cover the name from above.
  for (Pending* record : prefix_records_) {
    if (match != nullptr && record->seq >= match->seq) break;
    if (record->interest.name().isPrefixOf(data.name()) && !excluded(record->interest)) {
      return record;
    }
  }
  return match;
}

AppFace::Chain* AppFace::chainOf(const Name& name) const {
  return index_.find(name.hash(), [&name](const Chain& chain) {
    const Name& stored = chain.oldest->interest.name();
    return stored.hash() == name.hash() && stored == name;
  });
}

void AppFace::index(Pending* record) {
  Chain* chain = chainOf(record->interest.name());
  if (chain == nullptr) {
    chain = chains_.acquire();
    *chain = Chain{record, record};
    index_.insert(chain);
    record->older = nullptr;
  } else {
    chain->newest->newer = record;
    record->older = chain->newest;
    chain->newest = record;
  }
  record->newer = nullptr;
  record->chain = chain;
  if (record->interest.canBePrefix()) prefix_records_.push_back(record);
  ++pending_count_;
}

void AppFace::unindex(Pending* record) {
  --pending_count_;
  if (record->interest.canBePrefix()) {
    prefix_records_.erase(
        std::find(prefix_records_.begin(), prefix_records_.end(), record));
  }
  Chain* chain = record->chain;
  (record->older != nullptr ? record->older->newer : chain->oldest) = record->newer;
  (record->newer != nullptr ? record->newer->older : chain->newest) = record->older;
  if (chain->oldest == nullptr) {
    index_.remove(record->interest.name().hash(),
                  [chain](const Chain& stored) { return &stored == chain; });
    chains_.release(chain);
  }
}

}  // namespace lidc::ndn
