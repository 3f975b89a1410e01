#include "replica/catalog.hpp"

#include "common/kv.hpp"
#include "common/strings.hpp"

namespace lidc::replica {

std::string_view replicaStateName(ReplicaState state) noexcept {
  switch (state) {
    case ReplicaState::kStaging: return "staging";
    case ReplicaState::kReady: return "ready";
    case ReplicaState::kStale: return "stale";
    case ReplicaState::kLost: return "lost";
  }
  return "unknown";
}

std::optional<ReplicaState> parseReplicaState(std::string_view text) noexcept {
  if (text == "staging") return ReplicaState::kStaging;
  if (text == "ready") return ReplicaState::kReady;
  if (text == "stale") return ReplicaState::kStale;
  if (text == "lost") return ReplicaState::kLost;
  return std::nullopt;
}

std::map<std::string, ReplicaEntry> parseReplicaMap(std::string_view text) {
  std::map<std::string, ReplicaEntry> entries;
  for (auto line : strings::splitSkipEmpty(text, '\n')) {
    const kv::Reader fields(line);
    const std::optional<ReplicaState> state = parseReplicaState(fields.get("state"));
    if (fields.get("dataset").empty() || !state) continue;
    ReplicaEntry entry;
    entry.bytes = strings::parseUint(fields.get("bytes")).value_or(0);
    entry.version = strings::parseUint(fields.get("version")).value_or(0);
    entry.state = *state;
    entries.emplace(fields.get("dataset"), entry);
  }
  return entries;
}

ReplicaCatalog::ReplicaCatalog(ndn::Forwarder& forwarder, std::string clusterName)
    : cluster_name_(std::move(clusterName)),
      publisher_(forwarder, ndn::Name(kReplicaPrefix).append(cluster_name_),
                 "app://replica-catalog/" + cluster_name_, "_map",
                 /*snapshotInterval=*/sim::Duration()) {
  publisher_.addGroup("", [this] { return exportMap(); }, [this] { return revision_; });
}

void ReplicaCatalog::record(const ndn::Name& dataset, std::uint64_t bytes,
                            ReplicaState state) {
  ReplicaEntry& entry = entries_[dataset.toUri()];
  if (entry.version != 0 && entry.bytes == bytes && entry.state == state) return;
  entry.bytes = bytes;
  entry.state = state;
  ++entry.version;
  ++revision_;
}

void ReplicaCatalog::markStaging(const ndn::Name& dataset,
                                 std::uint64_t expectedBytes) {
  record(dataset, expectedBytes, ReplicaState::kStaging);
}

void ReplicaCatalog::markReady(const ndn::Name& dataset, std::uint64_t bytes) {
  record(dataset, bytes, ReplicaState::kReady);
}

void ReplicaCatalog::markLost(const ndn::Name& dataset) {
  auto it = entries_.find(dataset.toUri());
  if (it == entries_.end()) return;
  record(dataset, it->second.bytes, ReplicaState::kLost);
}

void ReplicaCatalog::erase(const ndn::Name& dataset) {
  if (entries_.erase(dataset.toUri()) > 0) ++revision_;
}

void ReplicaCatalog::syncFromStore(const datalake::ObjectStore& store,
                                   const ndn::Name& prefix) {
  for (const ndn::Name& name : store.list(prefix)) {
    const auto size = store.sizeOf(name);
    if (size) markReady(name, *size);
  }
}

const ReplicaEntry* ReplicaCatalog::entry(const ndn::Name& dataset) const {
  auto it = entries_.find(dataset.toUri());
  return it == entries_.end() ? nullptr : &it->second;
}

std::string ReplicaCatalog::exportMap() const {
  // entries_ is keyed by dataset URI, so iteration is already sorted —
  // the snapshot text is deterministic for a given map state.
  std::string out;
  for (const auto& [uri, entry] : entries_) {
    out = kv::Writer(std::move(out))
              .add("dataset", uri)
              .add("bytes", entry.bytes)
              .add("version", entry.version)
              .add("state", replicaStateName(entry.state))
              .take();
    out += '\n';
  }
  return out;
}

}  // namespace lidc::replica
