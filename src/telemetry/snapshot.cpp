#include "telemetry/snapshot.hpp"

#include <algorithm>

#include "common/kv.hpp"
#include "common/strings.hpp"

namespace lidc::telemetry {

namespace {
/// Freshness on the manifest (scrapers send MustBeFresh).
constexpr sim::Duration kManifestFreshness = sim::Duration::millis(500);
/// Freshness on immutable per-seq snapshots (CS-cacheable).
constexpr sim::Duration kSnapshotFreshness = sim::Duration::hours(1);
/// How many historical snapshots per group stay answerable.
constexpr std::size_t kRetainedSnapshots = 8;

/// The manifest's seq, or 0 when it names none or is malformed.
std::uint64_t manifestSeq(std::string_view content) {
  return strings::parseUint(kv::Reader(content).get("seq")).value_or(0);
}
}  // namespace

SnapshotPublisher::SnapshotPublisher(ndn::Forwarder& forwarder,
                                     const ndn::Name& prefix, std::string faceUri,
                                     std::string manifestComponent,
                                     sim::Duration snapshotInterval)
    : sim_(forwarder.simulator()),
      prefix_size_(prefix.size()),
      manifest_component_(std::move(manifestComponent)),
      snapshot_interval_(snapshotInterval) {
  face_ = std::make_shared<ndn::AppFace>(std::move(faceUri), sim_);
  face_->setInterestHandler([this](const ndn::Interest& i) { handleInterest(i); });
  forwarder.registerPrefix(prefix, forwarder.addFace(face_), /*cost=*/0);
}

void SnapshotPublisher::addGroup(const std::string& group, Content content,
                                 Revision revision) {
  Group& g = groups_[group];
  g.content = std::move(content);
  g.revision = std::move(revision);
}

SnapshotPublisher::Group* SnapshotPublisher::findGroup(const ndn::Name& name) {
  // <prefix>/<selector> names the unnamed group, <prefix>/<group>/<selector>
  // a named one; an empty <group> component names neither.
  std::string group;
  if (name.size() == prefix_size_ + 2) {
    group = name[prefix_size_].toString();
    if (group.empty()) return nullptr;
  } else if (name.size() != prefix_size_ + 1) {
    return nullptr;
  }
  auto it = groups_.find(group);
  return it == groups_.end() ? nullptr : &it->second;
}

void SnapshotPublisher::handleInterest(const ndn::Interest& interest) {
  const ndn::Name& name = interest.name();
  Group* group = findGroup(name);
  if (group == nullptr) {
    reject(interest);
    return;
  }
  const std::string selector = name[name.size() - 1].toString();
  if (selector == manifest_component_) {
    refresh(*group);
    const std::string generated = std::to_string(group->generatedAt.toNanos());
    reply(interest,
          kv::Writer().add("seq", group->seq).add("generated", generated).take(),
          kManifestFreshness);
    return;
  }
  const auto seq = strings::parseUint(selector);
  const auto it = seq ? group->snapshots.find(*seq) : group->snapshots.end();
  if (it == group->snapshots.end()) {
    reject(interest);
    return;
  }
  reply(interest, it->second, kSnapshotFreshness);
}

void SnapshotPublisher::refresh(Group& group) {
  const sim::Time now = sim_.now();
  if (group.seq != 0 && now - group.checkedAt < snapshot_interval_) return;
  group.checkedAt = now;
  if (group.revision) {
    // A new sequence only when the provider's revision moved, so
    // scrapers keep reusing the manifest while the source is quiet.
    const std::uint64_t revision = group.revision();
    if (group.seq != 0 && revision == group.lastRevision) return;
    group.lastRevision = revision;
  }
  ++group.seq;
  group.generatedAt = now;
  group.snapshots[group.seq] = group.content();
  ++snapshots_generated_;
  while (group.snapshots.size() > kRetainedSnapshots) {
    group.snapshots.erase(group.snapshots.begin());
  }
}

void SnapshotPublisher::reply(const ndn::Interest& interest, std::string_view content,
                              sim::Duration freshness) {
  ++served_;
  ndn::Data data(interest.name());
  data.setContent(content).setFreshnessPeriod(freshness).sign();
  face_->putData(std::move(data));
}

void SnapshotPublisher::reject(const ndn::Interest& interest) {
  ++rejected_;
  face_->putNack(interest, ndn::NackReason::kNoRoute);
}

SnapshotScraper::SnapshotScraper(ndn::Forwarder& forwarder, std::string faceUri,
                                 std::uint64_t nonceSeed, ndn::Name root,
                                 std::string group, std::string manifestComponent,
                                 ScrapeTiming timing)
    : sim_(forwarder.simulator()),
      root_(std::move(root)),
      group_(std::move(group)),
      manifest_component_(std::move(manifestComponent)),
      timing_(timing) {
  face_ = std::make_shared<ndn::AppFace>(std::move(faceUri), sim_, nonceSeed);
  forwarder.addFace(face_);
}

void SnapshotScraper::watchCluster(const std::string& cluster) {
  if (std::find(watched_.begin(), watched_.end(), cluster) == watched_.end()) {
    watched_.push_back(cluster);
    progress_[cluster];
    onWatched(cluster);
  }
}

void SnapshotScraper::scrapeOnce(std::function<void()> done) {
  if (watched_.empty()) {
    if (done) done();
    return;
  }
  auto batch = std::make_shared<Batch>(Batch{watched_.size(), std::move(done)});
  for (const auto& cluster : watched_) {
    ++counters_.scrapesStarted;
    attempts_.push_front(Attempt{cluster, 0, batch});
    ndn::Name manifest = clusterPrefix(cluster);
    manifest.append(manifest_component_);
    express(attempts_.begin(), std::move(manifest), /*mustBeFresh=*/true);
  }
}

ndn::Name SnapshotScraper::clusterPrefix(const std::string& cluster) const {
  ndn::Name name = root_;
  name.append(cluster);
  if (!group_.empty()) name.append(group_);
  return name;
}

void SnapshotScraper::express(AttemptIt attempt, ndn::Name name, bool mustBeFresh) {
  ndn::Interest interest(std::move(name));
  interest.setMustBeFresh(mustBeFresh).setLifetime(timing_.interestLifetime);
  face_->expressInterest(
      std::move(interest),
      [this, attempt](const ndn::Interest&, const ndn::Data& data) {
        received(attempt, data);
      },
      [this, attempt](const ndn::Interest&, const ndn::Nack&) {
        settle(attempt, /*succeeded=*/false);
      },
      [this, attempt](const ndn::Interest&) { settle(attempt, /*succeeded=*/false); });
}

void SnapshotScraper::received(AttemptIt attempt, const ndn::Data& data) {
  if (!data.verify()) {
    ++counters_.signatureFailures;
    settle(attempt, /*succeeded=*/false);
    return;
  }
  Progress& progress = progress_[attempt->cluster];
  if (attempt->seq != 0) {
    // The snapshot the manifest named.
    progress.seq = attempt->seq;
    progress.lastUpdated = sim_.now();
    progress.everScraped = true;
    ++counters_.snapshotsFetched;
    onSnapshot(attempt->cluster, data.contentAsString());
    settle(attempt, /*succeeded=*/true);
    return;
  }
  const std::uint64_t seq = manifestSeq(data.contentView());
  if (seq == 0) {
    settle(attempt, /*succeeded=*/false);
    return;
  }
  if (progress.everScraped && progress.seq == seq) {
    // Manifest says nothing changed; the previous snapshot stands.
    ++counters_.manifestReuses;
    progress.lastUpdated = sim_.now();
    settle(attempt, /*succeeded=*/true);
    return;
  }
  attempt->seq = seq;
  ndn::Name snapshot = clusterPrefix(attempt->cluster);
  snapshot.appendNumber(seq);
  // Immutable versioned Data: no MustBeFresh, so any Content Store on
  // the path may answer.
  express(attempt, std::move(snapshot), /*mustBeFresh=*/false);
}

void SnapshotScraper::settle(AttemptIt attempt, bool succeeded) {
  ++(succeeded ? counters_.scrapesSucceeded : counters_.scrapesFailed);
  const std::string cluster = std::move(attempt->cluster);
  const std::shared_ptr<Batch> batch = std::move(attempt->batch);
  attempts_.erase(attempt);
  onSettled(cluster);
  if (--batch->remaining == 0 && batch->done) batch->done();
}

void SnapshotScraper::start() {
  if (running_) return;
  running_ = true;
  scrapeTick();
}

void SnapshotScraper::stop() {
  running_ = false;
  tick_.cancel();
}

void SnapshotScraper::scrapeTick() {
  if (!running_) return;
  scrapeOnce();
  tick_ = sim_.scheduleAfter(timing_.scrapeInterval, [this] { scrapeTick(); });
}

const SnapshotScraper::Progress* SnapshotScraper::progress(
    const std::string& cluster) const {
  auto it = progress_.find(cluster);
  return it == progress_.end() ? nullptr : &it->second;
}

bool SnapshotScraper::isStale(const std::string& cluster) const {
  const Progress* p = progress(cluster);
  if (!p || !p->everScraped) return true;
  return sim_.now() - p->lastUpdated > timing_.freshnessWindow;
}

void SnapshotScraper::forget(const std::string& cluster) {
  auto it = progress_.find(cluster);
  if (it != progress_.end()) it->second = Progress{};
}

}  // namespace lidc::telemetry
