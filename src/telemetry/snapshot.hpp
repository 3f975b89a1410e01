// The named-snapshot plane behind both the monitoring plane
// (/ndn/k8s/telemetry) and the replica plane (/ndn/k8s/replica). A
// producer publishes its state under <root>/<cluster> as
//
//   <root>/<cluster>[/<group>]/<manifest>  -> "seq=N;generated=<ns>"
//   <root>/<cluster>[/<group>]/<seq>       -> snapshot text
//
// The manifest is short-freshness Data (scrapers send MustBeFresh, so
// they reach a live publisher once the cached copy ages out); the
// per-seq snapshot is immutable, long-freshness Data, so repeat fetches
// by any scraper are answered by Content Stores along the path.
// Snapshots are exported on demand when a manifest Interest arrives —
// no periodic timer, so idle simulations still drain.
//
// A SnapshotScraper is the consumer side: it polls any number of
// clusters through ordinary Interests, skips the snapshot fetch when the
// manifest seq is unchanged, and ages a cluster into stale after its
// freshness window, so a blacked-out cluster shows up as stale instead
// of wedging the scraper.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "ndn/app_face.hpp"
#include "ndn/forwarder.hpp"

namespace lidc::telemetry {

class SnapshotPublisher {
 public:
  using Content = std::function<std::string()>;
  using Revision = std::function<std::uint64_t()>;

  /// Registers `prefix` (<root>/<cluster>) on `forwarder` toward a new
  /// AppFace named `faceUri`. `manifestComponent` is the manifest
  /// selector; a group is checked for a new export at most once per
  /// `snapshotInterval`, counted from its last check.
  SnapshotPublisher(ndn::Forwarder& forwarder, const ndn::Name& prefix,
                    std::string faceUri, std::string manifestComponent,
                    sim::Duration snapshotInterval);
  SnapshotPublisher(const SnapshotPublisher&) = delete;
  SnapshotPublisher& operator=(const SnapshotPublisher&) = delete;

  /// Serves `content` under <prefix>/<group>/..., or under <prefix>/...
  /// when `group` is empty. With a `revision`, a check exports a new seq
  /// only when the revision moved since the last export; without one,
  /// every check exports.
  void addGroup(const std::string& group, Content content,
                Revision revision = nullptr);

  [[nodiscard]] std::uint64_t snapshotsGenerated() const noexcept {
    return snapshots_generated_;
  }
  [[nodiscard]] std::uint64_t interestsServed() const noexcept { return served_; }
  [[nodiscard]] std::uint64_t interestsRejected() const noexcept {
    return rejected_;
  }

 private:
  struct Group {
    Content content;
    Revision revision;
    std::uint64_t lastRevision = 0;
    std::uint64_t seq = 0;  // 0 = nothing exported yet
    sim::Time checkedAt;
    sim::Time generatedAt;  // when `seq` was exported
    std::map<std::uint64_t, std::string> snapshots;  // seq -> text
  };

  void handleInterest(const ndn::Interest& interest);
  [[nodiscard]] Group* findGroup(const ndn::Name& name);
  void refresh(Group& group);
  void reply(const ndn::Interest& interest, std::string_view content,
             sim::Duration freshness);
  void reject(const ndn::Interest& interest);

  sim::Simulator& sim_;
  std::size_t prefix_size_;
  std::string manifest_component_;
  sim::Duration snapshot_interval_;
  std::shared_ptr<ndn::AppFace> face_;
  std::map<std::string, Group> groups_;
  std::uint64_t snapshots_generated_ = 0;
  std::uint64_t served_ = 0;
  std::uint64_t rejected_ = 0;
};

/// How a SnapshotScraper paces and ages its scrapes.
struct ScrapeTiming {
  /// Lifetime of scrape Interests (bounds how long a dead cluster can
  /// keep a scrape outstanding).
  sim::Duration interestLifetime = sim::Duration::millis(1000);
  /// A cluster whose last successful scrape is older than this is stale.
  sim::Duration freshnessWindow = sim::Duration::seconds(5);
  /// Period of start()ed background scraping.
  sim::Duration scrapeInterval = sim::Duration::seconds(2);
};

struct CollectorCounters {
  std::uint64_t scrapesStarted = 0;    // per (cluster, scrapeOnce) pair
  std::uint64_t scrapesSucceeded = 0;
  std::uint64_t scrapesFailed = 0;     // nack / timeout / bad payload
  std::uint64_t manifestReuses = 0;    // seq unchanged, snapshot fetch skipped
  std::uint64_t snapshotsFetched = 0;
  std::uint64_t signatureFailures = 0;
};

class SnapshotScraper {
 public:
  /// One cluster's scrape progress.
  struct Progress {
    std::uint64_t seq = 0;  // seq of the snapshot last fetched
    sim::Time lastUpdated;  // last successful scrape
    bool everScraped = false;
  };

  virtual ~SnapshotScraper() = default;
  SnapshotScraper(const SnapshotScraper&) = delete;
  SnapshotScraper& operator=(const SnapshotScraper&) = delete;

  void watchCluster(const std::string& cluster);
  [[nodiscard]] const std::vector<std::string>& watchedClusters() const noexcept {
    return watched_;
  }

  /// Scrapes every watched cluster once; `done` fires after each cluster
  /// has succeeded or failed. Overlapping calls are independent.
  void scrapeOnce(std::function<void()> done = nullptr);

  /// Periodic scraping on the sim clock. stop() cancels the timer (and
  /// is required before the sim can drain).
  void start();
  void stop();
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Null for a cluster that is not watched.
  [[nodiscard]] const Progress* progress(const std::string& cluster) const;
  /// True when the cluster has never been scraped successfully or its
  /// last success is older than the freshness window.
  [[nodiscard]] bool isStale(const std::string& cluster) const;

  [[nodiscard]] const CollectorCounters& counters() const noexcept {
    return counters_;
  }

 protected:
  /// Fetches <root>/<cluster>[/<group>]/<manifestComponent | seq> over a
  /// new AppFace named `faceUri` on `forwarder`.
  SnapshotScraper(ndn::Forwarder& forwarder, std::string faceUri,
                  std::uint64_t nonceSeed, ndn::Name root, std::string group,
                  std::string manifestComponent, ScrapeTiming timing);

  /// Each verified snapshot's text.
  virtual void onSnapshot(const std::string& cluster, std::string text) = 0;
  /// After every scrape attempt for `cluster` settles, success or failure.
  virtual void onSettled(const std::string& /*cluster*/) {}

  /// Resets the cluster's progress, so the next scrape re-fetches the
  /// snapshot Data.
  void forget(const std::string& cluster);

  sim::Simulator& sim_;

 private:
  struct Batch {
    std::size_t remaining;
    std::function<void()> done;
  };
  /// One cluster's scrape in flight; seq is 0 until the manifest names
  /// a snapshot to fetch.
  struct Attempt {
    std::string cluster;
    std::uint64_t seq = 0;
    std::shared_ptr<Batch> batch;
  };
  using AttemptIt = std::list<Attempt>::iterator;

  [[nodiscard]] ndn::Name clusterPrefix(const std::string& cluster) const;
  void express(AttemptIt attempt, ndn::Name name, bool mustBeFresh);
  void received(AttemptIt attempt, const ndn::Data& data);
  void settle(AttemptIt attempt, bool succeeded);
  void scrapeTick();

  ndn::Name root_;
  std::string group_;
  std::string manifest_component_;
  ScrapeTiming timing_;
  std::shared_ptr<ndn::AppFace> face_;
  std::vector<std::string> watched_;
  std::map<std::string, Progress> progress_;
  /// Callbacks capture only an iterator, so they fit std::function's
  /// inline storage.
  std::list<Attempt> attempts_;
  CollectorCounters counters_;
  bool running_ = false;
  sim::EventHandle tick_;
};

}  // namespace lidc::telemetry
