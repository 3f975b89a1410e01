#include "telemetry/flow.hpp"

#include <algorithm>

namespace lidc::telemetry {

namespace {

/// splitmix64: the one-shot mixer used everywhere seeds matter.
std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a over the key bytes, folded with a per-row seed.
std::uint64_t hashKey(std::string_view key, std::uint64_t seed) noexcept {
  std::uint64_t h = 1469598103934665603ULL ^ seed;
  for (const char c : key) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ULL;
  }
  return mix64(h);
}

/// Width of one utilization bucket; the trailing window spans
/// (LinkFlowStats::kBuckets - 1) complete buckets.
constexpr std::uint64_t kBucketWidthNs = sim::Duration::seconds(1).toNanos();
/// Heavy-hitter slots per link (each backed by SpaceSaving's default
/// Count-Min sketch).
constexpr std::size_t kTopK = 8;

bool safeLabelChar(char c) noexcept {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '=' ||
         c == '&' || c == ':' || c == '/' || c == '-';
}

}  // namespace

// --- FlowKey -----------------------------------------------------------

std::string FlowKey::toString() const {
  return group + "|" + tenant + "|" + tag;
}

FlowKey FlowKey::fromString(std::string_view s) {
  FlowKey key;
  const std::size_t first = s.find('|');
  if (first == std::string_view::npos) {
    key.group = sanitizeFlowComponent(s);
    return key;
  }
  const std::size_t second = s.find('|', first + 1);
  key.group = sanitizeFlowComponent(s.substr(0, first));
  if (second == std::string_view::npos) {
    key.tenant = sanitizeFlowComponent(s.substr(first + 1));
    return key;
  }
  key.tenant = sanitizeFlowComponent(s.substr(first + 1, second - first - 1));
  key.tag = sanitizeFlowComponent(s.substr(second + 1));
  return key;
}

std::string sanitizeFlowComponent(std::string_view raw) {
  if (raw.empty()) return "-";
  std::string out;
  out.reserve(std::min(raw.size(), kMaxFlowComponent));
  for (const char c : raw) {
    if (out.size() >= kMaxFlowComponent) break;
    // '|' is the FlowKey field separator and must never appear inside
    // a field, even though ':' and '/' pass through for link URIs.
    out.push_back(safeLabelChar(c) && c != '|' ? c : '_');
  }
  return out;
}

FlowKey extractFlowKey(const std::string_view* components, std::size_t count,
                       const FlowLabel& label) {
  FlowKey key;
  if (count >= 3 && components[0] == "ndn" && components[1] == "k8s") {
    key.group = sanitizeFlowComponent(components[2]);
  } else {
    key.group = "other";
  }
  if (!label.tenant.empty()) {
    key.tenant = sanitizeFlowComponent(label.tenant);
  } else if (key.group == "submit" && count >= 4) {
    // /ndn/k8s/submit/<tenant>/<desc...> carries the tenant in-name.
    key.tenant = sanitizeFlowComponent(components[3]);
  } else {
    // Publish names carry "tenant=<t>" as a regular component.
    constexpr std::string_view kPrefix = "tenant=";
    for (std::size_t i = 0; i < count; ++i) {
      const std::string_view c = components[i];
      if (c.size() > kPrefix.size() && c.substr(0, kPrefix.size()) == kPrefix) {
        key.tenant = sanitizeFlowComponent(c.substr(kPrefix.size()));
        break;
      }
    }
  }
  if (!label.tag.empty()) key.tag = sanitizeFlowComponent(label.tag);
  return key;
}

// --- CountMinSketch ----------------------------------------------------

CountMinSketch::CountMinSketch(std::size_t width, std::size_t depth,
                               std::uint64_t seed)
    : width_(std::max<std::size_t>(width, 8)) {
  depth = std::max<std::size_t>(depth, 1);
  rows_.assign(width_ * depth, 0);
  seeds_.reserve(depth);
  for (std::size_t d = 0; d < depth; ++d) seeds_.push_back(mix64(seed + d));
}

std::size_t CountMinSketch::cell(std::size_t row,
                                 std::string_view key) const noexcept {
  return row * width_ + hashKey(key, seeds_[row]) % width_;
}

void CountMinSketch::add(std::string_view key, std::uint64_t n) noexcept {
  for (std::size_t d = 0; d < seeds_.size(); ++d) rows_[cell(d, key)] += n;
  total_ += n;
}

std::uint64_t CountMinSketch::estimate(std::string_view key) const noexcept {
  std::uint64_t best = ~std::uint64_t{0};
  for (std::size_t d = 0; d < seeds_.size(); ++d) {
    best = std::min(best, rows_[cell(d, key)]);
  }
  return seeds_.empty() ? 0 : best;
}

// --- SpaceSaving -------------------------------------------------------

SpaceSaving::SpaceSaving(std::size_t k) : k_(std::max<std::size_t>(k, 1)) {}

void SpaceSaving::add(const std::string& key, std::uint64_t n) noexcept {
  cms_.add(key, n);
  if (auto it = slots_.find(key); it != slots_.end()) {
    it->second.count += n;
    return;
  }
  if (slots_.size() < k_) {
    slots_.emplace(key, Slot{n, 0});
    return;
  }
  // Deterministic minimum: smallest count, then lexicographically
  // smallest key (map order supplies the tiebreak).
  auto victim = slots_.begin();
  for (auto it = std::next(slots_.begin()); it != slots_.end(); ++it) {
    if (it->second.count < victim->second.count) victim = it;
  }
  // Count-Min gate: a key whose estimated frequency cannot beat the
  // current minimum is noise — charging it the victim's count would
  // just churn real heavy hitters out of the monitored set.
  const std::uint64_t floor = victim->second.count;
  if (cms_.estimate(key) <= floor) return;
  slots_.erase(victim);
  slots_.emplace(key, Slot{floor + n, floor});
}

std::vector<TopKEntry> SpaceSaving::top() const {
  std::vector<TopKEntry> out;
  out.reserve(slots_.size());
  for (const auto& [key, slot] : slots_) {
    out.push_back({key, slot.count, slot.error});
  }
  std::sort(out.begin(), out.end(), [](const TopKEntry& a, const TopKEntry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
  return out;
}

// --- LinkFlowStats -----------------------------------------------------

LinkFlowStats::LinkFlowStats(sim::Simulator& sim, std::uint64_t bucketWidthNs)
    : sim_(sim), bucket_width_ns_(std::max<std::uint64_t>(bucketWidthNs, 1)) {}

void LinkFlowStats::addBytes(std::uint64_t wireBytes) noexcept {
  bytes_.fetch_add(wireBytes, std::memory_order_relaxed);
  const std::uint64_t epoch =
      static_cast<std::uint64_t>(sim_.now().toNanos()) / bucket_width_ns_;
  Bucket& b = ring_[epoch % kBuckets];
  std::uint64_t seen = b.epoch.load(std::memory_order_relaxed);
  if (seen != epoch) {
    // First writer into a recycled bucket zeroes it; CAS losers just
    // add below — the winner's store is already visible.
    if (b.epoch.compare_exchange_strong(seen, epoch,
                                        std::memory_order_relaxed)) {
      b.bytes.store(0, std::memory_order_relaxed);
    }
  }
  b.bytes.fetch_add(wireBytes, std::memory_order_relaxed);
}

std::uint64_t LinkFlowStats::trailingWindowBytes() const noexcept {
  const std::uint64_t nowEpoch =
      static_cast<std::uint64_t>(sim_.now().toNanos()) / bucket_width_ns_;
  std::uint64_t sum = 0;
  for (const Bucket& b : ring_) {
    const std::uint64_t epoch = b.epoch.load(std::memory_order_relaxed);
    // Complete buckets only: the current epoch is still filling.
    if (epoch == kIdleEpoch || epoch >= nowEpoch) continue;
    if (nowEpoch - epoch > kBuckets - 1) continue;  // recycled, stale
    sum += b.bytes.load(std::memory_order_relaxed);
  }
  return sum;
}

std::uint64_t LinkFlowStats::trailingWindowNs() const noexcept {
  const std::uint64_t nowEpoch =
      static_cast<std::uint64_t>(sim_.now().toNanos()) / bucket_width_ns_;
  const std::uint64_t complete = std::min<std::uint64_t>(nowEpoch, kBuckets - 1);
  return complete * bucket_width_ns_;
}

// --- FlowAccountant ----------------------------------------------------

LinkFlowStats* FlowAccountant::registerLink(const std::string& link) {
  LinkEntry* created = nullptr;
  MetricsRegistry* registry = nullptr;
  LinkFlowStats* stats = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = links_.find(link);
    if (it == links_.end()) {
      LinkEntry entry;
      entry.stats = std::make_unique<LinkFlowStats>(sim_, kBucketWidthNs);
      entry.talkers = std::make_unique<SpaceSaving>(kTopK);
      it = links_.emplace(link, std::move(entry)).first;
      created = &it->second;
      registry = registry_;
    }
    stats = it->second.stats.get();
  }
  // Bound outside our lock: an export holds the registry's lock while
  // it reads bound links, which takes ours.
  if (registry != nullptr) bindLink(*registry, link, *created);
  return stats;
}

LinkFlowStats* FlowAccountant::link(const std::string& link) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = links_.find(link);
  return it == links_.end() ? nullptr : it->second.stats.get();
}

void FlowAccountant::setLinkCapacity(const std::string& link,
                                     double bitsPerSec) {
  registerLink(link);
  std::lock_guard<std::mutex> lock(mutex_);
  links_[link].capacityBits = bitsPerSec;
}

const FlowAccountant::LinkEntry* FlowAccountant::find(
    const std::string& link) const {
  auto it = links_.find(link);
  return it == links_.end() ? nullptr : &it->second;
}

void FlowAccountant::attribute(const std::string& link, const FlowKey& key,
                               std::uint64_t bytes, bool fromCache) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = links_.find(link);
  if (it == links_.end()) return;
  LinkEntry& entry = it->second;
  if (fromCache) {
    entry.stats->onCsBytes(bytes);
  } else {
    entry.stats->onUpstreamBytes(bytes);
  }
  entry.talkers->add(key.toString(), bytes);
  entry.tenantBytes[key.tenant] += bytes;
  entry.attributedBytes += bytes;
  revision_.fetch_add(1, std::memory_order_relaxed);
}

void FlowAccountant::recordTransfer(const FlowKey& key, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  staged_[key] += bytes;
  staged_total_ += bytes;
  revision_.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t FlowAccountant::stagedBytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return staged_total_;
}

std::map<FlowKey, std::uint64_t> FlowAccountant::stagedLedger() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return staged_;
}

std::uint64_t FlowAccountant::stagedBytes(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string wanted = sanitizeFlowComponent(tenant);
  std::uint64_t sum = 0;
  for (const auto& [key, bytes] : staged_) {
    if (key.tenant == wanted) sum += bytes;
  }
  return sum;
}

double FlowAccountant::LinkEntry::utilization() const noexcept {
  if (capacityBits <= 0) return 0.0;
  const std::uint64_t windowNs = stats->trailingWindowNs();
  if (windowNs == 0) return 0.0;
  const double bits = static_cast<double>(stats->trailingWindowBytes()) * 8.0;
  const double seconds = static_cast<double>(windowNs) * 1e-9;
  return bits / (seconds * capacityBits);
}

double FlowAccountant::LinkEntry::dominantShare() const noexcept {
  if (attributedBytes == 0) return 0.0;
  std::uint64_t best = 0;
  for (const auto& [tenant, bytes] : tenantBytes) {
    if (tenant == "-") continue;  // unattributed traffic dominates nothing
    best = std::max(best, bytes);
  }
  return static_cast<double>(best) / static_cast<double>(attributedBytes);
}

double FlowAccountant::utilization(const std::string& link) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const LinkEntry* entry = find(link);
  return entry == nullptr ? 0.0 : entry->utilization();
}

double FlowAccountant::dominantShare(const std::string& link) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const LinkEntry* entry = find(link);
  return entry == nullptr ? 0.0 : entry->dominantShare();
}

std::string FlowAccountant::dominantTenant(const std::string& link) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const LinkEntry* entry = find(link);
  if (entry == nullptr) return "-";
  std::string bestTenant = "-";
  std::uint64_t best = 0;
  for (const auto& [tenant, bytes] : entry->tenantBytes) {
    if (tenant == "-") continue;
    if (bytes > best) {  // map order makes ties lexicographic-first
      best = bytes;
      bestTenant = tenant;
    }
  }
  return bestTenant;
}

std::vector<TopKEntry> FlowAccountant::topTalkers(
    const std::string& link) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const LinkEntry* entry = find(link);
  return entry == nullptr ? std::vector<TopKEntry>{} : entry->talkers->top();
}

std::string FlowAccountant::toPrometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  for (const auto& [name, entry] : links_) {
    const Labels link{{"link", name}};
    const LinkFlowStats& s = *entry.stats;
    appendSample(out, "lidc_link_interests_total", link,
                 static_cast<double>(s.interests()));
    appendSample(out, "lidc_link_data_total", link,
                 static_cast<double>(s.dataPackets()));
    appendSample(out, "lidc_link_nacks_total", link, static_cast<double>(s.nacks()));
    appendSample(out, "lidc_link_bytes_total", link, static_cast<double>(s.bytes()));
    appendSample(out, "lidc_link_cs_bytes_total", link,
                 static_cast<double>(s.csBytes()));
    appendSample(out, "lidc_link_upstream_bytes_total", link,
                 static_cast<double>(s.upstreamBytes()));
    appendSample(out, "lidc_link_capacity_bits_per_sec", link, entry.capacityBits);
    appendSample(out, "lidc_link_utilization", link, entry.utilization());
    appendSample(out, "lidc_link_dominant_share", link, entry.dominantShare());
    for (const auto& [tenant, bytes] : entry.tenantBytes) {
      appendSample(out, "lidc_flow_tenant_bytes_total",
                   {{"link", name}, {"tenant", tenant}}, static_cast<double>(bytes));
    }
    const auto top = entry.talkers->top();
    for (std::size_t i = 0; i < top.size(); ++i) {
      const FlowKey key = FlowKey::fromString(top[i].key);
      appendSample(out, "lidc_flow_topk_bytes",
                   {{"link", name},
                    {"rank", std::to_string(i + 1)},
                    {"group", key.group},
                    {"tenant", key.tenant},
                    {"tag", key.tag}},
                   static_cast<double>(top[i].count));
    }
  }
  for (const auto& [key, bytes] : staged_) {
    appendSample(out, "lidc_flow_staged_bytes_total",
                 {{"tenant", key.tenant}, {"group", key.group}, {"tag", key.tag}},
                 static_cast<double>(bytes));
  }
  return out;
}

void FlowAccountant::attachTelemetry(MetricsRegistry& registry) {
  std::vector<std::pair<std::string, LinkEntry*>> existing;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    registry_ = &registry;
    for (auto& [name, entry] : links_) existing.emplace_back(name, &entry);
  }
  for (const auto& [name, entry] : existing) bindLink(registry, name, *entry);
}

void FlowAccountant::bindLink(MetricsRegistry& registry, const std::string& name,
                              const LinkEntry& entry) {
  const Labels link{{"link", name}};
  const LinkFlowStats* s = entry.stats.get();
  registry.bindCounter("lidc_link_interests_total", link,
                       [s] { return s->interests(); });
  registry.bindCounter("lidc_link_data_total", link,
                       [s] { return s->dataPackets(); });
  registry.bindCounter("lidc_link_nacks_total", link, [s] { return s->nacks(); });
  registry.bindCounter("lidc_link_bytes_total", link, [s] { return s->bytes(); });
  registry.bindCounter("lidc_link_cs_bytes_total", link,
                       [s] { return s->csBytes(); });
  registry.bindCounter("lidc_link_upstream_bytes_total", link,
                       [s] { return s->upstreamBytes(); });
  const LinkEntry* e = &entry;
  registry.bindGauge("lidc_link_capacity_bits_per_sec", link, [this, e] {
    std::lock_guard<std::mutex> lock(mutex_);
    return e->capacityBits;
  });
  registry.bindGauge("lidc_link_utilization", link, [this, e] {
    std::lock_guard<std::mutex> lock(mutex_);
    return e->utilization();
  });
  registry.bindGauge("lidc_link_dominant_share", link, [this, e] {
    std::lock_guard<std::mutex> lock(mutex_);
    return e->dominantShare();
  });
}

}  // namespace lidc::telemetry
