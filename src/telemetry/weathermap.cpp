#include "telemetry/weathermap.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace lidc::telemetry {

namespace {

/// Fixed-width double formatting so rendered views are byte-stable.
std::string fmt3(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back('_');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::uint64_t asCount(double v) {
  return v <= 0 ? 0 : static_cast<std::uint64_t>(v + 0.5);
}

}  // namespace

std::pair<std::string, std::map<std::string, std::string>> parseSeriesKey(
    std::string_view series) {
  const std::size_t brace = series.find('{');
  if (brace == std::string_view::npos) return {std::string(series), {}};
  std::pair<std::string, std::map<std::string, std::string>> out{
      std::string(series.substr(0, brace)), {}};
  std::size_t i = brace + 1;
  while (i < series.size() && series[i] != '}') {
    const std::size_t eq = series.find('=', i);
    if (eq == std::string_view::npos || eq + 1 >= series.size() ||
        series[eq + 1] != '"') {
      break;
    }
    const std::size_t close = series.find('"', eq + 2);
    if (close == std::string_view::npos) break;
    out.second[std::string(series.substr(i, eq - i))] =
        std::string(series.substr(eq + 2, close - eq - 2));
    i = close + 1;
    if (i < series.size() && series[i] == ',') ++i;
  }
  return out;
}

Weathermap::Weathermap(ndn::Forwarder& forwarder, ScrapeTiming timing)
    : collector_(forwarder, TelemetryCollectorOptions{timing, "flow"}) {
  // Scrape settlements drive the hot-link flight-recorder events.
  collector_.setHealthListener(
      [this](const std::string& cluster, double) { afterScrape(cluster); });
}

void Weathermap::watchCluster(const std::string& cluster) {
  collector_.watchCluster(cluster);
}

void Weathermap::scrapeOnce(std::function<void()> done) {
  collector_.scrapeOnce(std::move(done));
}

void Weathermap::start() { collector_.start(); }
void Weathermap::stop() { collector_.stop(); }

std::map<std::string, LinkView> Weathermap::buildCluster(
    const std::string& cluster) const {
  std::map<std::string, LinkView> links;
  const TelemetryCollector::ClusterView* view = collector_.view(cluster);
  if (view == nullptr) return links;
  for (const auto& [series, value] : view->values) {
    const auto [name, labels] = parseSeriesKey(series);
    const auto linkIt = labels.find("link");
    if (linkIt == labels.end()) continue;
    LinkView& lv = links[linkIt->second];
    lv.cluster = cluster;
    lv.link = linkIt->second;
    if (name == "lidc_link_interests_total") {
      lv.interests = asCount(value);
    } else if (name == "lidc_link_data_total") {
      lv.dataPackets = asCount(value);
    } else if (name == "lidc_link_nacks_total") {
      lv.nacks = asCount(value);
    } else if (name == "lidc_link_bytes_total") {
      lv.bytes = asCount(value);
    } else if (name == "lidc_link_cs_bytes_total") {
      lv.csBytes = asCount(value);
    } else if (name == "lidc_link_upstream_bytes_total") {
      lv.upstreamBytes = asCount(value);
    } else if (name == "lidc_link_capacity_bits_per_sec") {
      lv.capacityBits = value;
    } else if (name == "lidc_link_utilization") {
      lv.utilization = value;
    } else if (name == "lidc_link_dominant_share") {
      lv.dominantShare = value;
    } else if (name == "lidc_flow_tenant_bytes_total") {
      if (const auto t = labels.find("tenant"); t != labels.end()) {
        lv.tenantBytes[t->second] = asCount(value);
      }
    } else if (name == "lidc_flow_topk_bytes") {
      TopTalker talker;
      if (const auto l = labels.find("rank"); l != labels.end()) {
        talker.rank = std::atoi(l->second.c_str());
      }
      if (const auto l = labels.find("group"); l != labels.end()) {
        talker.group = l->second;
      }
      if (const auto l = labels.find("tenant"); l != labels.end()) {
        talker.tenant = l->second;
      }
      if (const auto l = labels.find("tag"); l != labels.end()) {
        talker.tag = l->second;
      }
      talker.bytes = asCount(value);
      lv.talkers.push_back(talker);
    }
  }
  for (auto& [link, lv] : links) {
    std::sort(lv.talkers.begin(), lv.talkers.end(),
              [](const TopTalker& a, const TopTalker& b) {
                return a.rank < b.rank;
              });
  }
  return links;
}

std::map<std::string, double> Weathermap::stagedSeries(
    const std::string& cluster) const {
  std::map<std::string, double> staged;
  const TelemetryCollector::ClusterView* view = collector_.view(cluster);
  if (view == nullptr) return staged;
  for (const auto& [series, value] : view->values) {
    const auto [name, labels] = parseSeriesKey(series);
    if (name != "lidc_flow_staged_bytes_total") continue;
    auto get = [&](const char* k) {
      const auto it = labels.find(k);
      return it == labels.end() ? std::string("-") : it->second;
    };
    staged[get("tenant") + "|" + get("group") + "|" + get("tag")] = value;
  }
  return staged;
}

std::map<std::string, std::map<std::string, LinkView>> Weathermap::links()
    const {
  std::map<std::string, std::map<std::string, LinkView>> out;
  for (const auto& cluster : collector_.watchedClusters()) {
    out[cluster] = buildCluster(cluster);
  }
  return out;
}

std::vector<TopTalker> Weathermap::topTalkers(const std::string& link) const {
  for (const auto& [cluster, links] : this->links()) {
    if (const auto it = links.find(link); it != links.end()) {
      return it->second.talkers;
    }
  }
  return {};
}

std::string Weathermap::weathermapJson() const {
  std::ostringstream out;
  out << "{\"clusters\":[";
  bool firstCluster = true;
  for (const auto& cluster : collector_.watchedClusters()) {
    if (!firstCluster) out << ',';
    firstCluster = false;
    out << "{\"cluster\":\"" << jsonEscape(cluster) << "\",\"stale\":"
        << (collector_.isStale(cluster) ? "true" : "false") << ",\"links\":[";
    bool firstLink = true;
    for (const auto& [link, lv] : buildCluster(cluster)) {
      if (!firstLink) out << ',';
      firstLink = false;
      out << "{\"link\":\"" << jsonEscape(link) << "\""
          << ",\"interests\":" << lv.interests
          << ",\"data\":" << lv.dataPackets << ",\"nacks\":" << lv.nacks
          << ",\"bytes\":" << lv.bytes << ",\"cs_bytes\":" << lv.csBytes
          << ",\"upstream_bytes\":" << lv.upstreamBytes
          << ",\"capacity_bits_per_sec\":" << fmt3(lv.capacityBits)
          << ",\"utilization\":" << fmt3(lv.utilization)
          << ",\"dominant_share\":" << fmt3(lv.dominantShare)
          << ",\"tenants\":{";
      bool firstTenant = true;
      for (const auto& [tenant, bytes] : lv.tenantBytes) {
        if (!firstTenant) out << ',';
        firstTenant = false;
        out << "\"" << jsonEscape(tenant) << "\":" << bytes;
      }
      out << "},\"top_talkers\":[";
      bool firstTalker = true;
      for (const auto& t : lv.talkers) {
        if (!firstTalker) out << ',';
        firstTalker = false;
        out << "{\"rank\":" << t.rank << ",\"group\":\"" << jsonEscape(t.group)
            << "\",\"tenant\":\"" << jsonEscape(t.tenant) << "\",\"tag\":\""
            << jsonEscape(t.tag) << "\",\"bytes\":" << t.bytes << "}";
      }
      out << "]}";
    }
    out << "],\"staged\":{";
    bool firstStaged = true;
    for (const auto& [key, bytes] : stagedSeries(cluster)) {
      if (!firstStaged) out << ',';
      firstStaged = false;
      out << "\"" << jsonEscape(key) << "\":" << asCount(bytes);
    }
    out << "}}";
  }
  out << "]}";
  return out.str();
}

std::string Weathermap::explainLink(const std::string& link) const {
  for (const auto& cluster : collector_.watchedClusters()) {
    const auto links = buildCluster(cluster);
    const auto it = links.find(link);
    if (it == links.end()) continue;
    const LinkView& lv = it->second;
    std::ostringstream out;
    out << "link " << link << "\n";
    out << "  cluster " << cluster
        << (collector_.isStale(cluster) ? " (stale)" : " (fresh)") << "\n";
    out << "  interests " << lv.interests << "  data " << lv.dataPackets
        << "  nacks " << lv.nacks << "\n";
    out << "  bytes " << lv.bytes << " (cs " << lv.csBytes << ", upstream "
        << lv.upstreamBytes << ")\n";
    out << "  capacity_bits_per_sec " << fmt3(lv.capacityBits)
        << "  utilization " << fmt3(lv.utilization) << "\n";
    out << "  dominant_share " << fmt3(lv.dominantShare) << "\n";
    out << "  top talkers:\n";
    if (lv.talkers.empty()) out << "    (none attributed)\n";
    for (const auto& t : lv.talkers) {
      out << "    " << t.rank << ". group=" << t.group
          << " tenant=" << t.tenant << " tag=" << t.tag << " bytes=" << t.bytes
          << "\n";
    }
    out << "  tenants:";
    if (lv.tenantBytes.empty()) out << " (none)";
    for (const auto& [tenant, bytes] : lv.tenantBytes) {
      out << " " << tenant << "=" << bytes;
    }
    out << "\n";
    return out.str();
  }
  return "link " + link + "\n  (unknown link)\n";
}

AlertEngine::ValueSource Weathermap::valueSource() const {
  return [this, scraped = collectorValueSource(collector_)](
             std::string_view key) -> std::optional<double> {
    if (key != "fleet/max_utilization" && key != "fleet/max_dominant_share" &&
        key != "fleet/hot_links") {
      return scraped(key);
    }
    // Fleet aggregates are computed only when a rule asks for one.
    double maxUtil = 0;
    double maxShare = 0;
    double hot = 0;
    for (const auto& [cluster, links] : this->links()) {
      for (const auto& [link, lv] : links) {
        maxUtil = std::max(maxUtil, lv.utilization);
        maxShare = std::max(maxShare, lv.dominantShare);
        if (lv.utilization > kSaturationWarn) ++hot;
      }
    }
    if (key == "fleet/max_utilization") return maxUtil;
    if (key == "fleet/max_dominant_share") return maxShare;
    return hot;
  };
}

void Weathermap::afterScrape(const std::string& cluster) {
  if (recorder_ == nullptr) return;
  for (const auto& [link, lv] : buildCluster(cluster)) {
    if (lv.utilization > kSaturationWarn) {
      LIDC_FR_EVENT(recorder_, kWarn, "weathermap",
                    cluster + " hot-link " + link +
                        " util=" + fmt3(lv.utilization));
    }
    if (lv.dominantShare > kDominanceWarn) {
      LIDC_FR_EVENT(recorder_, kWarn, "weathermap",
                    cluster + " dominated-link " + link + " tenant=" +
                        (lv.talkers.empty() ? std::string("-")
                                            : lv.talkers.front().tenant) +
                        " share=" + fmt3(lv.dominantShare));
    }
  }
}

}  // namespace lidc::telemetry
