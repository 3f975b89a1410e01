// Per-layer host cost, measured from outside: each layer's public
// functions are replayed on the names, packets and sizes a run captured,
// against the live tables of that run where the layer has them.
#pragma once

#include "harness.hpp"

namespace perfbench {

struct LayerCosts {
  double nameParseNs = 0;
  double interestEncodeNs = 0;
  double interestDecodeNs = 0;
  double fibLpmNs = 0;     // live core-router FIB
  double pitNs = 0;        // insert + findMatches + erase
  double exchangeNs = 0;   // one-node AppFace Interest/Data exchange
  double dataEncodeNs = 0;
  double dataVerifyNs = 0;
  double csFindNs = 0;     // live core-router Content Store
  double csInsertNs = 0;
  double lakeGetNs = 0;
  double lakePutNs = 0;
  double eventNs = 0;      // schedule + fire of an empty event
  double selectNodeNs = 0; // live cluster nodes
  double exportUs = 0;     // toPrometheus() on the live registry
};

/// `tables` supplies the router and cluster; `registry` the metrics
/// registry to export (the traced run's, where only it has one).
LayerCosts replayLayers(const Capture& capture, const LiveState& tables,
                        lidc::telemetry::MetricsRegistry* registry);

}  // namespace perfbench
