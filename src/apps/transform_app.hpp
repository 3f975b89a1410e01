// A generic data-flow stage application: reads one or more named
// objects from the data lake, concatenates them (optionally prefixed by
// a "tag" marker), and writes the combined object back. It is the
// all-purpose map/reduce vertex the workflow benches and chaos tests
// build DAGs out of — fan-in is just multiple dataset= inputs, fan-out
// is multiple consumers of one output.
#pragma once

#include <cstdint>
#include <vector>

#include "datalake/object_store.hpp"
#include "k8s/job.hpp"
#include "ndn/name.hpp"

namespace lidc::k8s {
class Cluster;
}  // namespace lidc::k8s

namespace lidc::apps {

struct TransformConfig {
  ndn::Name dataPrefix{"/ndn/k8s/data"};
  /// Single-core streaming throughput at testbed scale.
  double bytesPerSecondPerCore = 120e6;
  /// Parallel efficiency per additional core.
  double scalingEfficiency = 0.9;
};

/// Arguments understood by the runner (JobSpec::args):
///   "input"            - primary object name (optional if datasets given)
///   "dataset0..N"      - further inputs, concatenated in index order
///   "tag"              - marker bytes prepended to the output (optional)
///   "out"              - output object name (default results/<job>, set
///                        by the job manager)
k8s::AppRunner makeTransformRunner(datalake::ObjectStore& store,
                                   TransformConfig config = {});

/// Registers the "transform" image on a cluster.
void installTransformApp(k8s::Cluster& cluster, datalake::ObjectStore& store,
                         TransformConfig config = {});

}  // namespace lidc::apps
