// The "file compression tool" of paper SIV-B — the second application
// LIDC serves, with its own validator (no SRR ids). It reads a named
// object from the data lake, performs real run-length compression, and
// writes the compressed object back.
//
// Unlike Magic-BLAST, compression is streaming and embarrassingly
// parallel, so its runtime model *does* scale with allocated CPUs —
// the per-application contrast the ablation benches exercise.
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

struct CompressConfig {
  ndn::Name dataPrefix{"/ndn/k8s/data"};
};

/// Byte-level RLE compression/decompression (real work, lossless).
std::vector<std::uint8_t> rleCompress(const std::vector<std::uint8_t>& input);
Result<std::vector<std::uint8_t>> rleDecompress(
    const std::vector<std::uint8_t>& compressed);

/// Arguments understood by the runner (JobSpec::args):
///   "input" (or "dataset0") - object name under the data prefix (required)
///   "out"                   - output object name (default results/<input>.rle)
k8s::AppRunner makeCompressRunner(datalake::ObjectStore& store,
                                  CompressConfig config = {});

/// Registers the "compress" image on a cluster.
void installCompressApp(k8s::Cluster& cluster, datalake::ObjectStore& store,
                        CompressConfig config = {});

}  // namespace lidc::apps
