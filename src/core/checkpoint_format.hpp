// Checkpoint naming & manifest format (migration plane, DESIGN.md §14).
// Checkpoints are ordinary named data-lake objects, so "resume anywhere"
// falls out of the same machinery as "fetch anywhere":
//
//   /ndn/k8s/ckpt/<job_id>/<epoch>      -> opaque checkpoint payload
//   /ndn/k8s/ckpt/<job_id>/_manifest    -> "app=...;bytes=...;digest=...;
//                                          epoch=...;job=...;progress_pm=..."
//
// The per-epoch object is immutable (CS-cacheable, replicable by the
// repair loop); the `_manifest` is overwritten on every write and served
// with short freshness, mirroring the ReplicaCatalog `_map` /
// TelemetryPublisher revision-gated pattern. This module lives in core
// (below the migrate plane) so the gateway can parse and validate resume
// points without depending on lidc_migrate.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.hpp"
#include "ndn/name.hpp"

namespace lidc::core {

/// Root of the checkpoint namespace. Location-independent like
/// /ndn/k8s/data: announced anycast by every checkpoint-serving cluster,
/// so a restore fetches the epoch from whichever lake still holds it.
inline const ndn::Name kCkptPrefix{"/ndn/k8s/ckpt"};

/// A parsed "<job_id>/<epoch>" resume reference (the ckpt= param value).
struct CkptRef {
  std::string jobId;
  std::uint64_t epoch = 0;
};

/// /ndn/k8s/ckpt/<job_id>/<epoch>
ndn::Name makeCkptName(const std::string& jobId, std::uint64_t epoch);
/// /ndn/k8s/ckpt/<job_id>/_manifest
ndn::Name makeCkptManifestName(const std::string& jobId);

/// Parses the "<job_id>/<epoch>" form carried in ckpt= params. Job ids
/// are validated against the gateway's own grammar (printable, no '/',
/// bounded length) so hostile names fail cleanly.
Result<CkptRef> parseCkptRef(std::string_view text);

/// Parses a full /ndn/k8s/ckpt/<job_id>/<epoch> name.
Result<CkptRef> parseCkptName(const ndn::Name& name);

/// Manifest fields for the latest checkpoint epoch of one job.
struct CkptManifest {
  std::string jobId;
  std::string app;                 // producing application image
  std::uint64_t epoch = 0;         // latest epoch written
  std::uint64_t bytes = 0;         // payload size of that epoch
  /// fnv1a() of the payload (common/hash.hpp), the integrity check the
  /// publish pipeline uses, so corrupt or stale epochs are rejected alike.
  std::uint64_t digest = 0;
  std::uint32_t progressPermille = 0;  // job progress at the write, 0..1000
};

/// One k=v record (common/kv.hpp), fields in key order.
std::string encodeCkptManifest(const CkptManifest& manifest);

/// Strict decode: every numeric field must parse, the job id must pass
/// the ref grammar, and progress must stay within [0, 1000].
Result<CkptManifest> decodeCkptManifest(std::string_view text);

}  // namespace lidc::core
