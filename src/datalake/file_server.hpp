// The data lake's producer application: an NDN file server on an
// AppFace that serves named objects from an ObjectStore, segmenting
// large objects into Data packets. This is the paper's "file server
// application [that] serves the data from the PVC" behind the data
// lake's NFD (SIV).
//
// Protocol (names relative to the served prefix):
//   <object>/meta      -> "segments=<n>;size=<bytes>;segment_size=<s>"
//   <object>/seg=<i>   -> i-th segment payload
//   <object>           -> alias for <object>/meta when the object exists
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "datalake/object_store.hpp"
#include "ndn/app_face.hpp"
#include "ndn/forwarder.hpp"

namespace lidc::datalake {

/// The <object>/meta record; the retriever decodes what the server
/// encodes.
struct LakeMeta {
  std::uint64_t segments = 0;
  std::uint64_t size = 0;         // object bytes
  std::uint64_t segmentSize = 0;  // 0 = not advertised
};

std::vector<std::uint8_t> encodeLakeMeta(const LakeMeta& meta);
/// Absent or unparseable numbers read as 0. Internal when the record is
/// malformed or its numbers contradict each other.
Result<LakeMeta> decodeLakeMeta(std::string_view text);

class FileServer {
 public:
  /// Attaches to a forwarder, registering `prefix` toward a new AppFace.
  FileServer(ndn::Forwarder& forwarder, ObjectStore& store, ndn::Name prefix,
             std::size_t segmentSize = 8 * 1024);

  [[nodiscard]] ndn::FaceId faceId() const noexcept { return face_id_; }
  [[nodiscard]] const ndn::Name& prefix() const noexcept { return prefix_; }
  [[nodiscard]] std::size_t segmentSize() const noexcept { return segment_size_; }

  [[nodiscard]] std::uint64_t interestsServed() const noexcept { return served_; }
  [[nodiscard]] std::uint64_t interestsRejected() const noexcept { return rejected_; }

  /// Freshness stamped on served Data (default 10 s, so caches work).
  void setFreshness(sim::Duration freshness) noexcept { freshness_ = freshness; }

 private:
  void handleInterest(const ndn::Interest& interest);
  void replyMeta(const ndn::Interest& interest, const ndn::Name& objectName,
                 const ndn::Name& dataName);
  void replySegment(const ndn::Interest& interest, const ndn::Name& objectName,
                    std::uint64_t segmentIndex);

  ndn::Forwarder& forwarder_;
  ObjectStore& store_;
  ndn::Name prefix_;
  std::size_t segment_size_;
  std::shared_ptr<ndn::AppFace> face_;
  ndn::FaceId face_id_ = ndn::kInvalidFaceId;
  sim::Duration freshness_ = sim::Duration::seconds(10);
  std::uint64_t served_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace lidc::datalake
