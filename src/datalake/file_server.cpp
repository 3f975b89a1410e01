#include "datalake/file_server.hpp"

#include <algorithm>
#include <span>

#include "common/kv.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"

namespace lidc::datalake {

std::vector<std::uint8_t> encodeLakeMeta(const LakeMeta& meta) {
  // Room for three 20-digit numbers, so the record never reallocates.
  std::vector<std::uint8_t> bytes;
  bytes.reserve(96);
  return kv::ByteWriter(std::move(bytes))
      .add("segments", meta.segments)
      .add("size", meta.size)
      .add("segment_size", meta.segmentSize)
      .take();
}

Result<LakeMeta> decodeLakeMeta(std::string_view text) {
  const kv::Reader fields(text);
  auto number = [&fields](std::string_view key) {
    return strings::parseUint(fields.get(key)).value_or(0);
  };
  const LakeMeta meta{number("segments"), number("size"), number("segment_size")};
  if (!fields.ok() || (meta.segments == 0) != (meta.size == 0)) {
    return Status::Internal("malformed meta " + std::string(text));
  }
  const std::uint64_t segmentSize = meta.segmentSize;
  const std::uint64_t implied =
      segmentSize == 0 ? meta.segments : (meta.size + segmentSize - 1) / segmentSize;
  if (implied != meta.segments) {
    return Status::Internal("inconsistent meta " + std::string(text) +
                            ": size implies " + std::to_string(implied) + " segments");
  }
  return meta;
}

FileServer::FileServer(ndn::Forwarder& forwarder, ObjectStore& store, ndn::Name prefix,
                       std::size_t segmentSize)
    : forwarder_(forwarder),
      store_(store),
      prefix_(std::move(prefix)),
      segment_size_(segmentSize == 0 ? 1 : segmentSize) {
  face_ = std::make_shared<ndn::AppFace>("app://fileserver" + prefix_.toUri(),
                                         forwarder_.simulator());
  face_->setInterestHandler([this](const ndn::Interest& i) { handleInterest(i); });
  face_id_ = forwarder_.addFace(face_);
  forwarder_.registerPrefix(prefix_, face_id_, /*cost=*/0);
}

void FileServer::handleInterest(const ndn::Interest& interest) {
  const ndn::Name& name = interest.name();
  if (!prefix_.isPrefixOf(name) || name.size() <= prefix_.size()) {
    ++rejected_;
    face_->putNack(interest, ndn::NackReason::kNoRoute);
    return;
  }

  const std::string last = name[name.size() - 1].toString();

  if (strings::startsWith(last, "seg=")) {
    const auto index = strings::parseUint(std::string_view(last).substr(4));
    if (!index) {
      ++rejected_;
      face_->putNack(interest, ndn::NackReason::kNoRoute);
      return;
    }
    replySegment(interest, name.prefix(name.size() - 1), *index);
    return;
  }

  if (last == "meta") {
    replyMeta(interest, name.prefix(name.size() - 1), name);
    return;
  }

  // Bare object name: serve meta under the requested name so prefix
  // Interests discover the object.
  replyMeta(interest, name, name);
}

void FileServer::replyMeta(const ndn::Interest& interest, const ndn::Name& objectName,
                           const ndn::Name& dataName) {
  const std::vector<std::uint8_t>* object = store_.find(objectName);
  if (object == nullptr) {
    ++rejected_;
    face_->putNack(interest, ndn::NackReason::kNoRoute);
    return;
  }
  const std::uint64_t size = object->size();
  const std::uint64_t segments = (size + segment_size_ - 1) / segment_size_;
  ndn::Data data(dataName);
  data.setContent(encodeLakeMeta({segments, size, segment_size_}));
  data.setFreshnessPeriod(freshness_);
  data.sign();
  ++served_;
  face_->putData(std::move(data));
}

void FileServer::replySegment(const ndn::Interest& interest,
                              const ndn::Name& objectName,
                              std::uint64_t segmentIndex) {
  const std::vector<std::uint8_t>* object = store_.find(objectName);
  // Bound the index before multiplying, so a hostile seg= cannot wrap
  // around to a valid offset. An empty object still has a segment 0.
  const std::uint64_t segments =
      object == nullptr
          ? 0
          : std::max<std::uint64_t>(1, (object->size() + segment_size_ - 1) /
                                           segment_size_);
  if (segmentIndex >= segments) {
    ++rejected_;
    face_->putNack(interest, ndn::NackReason::kNoRoute);
    return;
  }
  // Only the segment's range is copied out of the store.
  const std::size_t offset = segmentIndex * segment_size_;
  const std::span<const std::uint8_t> segment = std::span(*object).subspan(
      offset, std::min(segment_size_, object->size() - offset));
  ndn::Data data(interest.name());
  data.setContent(std::vector<std::uint8_t>(segment.begin(), segment.end()));
  data.setFreshnessPeriod(freshness_);
  data.sign();
  ++served_;
  face_->putData(std::move(data));
}

}  // namespace lidc::datalake
