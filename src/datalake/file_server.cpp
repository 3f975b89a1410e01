#include "datalake/file_server.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "common/strings.hpp"

namespace lidc::datalake {

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
  const auto size = store_.sizeOf(objectName);
  if (!size) {
    ++rejected_;
    face_->putNack(interest, ndn::NackReason::kNoRoute);
    return;
  }
  const std::uint64_t segments = (*size + segment_size_ - 1) / segment_size_;
  ndn::Data data(dataName);
  data.setContent("segments=" + std::to_string(segments) + ";size=" +
                  std::to_string(*size) +
                  ";segment_size=" + std::to_string(segment_size_));
  data.setFreshnessPeriod(freshness_);
  data.sign();
  ++served_;
  face_->putData(std::move(data));
}

void FileServer::replySegment(const ndn::Interest& interest,
                              const ndn::Name& objectName,
                              std::uint64_t segmentIndex) {
  const auto size = store_.sizeOf(objectName);
  // Bound the index before multiplying, so a hostile seg= cannot wrap
  // around to a valid offset. An empty object still has a segment 0.
  const std::uint64_t segments =
      size ? std::max<std::uint64_t>(1, (*size + segment_size_ - 1) / segment_size_)
           : 0;
  if (segmentIndex >= segments) {
    ++rejected_;
    face_->putNack(interest, ndn::NackReason::kNoRoute);
    return;
  }
  // Only the segment's range is copied out of the store.
  auto bytes = store_.get(objectName, segmentIndex * segment_size_, segment_size_);
  ndn::Data data(interest.name());
  data.setContent(std::move(*bytes));
  data.setFreshnessPeriod(freshness_);
  data.sign();
  ++served_;
  face_->putData(std::move(data));
}

}  // namespace lidc::datalake
