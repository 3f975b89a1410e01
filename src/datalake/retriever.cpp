#include "datalake/retriever.hpp"

#include <map>

#include "datalake/file_server.hpp"

namespace lidc::datalake {

namespace {
/// Extra attempts for a meta/segment whose Data failed verification.
/// The retry carries the poisoned packet's digest as an exclusion hint
/// (and MustBeFresh), so content stores skip the bad entry instead of
/// re-serving it forever.
constexpr int kMaxIntegrityRetries = 2;
}  // namespace

struct Retriever::Transfer {
  ndn::Name objectName;
  CompletionCallback done;
  std::uint64_t totalSegments = 0;
  std::uint64_t totalSize = 0;
  std::uint64_t segmentSize = 0;  // 0 = meta did not advertise one
  std::uint64_t nextToRequest = 0;
  std::size_t inFlight = 0;
  /// Received payloads, shared with the Data that carried them (never
  /// copied) until the one assembly copy at the end.
  std::map<std::uint64_t, ndn::SharedBytes> segments;
  std::uint64_t receivedBytes = 0;
  /// Per-segment verification-failure re-fetches already spent.
  std::map<std::uint64_t, int> integrityAttempts;
  int metaIntegrityAttempts = 0;
  bool finished = false;
  telemetry::TraceContext trace;
  telemetry::FlowLabel label;
};

void Retriever::fetch(const ndn::Name& objectName, CompletionCallback done,
                      telemetry::TraceContext trace,
                      telemetry::FlowLabel label) {
  auto transfer = std::make_shared<Transfer>();
  transfer->objectName = objectName;
  transfer->done = std::move(done);
  transfer->trace = trace;
  transfer->label = std::move(label);
  fetchMeta(std::move(transfer), 0);
}

void Retriever::fetchMeta(std::shared_ptr<Transfer> transfer, int attempt,
                          std::optional<std::uint64_t> excludeDigest) {
  ndn::Name metaName = transfer->objectName;
  metaName.append("meta");
  ndn::Interest interest(metaName);
  interest.setMustBeFresh(excludeDigest.has_value());
  interest.setLifetime(options_.interestLifetime);
  interest.setTraceContext(transfer->trace);
  interest.setFlowLabel(transfer->label);
  if (excludeDigest.has_value()) interest.setExcludeDigest(*excludeDigest);

  face_.expressInterest(
      interest,
      [this, transfer, attempt](const ndn::Interest&, const ndn::Data& data) {
        if (transfer->finished) return;
        if (options_.verifySignatures && !data.verify()) {
          // Poisoned meta (bit-flipped in flight or served from a bad
          // cache entry): re-fetch, telling caches to skip this digest.
          if (transfer->metaIntegrityAttempts < kMaxIntegrityRetries) {
            ++transfer->metaIntegrityAttempts;
            ++integrity_retries_;
            fetchMeta(transfer, attempt, data.contentDigest());
            return;
          }
          finish(transfer, Status::PermissionDenied(
                               "meta failed signature verification: " +
                               data.name().toUri()));
          return;
        }
        const Result<LakeMeta> meta = decodeLakeMeta(data.contentView());
        if (!meta.ok()) {
          finish(transfer, Status::Internal(meta.status().message() + " for " +
                                            transfer->objectName.toUri()));
          return;
        }
        transfer->totalSegments = meta->segments;
        transfer->totalSize = meta->size;
        transfer->segmentSize = meta->segmentSize;
        if (meta->segments == 0) {
          finish(transfer, std::vector<std::uint8_t>{});
          return;
        }
        pumpWindow(transfer);
      },
      [this, transfer](const ndn::Interest&, const ndn::Nack& nack) {
        finish(transfer,
               Status::NotFound("object " + transfer->objectName.toUri() +
                                " nacked: " +
                                std::string(ndn::nackReasonName(nack.reason()))));
      },
      [this, transfer, attempt](const ndn::Interest&) {
        if (attempt + 1 < options_.maxRetriesPerSegment) {
          fetchMeta(transfer, attempt + 1);
        } else {
          finish(transfer, Status::Timeout("meta fetch timed out for " +
                                           transfer->objectName.toUri()));
        }
      });
}

void Retriever::pumpWindow(const std::shared_ptr<Transfer>& transfer) {
  while (transfer->inFlight < options_.window &&
         transfer->nextToRequest < transfer->totalSegments) {
    const std::uint64_t index = transfer->nextToRequest++;
    ++transfer->inFlight;
    fetchSegment(transfer, index, 0);
  }
}

void Retriever::fetchSegment(std::shared_ptr<Transfer> transfer, std::uint64_t index,
                             int attempt,
                             std::optional<std::uint64_t> excludeDigest) {
  ndn::Name segName = transfer->objectName;
  segName.append("seg=" + std::to_string(index));
  ndn::Interest interest(segName);
  interest.setLifetime(options_.interestLifetime);
  interest.setTraceContext(transfer->trace);
  interest.setFlowLabel(transfer->label);
  if (excludeDigest.has_value()) {
    interest.setExcludeDigest(*excludeDigest);
    interest.setMustBeFresh(true);
  }

  face_.expressInterest(
      interest,
      [this, transfer, index, attempt](const ndn::Interest&,
                                       const ndn::Data& data) {
        if (transfer->finished) return;
        if (options_.verifySignatures && !data.verify()) {
          // The in-flight slot stays held: the re-fetch replaces this
          // delivery rather than opening the window.
          int& tries = transfer->integrityAttempts[index];
          if (tries < kMaxIntegrityRetries) {
            ++tries;
            ++integrity_retries_;
            fetchSegment(transfer, index, attempt, data.contentDigest());
            return;
          }
          finish(transfer, Status::PermissionDenied(
                               "segment failed signature verification: " +
                               data.name().toUri()));
          return;
        }
        --transfer->inFlight;
        // Honor the advertised segment size: every segment but the last
        // must be exactly segment_size bytes, the last exactly the
        // remainder — catching compensating per-segment errors that a
        // total-size check alone would accept.
        if (transfer->segmentSize > 0 && transfer->totalSize > 0) {
          const bool isLast = index + 1 == transfer->totalSegments;
          const std::uint64_t expected =
              isLast ? transfer->totalSize - (transfer->totalSegments - 1) *
                                                 transfer->segmentSize
                     : transfer->segmentSize;
          if (data.content().size() != expected) {
            finish(transfer,
                   Status::Internal(
                       "segment " + data.name().toUri() + " carries " +
                       std::to_string(data.content().size()) +
                       " bytes, meta advertised " + std::to_string(expected)));
            return;
          }
        }
        ndn::SharedBytes& slot = transfer->segments[index];
        transfer->receivedBytes += data.content().size() - slot.size();
        slot = data.sharedContent();
        if (transfer->segments.size() == transfer->totalSegments) {
          // Check the advertised size against the bytes actually held
          // before allocating: legacy meta without segment_size skips the
          // per-segment checks, and a hostile size= must not reach
          // reserve().
          if (transfer->receivedBytes != transfer->totalSize) {
            finish(transfer,
                   Status::Internal(
                       "reassembled " + std::to_string(transfer->receivedBytes) +
                       " bytes for " + transfer->objectName.toUri() +
                       " but meta advertised " +
                       std::to_string(transfer->totalSize)));
            return;
          }
          std::vector<std::uint8_t> assembled;
          assembled.reserve(transfer->totalSize);
          for (const auto& [i, segment] : transfer->segments) {
            assembled.insert(assembled.end(), segment.get().begin(), segment.get().end());
          }
          finish(transfer, std::move(assembled));
          return;
        }
        pumpWindow(transfer);
      },
      [this, transfer](const ndn::Interest& i, const ndn::Nack&) {
        --transfer->inFlight;
        finish(transfer, Status::NotFound("segment nacked: " + i.name().toUri()));
      },
      [this, transfer, index, attempt](const ndn::Interest& i) {
        if (transfer->finished) return;
        if (attempt + 1 < options_.maxRetriesPerSegment) {
          fetchSegment(transfer, index, attempt + 1);
        } else {
          --transfer->inFlight;
          finish(transfer,
                 Status::Timeout("segment timed out: " + i.name().toUri()));
        }
      });
}

void Retriever::finish(const std::shared_ptr<Transfer>& transfer,
                       Result<std::vector<std::uint8_t>> result) {
  if (transfer->finished) return;
  transfer->finished = true;
  if (transfer->done) transfer->done(std::move(result));
}

}  // namespace lidc::datalake
