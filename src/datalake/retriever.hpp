// Consumer-side object retrieval: fetches <object>/meta, then pipelines
// segment Interests with a configurable window, reassembles, and invokes
// the completion callback. Retries each segment a bounded number of
// times on timeout. This is the client half of the paper's
// "/ndn/k8s/data/<data-identifier>" retrieval path.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "common/status.hpp"
#include "datalake/object_store.hpp"
#include "ndn/app_face.hpp"
#include "telemetry/flow_label.hpp"
#include "telemetry/trace_context.hpp"

namespace lidc::datalake {

struct RetrieveOptions {
  std::size_t window = 8;        // concurrent segment Interests
  int maxRetriesPerSegment = 3;  // timeout retries before giving up
  sim::Duration interestLifetime = sim::Duration::millis(4000);
  /// Enforce NDN data authentication (paper SVII: "NDN inherently
  /// secures data and provides built-in data authentication and
  /// integrity"): Data packets failing signature verification are
  /// rejected — on by default, and the regression tests pin it that
  /// way. Failed packets are re-fetched (below) before the transfer
  /// aborts with PERMISSION_DENIED (after kMaxIntegrityRetries in
  /// retriever.cpp).
  bool verifySignatures = true;
};

class Retriever {
 public:
  using CompletionCallback = std::function<void(Result<std::vector<std::uint8_t>>)>;

  explicit Retriever(ndn::AppFace& face, RetrieveOptions options = {})
      : face_(face), options_(options) {}

  /// Starts an asynchronous fetch of the full object. A valid `trace`
  /// is stamped on the meta and every segment Interest, so forwarders
  /// along the path attach their per-hop spans to the caller's trace;
  /// `label` rides the same Interests for flow attribution (which
  /// tenant/workflow the transferred bytes belong to).
  void fetch(const ndn::Name& objectName, CompletionCallback done,
             telemetry::TraceContext trace = {},
             telemetry::FlowLabel label = {});

  /// Packets that failed verification and were re-fetched with an
  /// exclusion hint (across all transfers of this retriever).
  [[nodiscard]] std::uint64_t integrityRetries() const noexcept {
    return integrity_retries_;
  }

 private:
  struct Transfer;

  void fetchMeta(std::shared_ptr<Transfer> transfer, int attempt,
                 std::optional<std::uint64_t> excludeDigest = std::nullopt);
  void pumpWindow(const std::shared_ptr<Transfer>& transfer);
  void fetchSegment(std::shared_ptr<Transfer> transfer, std::uint64_t index,
                    int attempt,
                    std::optional<std::uint64_t> excludeDigest = std::nullopt);
  void finish(const std::shared_ptr<Transfer>& transfer,
              Result<std::vector<std::uint8_t>> result);

  ndn::AppFace& face_;
  RetrieveOptions options_;
  std::uint64_t integrity_retries_ = 0;
};

}  // namespace lidc::datalake
