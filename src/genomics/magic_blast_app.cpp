#include "genomics/magic_blast_app.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "common/kv.hpp"
#include "common/logging.hpp"
#include "common/strings.hpp"
#include "common/units.hpp"
#include "genomics/aligner.hpp"
#include "genomics/fasta.hpp"
#include "k8s/cluster.hpp"

namespace lidc::genomics {

namespace {

/// +1.5% throughput per extra core (nearly flat).
constexpr double kThreadBenefitPerExtraCpu = 0.015;
/// The human-ref DB working set; a job given less memory thrashes.
constexpr ByteSize kWorkingSet = ByteSize::fromGiB(3);
constexpr double kThrashPenalty = 2.4;
/// Baseline extension work per read used to normalise workRatio;
/// calibrated so the catalog's default datasets land on Table I's
/// absolute runtimes (rice ~8h at 4GB/2cpu).
constexpr double kBaselineBasesPerRead = 41.0;
/// Aligner threads are capped at this (real threads used for real work).
constexpr std::size_t kMaxAlignerThreads = 4;

/// Looks up an arg with a default.
std::string argOr(const std::map<std::string, std::string>& args,
                  const std::string& key, std::string fallback) {
  auto it = args.find(key);
  return it == args.end() ? std::move(fallback) : it->second;
}

/// A decoded magic-blast checkpoint: how many leading reads the partial
/// report already covers, out of how many, plus the report bytes.
struct BlastCheckpoint {
  std::size_t offset = 0;
  std::size_t total = 0;
  std::vector<std::uint8_t> partialReport;
};

constexpr std::string_view kCkptApp = "magic-blast";

std::vector<std::uint8_t> encodeBlastCheckpoint(std::size_t offset,
                                                std::size_t total,
                                                std::vector<std::uint8_t> report) {
  kv::Writer writer;
  writer.add("app", kCkptApp).add("offset", offset).add("total", total);
  const std::string header = writer.take() + '\n';
  std::vector<std::uint8_t> payload(header.begin(), header.end());
  payload.insert(payload.end(), report.begin(), report.end());
  return payload;
}

std::optional<BlastCheckpoint> decodeBlastCheckpoint(
    const std::vector<std::uint8_t>& payload) {
  const auto newline = std::find(payload.begin(), payload.end(),
                                 static_cast<std::uint8_t>('\n'));
  if (newline == payload.end()) return std::nullopt;
  const kv::Reader fields(
      std::string_view(reinterpret_cast<const char*>(payload.data()),
                       static_cast<std::size_t>(newline - payload.begin())));
  const auto offset = strings::parseUint(fields.get("offset"));
  const auto total = strings::parseUint(fields.get("total"));
  if (fields.get("app") != kCkptApp || !offset || !total || *offset > *total) {
    return std::nullopt;
  }
  BlastCheckpoint ckpt;
  ckpt.offset = *offset;
  ckpt.total = *total;
  ckpt.partialReport.assign(newline + 1, payload.end());
  return ckpt;
}

}  // namespace

k8s::AppRunner makeMagicBlastRunner(datalake::ObjectStore& store,
                                    const DatasetCatalog& catalog,
                                    MagicBlastConfig config) {
  return [&store, catalog, config](k8s::AppContext& context) -> k8s::AppResult {
    k8s::AppResult result;

    const std::string srrId = argOr(context.spec.args, "srr_id", "");
    if (srrId.empty()) {
      result.status = Status::InvalidArgument("magic-blast requires srr_id");
      return result;
    }
    const std::string refObject =
        argOr(context.spec.args, "ref", config.referenceObject);
    const std::string outObject =
        argOr(context.spec.args, "out", "results/" + srrId + "-vs-" + refObject);

    // --- load inputs from the data lake ---
    ndn::Name sampleName = config.dataPrefix;
    sampleName.append(srrId);
    ndn::Name refName = config.dataPrefix;
    refName.append(refObject);

    const auto sampleBytes = store.get(sampleName);
    if (!sampleBytes) {
      result.status = Status::NotFound("sample not in data lake: " +
                                       sampleName.toUri());
      return result;
    }
    const auto refBytes = store.get(refName);
    if (!refBytes) {
      result.status =
          Status::NotFound("reference not in data lake: " + refName.toUri());
      return result;
    }

    auto reads = fromFasta(*sampleBytes);
    if (!reads) {
      result.status = reads.status();
      return result;
    }
    auto refSequences = fromFasta(*refBytes);
    if (!refSequences || refSequences->empty()) {
      result.status = Status::InvalidArgument("reference FASTA is empty");
      return result;
    }

    // --- resume point (migration plane) ---
    const std::size_t totalReads = reads->size();
    std::size_t resumeOffset = 0;
    std::vector<std::uint8_t> priorReport;
    bool resumed = false;
    if (const std::string ckptRef = argOr(context.spec.args, "ckpt", "");
        !ckptRef.empty()) {
      ndn::Name ckptName = config.ckptPrefix;
      for (auto part : strings::splitSkipEmpty(ckptRef, '/')) {
        ckptName.append(part);
      }
      if (auto payload = store.get(ckptName)) {
        if (auto ckpt = decodeBlastCheckpoint(*payload);
            ckpt && ckpt->total == totalReads) {
          resumeOffset = ckpt->offset;
          priorReport = std::move(ckpt->partialReport);
          resumed = true;
        }
      }
      // A missing or inconsistent checkpoint silently cold-starts: the
      // gateway's resume-point validation already rejected (and counted)
      // integrity failures; this guard only covers app-level drift.
    }

    // --- real alignment work (only the reads past the resume point) ---
    AlignerOptions options;
    const std::size_t cores =
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     context.spec.requests.cpu.cores()));
    options.threads = std::min(cores, kMaxAlignerThreads);
    MiniBlastAligner aligner(refSequences->front().bases, options);
    auto pending = std::make_shared<std::vector<Sequence>>(
        reads->begin() + static_cast<std::ptrdiff_t>(
                             std::min(resumeOffset, totalReads)),
        reads->end());
    auto alignments = std::make_shared<std::vector<Alignment>>();
    const AlignerStats stats = aligner.alignAll(*pending, *alignments);

    auto newReport = encodeCompressedReport(*alignments);
    std::vector<std::uint8_t> compressed = priorReport;
    compressed.insert(compressed.end(), newReport.begin(), newReport.end());
    const std::size_t simInputBytes = sampleBytes->size();
    const std::size_t simOutputBytes = compressed.size();

    ndn::Name outName = config.dataPrefix;
    for (auto part : strings::splitSkipEmpty(outObject, '/')) outName.append(part);
    if (auto st = store.put(outName, std::move(compressed)); !st.ok()) {
      result.status = st;
      return result;
    }

    // --- testbed-scale runtime model ---
    const DatasetSpec spec = catalog.bySrrId(srrId);
    const std::uint64_t testbedBytes =
        spec.srrId.empty()
            ? simInputBytes  // unknown sample: treat sim scale as real scale
            : spec.testbedBytes;

    const double basesPerRead =
        stats.readsProcessed == 0
            ? kBaselineBasesPerRead
            : static_cast<double>(stats.basesExamined) /
                  static_cast<double>(stats.readsProcessed);
    const double workRatio =
        std::clamp(basesPerRead / kBaselineBasesPerRead, 0.25, 4.0);

    const double threadBenefit =
        1.0 + kThreadBenefitPerExtraCpu * static_cast<double>(cores - 1);
    double seconds = static_cast<double>(testbedBytes) /
                     (config.throughputBytesPerSec * threadBenefit) * workRatio;
    if (context.spec.requests.memory < kWorkingSet) {
      seconds *= kThrashPenalty;
    }
    // A resumed run only re-does the reads past the checkpoint.
    const double remainingFraction =
        totalReads == 0 ? 1.0
                        : static_cast<double>(pending->size()) /
                              static_cast<double>(totalReads);
    seconds *= remainingFraction;
    result.runtime = sim::Duration::seconds(seconds);

    // Output size, scaled from simulation to testbed input volume.
    const double scaleUp = simInputBytes == 0
                               ? 1.0
                               : static_cast<double>(testbedBytes) /
                                     static_cast<double>(simInputBytes);
    result.outputBytes =
        static_cast<std::uint64_t>(static_cast<double>(simOutputBytes) * scaleUp);
    result.resultPath = outName.toUri();
    result.message = "aligned " + std::to_string(stats.readsAligned) + "/" +
                     std::to_string(stats.readsProcessed) + " reads, " +
                     std::to_string(stats.alignmentsReported) + " alignments";
    if (resumed) {
      result.message += ", resumed at " + std::to_string(resumeOffset) + "/" +
                        std::to_string(totalReads);
    }

    // --- incremental-progress hook (migration plane) ---
    // Maps a progress fraction of THIS execution to the checkpoint the
    // pod would have written by then: the prior partial report plus the
    // alignments of the first k freshly processed reads.
    auto priorShared =
        std::make_shared<std::vector<std::uint8_t>>(std::move(priorReport));
    auto processedIds = std::make_shared<std::vector<std::string>>();
    processedIds->reserve(pending->size());
    for (const auto& read : *pending) processedIds->push_back(read.id);
    const std::size_t processedCount = pending->size();
    result.checkpointPlan = [resumeOffset, totalReads, processedCount,
                             priorShared, alignments,
                             processedIds](double progress) {
      progress = std::clamp(progress, 0.0, 1.0);
      const std::size_t k = static_cast<std::size_t>(
          progress * static_cast<double>(processedCount));
      std::map<std::string, std::size_t> order;
      for (std::size_t i = 0; i < processedIds->size(); ++i) {
        order.emplace((*processedIds)[i], i);
      }
      std::vector<Alignment> covered;
      for (const auto& alignment : *alignments) {
        auto it = order.find(alignment.readId);
        if (it != order.end() && it->second < k) covered.push_back(alignment);
      }
      auto report = encodeCompressedReport(covered);
      std::vector<std::uint8_t> merged = *priorShared;
      merged.insert(merged.end(), report.begin(), report.end());
      return encodeBlastCheckpoint(resumeOffset + k, totalReads,
                                   std::move(merged));
    };

    LIDC_LOG(kDebug, "magic-blast")
        << srrId << ": " << result.message << ", runtime "
        << result.runtime.toString();
    return result;
  };
}

void installMagicBlast(k8s::Cluster& cluster, datalake::ObjectStore& store,
                       const DatasetCatalog& catalog, MagicBlastConfig config) {
  cluster.registerApp("magic-blast",
                      makeMagicBlastRunner(store, catalog, std::move(config)));
}

}  // namespace lidc::genomics
