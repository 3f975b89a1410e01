#include "apps/compress_app.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "k8s/cluster.hpp"

namespace lidc::apps {

namespace {
/// Single-core compression throughput at testbed scale.
constexpr double kBytesPerSecondPerCore = 80e6;
/// Parallel efficiency per additional core (near-linear).
constexpr double kScalingEfficiency = 0.9;
/// Cores beyond this add no throughput.
constexpr std::size_t kMaxCores = 16;
}  // namespace

std::vector<std::uint8_t> rleCompress(const std::vector<std::uint8_t>& input) {
  std::vector<std::uint8_t> out;
  out.reserve(input.size() / 2 + 16);
  std::size_t i = 0;
  while (i < input.size()) {
    const std::uint8_t byte = input[i];
    std::size_t run = 1;
    while (i + run < input.size() && input[i + run] == byte && run < 255) ++run;
    out.push_back(static_cast<std::uint8_t>(run));
    out.push_back(byte);
    i += run;
  }
  return out;
}

Result<std::vector<std::uint8_t>> rleDecompress(
    const std::vector<std::uint8_t>& compressed) {
  if (compressed.size() % 2 != 0) {
    return Status::InvalidArgument("RLE stream has odd length");
  }
  std::vector<std::uint8_t> out;
  out.reserve(compressed.size());
  for (std::size_t i = 0; i < compressed.size(); i += 2) {
    const std::uint8_t run = compressed[i];
    if (run == 0) return Status::InvalidArgument("RLE run of zero");
    out.insert(out.end(), run, compressed[i + 1]);
  }
  return out;
}

k8s::AppRunner makeCompressRunner(datalake::ObjectStore& store,
                                  CompressConfig config) {
  return [&store, config](k8s::AppContext& context) -> k8s::AppResult {
    k8s::AppResult result;

    std::string input;
    if (auto it = context.spec.args.find("input"); it != context.spec.args.end()) {
      input = it->second;
    } else if (auto it2 = context.spec.args.find("dataset0");
               it2 != context.spec.args.end()) {
      input = it2->second;
    }
    if (input.empty()) {
      result.status = Status::InvalidArgument("compress requires input=");
      return result;
    }

    ndn::Name inputName = config.dataPrefix;
    for (auto part : strings::splitSkipEmpty(input, '/')) inputName.append(part);
    const auto bytes = store.get(inputName);
    if (!bytes) {
      result.status = Status::NotFound("input not in data lake: " +
                                       inputName.toUri());
      return result;
    }

    // Real compression work.
    auto compressed = rleCompress(*bytes);
    const std::size_t inputSize = bytes->size();
    const std::size_t outputSize = compressed.size();

    std::string outObject = "results/" + input + ".rle";
    if (auto it = context.spec.args.find("out"); it != context.spec.args.end()) {
      outObject = it->second;
    }
    ndn::Name outName = config.dataPrefix;
    for (auto part : strings::splitSkipEmpty(outObject, '/')) outName.append(part);
    if (auto st = store.put(outName, std::move(compressed)); !st.ok()) {
      result.status = st;
      return result;
    }

    // Runtime model: streaming compression parallelises nearly linearly
    // (contrast with Magic-BLAST's flat profile in Table I).
    const std::size_t cores = std::min<std::size_t>(
        kMaxCores,
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     context.spec.requests.cpu.cores())));
    const double effectiveCores =
        1.0 + kScalingEfficiency * static_cast<double>(cores - 1);
    result.runtime = sim::Duration::seconds(
        static_cast<double>(inputSize) /
        (kBytesPerSecondPerCore * effectiveCores));
    result.resultPath = outName.toUri();
    result.outputBytes = outputSize;
    result.message = "compressed " + std::to_string(inputSize) + " -> " +
                     std::to_string(outputSize) + " bytes";
    return result;
  };
}

void installCompressApp(k8s::Cluster& cluster, datalake::ObjectStore& store,
                        CompressConfig config) {
  cluster.registerApp("compress", makeCompressRunner(store, std::move(config)));
}

}  // namespace lidc::apps
