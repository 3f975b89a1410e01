#include "apps/transform_app.hpp"

#include <algorithm>
#include <string>

#include "common/strings.hpp"
#include "k8s/cluster.hpp"

namespace lidc::apps {

namespace {

/// Cores beyond this add no throughput.
constexpr std::size_t kMaxCores = 16;

ndn::Name objectName(const ndn::Name& dataPrefix, const std::string& path) {
  ndn::Name name = dataPrefix;
  for (auto part : strings::splitSkipEmpty(path, '/')) name.append(part);
  return name;
}

}  // namespace

k8s::AppRunner makeTransformRunner(datalake::ObjectStore& store,
                                   TransformConfig config) {
  return [&store, config](k8s::AppContext& context) -> k8s::AppResult {
    k8s::AppResult result;

    // Inputs: the "input" arg first, then dataset0..N in index order,
    // skipping duplicates so a bound dataset is not read twice.
    std::vector<std::string> inputs;
    if (auto it = context.spec.args.find("input");
        it != context.spec.args.end()) {
      inputs.push_back(it->second);
    }
    for (std::size_t i = 0;; ++i) {
      auto it = context.spec.args.find("dataset" + std::to_string(i));
      if (it == context.spec.args.end()) break;
      if (std::find(inputs.begin(), inputs.end(), it->second) == inputs.end()) {
        inputs.push_back(it->second);
      }
    }
    if (inputs.empty()) {
      result.status =
          Status::InvalidArgument("transform requires input= or a dataset");
      return result;
    }

    std::vector<std::uint8_t> combined;
    if (auto it = context.spec.args.find("tag"); it != context.spec.args.end()) {
      combined.insert(combined.end(), it->second.begin(), it->second.end());
      combined.push_back('\n');
    }
    std::size_t inputBytes = 0;
    for (const std::string& input : inputs) {
      const ndn::Name name = objectName(config.dataPrefix, input);
      const auto bytes = store.get(name);
      if (!bytes) {
        result.status =
            Status::NotFound("input not in data lake: " + name.toUri());
        return result;
      }
      inputBytes += bytes->size();
      combined.insert(combined.end(), bytes->begin(), bytes->end());
    }

    std::string outObject = "results/transform";
    if (auto it = context.spec.args.find("out"); it != context.spec.args.end()) {
      outObject = it->second;
    }
    const ndn::Name outName = objectName(config.dataPrefix, outObject);
    const std::size_t outputSize = combined.size();
    if (auto st = store.put(outName, std::move(combined)); !st.ok()) {
      result.status = st;
      return result;
    }

    const std::size_t cores = std::min<std::size_t>(
        kMaxCores,
        std::max<std::size_t>(1, static_cast<std::size_t>(
                                     context.spec.requests.cpu.cores())));
    const double effectiveCores =
        1.0 + config.scalingEfficiency * static_cast<double>(cores - 1);
    result.runtime = sim::Duration::seconds(
        static_cast<double>(inputBytes) /
        (config.bytesPerSecondPerCore * effectiveCores));
    result.resultPath = outName.toUri();
    result.outputBytes = outputSize;
    result.message = "transformed " + std::to_string(inputs.size()) +
                     " inputs, " + std::to_string(inputBytes) + " -> " +
                     std::to_string(outputSize) + " bytes";
    return result;
  };
}

void installTransformApp(k8s::Cluster& cluster, datalake::ObjectStore& store,
                         TransformConfig config) {
  cluster.registerApp("transform", makeTransformRunner(store, std::move(config)));
}

}  // namespace lidc::apps
