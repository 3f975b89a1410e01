#include "core/checkpoint_format.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "core/wire_format.hpp"

namespace lidc::core {

namespace {

constexpr std::size_t kMaxJobIdLength = 128;

bool validJobId(std::string_view jobId) {
  if (jobId.empty() || jobId.size() > kMaxJobIdLength) return false;
  if (jobId.front() == '_') return false;  // reserved for _manifest & friends
  return std::all_of(jobId.begin(), jobId.end(), [](unsigned char c) {
    return c > 0x20 && c < 0x7f && c != '/' && c != ';' && c != '=';
  });
}

}  // namespace

ndn::Name makeCkptName(const std::string& jobId, std::uint64_t epoch) {
  ndn::Name name = kCkptPrefix;
  name.append(jobId);
  name.append(std::to_string(epoch));
  return name;
}

ndn::Name makeCkptManifestName(const std::string& jobId) {
  ndn::Name name = kCkptPrefix;
  name.append(jobId);
  name.append("_manifest");
  return name;
}

Result<CkptRef> parseCkptRef(std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) {
    return Status::InvalidArgument("ckpt ref needs <job_id>/<epoch>");
  }
  if (text.find('/', slash + 1) != std::string_view::npos) {
    return Status::InvalidArgument("ckpt ref has too many components");
  }
  CkptRef ref;
  ref.jobId = std::string(text.substr(0, slash));
  if (!validJobId(ref.jobId)) {
    return Status::InvalidArgument("malformed ckpt job id");
  }
  const std::string_view epochText = text.substr(slash + 1);
  auto epoch = strings::parseUint(epochText);
  if (!epoch || epochText.empty() || epochText.size() > 19) {
    return Status::InvalidArgument("malformed ckpt epoch");
  }
  if (*epoch == 0) {
    return Status::InvalidArgument("ckpt epochs start at 1");
  }
  ref.epoch = *epoch;
  return ref;
}

Result<CkptRef> parseCkptName(const ndn::Name& name) {
  if (!kCkptPrefix.isPrefixOf(name)) {
    return Status::InvalidArgument("not under " + kCkptPrefix.toUri());
  }
  if (name.size() != kCkptPrefix.size() + 2) {
    return Status::InvalidArgument("ckpt name needs /<job_id>/<epoch>");
  }
  return parseCkptRef(name[kCkptPrefix.size()].toString() + "/" +
                      name[kCkptPrefix.size() + 1].toString());
}

std::string encodeCkptManifest(const CkptManifest& manifest) {
  return encodeKv({{"app", manifest.app},
                   {"bytes", std::to_string(manifest.bytes)},
                   {"digest", std::to_string(manifest.digest)},
                   {"epoch", std::to_string(manifest.epoch)},
                   {"job", manifest.jobId},
                   {"progress_pm", std::to_string(manifest.progressPermille)}});
}

Result<CkptManifest> decodeCkptManifest(std::string_view text) {
  // Bound hostile input before parsing: a manifest is a handful of short
  // fields, never megabytes.
  if (text.size() > 4096) {
    return Status::InvalidArgument("manifest too large");
  }
  const KvMap fields = decodeKv(text);
  CkptManifest manifest;
  auto require = [&fields](const char* key) -> Result<std::string> {
    auto it = fields.find(key);
    if (it == fields.end()) {
      return Status::InvalidArgument(std::string("manifest missing ") + key);
    }
    return it->second;
  };
  auto requireUint = [&require](const char* key) -> Result<std::uint64_t> {
    auto raw = require(key);
    if (!raw.ok()) return raw.status();
    auto value = strings::parseUint(*raw);
    if (!value || raw->empty() || raw->size() > 20) {
      return Status::InvalidArgument(std::string("manifest field ") + key +
                                     " is not a number");
    }
    return *value;
  };

  auto job = require("job");
  if (!job.ok()) return job.status();
  if (!validJobId(*job)) {
    return Status::InvalidArgument("manifest carries a malformed job id");
  }
  manifest.jobId = *job;
  if (auto it = fields.find("app"); it != fields.end()) manifest.app = it->second;

  auto epoch = requireUint("epoch");
  if (!epoch.ok()) return epoch.status();
  if (*epoch == 0) return Status::InvalidArgument("ckpt epochs start at 1");
  manifest.epoch = *epoch;

  auto bytes = requireUint("bytes");
  if (!bytes.ok()) return bytes.status();
  manifest.bytes = *bytes;

  auto digest = requireUint("digest");
  if (!digest.ok()) return digest.status();
  manifest.digest = *digest;

  auto progress = requireUint("progress_pm");
  if (!progress.ok()) return progress.status();
  if (*progress > 1000) {
    return Status::InvalidArgument("manifest progress_pm out of range");
  }
  manifest.progressPermille = static_cast<std::uint32_t>(*progress);
  return manifest;
}

}  // namespace lidc::core
