#include "core/checkpoint_format.hpp"

#include <algorithm>
#include <optional>

#include "common/kv.hpp"
#include "common/strings.hpp"

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
  return kv::Writer()
      .add("app", manifest.app)
      .add("bytes", manifest.bytes)
      .add("digest", manifest.digest)
      .add("epoch", manifest.epoch)
      .add("job", manifest.jobId)
      .add("progress_pm", manifest.progressPermille)
      .take();
}

Result<CkptManifest> decodeCkptManifest(std::string_view text) {
  // Bound hostile input before parsing: a manifest is a handful of short
  // fields, never megabytes.
  if (text.size() > 4096) {
    return Status::InvalidArgument("manifest too large");
  }
  const kv::Reader fields(text);
  if (!fields.ok()) return Status::InvalidArgument("malformed manifest");
  if (!validJobId(fields.get("job"))) {
    return Status::InvalidArgument("manifest carries a malformed job id");
  }
  // parseUint takes leading zeros; a number is at most 20 digits.
  auto number = [&fields](std::string_view key) -> std::optional<std::uint64_t> {
    const std::string_view raw = fields.get(key);
    return raw.size() > 20 ? std::nullopt : strings::parseUint(raw);
  };
  const auto epoch = number("epoch");
  const auto bytes = number("bytes");
  const auto digest = number("digest");
  const auto progress = number("progress_pm");
  if (!epoch || !bytes || !digest || !progress) {
    return Status::InvalidArgument(
        "manifest needs numeric epoch, bytes, digest and progress_pm");
  }
  if (*epoch == 0) return Status::InvalidArgument("ckpt epochs start at 1");
  if (*progress > 1000) {
    return Status::InvalidArgument("manifest progress_pm out of range");
  }

  CkptManifest manifest;
  manifest.jobId = fields.get("job");
  manifest.app = fields.get("app");
  manifest.epoch = *epoch;
  manifest.bytes = *bytes;
  manifest.digest = *digest;
  manifest.progressPermille = static_cast<std::uint32_t>(*progress);
  return manifest;
}

}  // namespace lidc::core
