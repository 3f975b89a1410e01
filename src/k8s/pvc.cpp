#include "k8s/pvc.hpp"

#include <algorithm>

#include "common/strings.hpp"

namespace lidc::k8s {

Status PersistentVolumeClaim::write(const std::string& path,
                                    std::vector<std::uint8_t> bytes) {
  const auto newSize = ByteSize(bytes.size());
  ByteSize existing;
  if (auto it = files_.find(path); it != files_.end()) {
    existing = ByteSize(it->second.size());
  }
  const ByteSize projected = used_ - existing + newSize;
  if (projected > capacity_) {
    return Status::ResourceExhausted("PVC " + name_ + " full: " +
                                     projected.toString() + " > " +
                                     capacity_.toString());
  }
  used_ = projected;
  files_[path] = std::move(bytes);
  return Status::Ok();
}

Status PersistentVolumeClaim::writeText(const std::string& path,
                                        std::string_view text) {
  return write(path, std::vector<std::uint8_t>(text.begin(), text.end()));
}

std::optional<std::vector<std::uint8_t>> PersistentVolumeClaim::read(
    const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::vector<std::uint8_t>> PersistentVolumeClaim::read(
    const std::string& path, std::uint64_t offset, std::uint64_t length) const {
  auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  const std::vector<std::uint8_t>& bytes = it->second;
  const std::uint64_t begin = std::min<std::uint64_t>(offset, bytes.size());
  const std::uint64_t end = begin + std::min<std::uint64_t>(length, bytes.size() - begin);
  return std::vector<std::uint8_t>(bytes.begin() + static_cast<std::ptrdiff_t>(begin),
                                   bytes.begin() + static_cast<std::ptrdiff_t>(end));
}

std::optional<std::uint64_t> PersistentVolumeClaim::sizeOf(
    const std::string& path) const {
  auto it = files_.find(path);
  if (it == files_.end()) return std::nullopt;
  return it->second.size();
}

Status PersistentVolumeClaim::remove(const std::string& path) {
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound("no file " + path);
  used_ -= ByteSize(it->second.size());
  files_.erase(it);
  return Status::Ok();
}

std::vector<std::string> PersistentVolumeClaim::list(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [path, bytes] : files_) {
    if (strings::startsWith(path, prefix)) out.push_back(path);
  }
  return out;
}

}  // namespace lidc::k8s
