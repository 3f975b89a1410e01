// PersistentVolumeClaim backed by an in-memory key->bytes store.
// In the paper, a PVC mounted on an NFS server holds the genomics data
// lake; here the PVC is the storage substrate the data lake and compute
// jobs share.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "common/units.hpp"

namespace lidc::k8s {

class PersistentVolumeClaim {
 public:
  PersistentVolumeClaim(std::string name, ByteSize capacity)
      : name_(std::move(name)), capacity_(capacity) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] ByteSize capacity() const noexcept { return capacity_; }
  [[nodiscard]] ByteSize used() const noexcept { return used_; }

  /// Writes (or replaces) a file. Fails when capacity would be exceeded.
  Status write(const std::string& path, std::vector<std::uint8_t> bytes);
  /// Convenience text write.
  Status writeText(const std::string& path, std::string_view text);

  [[nodiscard]] std::optional<std::vector<std::uint8_t>> read(
      const std::string& path) const;
  /// The file's bytes in place, or null when there is no such file;
  /// valid until the next write or remove.
  [[nodiscard]] const std::vector<std::uint8_t>* find(const std::string& path) const;
  [[nodiscard]] bool exists(const std::string& path) const {
    return files_.count(path) > 0;
  }
  [[nodiscard]] std::optional<std::uint64_t> sizeOf(const std::string& path) const;

  Status remove(const std::string& path);

  /// Paths under a directory-like prefix.
  [[nodiscard]] std::vector<std::string> list(const std::string& prefix) const;

 private:
  std::string name_;
  ByteSize capacity_;
  ByteSize used_;
  std::map<std::string, std::vector<std::uint8_t>> files_;
};

}  // namespace lidc::k8s
