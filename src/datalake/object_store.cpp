#include "datalake/object_store.hpp"

#include "common/strings.hpp"

namespace lidc::datalake {

Status ObjectStore::put(const ndn::Name& name, std::vector<std::uint8_t> bytes) {
  if (name.empty()) return Status::InvalidArgument("object name must not be empty");
  if (Status fits = ensureCapacityFor(name, bytes.size()); !fits.ok()) {
    return fits;
  }
  return pvc_.write(pathFor(name), std::move(bytes));
}

Status ObjectStore::put(const ndn::Name& name, std::vector<std::uint8_t> bytes,
                        const std::string& tenant) {
  if (name.empty()) return Status::InvalidArgument("object name must not be empty");
  // Capacity before quota: an over-capacity staging attempt must not
  // burn the tenant's publish budget.
  if (Status fits = ensureCapacityFor(name, bytes.size()); !fits.ok()) {
    return fits;
  }
  if (quota_charger_ && !tenant.empty()) {
    // Charge before writing so an over-quota publish leaves no object
    // behind. Existing-object replacement still charges the full size:
    // the budget is a cumulative publish allowance, not a usage meter.
    if (Status charged = quota_charger_(tenant, bytes.size()); !charged.ok()) {
      return charged;
    }
  }
  return pvc_.write(pathFor(name), std::move(bytes));
}

Status ObjectStore::putText(const ndn::Name& name, std::string_view text) {
  return put(name, std::vector<std::uint8_t>(text.begin(), text.end()));
}

std::optional<std::vector<std::uint8_t>> ObjectStore::get(const ndn::Name& name) const {
  return pvc_.read(pathFor(name));
}

const std::vector<std::uint8_t>* ObjectStore::find(const ndn::Name& name) const {
  return pvc_.find(pathFor(name));
}

bool ObjectStore::contains(const ndn::Name& name) const {
  return pvc_.exists(pathFor(name));
}

std::optional<std::uint64_t> ObjectStore::sizeOf(const ndn::Name& name) const {
  return pvc_.sizeOf(pathFor(name));
}

Status ObjectStore::remove(const ndn::Name& name) { return pvc_.remove(pathFor(name)); }

Status ObjectStore::erase(const ndn::Name& name) {
  if (!contains(name)) return Status::Ok();
  return pvc_.remove(pathFor(name));
}

std::uint64_t ObjectStore::bytesStored() const {
  std::uint64_t total = 0;
  for (const auto& path : pvc_.list(root_)) {
    if (const auto size = pvc_.sizeOf(path)) total += *size;
  }
  return total;
}

std::uint64_t ObjectStore::capacityBytes() const {
  return pvc_.capacity().bytes();
}

Status ObjectStore::ensureCapacityFor(const ndn::Name& name,
                                      std::uint64_t incoming) const {
  const std::uint64_t existing = sizeOf(name).value_or(0);
  const std::uint64_t projected = pvc_.used().bytes() - existing + incoming;
  if (projected > pvc_.capacity().bytes()) {
    return Status::ResourceExhausted(
        "object store over capacity: " + std::to_string(incoming) +
        " bytes will not fit (" + std::to_string(pvc_.used().bytes()) + "/" +
        std::to_string(pvc_.capacity().bytes()) + " used)");
  }
  return Status::Ok();
}

std::vector<ndn::Name> ObjectStore::list(const ndn::Name& prefix) const {
  std::vector<ndn::Name> names;
  const std::string pathPrefix = root_ + (prefix.empty() ? "" : prefix.toUri());
  for (const auto& path : pvc_.list(pathPrefix)) {
    // Strip the storage root back off to recover the content name.
    if (path.size() <= root_.size()) continue;
    names.emplace_back(std::string_view(path).substr(root_.size()));
  }
  return names;
}

}  // namespace lidc::datalake
