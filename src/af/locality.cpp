#include "af/locality.h"

#include <sys/mman.h>

namespace oaf::af {

namespace {
std::string posix_name(const std::string& name) { return "/oaf_" + name; }
}  // namespace

Result<RegionHandle> ShmBroker::provision(const std::string& name, u64 bytes) {
  if (name.empty()) {
    return make_error(StatusCode::kInvalidArgument, "empty region name");
  }
  if (regions_.contains(name)) {
    return make_error(StatusCode::kAlreadyExists,
                      "region already provisioned: " + name);
  }
  const u64 total = RegionHandle::kRingOffset + bytes;

  auto region_res = backing_ == Backing::kPosixShm
                        ? shm::ShmRegion::create(posix_name(name), total)
                        : shm::ShmRegion::anonymous(total);
  if (!region_res && region_res.status().code() == StatusCode::kAlreadyExists) {
    // A previous process died without unlinking its region. The broker owns
    // this name space (regions_ already guarantees no live connection uses
    // it), so garbage-collect the stale object and retry.
    ::shm_unlink(posix_name(name).c_str());
    region_res = shm::ShmRegion::create(posix_name(name), total);
  }
  if (!region_res) return region_res.status();
  auto region = std::make_shared<shm::ShmRegion>(std::move(region_res).take());

  RegionHandle handle;
  handle.name = name;
  handle.base = region->bytes();
  handle.bytes = total;
  handle.keepalive = region;

  // Initialize and announce on the pre-reserved page — the flag the client's
  // Connection Manager polls for during establishment.
  shm::LocalityPage page(handle.base, /*init=*/true);
  page.announce(node_token_, name);

  regions_[name] = region;
  return handle;
}

Result<RegionHandle> ShmBroker::open(const std::string& name) {
  std::shared_ptr<shm::ShmRegion> region;
  if (backing_ == Backing::kPosixShm) {
    // Attach by name whether or not *this* broker provisioned the region:
    // the target's broker may live in another process. The helper's
    // announcement and the claim flag below still gate access.
    auto mapped = shm::ShmRegion::attach(posix_name(name));
    if (!mapped) return mapped.status();
    region = std::make_shared<shm::ShmRegion>(std::move(mapped).take());
  } else {
    auto it = regions_.find(name);
    if (it == regions_.end()) {
      return make_error(StatusCode::kNotFound, "region not provisioned: " + name);
    }
    region = it->second;
  }
  RegionHandle handle;
  handle.name = name;
  handle.base = region->bytes();
  handle.bytes = region->size();
  handle.keepalive = region;

  // The helper must have announced the hotplug before the client maps.
  if (handle.locality_page().generation() == 0) {
    return make_error(StatusCode::kFailedPrecondition,
                      "region not announced by helper: " + name);
  }
  // Isolation: one client per region (paper §6). The claim flag lives in
  // the shared page, so it holds across processes too.
  if (!handle.locality_page().try_claim()) {
    return make_error(StatusCode::kFailedPrecondition,
                      "region already opened by another client: " + name);
  }
  return handle;
}

Status ShmBroker::revoke(const std::string& name) {
  auto it = regions_.find(name);
  if (it == regions_.end()) {
    return make_error(StatusCode::kNotFound, "region not provisioned: " + name);
  }
  if (backing_ == Backing::kPosixShm) {
    it->second->unlink();
  }
  regions_.erase(it);
  return Status::ok();
}

}  // namespace oaf::af
