// Locality Awareness (paper §4.2).
//
// ShmBroker plays the helper process (the Kubernetes/OpenStack/SLURM agent
// plus hypervisor) on one physical host: it provisions an isolated shared
// memory region per (client, target) connection, announces it through a
// pre-reserved locality page, and hands mappings to each side. Locality
// detection is by host-identity token: the client sends its broker's token
// in ICReq; the target grants shm only when the token matches its own
// broker's token (same physical host). Two backings exist:
//   * kProcessShared — one allocation shared by pointer; used by the timing
//     plane and by single-process tests;
//   * kPosixShm — real shm_open regions; creator and attacher get distinct
//     mappings of the same pages (the IVSHMEM-equivalent path).
//
// Security invariant (paper §6): a region is provisioned for exactly one
// connection and may be opened by exactly one client; repeat opens fail.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "shm/locality_page.h"
#include "shm/region.h"

namespace oaf::af {

/// A mapped view of a provisioned region. Offset 0 holds the LocalityPage;
/// the ring area starts at kRingOffset.
struct RegionHandle {
  static constexpr u64 kRingOffset = 256;

  std::string name;
  u8* base = nullptr;
  u64 bytes = 0;
  std::shared_ptr<void> keepalive;  ///< owns the mapping / allocation

  [[nodiscard]] bool valid() const { return base != nullptr; }
  [[nodiscard]] u8* ring_area() const { return base + kRingOffset; }
  [[nodiscard]] u64 ring_bytes() const {
    return bytes > kRingOffset ? bytes - kRingOffset : 0;
  }
  [[nodiscard]] shm::LocalityPage locality_page() const {
    return shm::LocalityPage(base);
  }
};

class ShmBroker {
 public:
  enum class Backing { kProcessShared, kPosixShm };

  explicit ShmBroker(u64 node_token, Backing backing = Backing::kProcessShared)
      : node_token_(node_token), backing_(backing) {}

  [[nodiscard]] u64 node_token() const { return node_token_; }

  /// Target side: create the region for connection `name` (+ring payload of
  /// `bytes`) and announce it on the locality page.
  Result<RegionHandle> provision(const std::string& name, u64 bytes);

  /// Client side: map a previously provisioned region. Verifies that the
  /// helper has announced it (generation > 0) and enforces single-open.
  Result<RegionHandle> open(const std::string& name);

  /// Tear down a region (connection closed). Mappings already handed out
  /// stay valid until their keepalive drops.
  Status revoke(const std::string& name);

  [[nodiscard]] size_t active_regions() const { return regions_.size(); }

 private:
  u64 node_token_;
  Backing backing_;
  std::map<std::string, std::shared_ptr<shm::ShmRegion>> regions_;
};

}  // namespace oaf::af
