#include "af/connection_manager.h"

#include "common/log.h"

namespace oaf::af {

pdu::ICReq ConnectionManager::make_icreq(const AfConfig& cfg) const {
  pdu::ICReq req;
  req.pfv = 1;
  req.maxr2t = 1;
  req.node_token = broker_.node_token();
  req.want_shm = cfg.want_shm;
  req.data_digest = cfg.data_digest;
  req.trace_ctx = cfg.trace_ctx;
  // t_sent_ns is stamped by the sender at transmit time (it needs the
  // executor clock, which the CM deliberately doesn't know about).
  return req;
}

Result<pdu::ICResp> ConnectionManager::accept_target(const pdu::ICReq& req,
                                                     const std::string& conn_name,
                                                     AfEndpoint& ep) {
  pdu::ICResp resp;
  resp.pfv = req.pfv;
  resp.maxh2cdata = static_cast<u32>(ep.config().chunk_bytes);
  resp.data_digest = req.data_digest && ep.config().data_digest;
  resp.trace_ctx = req.trace_ctx && ep.config().trace_ctx;
  resp.echo_t_ns = req.t_sent_ns;
  resp.t_now_ns = static_cast<u64>(ep.executor().now());

  const bool co_located = req.node_token == broker_.node_token();
  if (!req.want_shm || !ep.config().want_shm || !co_located) {
    resp.shm_granted = false;
    return resp;
  }

  const AfConfig& cfg = ep.config();
  const u64 ring_bytes =
      shm::DoubleBufferRing::required_bytes(cfg.shm_slot_bytes, cfg.shm_slots);
  auto handle = broker_.provision(conn_name, ring_bytes);
  if (!handle) {
    OAF_WARN("shm provision failed for %s: %s", conn_name.c_str(),
             handle.status().to_string().c_str());
    resp.shm_granted = false;
    return resp;
  }
  auto region = std::move(handle).take();
  auto ring = shm::DoubleBufferRing::create(region.ring_area(),
                                            region.ring_bytes(),
                                            cfg.shm_slot_bytes, cfg.shm_slots);
  if (!ring) {
    (void)broker_.revoke(conn_name);
    return ring.status();
  }

  resp.shm_granted = true;
  resp.shm_bytes = region.bytes;
  resp.shm_slots = cfg.shm_slots;
  resp.shm_name = conn_name;
  ep.enable_shm(std::move(region), ring.value());
  return resp;
}

Status ConnectionManager::complete_client(const pdu::ICResp& resp, AfEndpoint& ep) {
  if (!resp.shm_granted) {
    return make_error(StatusCode::kUnavailable, "target did not grant shm");
  }
  auto handle = broker_.open(resp.shm_name);
  if (!handle) return handle.status();
  auto region = std::move(handle).take();

  // The helper must have announced this exact region (paper §4.2's flag
  // polling); ShmBroker::open already verified generation > 0, so only the
  // name is re-checked here.
  if (region.locality_page().region_name() != resp.shm_name) {
    return make_error(StatusCode::kFailedPrecondition,
                      "locality page names a different region");
  }

  auto ring = shm::DoubleBufferRing::attach(region.ring_area(), region.ring_bytes());
  if (!ring) return ring.status();

  ep.enable_shm(std::move(region), ring.value());
  return Status::ok();
}

}  // namespace oaf::af
