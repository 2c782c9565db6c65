#include "af/endpoint.h"

#include "af/shm_cipher.h"

namespace oaf::af {

void AfEndpoint::init_telemetry() {
  const bool client = role_ == Role::kClient;
  auto& m = telemetry::metrics();
  tel_.track = telemetry::tracer().track(client ? "af:client" : "af:target");
  tel_.staged_copies =
      m.counter("oaf_shm_staged_copies_total",
                "Payloads copied into a shm slot (staged producer path)");
  tel_.zc_publishes =
      m.counter("oaf_shm_zero_copy_publishes_total",
                "Payloads published in place via the zero-copy buffer API");
  tel_.zc_consumes =
      m.counter("oaf_shm_zero_copy_consumes_total",
                "Payloads borrowed in place via the zero-copy view API");
  tel_.payload_bytes = m.counter("oaf_shm_payload_bytes_total",
                                 "Payload bytes moved over the shm ring");
  tel_.demotions = m.counter("oaf_shm_demotions_total",
                             "Runtime shm-to-TCP data-path demotions");
  tel_.peer_misbehavior =
      m.counter("oaf_shm_peer_misbehavior_total",
                "Consume-path protocol violations caught by slot fencing");
  tel_.orphan_reclaims =
      m.counter("oaf_shm_orphan_reclaims_total",
                "Slots reclaimed from dead owners by the orphan sweeper");
  tel_.slot_wait_polls =
      m.counter("oaf_shm_slot_wait_polls_total",
                "Producer polls while waiting for a slot to drain "
                "(conservative-flow slot reuse serialization, paper 4.4.2)");
  // Occupancy of this side's produce direction only: the two endpoints of a
  // connection share one ring, so sampling both directions from both sides
  // would double-count. Client produces C2T, target produces T2C.
  occupancy_cb_ = m.callback_gauge(
      client ? "oaf_shm_slots_busy_c2t" : "oaf_shm_slots_busy_t2c",
      client ? "Busy client-to-target shm slots (write payloads in flight)"
             : "Busy target-to-client shm slots (read payloads in flight)",
      [this]() -> i64 {
        return ring_.valid()
                   ? static_cast<i64>(ring_.in_flight(produce_dir()))
                   : 0;
      });
  fence_cb_ = m.callback_gauge(
      "oaf_shm_epoch_fence_rejects",
      "Ring operations rejected by the epoch fence (stale handle or slot)",
      [this]() -> i64 { return static_cast<i64>(ring_.fence_rejects()); });
}

void AfEndpoint::enable_shm(RegionHandle handle, shm::DoubleBufferRing ring) {
  handle_ = std::move(handle);
  ring_ = ring;
  demoted_ = false;
}

bool AfEndpoint::demote_shm() {
  if (!ring_.valid() || demoted_) return false;
  demoted_ = true;
  shm_demotions_++;
  telemetry::bump(tel_.demotions);
  telemetry::tracer().instant(tel_.track, "resilience", "shm_demoted", 0,
                              exec_.now());
  return true;
}

std::shared_ptr<void> AfEndpoint::detach_shm() {
  std::shared_ptr<void> mapping = std::move(handle_.keepalive);
  handle_ = RegionHandle{};
  ring_ = shm::DoubleBufferRing{};
  demoted_ = false;
  return mapping;
}

bool AfEndpoint::shm_healthy() const {
  if (!ring_.valid() || !handle_.valid()) return false;
  const auto page = handle_.locality_page();
  return page.generation() > 0 && page.region_name() == handle_.name;
}

Status AfEndpoint::stage_payload(u32 slot, std::span<const u8> data, Done done) {
  if (!ring_.valid()) {
    return make_error(StatusCode::kFailedPrecondition, "no shm channel");
  }
  if (data.size() > ring_.slot_size()) {
    return make_error(StatusCode::kOutOfRange, "payload exceeds slot size");
  }
  if (auto st = ring_.acquire(produce_dir(), slot); !st) return st;
  shm_payload_bytes_ += data.size();
  staged_copies_++;
  telemetry::bump(tel_.staged_copies);
  telemetry::bump(tel_.payload_bytes, data.size());
  const TimeNs t0 = exec_.now();
  auto dst = ring_.slot_data(produce_dir(), slot);
  copier_.copy(data, dst, [this, alive = alive_, slot, t0, len = data.size(),
                           done = std::move(done)]() mutable {
    if (!*alive) return;
    if (cfg_.encrypt_shm) {
      // Only ciphertext ever lands in the shared region (§6).
      xor_keystream(ring_.slot_data(produce_dir(), slot).subspan(0, len),
                    cfg_.shm_key, static_cast<u64>(slot) * ring_.slot_size());
      // One extra pass over the payload, charged like a copy.
      copier_.charge(len, [this, alive = std::move(alive), slot, t0, len,
                           done = std::move(done)] {
        if (*alive) finish_stage(slot, t0, len, done);
      });
      return;
    }
    finish_stage(slot, t0, len, done);
  });
  return Status::ok();
}

void AfEndpoint::finish_stage(u32 slot, TimeNs t0, u64 len, const Done& done) {
  // publish cannot fail here: we hold the slot in kWriting.
  (void)ring_.publish(produce_dir(), slot, len);
  if (telemetry::tracer().enabled()) {
    telemetry::tracer().complete(tel_.track, "shm", "shm_stage", slot, t0,
                                 exec_.now() - t0, "bytes",
                                 static_cast<i64>(len));
  }
  done();
}

void AfEndpoint::stage_payload_when_free(u32 slot, std::span<const u8> data,
                                         Done done,
                                         std::function<bool()> cancelled) {
  if (cancelled && cancelled()) return;  // command aborted mid-chunk: drop
  const Status st = stage_payload(slot, data, done);
  if (st.is_ok()) return;
  if (st.code() != StatusCode::kResourceExhausted) {
    // Hard error: surface by completing immediately (callers treat the
    // transfer as failed when the peer never sees the payload).
    exec_.post(std::move(done));
    return;
  }
  // Slot still draining on the peer: poll, as the consumer-side CM does
  // for the locality flag. The granularity mirrors the notify pickup cost.
  telemetry::bump(tel_.slot_wait_polls);
  exec_.schedule_after(
      1'000, [this, alive = alive_, slot, data, done = std::move(done),
              cancelled = std::move(cancelled)]() mutable {
        if (!*alive) return;
        stage_payload_when_free(slot, data, std::move(done),
                                std::move(cancelled));
      });
}

Result<std::span<u8>> AfEndpoint::acquire_app_buffer(u32 slot) {
  if (!ring_.valid()) {
    return make_error(StatusCode::kFailedPrecondition, "no shm channel");
  }
  if (auto st = ring_.acquire(produce_dir(), slot); !st) return st;
  return ring_.slot_data(produce_dir(), slot);
}

Status AfEndpoint::publish_app_buffer(u32 slot, u64 len, Done done) {
  if (!ring_.valid()) {
    return make_error(StatusCode::kFailedPrecondition, "no shm channel");
  }
  if (auto st = ring_.publish(produce_dir(), slot, len); !st) return st;
  shm_payload_bytes_ += len;
  zero_copy_publishes_++;
  telemetry::bump(tel_.zc_publishes);
  telemetry::bump(tel_.payload_bytes, len);
  if (telemetry::tracer().enabled()) {
    telemetry::tracer().instant(tel_.track, "shm", "zc_publish", slot,
                                exec_.now(), "bytes", static_cast<i64>(len));
  }
  // Zero-copy: no data movement to charge; completion is immediate on both
  // planes (the application already produced the bytes in place).
  exec_.post(std::move(done));
  return Status::ok();
}

void AfEndpoint::consume_payload(u32 slot, std::span<u8> dst,
                                 std::function<void(Result<u64>)> done) {
  if (!ring_.valid()) {
    done(make_error(StatusCode::kFailedPrecondition, "no shm channel"));
    return;
  }
  const TimeNs t0 = exec_.now();
  auto view = ring_.consume(consume_dir(), slot);
  if (!view) {
    note_consume_error(view.status());
    done(view.status());
    return;
  }
  const auto src = view.value();
  if (dst.size() < src.size()) {
    (void)ring_.release(consume_dir(), slot);  // the producer may reuse it
    done(Result<u64>(make_error(StatusCode::kOutOfRange, "dst too small")));
    return;
  }
  copier_.copy(src, dst.subspan(0, src.size()),
               [this, alive = alive_, slot, dst, t0, len = src.size(),
                done = std::move(done)]() mutable {
    if (!*alive) return;
    if (cfg_.encrypt_shm) {
      // Decrypt the private copy; the shared region keeps only ciphertext.
      xor_keystream(dst.subspan(0, len), cfg_.shm_key,
                    static_cast<u64>(slot) * ring_.slot_size());
      (void)ring_.release(consume_dir(), slot);
      // One extra pass over the payload, charged like a copy.
      copier_.charge(len, [this, alive = std::move(alive), slot, t0, len,
                           done = std::move(done)] {
        if (*alive) finish_consume(slot, t0, len, done);
      });
      return;
    }
    (void)ring_.release(consume_dir(), slot);
    finish_consume(slot, t0, len, done);
  });
}

void AfEndpoint::finish_consume(u32 slot, TimeNs t0, u64 len,
                                const std::function<void(Result<u64>)>& done) {
  if (telemetry::tracer().enabled()) {
    telemetry::tracer().complete(tel_.track, "shm", "shm_consume", slot, t0,
                                 exec_.now() - t0, "bytes",
                                 static_cast<i64>(len));
  }
  done(Result<u64>(len));
}

Result<std::span<const u8>> AfEndpoint::consume_view(u32 slot) {
  if (!ring_.valid()) {
    return make_error(StatusCode::kFailedPrecondition, "no shm channel");
  }
  if (cfg_.encrypt_shm) {
    // A borrowed view would expose ciphertext; encrypted channels must use
    // the staged (decrypting) consume path.
    return make_error(StatusCode::kFailedPrecondition,
                      "zero-copy views unavailable on encrypted channels");
  }
  auto view = ring_.consume(consume_dir(), slot);
  if (!view) {
    note_consume_error(view.status());
    return view;
  }
  telemetry::bump(tel_.zc_consumes);
  telemetry::bump(tel_.payload_bytes, view.value().size());
  if (telemetry::tracer().enabled()) {
    telemetry::tracer().instant(tel_.track, "shm", "zc_consume", slot,
                                exec_.now(), "bytes",
                                static_cast<i64>(view.value().size()));
  }
  return view;
}

Status AfEndpoint::release_slot(u32 slot) {
  if (!ring_.valid()) {
    return make_error(StatusCode::kFailedPrecondition, "no shm channel");
  }
  return ring_.release(consume_dir(), slot);
}

void AfEndpoint::abandon_slot(u32 slot) {
  if (!ring_.valid()) return;
  // Either side may have parked a payload for the aborted command: the
  // victim's write data waits in our consume direction, and our own staged
  // (but never notified) chunk may sit in the produce direction.
  (void)ring_.discard(consume_dir(), slot);
  (void)ring_.discard(produce_dir(), slot);
}

u32 AfEndpoint::sweep_orphans(DurNs stuck_after) {
  if (!ring_.valid() || stuck_after <= 0) return 0;
  const TimeNs now = exec_.now();
  u32 reclaimed = 0;
  for (int d = 0; d < 2; ++d) {
    const auto dir = static_cast<shm::Direction>(d);
    auto& ages = slot_age_[d];
    if (ages.size() != ring_.slot_count()) {
      ages.assign(ring_.slot_count(), SlotAge{});
    }
    for (u32 s = 0; s < ring_.slot_count(); ++s) {
      const auto st = ring_.state(dir, s);
      SlotAge& age = ages[s];
      if (static_cast<u32>(st) != age.state) {
        age.state = static_cast<u32>(st);
        age.since = now;
        continue;
      }
      // kReady is a parked payload waiting for a slow consumer — normal.
      // Only mid-transfer states with no live owner are orphans.
      if (st != shm::DoubleBufferRing::kWriting &&
          st != shm::DoubleBufferRing::kDraining) {
        continue;
      }
      if (now - age.since < stuck_after) continue;
      if (ring_.force_release(dir, s)) {
        reclaimed++;
        orphan_reclaims_++;
        telemetry::bump(tel_.orphan_reclaims);
        telemetry::tracer().instant(tel_.track, "resilience",
                                    "orphan_reclaim", s, now, "slot",
                                    static_cast<i64>(s));
        age = SlotAge{};
      }
    }
  }
  return reclaimed;
}

}  // namespace oaf::af
