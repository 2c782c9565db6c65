// Decorators the traced pass swaps in over the engines' public interfaces.
//
// Each one forwards every call unchanged and, while trace::on(), records a
// span around the call it wraps plus the counts that happen at that
// boundary. The spans are taken from outside the program: nothing under
// src/ knows it is being traced, so the untraced runs measure exactly the
// code the shipped tools run.
//
// Callbacks the decorators wrap capture no decorator pointer: a posted task
// or timer may outlive the decorator that posted it.
#pragma once

#include <memory>
#include <utility>

#include "common/executor.h"
#include "net/channel.h"
#include "net/copier.h"
#include "nvmf/io_session.h"
#include "ssd/device.h"
#include "trace.h"

namespace oaf::e2e {

/// Executor: counts posts, times cross-thread post→run waits, and wraps
/// every task in a sim.<side>.task span.
class TimedExecutor final : public Executor {
 public:
  /// `reactor_tid` is the kernel tid of the thread `inner` runs tasks on.
  TimedExecutor(Executor& inner, trace::Side side, int reactor_tid)
      : inner_(inner), side_(side), reactor_tid_(reactor_tid) {}

  void post(Fn fn) override {
    if (!trace::on()) {
      inner_.post(std::move(fn));
      return;
    }
    trace::add(side_ == trace::Side::kClient ? trace::Counter::kClientPosts
                                             : trace::Counter::kTargetPosts);
    const TimeNs posted =
        trace::this_tid() == reactor_tid_ ? 0 : trace::now_ns();
    inner_.post([side = side_, posted, fn = std::move(fn)] {
      if (posted != 0) trace::xthread_wait(side, trace::now_ns() - posted);
      run(side, fn);
    });
  }

  void schedule_after(DurNs delay, Fn fn) override {
    if (!trace::on()) {
      inner_.schedule_after(delay, std::move(fn));
      return;
    }
    trace::add(side_ == trace::Side::kClient ? trace::Counter::kClientPosts
                                             : trace::Counter::kTargetPosts);
    inner_.schedule_after(delay,
                          [side = side_, fn = std::move(fn)] { run(side, fn); });
  }

  [[nodiscard]] TimeNs now() const override { return inner_.now(); }

 private:
  static void run(trace::Side side, const Fn& fn) {
    const trace::Span span(side == trace::Side::kClient
                               ? trace::SpanName::kClientTask
                               : trace::SpanName::kTargetTask);
    fn();
  }

  Executor& inner_;
  const trace::Side side_;
  const int reactor_tid_;
};

/// Control channel: counts sent PDUs by type and wire bytes, captures PDU
/// headers for the codec replay, times send(), and wraps the installed
/// handler in an nvmf.<side>.rx span.
class TimedChannel final : public net::MsgChannel {
 public:
  TimedChannel(std::unique_ptr<net::MsgChannel> inner, trace::Side side)
      : inner_(std::move(inner)), side_(side) {}

  void send(pdu::Pdu p) override;
  void set_handler(Handler handler) override;
  void close() override { inner_->close(); }
  [[nodiscard]] bool is_open() const override { return inner_->is_open(); }
  [[nodiscard]] Executor& executor() override { return inner_->executor(); }
  [[nodiscard]] u64 bytes_sent() const override { return inner_->bytes_sent(); }
  [[nodiscard]] u64 pdus_sent() const override { return inner_->pdus_sent(); }

 private:
  std::unique_ptr<net::MsgChannel> inner_;
  const trace::Side side_;
};

/// Namespace device: counts commands and payload bytes, times submit, and
/// wraps the completion token in an nvmf.target.cpl span.
class TimedDevice final : public ssd::Device {
 public:
  explicit TimedDevice(ssd::Device& inner) : inner_(inner) {}

  void submit_write(const pdu::NvmeCmd& cmd, std::span<const u8> data,
                    Completion done) override;
  void submit_read(const pdu::NvmeCmd& cmd, std::span<u8> out,
                   Completion done) override;
  void submit_other(const pdu::NvmeCmd& cmd, Completion done) override;
  [[nodiscard]] u32 block_size() const override { return inner_.block_size(); }
  [[nodiscard]] u64 num_blocks() const override { return inner_.num_blocks(); }

 private:
  ssd::Device& inner_;
};

/// Payload copier: counts copies and bytes and times each copy up to the
/// inner copier's done signal. charge() moves no bytes and is forwarded.
class CountingCopier final : public net::Copier {
 public:
  CountingCopier(net::Copier& inner, trace::Side side)
      : inner_(inner), side_(side) {}

  void copy(std::span<const u8> src, std::span<u8> dst, Done done) override;
  void charge(u64 bytes, Done done) override {
    inner_.charge(bytes, std::move(done));
  }

 private:
  net::Copier& inner_;
  const trace::Side side_;
};

/// Application session: times each submit call and, at completion, records
/// which command id the I/O ran under (IoResult::cpl.cid).
class TimedSession final : public nvmf::IoSession {
 public:
  explicit TimedSession(nvmf::IoSession& inner) : inner_(inner) {}

  void write(u32 nsid, u64 slba, std::span<const u8> data, IoCb cb) override;
  void read(u32 nsid, u64 slba, std::span<u8> out, IoCb cb) override;
  void flush(u32 nsid, IoCb cb) override { inner_.flush(nsid, std::move(cb)); }
  void identify(u32 nsid, IdentifyCb cb) override {
    inner_.identify(nsid, std::move(cb));
  }
  [[nodiscard]] bool supports_zero_copy() const override {
    return inner_.supports_zero_copy();
  }
  Result<WriteTicket> zero_copy_write_begin(u64 len) override;
  void zero_copy_write(const WriteTicket& ticket, u32 nsid, u64 slba, u64 len,
                       IoCb cb) override;
  void zero_copy_read(u32 nsid, u64 slba, u64 len, ReadViewCb cb) override;
  [[nodiscard]] bool congested() const override { return inner_.congested(); }

 private:
  IoCb wrap(IoCb cb);

  nvmf::IoSession& inner_;
  u64 next_io_ = 0;
};

}  // namespace oaf::e2e
