// CommitIo adapter over a pfs::File (header-only; consumers link simpfs +
// simmpi themselves).
//
// Routes every journal/primary access through the fault-injected Try* path
// with the same bounded retry-with-backoff discipline as mpiio and the
// serial BufferedFile: short transfers resume from the reported count
// without consuming retry budget, transient errors back off exponentially
// (charged to the virtual clock), and an exhausted budget converts to a
// permanent error. Crash points therefore bite here exactly as they do on
// the data path — which is the whole point of committing through it.
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "format/commit.hpp"
#include "pfs/pfs.hpp"
#include "simmpi/clock.hpp"
#include "util/retry.hpp"

namespace ncformat {

class PfsCommitIo final : public CommitIo {
 public:
  PfsCommitIo(pfs::File file, simmpi::VirtualClock* clock, int rank = 0)
      : file_(std::move(file)), clock_(clock),
        retry_(pnc::util::ResolveRetryPolicy(rank)) {}

  pnc::Status Read(std::uint64_t offset, pnc::ByteSpan out) override {
    return Transfer(/*is_write=*/false, offset, out.data(), out.size());
  }
  pnc::Status Write(std::uint64_t offset, pnc::ConstByteSpan data) override {
    return Transfer(/*is_write=*/true, offset,
                    const_cast<std::byte*>(data.data()), data.size());
  }
  pnc::Status Sync() override {
    return pnc::util::RetrySyncWithBackoff(
        retry_, *clock_, [&] { return file_.TrySync(clock_->now()); },
        [&](int, double) { file_.RecordRetry(/*is_write=*/true); });
  }
  std::uint64_t Size() override { return file_.size(); }
  double Now() override { return clock_->now(); }

  [[nodiscard]] pfs::File& file() { return file_; }
  [[nodiscard]] const pnc::util::RetryPolicy& retry() const { return retry_; }

  /// One transfer in either direction under the retry discipline (also the
  /// raw path beneath the serial library's block buffer).
  pnc::Status Transfer(bool is_write, std::uint64_t offset, std::byte* data,
                       std::uint64_t len) {
    return pnc::util::RetryWithBackoff(
        retry_, *clock_, len,
        [&](std::uint64_t done) {
          return is_write
                     ? file_.TryWrite(
                           offset + done,
                           pnc::ConstByteSpan(data + done, len - done),
                           clock_->now())
                     : file_.TryRead(offset + done,
                                     pnc::ByteSpan(data + done, len - done),
                                     clock_->now());
        },
        [&](int, double) { file_.RecordRetry(is_write); });
  }

 private:
  pfs::File file_;
  simmpi::VirtualClock* clock_;
  pnc::util::RetryPolicy retry_;  ///< defaults + PNC_RETRY_* env + jitter
};

/// A dataset's sidecar (commit journal, checksum table) — or its primary,
/// for recovery analysis — at `path`. `create` makes it — truncating a
/// stale one so a previous file's commits can never be replayed — and
/// initializes it with `format`; otherwise it is opened.
inline pnc::Result<std::unique_ptr<PfsCommitIo>> OpenSidecar(
    pfs::FileSystem& fs, const std::string& path, bool create,
    simmpi::VirtualClock* clock,
    pnc::Status (*format)(CommitIo&) = nullptr) {
  auto f = create ? fs.Create(path, /*exclusive=*/false) : fs.Open(path);
  if (!f.ok()) return f.status();
  auto io = std::make_unique<PfsCommitIo>(std::move(f).value(), clock);
  if (format != nullptr) PNC_RETURN_IF_ERROR(format(*io));
  return io;
}

}  // namespace ncformat
