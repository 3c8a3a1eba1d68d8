// Shared helpers for robustness / fault-injection tests.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "format/commit.hpp"
#include "netcdf/dataset.hpp"
#include "pfs/pfs.hpp"

namespace pnc_test {

/// One-line reproduction recipe for a fault/crash schedule, for use in
/// failure messages (SCOPED_TRACE / assertion <<): a failing seeded or swept
/// case can be re-run directly from the log line.
inline std::string DescribePolicy(const pfs::FaultPolicy& p) {
  std::string s = "FaultPolicy{seed=0x";
  char hex[32];
  std::snprintf(hex, sizeof hex, "%llX",
                static_cast<unsigned long long>(p.seed));
  s += hex;
  // Appends only: GCC 12 -O3 reports false -Wrestrict overlaps inside
  // `"literal" + std::string` temporaries.
  const auto add = [&s](const char* key, const auto& v) {
    s.append(" ").append(key).append("=").append(std::to_string(v));
  };
  const auto add_list = [&s](const char* key, const auto& vals) {
    s.append(" ").append(key).append("={");
    for (std::size_t i = 0; i < vals.size(); ++i)
      s.append(i ? "," : "").append(std::to_string(vals[i]));
    s.append("}");
  };
  if (p.crash_op != pfs::FaultPolicy::kNever) {
    add("crash_op", p.crash_op);
    add("crash_write_bytes", p.crash_write_bytes);
  }
  if (p.crash_after_write_bytes != pfs::FaultPolicy::kNever)
    add("crash_after_write_bytes", p.crash_after_write_bytes);
  if (!p.transient_ops.empty()) add_list("transient_ops", p.transient_ops);
  if (!p.permanent_ops.empty()) add_list("permanent_ops", p.permanent_ops);
  if (p.permanent_from != pfs::FaultPolicy::kNever)
    add("permanent_from", p.permanent_from);
  for (const auto& o : p.outages) {
    s.append(" outage={server=").append(std::to_string(o.server));
    s.append(" [").append(std::to_string(o.begin_ns)).append(",");
    s.append(std::to_string(o.end_ns)).append(")}");
  }
  if (p.transient_every_nth != 0)
    add("transient_every_nth", p.transient_every_nth);
  if (p.transient_read_prob > 0)
    add("transient_read_prob", p.transient_read_prob);
  if (p.transient_write_prob > 0)
    add("transient_write_prob", p.transient_write_prob);
  if (p.short_read_prob > 0) add("short_read_prob", p.short_read_prob);
  if (p.short_write_prob > 0) add("short_write_prob", p.short_write_prob);
  if (p.bitflip_read_prob > 0) add("bitflip_read_prob", p.bitflip_read_prob);
  if (p.bitflip_write_prob > 0)
    add("bitflip_write_prob", p.bitflip_write_prob);
  if (p.corrupt_at_rest > 0) add("corrupt_at_rest", p.corrupt_at_rest);
  s += "}";
  return s;
}

/// Remove `path`'s commit-journal sidecar, turning it into a "legacy"
/// dataset: corruption is then unrecoverable and opens must reject it.
inline void DropJournal(pfs::FileSystem& fs, const std::string& path) {
  (void)fs.Remove(ncformat::JournalPath(path));
}

/// Write a small valid dataset (dim x=8, double var "a" of eight 1.0s) and
/// return its total size in bytes.
inline std::uint64_t MakeValidFile(pfs::FileSystem& fs,
                                   const std::string& path) {
  auto ds = netcdf::Dataset::Create(fs, path).value();
  const int x = ds.DefDim("x", 8).value();
  const int v = ds.DefVar("a", ncformat::NcType::kDouble, {x}).value();
  EXPECT_TRUE(ds.EndDef().ok());
  std::vector<double> vals(8, 1.0);
  EXPECT_TRUE(ds.PutVar<double>(v, vals).ok());
  EXPECT_TRUE(ds.Close().ok());
  return fs.Open(path).value().size();
}

/// Overwrite one byte of `path` through the fault-aware pfs write path,
/// asserting that the write actually completed (a corruption helper that
/// silently failed to corrupt would turn the test into a no-op).
inline void CorruptByte(pfs::FileSystem& fs, const std::string& path,
                        std::uint64_t offset, std::byte value) {
  auto f = fs.Open(path).value();
  const pfs::IoResult r =
      f.TryWrite(offset, pnc::ConstByteSpan(&value, 1), 0.0);
  ASSERT_TRUE(r.status.ok()) << r.status.message();
  ASSERT_EQ(r.transferred, 1u);
}

/// Read the current byte at `offset` (harness path, never fault-injected).
inline std::byte ByteAt(pfs::FileSystem& fs, const std::string& path,
                        std::uint64_t offset) {
  auto f = fs.Open(path).value();
  std::byte b{};
  f.HarnessRead(offset, pnc::ByteSpan(&b, 1), 0.0);
  return b;
}

/// RAII environment override; restores the previous value on scope exit.
class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = ::getenv(name)) old_ = old;
    if (value)
      ::setenv(name, value, 1);
    else
      ::unsetenv(name);
  }
  ~EnvGuard() {
    if (old_)
      ::setenv(name_, old_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// Whole file via the harness path (never fault-injected).
inline std::vector<std::byte> FileBytes(pfs::FileSystem& fs,
                                        const std::string& path) {
  auto f = fs.Open(path).value();
  std::vector<std::byte> b(f.size());
  if (!b.empty()) f.HarnessRead(0, b, 0.0);
  return b;
}

}  // namespace pnc_test
