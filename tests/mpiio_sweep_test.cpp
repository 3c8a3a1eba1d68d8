// Property sweeps over the MPI-IO tuning space: any combination of
// aggregator count, collective buffer size, sieving switches, and process
// count must produce byte-identical files for the same logical writes —
// hints tune performance, never semantics.
#include <gtest/gtest.h>

#include <cstdint>

#include "mpiio/file.hpp"
#include "simmpi/runtime.hpp"
#include "util/rng.hpp"

namespace mpiio {
namespace {

using simmpi::Comm;
using simmpi::Datatype;

std::vector<std::byte> Pattern(std::size_t n, std::uint64_t seed) {
  pnc::SplitMix64 rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.Next() & 0xFF);
  return v;
}

/// One fixed logical workload: every rank writes an interleaved block-cyclic
/// pattern plus a contiguous tail region. Returns the resulting file bytes.
std::vector<std::byte> RunWorkload(int nprocs, const simmpi::Info& info) {
  pfs::FileSystem fs;
  simmpi::Run(nprocs, [&](Comm& c) {
    auto f = File::Open(c, fs, "w.dat", kCreate | kRdWr, info).value();
    // Phase 1: block-cyclic interleave, 48-byte blocks.
    auto ft = Datatype::Hvector(
        64, 48, 48 * static_cast<std::uint64_t>(c.size()), simmpi::ByteType());
    ASSERT_TRUE(f.SetView(static_cast<std::uint64_t>(c.rank()) * 48,
                          simmpi::ByteType(), ft)
                    .ok());
    auto data = Pattern(64 * 48, 1000 + static_cast<std::uint64_t>(c.rank()));
    ASSERT_TRUE(
        f.WriteAtAll(0, data.data(), data.size(), simmpi::ByteType()).ok());
    // Phase 2: contiguous tail per rank after the interleaved region.
    f.ClearView();
    const std::uint64_t base = 48ull * 64 * static_cast<std::uint64_t>(c.size());
    auto tail = Pattern(1000, 2000 + static_cast<std::uint64_t>(c.rank()));
    ASSERT_TRUE(f.WriteAtAll(base + 1000ull * static_cast<std::uint64_t>(c.rank()),
                             tail.data(), tail.size(), simmpi::ByteType())
                    .ok());
    ASSERT_TRUE(f.Close().ok());
  });
  auto file = fs.Open("w.dat").value();
  std::vector<std::byte> bytes(file.size());
  file.HarnessRead(0, bytes, 0.0);
  return bytes;
}

// gtest names each case after a raw byte dump of SweepCase; a 64-bit
// process count leaves no padding, so the dumped bytes carry no stack garbage.
struct SweepCase {
  std::int64_t nprocs;
  const char* cb_nodes;
  const char* cb_buffer;
  const char* cb_write;
  const char* ds_write;
};

class HintSweepP : public ::testing::TestWithParam<SweepCase> {};

TEST_P(HintSweepP, HintsNeverChangeFileContents) {
  const auto& p = GetParam();
  // Reference: defaults at the same process count.
  const int nprocs = static_cast<int>(p.nprocs);
  const auto ref = RunWorkload(nprocs, simmpi::NullInfo());

  simmpi::Info info;
  if (*p.cb_nodes) info.Set("cb_nodes", p.cb_nodes);
  if (*p.cb_buffer) info.Set("cb_buffer_size", p.cb_buffer);
  if (*p.cb_write) info.Set("romio_cb_write", p.cb_write);
  if (*p.ds_write) info.Set("romio_ds_write", p.ds_write);
  const auto got = RunWorkload(nprocs, info);
  EXPECT_EQ(got, ref);
}

INSTANTIATE_TEST_SUITE_P(
    Tuning, HintSweepP,
    ::testing::Values(
        SweepCase{2, "1", "", "", ""},
        SweepCase{4, "1", "", "", ""},
        SweepCase{4, "3", "", "", ""},
        SweepCase{4, "4", "65536", "", ""},
        SweepCase{4, "", "8192", "", ""},       // tiny windows, many rounds
        SweepCase{4, "", "", "disable", ""},    // sieved independent
        SweepCase{4, "", "", "disable", "disable"},  // fully naive
        SweepCase{8, "2", "16384", "", ""},
        SweepCase{8, "5", "", "", ""},          // aggregators not dividing P
        SweepCase{3, "2", "", "", ""}),
    [](const auto& info) {
      const auto& p = info.param;
      std::string n = std::string("p").append(std::to_string(p.nprocs));
      if (*p.cb_nodes) n += std::string("_agg") + p.cb_nodes;
      if (*p.cb_buffer) n += std::string("_cb") + p.cb_buffer;
      if (*p.cb_write) n += "_nocoll";
      if (*p.ds_write) n += "_nosieve";
      return n;
    });

TEST(HintSweep, RandomizedPatternsAcrossConfigs) {
  // Randomized segment layouts, three configs each: all must agree.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    pnc::SplitMix64 rng(seed);
    const int nprocs = 2 + static_cast<int>(rng.Below(3));
    const std::uint64_t blocklen = 8 * (1 + rng.Below(8));
    const std::uint64_t nblocks = 16 + rng.Below(64);

    auto run = [&](const simmpi::Info& info) {
      pfs::FileSystem fs;
      simmpi::Run(nprocs, [&](Comm& c) {
        auto f = File::Open(c, fs, "r.dat", kCreate | kRdWr, info).value();
        auto ft = Datatype::Hvector(
            nblocks, blocklen,
            blocklen * static_cast<std::uint64_t>(c.size()),
            simmpi::ByteType());
        ASSERT_TRUE(f.SetView(blocklen * static_cast<std::uint64_t>(c.rank()),
                              simmpi::ByteType(), ft)
                        .ok());
        auto data = Pattern(nblocks * blocklen,
                            seed * 100 + static_cast<std::uint64_t>(c.rank()));
        ASSERT_TRUE(f.WriteAtAll(0, data.data(), data.size(),
                                 simmpi::ByteType())
                        .ok());
        ASSERT_TRUE(f.Close().ok());
      });
      auto file = fs.Open("r.dat").value();
      std::vector<std::byte> bytes(file.size());
      file.HarnessRead(0, bytes, 0.0);
      return bytes;
    };

    const auto ref = run(simmpi::NullInfo());
    simmpi::Info small_cb;
    small_cb.Set("cb_buffer_size", "4096");
    EXPECT_EQ(run(small_cb), ref) << "seed " << seed;
    simmpi::Info indep;
    indep.Set("romio_cb_write", "disable");
    EXPECT_EQ(run(indep), ref) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mpiio
