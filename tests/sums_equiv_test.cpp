// Checksums computed in memory must equal checksums read back from disk.
//
// Every write records the CRC of the buffer it wrote, and a flush combines
// those pieces per chunk (format/sums.hpp); it re-reads a chunk only when
// its pieces do not tile it exactly. This suite pins that the resulting
// `.ncsum` table is byte-identical to one recomputed from the final file
// bytes — the table a read-back of every chunk produces — across the
// shapes that reach the combine path (all seven Figure 5 partitions at 1,
// 3, 4 and 8 processes, a FLASH 8^3 checkpoint, strided sieved independent
// writes, record appends across Sync, a discard_data file system) and the
// shapes that must fall back to the read-back (a redef that moves the data
// region, two ranks overlapping independent writes).
//
// Each scenario runs twice, with PNC_SUMS=0 and at the default: the two
// runs must leave identical primary files, and the difference in bytes
// read is the flush read-back, which must be zero exactly when the
// scenario is not a fallback case.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "flash/flash.hpp"
#include "format/commit_pfs.hpp"
#include "format/sums.hpp"
#include "netcdf/dataset.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"
#include "test_support.hpp"
#include "util/crc32.hpp"

namespace {

using ncformat::NcType;
using pnc_test::EnvGuard;
using pnc_test::FileBytes;
using simmpi::Comm;

/// The table a read-back of every chunk of [data_begin, EOF) produces.
ncformat::ChunkSumMap Recompute(const std::vector<std::byte>& file,
                                std::uint64_t chunk_size,
                                std::uint64_t data_begin) {
  ncformat::ChunkSumMap m;
  m.SetGeometry(chunk_size, data_begin);
  for (std::uint64_t s = data_begin; s < file.size(); s += chunk_size) {
    const std::uint64_t n = std::min<std::uint64_t>(chunk_size,
                                                    file.size() - s);
    m.Set(m.ChunkOf(s), {static_cast<std::uint32_t>(n),
                         pnc::Crc32(pnc::ConstByteSpan(file.data() + s, n))});
  }
  return m;
}

/// Chunks whose committed entry differs from the recomputed one.
std::string DescribeDiff(const ncformat::ChunkSumMap& got,
                         const ncformat::ChunkSumMap& want) {
  std::string out;
  int n = 0;
  for (const auto& [c, s] : want.entries()) {
    ncformat::ChunkSum g;
    if (got.Lookup(c, &g) && g == s) continue;
    if (++n <= 8) out += " chunk " + std::to_string(c);
  }
  return std::to_string(n) + " differing chunk(s):" + out +
         " (got " + std::to_string(got.entries().size()) + " entries, want " +
         std::to_string(want.entries().size()) + ")";
}

/// The committed `.ncsum` table must be trusted, closed and byte-identical
/// to the recomputed one.
void ExpectSidecarMatchesFile(pfs::FileSystem& fs, const std::string& path) {
  simmpi::VirtualClock clk;
  ncformat::PfsCommitIo io(fs.Open(ncformat::SumsPath(path)).value(), &clk);
  auto loaded = ncformat::LoadSums(io);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_TRUE(loaded.value().trusted) << path << ": sidecar not trusted";
  const ncformat::ChunkSumMap& got = loaded.value().map;
  const ncformat::ChunkSumMap want =
      Recompute(FileBytes(fs, path), got.chunk_size(), got.data_begin());
  const std::vector<std::byte> want_table = want.EncodeTable();
  std::vector<std::byte> raw(want_table.size());
  auto side = fs.Open(ncformat::SumsPath(path)).value();
  side.HarnessRead(ncformat::kSumsTableOffset, raw, 0.0);
  EXPECT_EQ(raw, want_table) << path << ": " << DescribeDiff(got, want);
}

/// One scenario: writes `path` on `fs` (any number of ranks, its own
/// simmpi::Run calls).
using Scenario = std::function<void(pfs::FileSystem& fs, const char* path)>;

struct Outcome {
  std::uint64_t readback_bytes = 0;  ///< flush read-back: sums-on minus off
};

/// Run `body` with sums off and on; check the files match and the table is
/// exact; report the read-back volume.
Outcome RunBothWays(const Scenario& body, const pfs::Config& cfg = {}) {
  const char* path = "eq.nc";
  pfs::FileSystem off_fs(cfg);
  {
    EnvGuard g("PNC_SUMS", "0");
    body(off_fs, path);
  }
  pfs::FileSystem on_fs(cfg);
  body(on_fs, path);
  // Before the checks below, whose harness reads also count.
  const std::uint64_t off_read = off_fs.stats().bytes_read;
  const std::uint64_t on_read = on_fs.stats().bytes_read;
  EXPECT_FALSE(off_fs.Exists(ncformat::SumsPath(path)));
  const std::vector<std::byte> off_bytes = FileBytes(off_fs, path);
  const std::vector<std::byte> on_bytes = FileBytes(on_fs, path);
  EXPECT_EQ(off_bytes.size(), on_bytes.size());
  const auto diff = std::mismatch(off_bytes.begin(), off_bytes.end(),
                                  on_bytes.begin(), on_bytes.end());
  EXPECT_TRUE(diff.first == off_bytes.end() && diff.second == on_bytes.end())
      << "files differ from byte " << (diff.first - off_bytes.begin());
  if (!cfg.discard_data) ExpectSidecarMatchesFile(on_fs, path);
  EXPECT_GE(on_read, off_read);
  return {on_read - off_read};
}

// ------------------------------------------------------------ LBL sweep

constexpr std::uint64_t kN = 24;  // tt(24,24,24) doubles, 108 KiB

double Cell(std::uint64_t z, std::uint64_t y, std::uint64_t x) {
  return static_cast<double>((z * kN + y) * kN + x) * 0.5 + 1.0;
}

/// A Figure 6 collective write of one partition, then Close.
/// `committed` (optional) receives rank 0's checksum map after Close.
void LblWrite(pfs::FileSystem& fs, const char* path, int nprocs,
              unsigned mask, ncformat::ChunkSumMap* committed = nullptr) {
  const std::uint64_t dims[3] = {kN, kN, kN};
  simmpi::Run(nprocs, [&](Comm& c) {
    auto ds = pnetcdf::Dataset::Create(c, fs, path, simmpi::NullInfo()).value();
    const int zd = ds.DefDim("z", kN).value();
    const int yd = ds.DefDim("y", kN).value();
    const int xd = ds.DefDim("x", kN).value();
    const int v = ds.DefVar("tt", NcType::kDouble, {zd, yd, xd}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    const bench::Block b = bench::RankBlock(nprocs, mask, c.rank(), dims);
    const auto& start = b.start;
    const auto& count = b.count;
    std::vector<double> mine;
    for (std::uint64_t z = 0; z < count[0]; ++z)
      for (std::uint64_t y = 0; y < count[1]; ++y)
        for (std::uint64_t x = 0; x < count[2]; ++x)
          mine.push_back(Cell(start[0] + z, start[1] + y, start[2] + x));
    ASSERT_TRUE(ds.PutVaraAll<double>(v, start, count, mine).ok());
    ASSERT_TRUE(ds.Close().ok());
    if (committed != nullptr && c.rank() == 0 && ds.sums() != nullptr)
      *committed = *ds.sums();
  });
}

/// Figure 5's partitions as axis masks (bit 0 = Z, 1 = Y, 2 = X).
const char* PartitionName(unsigned mask) {
  static const char* const kNames[] = {"",  "Z",  "Y",  "ZY",
                                       "X", "ZX", "YX", "ZYX"};
  return kNames[mask];
}

class LblEquiv : public ::testing::TestWithParam<std::tuple<int, unsigned>> {};

TEST_P(LblEquiv, TableMatchesFileWithoutReadback) {
  const int nprocs = std::get<0>(GetParam());
  const unsigned mask = std::get<1>(GetParam());
  // Small chunks so every write straddles many chunk boundaries.
  EnvGuard chunk("PNC_SUM_CHUNK", "4096");
  const Outcome o = RunBothWays([&](pfs::FileSystem& fs, const char* path) {
    LblWrite(fs, path, nprocs, mask);
  });
  EXPECT_EQ(o.readback_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    PartitionsAndProcs, LblEquiv,
    ::testing::Combine(::testing::Values(1, 3, 4, 8),
                       ::testing::Values(1u, 2u, 4u, 3u, 5u, 6u, 7u)),
    [](const ::testing::TestParamInfo<std::tuple<int, unsigned>>& info) {
      return std::string(PartitionName(std::get<1>(info.param))) + "_p" +
             std::to_string(std::get<0>(info.param));
    });

// ------------------------------------------------------- other shapes

TEST(SumsEquiv, FlashCheckpoint8Cubed) {
  flashio::FlashConfig cfg;  // 8^3 blocks
  cfg.blocks_per_proc = 6;
  const Outcome o = RunBothWays([&](pfs::FileSystem& fs, const char* path) {
    simmpi::Run(4, [&](Comm& c) {
      const flashio::FlashData data(cfg, c.rank());
      ASSERT_TRUE(flashio::WriteFlashPnetcdf(c, fs, path, data,
                                             flashio::FileKind::kCheckpoint,
                                             simmpi::NullInfo())
                      .ok());
    });
  });
  EXPECT_EQ(o.readback_bytes, 0u);
}

// Independent strided writes through data sieving: each rank writes rows
// r0, r0+2, r0+4 of its own 5-row band, so its read-modify-write window
// spans the band and the four windows tile the variable.
TEST(SumsEquiv, StridedSievedIndependentWrites) {
  constexpr std::uint64_t kRowsPerRank = 5, kCols = 3000;
  EnvGuard chunk("PNC_SUM_CHUNK", "4096");
  const Outcome o = RunBothWays([&](pfs::FileSystem& fs, const char* path) {
    simmpi::Run(4, [&](Comm& c) {
      auto ds =
          pnetcdf::Dataset::Create(c, fs, path, simmpi::NullInfo()).value();
      const int rd = ds.DefDim("row", 4 * kRowsPerRank).value();
      const int cd = ds.DefDim("col", kCols).value();
      const int v = ds.DefVar("d", NcType::kByte, {rd, cd}).value();
      ASSERT_TRUE(ds.EndDef().ok());
      ASSERT_TRUE(ds.BeginIndepData().ok());
      const std::uint64_t r0 = kRowsPerRank * static_cast<std::uint64_t>(c.rank());
      std::vector<signed char> mine(3 * kCols);
      for (std::size_t i = 0; i < mine.size(); ++i)
        mine[i] = static_cast<signed char>((i * 7 + r0) % 127);
      const std::uint64_t st[] = {r0, 0}, ct[] = {3, kCols}, sd[] = {2, 1};
      ASSERT_TRUE(ds.PutVars<signed char>(v, st, ct, sd, mine).ok());
      ASSERT_TRUE(ds.EndIndepData().ok());
      ASSERT_TRUE(ds.Close().ok());
    });
  });
  EXPECT_EQ(o.readback_bytes, 0u);
}

// Records appended across Syncs: the tail chunk is summed partially at one
// flush and completed at a later one, from its committed sum plus pieces.
TEST(SumsEquiv, RecordAppendsAcrossSync) {
  constexpr std::uint64_t kX = 1000;  // 4000-byte records: not chunk-aligned
  EnvGuard chunk("PNC_SUM_CHUNK", "4096");
  const Outcome o = RunBothWays([&](pfs::FileSystem& fs, const char* path) {
    simmpi::Run(4, [&](Comm& c) {
      auto ds =
          pnetcdf::Dataset::Create(c, fs, path, simmpi::NullInfo()).value();
      const int td = ds.DefDim("time", pnetcdf::kUnlimited).value();
      const int xd = ds.DefDim("x", kX).value();
      const int a = ds.DefVar("a", NcType::kInt, {td, xd}).value();
      const int b = ds.DefVar("b", NcType::kFloat, {td, xd}).value();
      ASSERT_TRUE(ds.EndDef().ok());
      const std::uint64_t share = kX / 4;
      const std::uint64_t x0 = share * static_cast<std::uint64_t>(c.rank());
      for (std::uint64_t rec = 0; rec < 5; ++rec) {
        std::vector<std::int32_t> ai(share);
        std::vector<float> bf(share);
        for (std::uint64_t i = 0; i < share; ++i) {
          ai[i] = static_cast<std::int32_t>(rec * kX + x0 + i);
          bf[i] = static_cast<float>(rec) + static_cast<float>(x0 + i) / 8;
        }
        const std::uint64_t st[] = {rec, x0}, ct[] = {1, share};
        ASSERT_TRUE(ds.PutVaraAll<std::int32_t>(a, st, ct, ai).ok());
        ASSERT_TRUE(ds.PutVaraAll<float>(b, st, ct, bf).ok());
        ASSERT_TRUE(ds.Sync().ok());
      }
      ASSERT_TRUE(ds.Close().ok());
    });
  });
  EXPECT_EQ(o.readback_bytes, 0u);
}

// Fallback: a redef whose grown header moves the data region. Every
// existing chunk is re-read at the new offsets.
TEST(SumsEquiv, RedefMovingDataRegionReadsBack) {
  constexpr std::uint64_t kX = 20000;
  const Scenario body = [&](pfs::FileSystem& fs, const char* path) {
    simmpi::Run(4, [&](Comm& c) {
      auto ds =
          pnetcdf::Dataset::Create(c, fs, path, simmpi::NullInfo()).value();
      const int xd = ds.DefDim("x", kX).value();
      const int v = ds.DefVar("v", NcType::kShort, {xd}).value();
      ASSERT_TRUE(ds.EndDef().ok());
      const std::uint64_t share = kX / 4;
      const std::uint64_t x0 = share * static_cast<std::uint64_t>(c.rank());
      std::vector<std::int16_t> mine(share);
      for (std::uint64_t i = 0; i < share; ++i)
        mine[i] = static_cast<std::int16_t>(x0 + i);
      const std::uint64_t st[] = {x0}, ct[] = {share};
      ASSERT_TRUE(ds.PutVaraAll<std::int16_t>(v, st, ct, mine).ok());
      // A 3000-byte attribute moves the data region by less than one
      // rank's 10000-byte slice of the move.
      ASSERT_TRUE(ds.Redef().ok());
      ASSERT_TRUE(
          ds.PutAtt(-1, ncformat::Attr::Text("history", std::string(3000, 'h')))
              .ok());
      ASSERT_TRUE(ds.EndDef().ok());
      ASSERT_TRUE(ds.Close().ok());
    });
  };
  EXPECT_GT(RunBothWays(body).readback_bytes, 0u);

  // The moved values survive, and a verified read agrees with the sums.
  pfs::FileSystem fs;
  body(fs, "moved.nc");
  auto rd = netcdf::Dataset::Open(fs, "moved.nc", false).value();
  std::vector<std::int16_t> all(kX);
  ASSERT_TRUE(rd.GetVar<std::int16_t>(0, all).ok());
  for (std::uint64_t i = 0; i < kX; ++i)
    ASSERT_EQ(all[i], static_cast<std::int16_t>(i)) << i;
}

// Fallback: two ranks write overlapping ranges independently; the pieces
// overlap, so the flush cannot know which bytes won and re-reads them.
TEST(SumsEquiv, OverlappingIndependentWritesReadBack) {
  constexpr std::uint64_t kX = 50000;
  const Outcome o = RunBothWays([&](pfs::FileSystem& fs, const char* path) {
    simmpi::Run(2, [&](Comm& c) {
      auto ds =
          pnetcdf::Dataset::Create(c, fs, path, simmpi::NullInfo()).value();
      const int xd = ds.DefDim("x", kX).value();
      const int v = ds.DefVar("v", NcType::kByte, {xd}).value();
      ASSERT_TRUE(ds.EndDef().ok());
      ASSERT_TRUE(ds.BeginIndepData().ok());
      // Rank 0 writes [0, 30000), rank 1 [20000, 50000): same values in
      // the overlap, so the file is the same whichever lands last.
      const std::uint64_t x0 = c.rank() == 0 ? 0 : 20000;
      std::vector<signed char> mine(30000);
      for (std::uint64_t i = 0; i < mine.size(); ++i)
        mine[i] = static_cast<signed char>((x0 + i) % 101);
      const std::uint64_t st[] = {x0}, ct[] = {mine.size()};
      ASSERT_TRUE(ds.PutVara<signed char>(v, st, ct, mine).ok());
      ASSERT_TRUE(ds.EndIndepData().ok());
      ASSERT_TRUE(ds.Close().ok());
    });
  });
  EXPECT_GT(o.readback_bytes, 0u);
}

// A discard_data file system keeps no bytes and reads back zeros. The
// sidecar is discarded too, so the map every rank holds after Close is
// checked against the zeros the medium holds.
TEST(SumsEquiv, DiscardDataSumsTheZerosTheMediumHolds) {
  pfs::Config cfg;
  cfg.discard_data = true;
  ncformat::ChunkSumMap committed;
  const Outcome o = RunBothWays(
      [&](pfs::FileSystem& fs, const char* path) {
        LblWrite(fs, path, 4, 3u, &committed);
      },
      cfg);
  EXPECT_EQ(o.readback_bytes, 0u);
  pfs::FileSystem fs(cfg);
  LblWrite(fs, "z.nc", 4, 3u, &committed);
  const std::vector<std::byte> zeros = FileBytes(fs, "z.nc");
  ASSERT_EQ(zeros.size(), fs.Open("z.nc").value().size());
  const ncformat::ChunkSumMap want =
      Recompute(zeros, committed.chunk_size(), committed.data_begin());
  EXPECT_FALSE(want.empty());
  EXPECT_EQ(committed.EncodeTable(), want.EncodeTable())
      << DescribeDiff(committed, want);
}

}  // namespace
