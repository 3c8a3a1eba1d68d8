// End-to-end data integrity: the chunk-checksum layer (format/sums.hpp)
// must make silent data corruption impossible through every read path.
//
// The invariant under test, everywhere: a read API either returns the bytes
// that were written (possibly after healing a transient flip) or it returns
// kDataCorrupt — it NEVER returns wrong bytes with an OK status. The matrix
// crosses serial and 4-rank access, independent / two-phase-collective /
// data-sieving read paths, transient read-side flips (bitflip_read_prob)
// and sticky at-rest damage, plus the offline scrub (ncverify --data
// semantics via nctools::VerifyFile), the --repair re-baseline, and the
// PNC_SUMS=0 determinism guard.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "format/commit.hpp"
#include "format/header.hpp"
#include "format/sums.hpp"
#include "iostat/events.hpp"
#include "iostat/iostat.hpp"
#include "iostat/report.hpp"
#include "netcdf/dataset.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"
#include "test_support.hpp"
#include "tools/verify.hpp"

namespace {

using ncformat::NcType;
using pnc_test::EnvGuard;
using pnc_test::FileBytes;
using simmpi::Comm;

/// Decode `path`'s header through the harness (fault-free) read path.
ncformat::Header HeaderOf(pfs::FileSystem& fs, const std::string& path) {
  auto f = fs.Open(path).value();
  std::vector<std::byte> bytes(std::min<std::uint64_t>(f.size(), 64 * 1024));
  f.HarnessRead(0, bytes, 0.0);
  auto h = ncformat::Header::Decode(bytes);
  EXPECT_TRUE(h.ok()) << h.status().message();
  return std::move(h).value();
}

/// First data byte of `path` = the lowest variable begin offset.
std::uint64_t DataBegin(pfs::FileSystem& fs, const std::string& path) {
  const ncformat::Header h = HeaderOf(fs, path);
  EXPECT_FALSE(h.vars.empty()) << "no variables in " << path;
  return ncformat::SumsOrigin(h);
}


/// Flip every bit of the byte at `offset` (guaranteed to change it).
void FlipByteAt(pfs::FileSystem& fs, const std::string& path,
                std::uint64_t offset) {
  const std::byte old = pnc_test::ByteAt(fs, path, offset);
  pnc_test::CorruptByte(fs, path, offset, old ^ std::byte{0xFF});
}

// --------------------------------------------------------- serial fixture

constexpr std::uint64_t kSerialElems = 256 * 1024;  // 256 KiB = 4 sum chunks

signed char PatternAt(std::uint64_t i) {
  return static_cast<signed char>((i * 31 + 7) % 251 - 125);
}

/// One byte variable "d" of `n` elements filled with PatternAt.
void MakePatternFile(pfs::FileSystem& fs, const std::string& path,
                     std::uint64_t n = kSerialElems) {
  auto ds = netcdf::Dataset::Create(fs, path).value();
  const int x = ds.DefDim("x", n).value();
  const int v = ds.DefVar("d", NcType::kByte, {x}).value();
  ASSERT_TRUE(ds.EndDef().ok());
  std::vector<signed char> vals(n);
  for (std::uint64_t i = 0; i < n; ++i) vals[i] = PatternAt(i);
  ASSERT_TRUE(ds.PutVar<signed char>(v, vals).ok());
  ASSERT_TRUE(ds.Close().ok());
}

// ----------------------------------------------- serial read-side bitflips

// The core invariant swept over flip probabilities and seeds: every full
// read either comes back byte-perfect (the flip healed, or never landed in
// a read) or fails with kDataCorrupt. An OK status with wrong bytes is the
// one outcome that must never occur.
TEST(Integrity, SerialBitflipReadNeverSilent) {
  std::uint64_t total_flips = 0;
  int healed_or_clean = 0, corrupt = 0;
  for (const double p : {1e-3, 0.05, 0.5}) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
      pfs::FileSystem fs;
      MakePatternFile(fs, "b.nc");
      auto ds = netcdf::Dataset::Open(fs, "b.nc", false).value();
      pfs::FaultPolicy pol;
      pol.bitflip_read_prob = p;
      pol.seed = 0x17E6ull + seed * 0x9E3779B97F4A7C15ull;
      SCOPED_TRACE("p=" + std::to_string(p) +
                   " " + pnc_test::DescribePolicy(pol));
      fs.SetFaultPolicy(pol);
      fs.ResetStats();

      std::vector<signed char> got(kSerialElems);
      const pnc::Status rs =
          ds.GetVar<signed char>(ds.VarId("d").value(), got);
      total_flips += fs.stats().bitflips;
      fs.SetFaultPolicy({});
      if (rs.ok()) {
        for (std::uint64_t i = 0; i < kSerialElems; ++i)
          ASSERT_EQ(got[i], PatternAt(i)) << "silent corruption at " << i;
        EXPECT_TRUE(ds.Close().ok());
        ++healed_or_clean;
      } else {
        EXPECT_EQ(rs.code(), pnc::Err::kDataCorrupt) << rs.message();
        // Sticky: the session cannot be closed as if it were healthy.
        EXPECT_EQ(ds.Close().code(), pnc::Err::kDataCorrupt);
        ++corrupt;
      }
    }
  }
  // The sweep actually exercised the hazard, and verification absorbed at
  // least some of it (p=1e-3 cases are virtually always flip-free or
  // healed; p=0.5 re-reads may keep flipping and surface kDataCorrupt).
  EXPECT_GT(total_flips, 0u);
  EXPECT_GT(healed_or_clean, 0);
}

// A transient read-side flip on intact media must HEAL: the chunk re-read
// sees clean bytes, the caller gets a byte-perfect buffer and an OK status.
TEST(Integrity, SerialBitflipReadHeals) {
  bool healed = false;
  for (std::uint64_t seed = 1; seed <= 16 && !healed; ++seed) {
    pfs::FileSystem fs;
    MakePatternFile(fs, "h.nc");
    auto ds = netcdf::Dataset::Open(fs, "h.nc", false).value();
    pfs::FaultPolicy pol;
    pol.bitflip_read_prob = 0.5;
    pol.seed = seed;
    SCOPED_TRACE(pnc_test::DescribePolicy(pol));
    fs.SetFaultPolicy(pol);
    fs.ResetStats();
    std::vector<signed char> got(kSerialElems);
    const pnc::Status rs = ds.GetVar<signed char>(ds.VarId("d").value(), got);
    const std::uint64_t flips = fs.stats().bitflips;
    fs.SetFaultPolicy({});
    if (rs.ok() && flips > 0) {
      for (std::uint64_t i = 0; i < kSerialElems; ++i)
        ASSERT_EQ(got[i], PatternAt(i)) << "healed read still wrong at " << i;
      EXPECT_TRUE(ds.Close().ok());
      healed = true;
    }
  }
  EXPECT_TRUE(healed) << "no seed produced a healed flip";
}

// ------------------------------------------------- serial at-rest damage

// A byte corrupted on the medium between sessions keeps mismatching every
// re-read; the read must surface kDataCorrupt — silently returning the
// damaged buffer is the pre-integrity-layer behaviour this PR removes.
TEST(Integrity, SerialAtRestCorruptionSurfacesStickyError) {
  pfs::FileSystem fs;
  MakePatternFile(fs, "a.nc");
  const std::uint64_t db = DataBegin(fs, "a.nc");
  FlipByteAt(fs, "a.nc", db + 1000);

  auto ds = netcdf::Dataset::Open(fs, "a.nc", false).value();
  std::vector<signed char> got(kSerialElems);
  const pnc::Status rs = ds.GetVar<signed char>(ds.VarId("d").value(), got);
  EXPECT_EQ(rs.code(), pnc::Err::kDataCorrupt) << rs.message();
  EXPECT_EQ(ds.Close().code(), pnc::Err::kDataCorrupt);
}

// The pfs corrupt_at_rest schedule (persisted decay triggered by reads)
// drives the same surface: heal re-reads see the same damage — and may
// decay further — so the read must fail, and the offline scrub must then
// find the chunk.
TEST(Integrity, SerialAtRestDecayDetectedThenScrubbed) {
  // The decay byte is uniform over each request, and the buffered block
  // read spans the header and the zero-fill tail past EOF too — sweep
  // seeds until a flip lands inside a data chunk. Every intermediate
  // outcome still has to satisfy the no-silent-corruption invariant.
  bool surfaced = false;
  for (std::uint64_t seed = 1; seed <= 24 && !surfaced; ++seed) {
    pfs::FileSystem fs;
    MakePatternFile(fs, "r.nc");
    auto ds = netcdf::Dataset::Open(fs, "r.nc", false).value();
    pfs::FaultPolicy pol;
    pol.corrupt_at_rest = 1.0;
    pol.seed = seed;
    SCOPED_TRACE(pnc_test::DescribePolicy(pol));
    fs.SetFaultPolicy(pol);
    fs.ResetStats();
    std::vector<signed char> got(kSerialElems);
    const pnc::Status rs = ds.GetVar<signed char>(ds.VarId("d").value(), got);
    fs.SetFaultPolicy({});
    EXPECT_GE(fs.stats().at_rest_corruptions, 1u);
    if (rs.ok()) {
      // Decay missed the data chunks (header bytes or past-EOF fill):
      // the returned buffer must still be byte-perfect.
      for (std::uint64_t i = 0; i < kSerialElems; ++i)
        ASSERT_EQ(got[i], PatternAt(i)) << "silent corruption at " << i;
      (void)ds.Close();
      continue;
    }
    EXPECT_EQ(rs.code(), pnc::Err::kDataCorrupt) << rs.message();
    EXPECT_EQ(ds.Close().code(), pnc::Err::kDataCorrupt);

    // The damage is on the medium now; the offline scrub must find it.
    auto v = nctools::VerifyFile(fs, "r.nc", {.repair = false, .data = true});
    ASSERT_TRUE(v.ok()) << v.status().message();
    ASSERT_TRUE(v.value().scrub.has_value());
    EXPECT_TRUE(v.value().scrub->trusted);
    EXPECT_GE(v.value().scrub->corrupt, 1u);
    surfaced = true;
  }
  EXPECT_TRUE(surfaced) << "no seed decayed a data chunk";
}

// --------------------------------------------- 4-rank read-path matrix

constexpr int kRanks = 4;
constexpr std::uint64_t kRows = 256, kCols = 256;

signed char Cell(std::uint64_t r, std::uint64_t c) {
  return static_cast<signed char>((r * 31 + c * 7) % 251 - 125);
}

/// 256x256 byte grid "d", each rank writing its row band, fault-free.
void CreateGrid(pfs::FileSystem& fs) {
  simmpi::Run(kRanks, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Create(c, fs, "g.nc", simmpi::NullInfo()).value();
    const int y = ds.DefDim("y", kRows).value();
    const int x = ds.DefDim("x", kCols).value();
    const int v = ds.DefVar("d", NcType::kByte, {y, x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    const std::uint64_t band = kRows / kRanks;
    const std::uint64_t r0 = band * static_cast<std::uint64_t>(c.rank());
    std::vector<signed char> mine(band * kCols);
    for (std::uint64_t i = 0; i < band; ++i)
      for (std::uint64_t j = 0; j < kCols; ++j)
        mine[i * kCols + j] = Cell(r0 + i, j);
    const std::uint64_t st[] = {r0, 0};
    const std::uint64_t ct[] = {band, kCols};
    ASSERT_TRUE(ds.PutVaraAll<signed char>(v, st, ct, mine).ok());
    ASSERT_TRUE(ds.Close().ok());
  });
}

enum class ReadMode { kCollective, kIndependent, kSieved };

const char* ModeName(ReadMode m) {
  switch (m) {
    case ReadMode::kCollective: return "collective(two-phase)";
    case ReadMode::kIndependent: return "independent(contiguous)";
    case ReadMode::kSieved: return "independent(sieved column)";
  }
  return "?";
}

// Every parallel read path — two-phase collective, contiguous independent,
// and data-sieving strided — under transient read-side flips on a 4-rank
// read-only open (the verify-armed parallel mode): per rank, OK means
// byte-perfect, anything else is kDataCorrupt.
TEST(Integrity, ParallelBitflipMatrixNeverSilent) {
  std::uint64_t total_flips = 0;
  for (const ReadMode mode :
       {ReadMode::kCollective, ReadMode::kIndependent, ReadMode::kSieved}) {
    for (const double p : {1e-3, 0.05}) {
      pfs::FileSystem fs;
      CreateGrid(fs);
      simmpi::Run(kRanks, [&](Comm& c) {
        simmpi::Info info;
        if (mode == ReadMode::kCollective)
          info.Set("cb_buffer_size", "8192");  // many aggregator windows
        auto ds =
            pnetcdf::Dataset::Open(c, fs, "g.nc", false, info).value();
        pfs::FaultPolicy pol;
        pol.bitflip_read_prob = p;
        SCOPED_TRACE(std::string(ModeName(mode)) + " " +
                     pnc_test::DescribePolicy(pol));
        if (c.rank() == 0) {
          fs.SetFaultPolicy(pol);
          fs.ResetStats();
        }
        c.Barrier();

        const int v = ds.VarId("d").value();
        const std::uint64_t band = kRows / kRanks;
        const std::uint64_t r0 = band * static_cast<std::uint64_t>(c.rank());
        pnc::Status rs;
        std::vector<signed char> got;
        // (row, col) of got[i] for the correctness check below.
        std::vector<std::pair<std::uint64_t, std::uint64_t>> where;
        if (mode == ReadMode::kCollective) {
          got.resize(band * kCols);
          const std::uint64_t st[] = {r0, 0};
          const std::uint64_t ct[] = {band, kCols};
          rs = ds.GetVaraAll<signed char>(v, st, ct, got);
          for (std::uint64_t i = 0; i < band; ++i)
            for (std::uint64_t j = 0; j < kCols; ++j)
              where.emplace_back(r0 + i, j);
        } else if (mode == ReadMode::kIndependent) {
          ASSERT_TRUE(ds.BeginIndepData().ok());
          got.resize(band * kCols);
          const std::uint64_t st[] = {r0, 0};
          const std::uint64_t ct[] = {band, kCols};
          rs = ds.GetVara<signed char>(v, st, ct, got);
          ASSERT_TRUE(ds.EndIndepData().ok());
          for (std::uint64_t i = 0; i < band; ++i)
            for (std::uint64_t j = 0; j < kCols; ++j)
              where.emplace_back(r0 + i, j);
        } else {
          // Column band: kRows segments of 64 B spaced kCols apart — the
          // shape the data-sieving path coalesces into one big read.
          ASSERT_TRUE(ds.BeginIndepData().ok());
          const std::uint64_t cband = kCols / kRanks;
          const std::uint64_t c0 = cband * static_cast<std::uint64_t>(c.rank());
          got.resize(kRows * cband);
          const std::uint64_t st[] = {0, c0};
          const std::uint64_t ct[] = {kRows, cband};
          rs = ds.GetVara<signed char>(v, st, ct, got);
          ASSERT_TRUE(ds.EndIndepData().ok());
          for (std::uint64_t i = 0; i < kRows; ++i)
            for (std::uint64_t j = 0; j < cband; ++j)
              where.emplace_back(i, c0 + j);
        }

        if (rs.ok()) {
          for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got[i], Cell(where[i].first, where[i].second))
                << "silent corruption, rank " << c.rank() << " elem " << i;
        } else {
          EXPECT_EQ(rs.code(), pnc::Err::kDataCorrupt) << rs.message();
        }
        c.Barrier();
        if (c.rank() == 0) fs.SetFaultPolicy({});
        c.Barrier();
        const pnc::Status cs = ds.Close();
        if (rs.ok())
          EXPECT_TRUE(cs.ok()) << cs.message();
        else
          EXPECT_EQ(cs.code(), pnc::Err::kDataCorrupt);
      });
      total_flips += fs.stats().bitflips;
    }
  }
  EXPECT_GT(total_flips, 0u);  // the matrix really injected flips
}

// At-rest damage under a 4-rank collective read of the full grid: no rank
// may return OK with wrong bytes, and at least one rank must report
// kDataCorrupt (the damage cannot heal, so it may not vanish either).
TEST(Integrity, ParallelAtRestCorruptionSurfaces) {
  pfs::FileSystem fs;
  CreateGrid(fs);
  const std::uint64_t db = DataBegin(fs, "g.nc");
  FlipByteAt(fs, "g.nc", db + 12345);

  simmpi::Run(kRanks, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Open(c, fs, "g.nc", false, simmpi::NullInfo())
            .value();
    const int v = ds.VarId("d").value();
    std::vector<signed char> got(kRows * kCols);
    const std::uint64_t st[] = {0, 0};
    const std::uint64_t ct[] = {kRows, kCols};
    const pnc::Status rs = ds.GetVaraAll<signed char>(v, st, ct, got);
    if (rs.ok()) {
      for (std::uint64_t r = 0; r < kRows; ++r)
        for (std::uint64_t cc = 0; cc < kCols; ++cc)
          ASSERT_EQ(got[r * kCols + cc], Cell(r, cc))
              << "silent corruption on rank " << c.rank();
    } else {
      EXPECT_EQ(rs.code(), pnc::Err::kDataCorrupt) << rs.message();
    }
    // Somebody saw it: the min raw status across ranks is kDataCorrupt.
    EXPECT_EQ(c.AllreduceMin(rs.raw()),
              pnc::Status(pnc::Err::kDataCorrupt, "").raw());
    (void)ds.Close();
  });
}

// ------------------------------------------------------- offline scrub

// ncverify --data semantics, API level: every injected at-rest corruption
// — first data byte, chunk interior, both sides of a chunk boundary, last
// byte — is detected and attributed to the right chunk. 100% detection.
TEST(Integrity, ScrubDetectsEveryInjectedCorruption) {
  EnvGuard chunk("PNC_SUM_CHUNK", "4096");
  constexpr std::uint64_t kN = 16 * 1024;  // 4 chunks of 4 KiB
  const std::uint64_t offsets[] = {0, 4095, 4096, 8191, 12288, kN - 1};
  for (const std::uint64_t off : offsets) {
    SCOPED_TRACE("corrupt data byte " + std::to_string(off));
    pfs::FileSystem fs;
    MakePatternFile(fs, "s.nc", kN);
    const std::uint64_t db = DataBegin(fs, "s.nc");
    FlipByteAt(fs, "s.nc", db + off);

    auto v = nctools::VerifyFile(fs, "s.nc", {.repair = false, .data = true});
    ASSERT_TRUE(v.ok()) << v.status().message();
    ASSERT_TRUE(v.value().scrub.has_value());
    const ncformat::ScrubReport& s = *v.value().scrub;
    EXPECT_TRUE(s.trusted);
    EXPECT_EQ(s.corrupt, 1u);
    EXPECT_EQ(s.unsummed, 0u);
    ASSERT_EQ(s.corrupt_chunks.size(), 1u);
    EXPECT_EQ(s.corrupt_chunks[0], off / 4096);
  }

  // Multiple damaged chunks in one file: all of them reported.
  pfs::FileSystem fs;
  MakePatternFile(fs, "s.nc", kN);
  const std::uint64_t db = DataBegin(fs, "s.nc");
  for (const std::uint64_t off : {100ull, 9000ull, 14000ull})
    FlipByteAt(fs, "s.nc", db + off);
  auto v = nctools::VerifyFile(fs, "s.nc", {.repair = false, .data = true});
  ASSERT_TRUE(v.ok()) << v.status().message();
  ASSERT_TRUE(v.value().scrub.has_value());
  EXPECT_EQ(v.value().scrub->corrupt, 3u);
}

// --repair --data re-baselines: the rebuilt sidecar covers every chunk and
// a follow-up scrub is clean (the operator vouched for the current bytes).
TEST(Integrity, ScrubRepairRebuildsBaseline) {
  EnvGuard chunk("PNC_SUM_CHUNK", "4096");
  constexpr std::uint64_t kN = 16 * 1024;
  pfs::FileSystem fs;
  MakePatternFile(fs, "t.nc", kN);
  const std::uint64_t db = DataBegin(fs, "t.nc");
  FlipByteAt(fs, "t.nc", db + 5000);

  auto first = nctools::VerifyFile(fs, "t.nc", {.repair = false, .data = true});
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().scrub->corrupt, 1u);

  auto rebuilt =
      nctools::VerifyFile(fs, "t.nc", {.repair = true, .data = true});
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().message();
  EXPECT_TRUE(rebuilt.value().sums_rebuilt);

  auto after = nctools::VerifyFile(fs, "t.nc", {.repair = false, .data = true});
  ASSERT_TRUE(after.ok());
  const ncformat::ScrubReport& s = *after.value().scrub;
  EXPECT_TRUE(s.trusted);
  EXPECT_EQ(s.corrupt, 0u);
  EXPECT_EQ(s.unsummed, 0u);
  EXPECT_EQ(s.clean, 4u);
}

// A missing sidecar degrades to honest "unsummed" coverage, never to a
// false corruption verdict (and never to a false clean one).
TEST(Integrity, ScrubWithoutSidecarReportsUnsummed) {
  pfs::FileSystem fs;
  MakePatternFile(fs, "u.nc");
  ASSERT_TRUE(fs.Remove(ncformat::SumsPath("u.nc")).ok());
  auto v = nctools::VerifyFile(fs, "u.nc", {.repair = false, .data = true});
  ASSERT_TRUE(v.ok()) << v.status().message();
  ASSERT_TRUE(v.value().scrub.has_value());
  const ncformat::ScrubReport& s = *v.value().scrub;
  EXPECT_FALSE(s.trusted);
  EXPECT_EQ(s.corrupt, 0u);
  EXPECT_EQ(s.clean, 0u);
  EXPECT_GT(s.unsummed, 0u);
}

// ------------------------------------------ failed and flipped writes

/// The scrub must find no chunk whose committed sum disagrees with the
/// medium: every chunk is clean or unsummed.
void ExpectNoStaleSum(pfs::FileSystem& fs, const std::string& path) {
  auto v = nctools::VerifyFile(fs, path, {.repair = false, .data = true});
  ASSERT_TRUE(v.ok()) << v.status().message();
  ASSERT_TRUE(v.value().scrub.has_value());
  EXPECT_TRUE(v.value().scrub->trusted);
  EXPECT_EQ(v.value().scrub->corrupt, 0u) << "a chunk kept its stale sum";
}

/// Short transfer, then a permanent fault on the resumed attempt: the
/// write fails after its prefix reached the medium.
pfs::FaultPolicy ShortThenPermanent() {
  pfs::FaultPolicy pol;
  pol.short_write_prob = 1.0;
  pol.permanent_ops = {1};
  return pol;
}

// A serial write that fails after a short transfer stored a prefix: the
// flush must re-sum those chunks from the medium (or leave them unsummed),
// so a later read-only open never reports the new prefix as corruption.
TEST(Integrity, SerialFailedShortWriteNeverKeepsStaleSum) {
  constexpr std::uint64_t kN = 3 << 20;     // 3 MiB of bytes
  constexpr std::uint64_t kW = 1 << 20;     // one unbuffered 1 MiB write
  constexpr std::uint64_t kAt = 300 * 1024;  // not chunk aligned
  pfs::FileSystem fs;
  MakePatternFile(fs, "w.nc", kN);
  const std::uint64_t db = DataBegin(fs, "w.nc");
  {
    auto ds = netcdf::Dataset::Open(fs, "w.nc", true).value();
    const std::vector<signed char> fresh(kW, 77);
    fs.SetFaultPolicy(ShortThenPermanent());
    const std::uint64_t st[] = {kAt}, ct[] = {kW};
    EXPECT_FALSE(ds.PutVara<signed char>(0, st, ct, fresh).ok());
    fs.SetFaultPolicy({});
    ASSERT_TRUE(ds.Close().ok());
  }
  ASSERT_EQ(fs.stats().short_writes, 1u);
  ASSERT_EQ(pnc_test::ByteAt(fs, "w.nc", db + kAt), std::byte{77})
      << "the short prefix never reached the medium";
  ExpectNoStaleSum(fs, "w.nc");
  auto rd = netcdf::Dataset::Open(fs, "w.nc", false).value();
  std::vector<signed char> all(kN);
  EXPECT_TRUE(rd.GetVar<signed char>(0, all).ok());
  EXPECT_TRUE(rd.Close().ok());
}

// The same through the parallel library's write hook: rank 0's independent
// write fails after its prefix landed; the root re-reads those chunks.
TEST(Integrity, ParallelFailedShortWriteNeverKeepsStaleSum) {
  pfs::FileSystem fs;
  CreateGrid(fs);
  const std::uint64_t db = DataBegin(fs, "g.nc");
  constexpr std::uint64_t kRow0 = 37, kNRows = 100;
  simmpi::Run(kRanks, [&](Comm& c) {
    auto ds = pnetcdf::Dataset::Open(c, fs, "g.nc", true, simmpi::NullInfo())
                  .value();
    ASSERT_TRUE(ds.BeginIndepData().ok());
    c.Barrier();
    if (c.rank() == 0) {
      const std::vector<signed char> fresh(kNRows * kCols, 77);
      fs.SetFaultPolicy(ShortThenPermanent());
      const std::uint64_t st[] = {kRow0, 0}, ct[] = {kNRows, kCols};
      EXPECT_FALSE(ds.PutVara<signed char>(0, st, ct, fresh).ok());
      fs.SetFaultPolicy({});
    }
    c.Barrier();
    ASSERT_TRUE(ds.EndIndepData().ok());
    ASSERT_TRUE(ds.Close().ok());
  });
  ASSERT_EQ(fs.stats().short_writes, 1u);
  ASSERT_EQ(pnc_test::ByteAt(fs, "g.nc", db + kRow0 * kCols), std::byte{77})
      << "the short prefix never reached the medium";
  ExpectNoStaleSum(fs, "g.nc");
  simmpi::Run(kRanks, [&](Comm& c) {
    auto ds = pnetcdf::Dataset::Open(c, fs, "g.nc", false, simmpi::NullInfo())
                  .value();
    std::vector<signed char> all(kRows * kCols);
    const std::uint64_t st[] = {0, 0}, ct[] = {kRows, kCols};
    EXPECT_TRUE(ds.GetVaraAll<signed char>(0, st, ct, all).ok());
    EXPECT_TRUE(ds.Close().ok());
  });
}

// Sums describe what the caller wrote, not what the medium kept: a flip
// injected into a write's stored payload is reported by the scrub and by a
// verified read, instead of being summed into a clean-looking table.
TEST(Integrity, WriteSideFlipIsReported) {
  constexpr std::uint64_t kN = 2 << 20;
  pfs::FileSystem fs;
  {
    auto ds = netcdf::Dataset::Create(fs, "f.nc").value();
    const int x = ds.DefDim("x", kN).value();
    const int v = ds.DefVar("d", NcType::kByte, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    std::vector<signed char> vals(kN);
    for (std::uint64_t i = 0; i < kN; ++i) vals[i] = PatternAt(i);
    pfs::FaultPolicy pol;
    pol.bitflip_write_prob = 1.0;
    fs.SetFaultPolicy(pol);  // only the unbuffered data writes are armed
    ASSERT_TRUE(ds.PutVar<signed char>(v, vals).ok());
    fs.SetFaultPolicy({});
    ASSERT_TRUE(ds.Close().ok());
  }
  ASSERT_GT(fs.stats().write_bitflips, 0u);
  auto v = nctools::VerifyFile(fs, "f.nc", {.repair = false, .data = true});
  ASSERT_TRUE(v.ok()) << v.status().message();
  ASSERT_TRUE(v.value().scrub.has_value());
  EXPECT_EQ(v.value().scrub->corrupt, fs.stats().write_bitflips);
  auto rd = netcdf::Dataset::Open(fs, "f.nc", false).value();
  std::vector<signed char> all(kN);
  EXPECT_EQ(rd.GetVar<signed char>(0, all).code(), pnc::Err::kDataCorrupt);
}

// ------------------------------------------------- determinism guard

// PNC_SUMS=0 switches the whole subsystem off: no sidecar exists, and the
// primary file is bit-identical to one written with checksums on — the
// integrity layer never perturbs the netCDF bytes themselves.
TEST(Integrity, SumsOffIsBitIdenticalAndSidecarFree) {
  std::vector<std::byte> with, without;
  {
    pfs::FileSystem fs;
    MakePatternFile(fs, "d.nc");
    EXPECT_TRUE(fs.Exists(ncformat::SumsPath("d.nc")));
    with = FileBytes(fs, "d.nc");
  }
  {
    EnvGuard off("PNC_SUMS", "0");
    pfs::FileSystem fs;
    MakePatternFile(fs, "d.nc");
    EXPECT_FALSE(fs.Exists(ncformat::SumsPath("d.nc")));
    without = FileBytes(fs, "d.nc");
  }
  EXPECT_EQ(with, without);
}

TEST(Integrity, ParallelSumsOffIsBitIdenticalAndSidecarFree) {
  std::vector<std::byte> with, without;
  {
    pfs::FileSystem fs;
    CreateGrid(fs);
    EXPECT_TRUE(fs.Exists(ncformat::SumsPath("g.nc")));
    with = FileBytes(fs, "g.nc");
  }
  {
    EnvGuard off("PNC_SUMS", "0");
    pfs::FileSystem fs;
    CreateGrid(fs);
    EXPECT_FALSE(fs.Exists(ncformat::SumsPath("g.nc")));
    without = FileBytes(fs, "g.nc");
  }
  EXPECT_EQ(with, without);
}

// ------------------------------------------ read-only sessions are inert

// A reader commits nothing: opening read-only, reading and closing leaves
// the primary, the journal and the `.ncsum` sidecar byte-identical and
// issues no pfs write or sync (a sync is a zero-length write request).
TEST(Integrity, ReadOnlySerialSessionWritesNothing) {
  pfs::FileSystem fs;
  MakePatternFile(fs, "d.nc");
  const std::string paths[] = {"d.nc", ncformat::SumsPath("d.nc"),
                               ncformat::JournalPath("d.nc")};
  std::vector<std::vector<std::byte>> before;
  for (const auto& p : paths) before.push_back(FileBytes(fs, p));
  const pfs::Stats s0 = fs.stats();
  {
    auto ds = netcdf::Dataset::Open(fs, "d.nc", /*writable=*/false).value();
    std::vector<signed char> got(kSerialElems);
    const std::uint64_t st[] = {0};
    const std::uint64_t ct[] = {kSerialElems};
    ASSERT_TRUE(ds.GetVara<signed char>(0, st, ct, got).ok());
    EXPECT_EQ(got[5], PatternAt(5));
    ASSERT_TRUE(ds.Close().ok());
  }
  const pfs::Stats s1 = fs.stats();
  EXPECT_EQ(s1.write_requests, s0.write_requests);
  EXPECT_EQ(s1.bytes_written, s0.bytes_written);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(FileBytes(fs, paths[i]), before[i]) << paths[i];
}

TEST(Integrity, ReadOnlyParallelSessionWritesNothing) {
  pfs::FileSystem fs;
  CreateGrid(fs);
  const std::string paths[] = {"g.nc", ncformat::SumsPath("g.nc"),
                               ncformat::JournalPath("g.nc")};
  std::vector<std::vector<std::byte>> before;
  for (const auto& p : paths) before.push_back(FileBytes(fs, p));
  const pfs::Stats s0 = fs.stats();
  simmpi::Run(kRanks, [&](Comm& c) {
    auto ds = pnetcdf::Dataset::Open(c, fs, "g.nc", /*writable=*/false,
                                     simmpi::NullInfo())
                  .value();
    std::vector<signed char> got(kRows * kCols);
    const std::uint64_t st[] = {0, 0};
    const std::uint64_t ct[] = {kRows, kCols};
    ASSERT_TRUE(ds.GetVaraAll<signed char>(0, st, ct, got).ok());
    ASSERT_TRUE(ds.Close().ok());
  });
  const pfs::Stats s1 = fs.stats();
  // The open's own round trip (mpiio::File::Open, rank 0) is metadata.
  EXPECT_EQ(s1.write_requests, s0.write_requests);
  EXPECT_EQ(s1.metadata_requests, s0.metadata_requests + 1);
  EXPECT_EQ(s1.bytes_written, s0.bytes_written);
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(FileBytes(fs, paths[i]), before[i]) << paths[i];
}

// ------------------------------ sidecar traffic: one commit per session end

pfs::FileTraffic SidecarTraffic(pfs::FileSystem& fs, const std::string& path) {
  return fs.Open(ncformat::SumsPath(path)).value().traffic();
}

/// Sidecar requests between two snapshots.
struct TrafficDelta {
  std::uint64_t writes = 0, syncs = 0, bytes = 0;
};
TrafficDelta operator-(const pfs::FileTraffic& b, const pfs::FileTraffic& a) {
  return {b.write_requests - a.write_requests, b.syncs - a.syncs,
          b.bytes_written - a.bytes_written};
}

/// The scrub trusts the sidecar and finds every chunk clean.
void ExpectTrustedClean(pfs::FileSystem& fs, const std::string& path) {
  auto v = nctools::VerifyFile(fs, path, {.data = true});
  ASSERT_TRUE(v.ok()) << v.status().message();
  ASSERT_TRUE(v.value().scrub.has_value());
  EXPECT_TRUE(v.value().scrub->trusted);
  EXPECT_EQ(v.value().scrub->corrupt, 0u);
  EXPECT_EQ(v.value().scrub->unsummed, 0u);
  EXPECT_GE(v.value().scrub->clean, 1u);
}

// A created dataset's sidecar is written once: nothing at Create, EndDef,
// the data calls or Sync (its bytes stay as they were), then one
// [magic|slot|table] request and one sync at Close. A writable reopen adds
// one slot-only commit (the session-open marker) and one closing commit.
TEST(Integrity, SerialSidecarCommitsOnlyAtOpenAndClose) {
  pfs::FileSystem fs;
  const std::string spath = ncformat::SumsPath("s.nc");
  {
    auto ds = netcdf::Dataset::Create(fs, "s.nc").value();
    const int x = ds.DefDim("x", kSerialElems).value();
    const int v = ds.DefVar("d", NcType::kByte, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    std::vector<signed char> vals(kSerialElems);
    for (std::uint64_t i = 0; i < kSerialElems; ++i) vals[i] = PatternAt(i);
    ASSERT_TRUE(ds.PutVar<signed char>(v, vals).ok());
    const auto bytes0 = FileBytes(fs, spath);
    ASSERT_TRUE(ds.Sync().ok());
    EXPECT_EQ(FileBytes(fs, spath), bytes0);
    const pfs::FileTraffic t0 = SidecarTraffic(fs, "s.nc");
    EXPECT_EQ(t0.write_requests, 0u);
    EXPECT_EQ(t0.syncs, 0u);
    ASSERT_TRUE(ds.Close().ok());
    const TrafficDelta d = SidecarTraffic(fs, "s.nc") - t0;
    EXPECT_EQ(d.writes, 1u);
    EXPECT_EQ(d.syncs, 1u);
    EXPECT_EQ(d.bytes, FileBytes(fs, spath).size());
  }
  ExpectTrustedClean(fs, "s.nc");

  const pfs::FileTraffic t0 = SidecarTraffic(fs, "s.nc");
  auto ds = netcdf::Dataset::Open(fs, "s.nc", /*writable=*/true).value();
  const TrafficDelta open = SidecarTraffic(fs, "s.nc") - t0;
  EXPECT_EQ(open.writes, 1u);
  EXPECT_EQ(open.syncs, 1u);
  EXPECT_EQ(open.bytes, ncformat::kSumsSlotSize);
  const std::vector<signed char> one = {7};
  const std::uint64_t st[] = {5};
  const std::uint64_t ct[] = {1};
  ASSERT_TRUE(ds.PutVara<signed char>(0, st, ct, one).ok());
  const pfs::FileTraffic t1 = SidecarTraffic(fs, "s.nc");
  ASSERT_TRUE(ds.Sync().ok());
  ASSERT_TRUE(ds.Close().ok());
  const TrafficDelta close = SidecarTraffic(fs, "s.nc") - t1;
  EXPECT_EQ(close.writes, 1u);
  EXPECT_EQ(close.syncs, 1u);
  ExpectTrustedClean(fs, "s.nc");
}

TEST(Integrity, ParallelSidecarCommitsOnlyAtOpenAndClose) {
  pfs::FileSystem fs;
  const std::string spath = ncformat::SumsPath("g.nc");
  const std::uint64_t band = kRows / kRanks;
  std::vector<std::byte> bytes0;
  pfs::FileTraffic t0;
  TrafficDelta create_close;
  simmpi::Run(kRanks, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Create(c, fs, "g.nc", simmpi::NullInfo()).value();
    const int y = ds.DefDim("y", kRows).value();
    const int x = ds.DefDim("x", kCols).value();
    const int v = ds.DefVar("d", NcType::kByte, {y, x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    const std::uint64_t r0 = band * static_cast<std::uint64_t>(c.rank());
    std::vector<signed char> mine(band * kCols);
    for (std::uint64_t i = 0; i < band; ++i)
      for (std::uint64_t j = 0; j < kCols; ++j)
        mine[i * kCols + j] = Cell(r0 + i, j);
    const std::uint64_t st[] = {r0, 0};
    const std::uint64_t ct[] = {band, kCols};
    ASSERT_TRUE(ds.PutVaraAll<signed char>(v, st, ct, mine).ok());
    if (c.rank() == 0) bytes0 = FileBytes(fs, spath);
    ASSERT_TRUE(ds.Sync().ok());
    // Only the root touches the sidecar; its own calls are in order.
    if (c.rank() == 0) {
      EXPECT_EQ(FileBytes(fs, spath), bytes0);
      t0 = SidecarTraffic(fs, "g.nc");
    }
    ASSERT_TRUE(ds.Close().ok());
    if (c.rank() == 0) create_close = SidecarTraffic(fs, "g.nc") - t0;
  });
  EXPECT_EQ(t0.write_requests, 0u);
  EXPECT_EQ(t0.syncs, 0u);
  EXPECT_EQ(create_close.writes, 1u);
  EXPECT_EQ(create_close.syncs, 1u);
  EXPECT_EQ(create_close.bytes, FileBytes(fs, spath).size());
  ExpectTrustedClean(fs, "g.nc");

  TrafficDelta open, close;
  simmpi::Run(kRanks, [&](Comm& c) {
    const pfs::FileTraffic before = SidecarTraffic(fs, "g.nc");
    c.Barrier();
    auto ds = pnetcdf::Dataset::Open(c, fs, "g.nc", /*writable=*/true,
                                     simmpi::NullInfo())
                  .value();
    if (c.rank() == 0) open = SidecarTraffic(fs, "g.nc") - before;
    const std::uint64_t r0 = band * static_cast<std::uint64_t>(c.rank());
    std::vector<signed char> mine(band * kCols, 3);
    const std::uint64_t st[] = {r0, 0};
    const std::uint64_t ct[] = {band, kCols};
    ASSERT_TRUE(ds.PutVaraAll<signed char>(0, st, ct, mine).ok());
    const pfs::FileTraffic mid = SidecarTraffic(fs, "g.nc");
    ASSERT_TRUE(ds.Sync().ok());
    ASSERT_TRUE(ds.Close().ok());
    if (c.rank() == 0) close = SidecarTraffic(fs, "g.nc") - mid;
  });
  EXPECT_EQ(open.writes, 1u);
  EXPECT_EQ(open.syncs, 1u);
  EXPECT_EQ(open.bytes, ncformat::kSumsSlotSize);
  EXPECT_EQ(close.writes, 1u);
  EXPECT_EQ(close.syncs, 1u);
  ExpectTrustedClean(fs, "g.nc");
}

// ------------------------------------- telemetry: counters + black box

// The verification counters and the flight-recorder data_corrupt event (the
// record ncstat --blackbox resolves by name) fire on a sticky corrupt read.
TEST(Integrity, IostatCountersAndBlackboxEvent) {
#if !PNC_IOSTAT_ENABLED
  GTEST_SKIP() << "instrumentation compiled out (PNC_IOSTAT=OFF)";
#else
  iostat::Registry::Get().Reset();
  iostat::Registry::Get().SetCountersEnabled(true);

  pfs::FileSystem fs;
  MakePatternFile(fs, "c.nc", 64 * 1024);
  const std::uint64_t db = DataBegin(fs, "c.nc");
  FlipByteAt(fs, "c.nc", db + 5);

  simmpi::Run(1, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Open(c, fs, "c.nc", false, simmpi::NullInfo())
            .value();
    const int v = ds.VarId("d").value();
    std::vector<signed char> got(64 * 1024);
    const std::uint64_t st[] = {0};
    const std::uint64_t ct[] = {64 * 1024};
    EXPECT_EQ(ds.GetVaraAll<signed char>(v, st, ct, got).code(),
              pnc::Err::kDataCorrupt);
    EXPECT_EQ(ds.Close().code(), pnc::Err::kDataCorrupt);
  });

  const auto rep = iostat::BuildReport();
  EXPECT_GT(rep[iostat::Ctr::kNcSumChunksVerified].sum, 0u);
  EXPECT_GT(rep[iostat::Ctr::kNcSumMismatch].sum, 0u);
  bool saw_event = false;
  for (const auto& e : iostat::FlightRecorder::Get().CollectRank(0))
    saw_event |= e.kind == iostat::Ev::kDataCorrupt;
  EXPECT_TRUE(saw_event) << "no data_corrupt flight-recorder event";
  // The wire name resolves (the ncstat --blackbox filter contract).
  iostat::Ev kind;
  EXPECT_TRUE(iostat::EvFromName("data_corrupt", &kind));
  EXPECT_EQ(kind, iostat::Ev::kDataCorrupt);

  iostat::Registry::Get().SetCountersEnabled(false);
  iostat::Registry::Get().Reset();
#endif
}

// Healed transient flips are counted too: find a seed where the read both
// hit flips and healed, then demand the heal-retry counter moved.
TEST(Integrity, IostatCountsHealedRetries) {
#if !PNC_IOSTAT_ENABLED
  GTEST_SKIP() << "instrumentation compiled out (PNC_IOSTAT=OFF)";
#else
  bool healed = false;
  for (std::uint64_t seed = 1; seed <= 16 && !healed; ++seed) {
    iostat::Registry::Get().Reset();
    iostat::Registry::Get().SetCountersEnabled(true);
    pfs::FileSystem fs;
    MakePatternFile(fs, "hh.nc", 64 * 1024);
    simmpi::Run(1, [&](Comm& c) {
      auto ds =
          pnetcdf::Dataset::Open(c, fs, "hh.nc", false, simmpi::NullInfo())
              .value();
      pfs::FaultPolicy pol;
      pol.bitflip_read_prob = 0.5;
      pol.seed = seed;
      fs.SetFaultPolicy(pol);
      fs.ResetStats();
      const int v = ds.VarId("d").value();
      std::vector<signed char> got(64 * 1024);
      const std::uint64_t st[] = {0};
      const std::uint64_t ct[] = {64 * 1024};
      const pnc::Status rs = ds.GetVaraAll<signed char>(v, st, ct, got);
      fs.SetFaultPolicy({});
      if (rs.ok() && fs.stats().bitflips > 0) {
        const auto rep = iostat::BuildReport();
        EXPECT_GT(rep[iostat::Ctr::kNcSumHealedRetries].sum, 0u);
        healed = true;
      }
      (void)ds.Close();
    });
    iostat::Registry::Get().SetCountersEnabled(false);
    iostat::Registry::Get().Reset();
  }
  EXPECT_TRUE(healed) << "no seed produced a healed flip";
#endif
}

}  // namespace
