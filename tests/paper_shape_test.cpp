// Paper-shape regression tests: small, fast versions of the Figure 6 and 7
// claims asserted as orderings and ratios (not absolute numbers), so a
// cost-model or algorithm regression that would bend the reproduced curves
// fails CI, not just the benchmark reader's eye. Every run uses the default
// configuration — checksums on — so integrity overhead counts against the
// claims too.
#include <gtest/gtest.h>

#include <numeric>

#include "bench/platforms.hpp"
#include "flash/flash.hpp"
#include "netcdf/dataset.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"

namespace {

using simmpi::Comm;

constexpr std::uint64_t kZ = 128, kY = 128, kX = 64;  // 8 MiB of doubles

/// Virtual seconds for a serial whole-array write/read.
double SerialTime(bool is_write) {
  pfs::Config pcfg = bench::SdscBlueHorizon();
  pcfg.discard_data = true;
  pfs::FileSystem fs(pcfg);
  auto ds = netcdf::Dataset::Create(fs, "t.nc").value();
  const int zd = ds.DefDim("z", kZ).value();
  const int yd = ds.DefDim("y", kY).value();
  const int xd = ds.DefDim("x", kX).value();
  const int v = ds.DefVar("tt", ncformat::NcType::kDouble, {zd, yd, xd}).value();
  EXPECT_TRUE(ds.EndDef().ok());
  std::vector<double> buf(kZ * kY * kX, 1.0);
  const double t0 = ds.clock().now();
  if (is_write) {
    EXPECT_TRUE(ds.PutVar<double>(v, buf).ok());
    EXPECT_TRUE(ds.Sync().ok());
  } else {
    EXPECT_TRUE(ds.GetVar<double>(v, buf).ok());
  }
  return ds.clock().now() - t0;
}

/// Figure 6's own array: tt(256,256,128) doubles, 64 MiB.
constexpr std::uint64_t kFig6Dims[3] = {256, 256, 128};

/// Virtual seconds for the same access via PnetCDF with a given partition
/// axis (0 = Z slabs, 2 = X columns) and process count, on the miniature
/// array unless `dims` names another.
double ParallelTime(int nprocs, int axis, bool is_write,
                    const std::uint64_t* dims = nullptr) {
  static constexpr std::uint64_t kMini[3] = {kZ, kY, kX};
  if (dims == nullptr) dims = kMini;
  pfs::Config pcfg = bench::SdscBlueHorizon();
  pcfg.discard_data = true;
  pfs::FileSystem fs(pcfg);
  double dt = 0.0;
  simmpi::Run(
      nprocs,
      [&](Comm& c) {
        auto ds = pnetcdf::Dataset::Create(c, fs, "t.nc", simmpi::NullInfo())
                      .value();
        const int zd = ds.DefDim("z", dims[0]).value();
        const int yd = ds.DefDim("y", dims[1]).value();
        const int xd = ds.DefDim("x", dims[2]).value();
        const int v =
            ds.DefVar("tt", ncformat::NcType::kDouble, {zd, yd, xd}).value();
        ASSERT_TRUE(ds.EndDef().ok());
        std::uint64_t start[3] = {0, 0, 0};
        std::uint64_t count[3] = {dims[0], dims[1], dims[2]};
        count[static_cast<std::size_t>(axis)] /= static_cast<std::uint64_t>(nprocs);
        start[static_cast<std::size_t>(axis)] =
            count[static_cast<std::size_t>(axis)] *
            static_cast<std::uint64_t>(c.rank());
        std::vector<double> buf(count[0] * count[1] * count[2], 2.0);
        c.SyncClocksToMax();
        const double t0 = c.clock().now();
        if (is_write) {
          ASSERT_TRUE(ds.PutVaraAll<double>(v, start, count, buf).ok());
          ASSERT_TRUE(ds.Sync().ok());
        } else {
          ASSERT_TRUE(ds.GetVaraAll<double>(v, start, count, buf).ok());
        }
        c.SyncClocksToMax();
        if (c.rank() == 0) dt = c.clock().now() - t0;
        ASSERT_TRUE(ds.Close().ok());
      },
      bench::Sp2Cost());
  return dt;
}

TEST(PaperShape, ParallelWriteBeatsSerialAtScale) {
  // Figure 6: "PnetCDF outperforms the original serial netCDF as the number
  // of processes increases."
  EXPECT_LT(ParallelTime(8, 0, true), SerialTime(true));
  EXPECT_LT(ParallelTime(8, 0, false), SerialTime(false));
}

TEST(PaperShape, BandwidthSaturatesNotExplodes) {
  // Fixed server pool: going 4 -> 16 procs helps less than 1 -> 4 (or not
  // at all), and never by more than the process ratio.
  const double t1 = ParallelTime(1, 0, true);
  const double t4 = ParallelTime(4, 0, true);
  const double t16 = ParallelTime(16, 0, true);
  EXPECT_LT(t4, t1);
  const double gain_early = t1 / t4;
  const double gain_late = t4 / t16;
  EXPECT_LT(gain_late, gain_early);
  EXPECT_GT(t16, t1 / 16.0);  // nowhere near linear scaling
}

TEST(PaperShape, ZPartitionNoWorseThanXPartition) {
  // "partitioning in the Z dimension generally performs better than in the
  // X dimension because of the different access contiguity."
  const double tz = ParallelTime(4, 0, false);
  const double tx = ParallelTime(4, 2, false);
  EXPECT_LE(tz, tx * 1.10);  // Z at least ties X (tolerance for variance)
}

TEST(PaperShape, CollectiveCushionsPartitionDifferences) {
  // "Because of collective I/O optimization, the performance difference made
  // by various access patterns is small" — under two-phase I/O the Z/X gap
  // must stay within a small factor, while with collective buffering off the
  // X partition collapses.
  const double tz = ParallelTime(4, 0, true);
  const double tx = ParallelTime(4, 2, true);
  EXPECT_LT(tx / tz, 2.0);
}

TEST(PaperShape, Fig6WriteScalesPastTwiceSerialProcess) {
  // Figure 6: aggregate write bandwidth keeps growing with the process
  // count until the fixed server pool saturates; 16 processes move the
  // 64 MiB array at least twice as fast as 1.
  const double t1 = ParallelTime(1, 0, true, kFig6Dims);
  const double t16 = ParallelTime(16, 0, true, kFig6Dims);
  EXPECT_GE(t1 / t16, 2.0) << "1 proc " << t1 << " ns, 16 procs " << t16;
}

/// Aggregate MB/s of a FLASH 8^3 checkpoint on the Figure 7 platform.
double FlashCheckpointMBps(int nprocs, bool use_pnetcdf) {
  pfs::Config pcfg = bench::AsciFrost();
  pcfg.discard_data = true;
  pfs::FileSystem fs(pcfg);
  const flashio::FlashConfig cfg;  // 8^3 blocks, 80 per process
  const double bytes = static_cast<double>(
      flashio::BytesPerProc(cfg, flashio::FileKind::kCheckpoint) *
      static_cast<std::uint64_t>(nprocs));
  double mbps = 0.0;
  simmpi::Run(
      nprocs,
      [&](Comm& c) {
        const flashio::FlashData data(cfg, c.rank());
        c.SyncClocksToMax();
        const double t0 = c.clock().now();
        const auto kind = flashio::FileKind::kCheckpoint;
        ASSERT_TRUE((use_pnetcdf ? flashio::WriteFlashPnetcdf(
                                       c, fs, "f.out", data, kind,
                                       simmpi::NullInfo())
                                 : flashio::WriteFlashHdf5lite(
                                       c, fs, "f.out", data, kind,
                                       simmpi::NullInfo()))
                        .ok());
        c.SyncClocksToMax();
        if (c.rank() == 0) mbps = bytes / (c.clock().now() - t0) * 1e3;
      },
      bench::Sp2Cost());
  return mbps;
}

TEST(PaperShape, Fig7PnetcdfMoreThanDoublesHdf5) {
  // Figure 7: on the FLASH checkpoint "PnetCDF ... more than doubles" the
  // parallel HDF5 bandwidth.
  for (const int np : {4, 16}) {
    const double pnc = FlashCheckpointMBps(np, true);
    const double h5 = FlashCheckpointMBps(np, false);
    EXPECT_GE(pnc, 2.0 * h5) << np << " procs: PnetCDF " << pnc
                             << " MB/s, hdf5lite " << h5 << " MB/s";
  }
}

}  // namespace
