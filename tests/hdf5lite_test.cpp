// Tests for the hdf5lite baseline library: file format round trips,
// collective dataset lifecycle, hyperslab selections with guard cells, and
// the structural overhead properties the paper attributes to HDF5.
#include "hdf5lite/h5file.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "simmpi/runtime.hpp"

namespace hdf5lite {
namespace {

using simmpi::Comm;

TEST(Lifecycle, CreateWriteReadBack) {
  pfs::FileSystem fs;
  simmpi::Run(4, [&](Comm& c) {
    auto f = File::Create(c, fs, "a.h5l", simmpi::NullInfo()).value();
    const std::uint64_t dims[] = {8, 4};
    auto ds = f.CreateDataset("temps", NcType::kDouble, dims).value();
    // Each rank writes 2 rows.
    const std::uint64_t st[] = {2 * static_cast<std::uint64_t>(c.rank()), 0};
    const std::uint64_t ct[] = {2, 4};
    std::vector<double> mine(8);
    std::iota(mine.begin(), mine.end(), 10.0 * c.rank());
    ASSERT_TRUE(ds.Write(st, ct, mine.data()).ok());
    ASSERT_TRUE(ds.Close().ok());
    ASSERT_TRUE(f.Close().ok());

    // Reopen and read everything back.
    auto f2 = File::Open(c, fs, "a.h5l", false, simmpi::NullInfo()).value();
    auto ds2 = f2.OpenDataset("temps").value();
    EXPECT_EQ(ds2.type(), NcType::kDouble);
    EXPECT_EQ(ds2.dims(), (std::vector<std::uint64_t>{8, 4}));
    std::vector<double> back(8);
    ASSERT_TRUE(ds2.Read(st, ct, back.data()).ok());
    EXPECT_EQ(back, mine);
    ASSERT_TRUE(ds2.Close().ok());
    ASSERT_TRUE(f2.Close().ok());
  });
}

TEST(Namespace, MultipleDatasetsListedInOrder) {
  pfs::FileSystem fs;
  simmpi::Run(2, [&](Comm& c) {
    auto f = File::Create(c, fs, "multi.h5l", simmpi::NullInfo()).value();
    const std::uint64_t dims[] = {4};
    for (const char* n : {"dens", "pres", "velx"}) {
      auto ds = f.CreateDataset(n, NcType::kFloat, dims).value();
      ASSERT_TRUE(ds.Close().ok());
    }
    auto names = f.ListDatasets().value();
    EXPECT_EQ(names, (std::vector<std::string>{"dens", "pres", "velx"}));
    // Duplicate creation rejected on all ranks.
    EXPECT_EQ(f.CreateDataset("dens", NcType::kFloat, dims).status().code(),
              pnc::Err::kNameInUse);
    // Missing dataset rejected on all ranks.
    EXPECT_EQ(f.OpenDataset("nope").status().code(), pnc::Err::kNotVar);
    ASSERT_TRUE(f.Close().ok());
  });
}

TEST(Hyperslab, GuardCellsExcluded) {
  // FLASH-style: memory is (nz+2g, ny+2g, nx+2g) with the interior at
  // offset g; only the interior lands in the file.
  pfs::FileSystem fs;
  simmpi::Run(1, [&](Comm& c) {
    auto f = File::Create(c, fs, "gc.h5l", simmpi::NullInfo()).value();
    const std::uint64_t g = 2, n = 4;
    const std::uint64_t dims[] = {n, n, n};
    auto ds = f.CreateDataset("u", NcType::kInt, dims).value();

    const std::uint64_t mdim = n + 2 * g;
    std::vector<std::int32_t> mem(mdim * mdim * mdim, -1);
    for (std::uint64_t z = 0; z < n; ++z)
      for (std::uint64_t y = 0; y < n; ++y)
        for (std::uint64_t x = 0; x < n; ++x)
          mem[((z + g) * mdim + y + g) * mdim + x + g] =
              static_cast<std::int32_t>((z * n + y) * n + x);

    const std::uint64_t st[] = {0, 0, 0};
    const std::uint64_t ct[] = {n, n, n};
    const std::uint64_t mdims[] = {mdim, mdim, mdim};
    const std::uint64_t mst[] = {g, g, g};
    ASSERT_TRUE(ds.Write(st, ct, mem.data(), mdims, mst).ok());

    std::vector<std::int32_t> flat(n * n * n);
    ASSERT_TRUE(ds.Read(st, ct, flat.data()).ok());
    for (std::size_t i = 0; i < flat.size(); ++i)
      EXPECT_EQ(flat[i], static_cast<std::int32_t>(i));

    // Read back into a guarded buffer: guards must stay untouched.
    std::vector<std::int32_t> mem2(mdim * mdim * mdim, -9);
    ASSERT_TRUE(ds.Read(st, ct, mem2.data(), mdims, mst).ok());
    EXPECT_EQ(mem2[0], -9);
    EXPECT_EQ(mem2[((g)*mdim + g) * mdim + g], 0);
    ASSERT_TRUE(ds.Close().ok());
    ASSERT_TRUE(f.Close().ok());
  });
}

TEST(Hyperslab, BoundsChecked) {
  pfs::FileSystem fs;
  simmpi::Run(1, [&](Comm& c) {
    auto f = File::Create(c, fs, "b.h5l", simmpi::NullInfo()).value();
    const std::uint64_t dims[] = {4, 4};
    auto ds = f.CreateDataset("d", NcType::kInt, dims).value();
    std::vector<std::int32_t> buf(16);
    const std::uint64_t st[] = {2, 0};
    const std::uint64_t ct[] = {3, 4};
    EXPECT_EQ(ds.Write(st, ct, buf.data()).code(), pnc::Err::kEdge);
    EXPECT_EQ(f.CreateDataset("r0", NcType::kInt, {}).status().code(),
              pnc::Err::kInvalidArg);
    ASSERT_TRUE(f.Close().ok());
  });
}

TEST(Parallel, DisjointBlockWritesCompose) {
  // The FLASH checkpoint pattern: dataset (nblocks, nz, ny, nx); rank r owns
  // a contiguous block range.
  pfs::FileSystem fs;
  const int nprocs = 4;
  const std::uint64_t bpp = 3, n = 4;
  simmpi::Run(nprocs, [&](Comm& c) {
    auto f = File::Create(c, fs, "fl.h5l", simmpi::NullInfo()).value();
    const std::uint64_t dims[] = {bpp * nprocs, n, n, n};
    auto ds = f.CreateDataset("dens", NcType::kDouble, dims).value();
    const std::uint64_t st[] = {bpp * static_cast<std::uint64_t>(c.rank()), 0,
                                0, 0};
    const std::uint64_t ct[] = {bpp, n, n, n};
    std::vector<double> mine(bpp * n * n * n);
    std::iota(mine.begin(), mine.end(),
              1000.0 * static_cast<double>(c.rank()));
    ASSERT_TRUE(ds.Write(st, ct, mine.data()).ok());
    ASSERT_TRUE(ds.Close().ok());
    ASSERT_TRUE(f.Close().ok());
  });
  // Serial verification.
  simmpi::Run(1, [&](Comm& c) {
    auto f = File::Open(c, fs, "fl.h5l", false, simmpi::NullInfo()).value();
    auto ds = f.OpenDataset("dens").value();
    const std::uint64_t st[] = {0, 0, 0, 0};
    const std::uint64_t ct[] = {bpp * nprocs, n, n, n};
    std::vector<double> all(bpp * nprocs * n * n * n);
    ASSERT_TRUE(ds.Read(st, ct, all.data()).ok());
    const std::uint64_t per = bpp * n * n * n;
    for (std::uint64_t r = 0; r < nprocs; ++r)
      for (std::uint64_t i = 0; i < per; ++i)
        EXPECT_EQ(all[r * per + i], 1000.0 * static_cast<double>(r) +
                                        static_cast<double>(i));
    ASSERT_TRUE(ds.Close().ok());
    ASSERT_TRUE(f.Close().ok());
  });
}

TEST(Overhead, PerDatasetCollectivesCostMoreThanPnetcdfStyle) {
  // Structural property: creating N datasets costs N root header writes +
  // N broadcasts + N barriers; the virtual clock must grow superlinearly
  // with dataset count relative to a single create.
  pfs::FileSystem fs;
  double t1 = 0.0, t8 = 0.0;
  for (const int nds : {1, 8}) {
    fs.ResetTime();
    auto res = simmpi::Run(8, [&](Comm& c) {
      auto f = File::Create(c, fs,
                            "ov" + std::to_string(nds) + ".h5l",
                            simmpi::NullInfo())
                   .value();
      const std::uint64_t dims[] = {16};
      for (int i = 0; i < nds; ++i) {
        auto ds =
            f.CreateDataset(std::string("v").append(std::to_string(i)), NcType::kInt, dims)
                .value();
        ASSERT_TRUE(ds.Close().ok());
      }
      ASSERT_TRUE(f.Close().ok());
    });
    (nds == 1 ? t1 : t8) = res.max_time_ns;
  }
  EXPECT_GT(t8, 2.0 * t1);
}

TEST(Overhead, WriteTouchesMetadata) {
  // Every write bumps the object header's modification count on disk.
  pfs::FileSystem fs;
  simmpi::Run(2, [&](Comm& c) {
    auto f = File::Create(c, fs, "meta.h5l", simmpi::NullInfo()).value();
    const std::uint64_t dims[] = {8};
    auto ds = f.CreateDataset("v", NcType::kInt, dims).value();
    c.Barrier();
    const auto before = fs.stats().write_requests;
    c.Barrier();  // no rank may write until every rank captured `before`
    const std::uint64_t st[] = {4 * static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t ct[] = {4};
    std::vector<std::int32_t> d{1, 2, 3, 4};
    ASSERT_TRUE(ds.Write(st, ct, d.data()).ok());
    c.Barrier();
    // 2 data writes (one per rank) + at least 1 metadata write from rank 0.
    if (c.rank() == 0) {
      EXPECT_GT(fs.stats().write_requests, before + 2);
    }
    ASSERT_TRUE(ds.Close().ok());
    ASSERT_TRUE(f.Close().ok());
  });
}

TEST(Format, OpenRejectsGarbage) {
  pfs::FileSystem fs;
  {
    auto f = fs.Create("junk", false).value();
    std::vector<std::byte> j(256, std::byte{0x11});
    f.HarnessWrite(0, j, 0.0);
  }
  simmpi::Run(2, [&](Comm& c) {
    auto r = File::Open(c, fs, "junk", false, simmpi::NullInfo());
    EXPECT_FALSE(r.ok());
  });
}

}  // namespace
}  // namespace hdf5lite
