// Tests for the nonblocking request-aggregation API: correctness of combined
// puts/gets across variables and records, request statuses, record growth,
// and the request-count collapse that motivates the interface (§4.2.2).
#include "pnetcdf/nonblocking.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "netcdf/dataset.hpp"
#include "simmpi/runtime.hpp"

namespace pnetcdf {
namespace {

using ncformat::NcType;
using simmpi::Comm;

TEST(Nonblocking, AggregatedPutsAcrossVariables) {
  pfs::FileSystem fs;
  simmpi::Run(4, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "nb.nc", simmpi::NullInfo()).value();
    const int x = ds.DefDim("x", 16).value();
    std::vector<int> vars;
    for (int v = 0; v < 6; ++v)
      vars.push_back(
          ds.DefVar(std::string("v").append(std::to_string(v)), NcType::kInt, {x}).value());
    ASSERT_TRUE(ds.EndDef().ok());

    NonblockingQueue q(ds);
    const std::uint64_t st[] = {4 * static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t ct[] = {4};
    std::vector<std::vector<std::int32_t>> bufs;
    for (int v = 0; v < 6; ++v) {
      std::vector<std::int32_t> b(4);
      for (int i = 0; i < 4; ++i)
        b[static_cast<std::size_t>(i)] = 100 * v + 10 * c.rank() + i;
      bufs.push_back(std::move(b));
      auto r = q.IputVara<std::int32_t>(vars[static_cast<std::size_t>(v)], st,
                                        ct, bufs.back());
      ASSERT_TRUE(r.ok());
    }
    EXPECT_EQ(q.pending(), 6u);
    std::vector<pnc::Status> sts;
    ASSERT_TRUE(q.WaitAll(&sts).ok());
    EXPECT_EQ(sts.size(), 6u);
    for (const auto& s : sts) EXPECT_TRUE(s.ok());
    EXPECT_EQ(q.pending(), 0u);
    ASSERT_TRUE(ds.Close().ok());
  });

  auto rd = netcdf::Dataset::Open(fs, "nb.nc", false).value();
  for (int v = 0; v < 6; ++v) {
    std::vector<std::int32_t> all(16);
    ASSERT_TRUE(rd.GetVar<std::int32_t>(v, all).ok());
    for (int i = 0; i < 16; ++i)
      EXPECT_EQ(all[static_cast<std::size_t>(i)], 100 * v + 10 * (i / 4) + i % 4);
  }
}

TEST(Nonblocking, AggregatedGetsDeliverConverted) {
  pfs::FileSystem fs;
  simmpi::Run(2, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "nbg.nc", simmpi::NullInfo()).value();
    const int x = ds.DefDim("x", 8).value();
    const int a = ds.DefVar("a", NcType::kShort, {x}).value();
    const int b = ds.DefVar("b", NcType::kDouble, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    std::vector<std::int16_t> av(8);
    std::iota(av.begin(), av.end(), std::int16_t{1});
    std::vector<double> bv(8);
    std::iota(bv.begin(), bv.end(), 100.0);
    ASSERT_TRUE(ds.PutVarAll<std::int16_t>(a, av).ok());
    ASSERT_TRUE(ds.PutVarAll<double>(b, bv).ok());

    NonblockingQueue q(ds);
    const std::uint64_t st[] = {4 * static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t ct[] = {4};
    std::vector<double> a_as_double(4);   // short -> double conversion
    std::vector<float> b_as_float(4);     // double -> float conversion
    ASSERT_TRUE(q.IgetVara<double>(a, st, ct, a_as_double).ok());
    ASSERT_TRUE(q.IgetVara<float>(b, st, ct, b_as_float).ok());
    ASSERT_TRUE(q.WaitAll().ok());
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(a_as_double[static_cast<std::size_t>(i)],
                static_cast<double>(4 * c.rank() + i + 1));
      EXPECT_EQ(b_as_float[static_cast<std::size_t>(i)],
                static_cast<float>(100 + 4 * c.rank() + i));
    }
    ASSERT_TRUE(ds.Close().ok());
  });
}

TEST(Nonblocking, MixedPutsAndGetsOneWait) {
  pfs::FileSystem fs;
  simmpi::Run(2, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "nbm.nc", simmpi::NullInfo()).value();
    const int x = ds.DefDim("x", 4).value();
    const int a = ds.DefVar("a", NcType::kInt, {x}).value();
    const int b = ds.DefVar("b", NcType::kInt, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    std::vector<std::int32_t> init{7, 7, 7, 7};
    ASSERT_TRUE(ds.PutVarAll<std::int32_t>(a, init).ok());

    NonblockingQueue q(ds);
    const std::uint64_t st[] = {2 * static_cast<std::uint64_t>(c.rank())};
    const std::uint64_t ct[] = {2};
    std::vector<std::int32_t> wr{c.rank(), c.rank() + 10};
    std::vector<std::int32_t> rd(2, -1);
    ASSERT_TRUE(q.IputVara<std::int32_t>(b, st, ct, wr).ok());
    ASSERT_TRUE(q.IgetVara<std::int32_t>(a, st, ct, rd).ok());
    std::vector<pnc::Status> sts;
    ASSERT_TRUE(q.WaitAll(&sts).ok());
    EXPECT_EQ(sts.size(), 2u);
    EXPECT_EQ(rd, (std::vector<std::int32_t>{7, 7}));
    ASSERT_TRUE(ds.Close().ok());
  });
}

TEST(Nonblocking, RecordVariablesAggregateAcrossRecords) {
  // The §4.2.2 scenario: many record variables, records interleaved in the
  // file; per-variable writes are noncontiguous, but one combined wait sees
  // whole records as contiguous spans.
  std::uint64_t reqs_combined = 0, reqs_separate = 0;
  for (const bool combined : {true, false}) {
    pfs::FileSystem run_fs;
    simmpi::Run(2, [&](Comm& c) {
      auto ds = Dataset::Create(c, run_fs, "nbr.nc", simmpi::NullInfo())
                    .value();
      const int t = ds.DefDim("t", kUnlimited).value();
      const int x = ds.DefDim("x", 8).value();
      std::vector<int> vars;
      for (int v = 0; v < 8; ++v)
        vars.push_back(ds.DefVar(std::string("r").append(std::to_string(v)), NcType::kDouble,
                                 {t, x})
                           .value());
      ASSERT_TRUE(ds.EndDef().ok());
      run_fs.ResetStats();

      const std::uint64_t st[] = {0, 4 * static_cast<std::uint64_t>(c.rank())};
      const std::uint64_t ct[] = {2, 4};
      std::vector<std::vector<double>> bufs;
      NonblockingQueue q(ds);
      for (int v = 0; v < 8; ++v) {
        std::vector<double> b(8, static_cast<double>(v) + 0.5);
        bufs.push_back(std::move(b));
        if (combined) {
          ASSERT_TRUE(q.IputVara<double>(vars[static_cast<std::size_t>(v)],
                                         st, ct, bufs.back())
                          .ok());
        } else {
          ASSERT_TRUE(ds.PutVaraAll<double>(vars[static_cast<std::size_t>(v)],
                                            st, ct, bufs.back())
                          .ok());
        }
      }
      if (combined) {
        ASSERT_TRUE(q.WaitAll().ok());
      }
      EXPECT_EQ(ds.numrecs(), 2u);
      ASSERT_TRUE(ds.Close().ok());

      // Validate content through collective reads.
      auto rd2 = Dataset::Open(c, run_fs, "nbr.nc", false, simmpi::NullInfo())
                     .value();
      std::vector<double> back(8);
      ASSERT_TRUE(rd2.GetVaraAll<double>(vars[3], st, ct, back).ok());
      for (double d : back) EXPECT_EQ(d, 3.5);
      ASSERT_TRUE(rd2.Close().ok());
    });
    (combined ? reqs_combined : reqs_separate) =
        run_fs.stats().write_requests;
  }
  // One combined collective must need far fewer file requests than eight
  // separate collectives over interleaved records.
  EXPECT_LT(reqs_combined, reqs_separate);
}

TEST(Nonblocking, PostTimeValidation) {
  pfs::FileSystem fs;
  simmpi::Run(1, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "nbv.nc", simmpi::NullInfo()).value();
    const int x = ds.DefDim("x", 4).value();
    const int v = ds.DefVar("a", NcType::kInt, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    NonblockingQueue q(ds);
    const std::uint64_t st[] = {3};
    const std::uint64_t ct[] = {4};
    std::vector<std::int32_t> d(4);
    EXPECT_EQ(q.IputVara<std::int32_t>(v, st, ct, d).status().code(),
              pnc::Err::kEdge);
    EXPECT_EQ(q.IgetVara<std::int32_t>(9, st, ct, d).status().code(),
              pnc::Err::kNotVar);
    EXPECT_EQ(q.pending(), 0u);
    // Empty WaitAll is legal and collective-safe.
    EXPECT_TRUE(q.WaitAll().ok());
    ASSERT_TRUE(ds.Close().ok());
  });
}

TEST(Nonblocking, PutBufferReusableAfterPost) {
  pfs::FileSystem fs;
  simmpi::Run(1, [&](Comm& c) {
    auto ds = Dataset::Create(c, fs, "nbb.nc", simmpi::NullInfo()).value();
    const int x = ds.DefDim("x", 2).value();
    const int v = ds.DefVar("a", NcType::kInt, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    NonblockingQueue q(ds);
    std::vector<std::int32_t> buf{1, 2};
    const std::uint64_t st[] = {0};
    const std::uint64_t ct[] = {2};
    ASSERT_TRUE(q.IputVara<std::int32_t>(v, st, ct, buf).ok());
    buf[0] = 999;  // data was captured at post time
    ASSERT_TRUE(q.WaitAll().ok());
    std::vector<std::int32_t> back(2);
    ASSERT_TRUE(ds.GetVarAll<std::int32_t>(v, back).ok());
    EXPECT_EQ(back, (std::vector<std::int32_t>{1, 2}));
    ASSERT_TRUE(ds.Close().ok());
  });
}

}  // namespace
}  // namespace pnetcdf
