// The probe record folds into every sink exactly as the per-sink hooks it
// replaced did.
//
// One fixed workload — 4 ranks writing one variable through PnetCDF on a
// single pfs server (so one aggregator and a deterministic server schedule),
// with the timeline sink switched on — touches every kind of probe site the
// data path has: API-boundary accesses, mode switches, two-phase exchange
// and aggregation, independent sieved writes, a nonblocking batch, pfs
// grants and flushes. Its outputs are compared byte for byte against
// goldens recorded before the per-sink hooks were folded into one probe:
//
//   tests/data/probe_report.json  pnc-iostat-v1: counters, pattern, timeline
//   tests/data/probe_events.json  pnc-events-v1: every rank's flight ring
//
// The workload runs in its own test binary so per-rank request IDs start
// from 1, as they did when the goldens were recorded.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "iostat/events.hpp"
#include "iostat/iostat.hpp"
#include "iostat/report.hpp"
#include "iostat/timeline.hpp"
#include "pnetcdf/dataset.hpp"
#include "pnetcdf/nonblocking.hpp"
#include "simmpi/runtime.hpp"

namespace {

using ncformat::NcType;
using simmpi::Comm;

constexpr int kRanks = 4;
constexpr std::uint64_t kShare = 16 << 10;  // bytes per rank per call

/// The workload. Leaves its results in the iostat sinks.
void RunProbeWorkload() {
  iostat::Registry::Get().Reset();
  iostat::TimelineRegistry::Get().SetEnabled(true);
  pfs::Config cfg;
  cfg.num_servers = 1;
  cfg.stripe_size = 64 << 10;
  pfs::FileSystem fs(cfg);
  simmpi::Run(kRanks, [&](Comm& c) {
    auto ds =
        pnetcdf::Dataset::Create(c, fs, "probe.nc", simmpi::NullInfo()).value();
    const int x = ds.DefDim("x", kRanks * kShare).value();
    const int v = ds.DefVar("d", NcType::kByte, {x}).value();
    const int w = ds.DefVar("e", NcType::kByte, {x}).value();
    ASSERT_TRUE(ds.EndDef().ok());
    const auto rank = static_cast<std::uint64_t>(c.rank());
    std::vector<signed char> mine(kShare, static_cast<signed char>(rank));

    // Collective: one contiguous share per rank (two-phase).
    const std::uint64_t st[] = {rank * kShare};
    const std::uint64_t ct[] = {kShare};
    ASSERT_TRUE(ds.PutVaraAll<signed char>(v, st, ct, mine).ok());

    // Independent: one rank's strided write (data sieving with holes). A
    // single writer keeps the server schedule independent of thread timing.
    ASSERT_TRUE(ds.BeginIndepData().ok());
    if (rank == 0) {
      const std::uint64_t sst[] = {0}, sct[] = {kShare}, sstr[] = {kRanks};
      ASSERT_TRUE(ds.PutVars<signed char>(w, sst, sct, sstr, mine).ok());
    }
    ASSERT_TRUE(ds.EndIndepData().ok());

    // Nonblocking: two puts coalesced into one batch at WaitAll.
    pnetcdf::NonblockingQueue q(ds);
    const std::uint64_t half = kShare / 2;
    const std::uint64_t b0[] = {rank * kShare}, b1[] = {rank * kShare + half};
    const std::uint64_t bc[] = {half};
    const std::span<const signed char> m(mine);
    ASSERT_TRUE(q.IputVara<signed char>(v, b1, bc, m.first(half)).ok());
    ASSERT_TRUE(q.IputVara<signed char>(v, b0, bc, m.first(half)).ok());
    ASSERT_TRUE(q.WaitAll().ok());
    ASSERT_TRUE(ds.Close().ok());
  });
}

std::string ReadGolden(const char* name) {
  std::ifstream in(std::string(PNC_TEST_DATA_DIR) + "/" + name);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Probe, FourRankWorkloadMatchesPerSinkGoldens) {
#if !PNC_IOSTAT_ENABLED
  GTEST_SKIP() << "instrumentation compiled out (PNC_IOSTAT=OFF)";
#endif
  RunProbeWorkload();
  const iostat::Report rep = iostat::BuildReport();
  ASSERT_TRUE(rep.pattern.present);
  ASSERT_TRUE(rep.timeline.present);
  EXPECT_EQ(iostat::ToJson(rep) + "\n", ReadGolden("probe_report.json"));
  EXPECT_EQ(iostat::EventsToJson("probe") + "\n",
            ReadGolden("probe_events.json"));
}

}  // namespace
