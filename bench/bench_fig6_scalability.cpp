// Figure 6 reproduction: serial vs parallel netCDF scalability.
//
// The LBL test code (§5.1): read/write a three-dimensional array field
// tt(Z,Y,X) from/into a single netCDF file, partitioned along Z, Y, X, ZY,
// ZX, YX and ZYX (Figure 5), on an SDSC Blue Horizon-like platform with 12
// I/O servers. The first column of each chart is the serial netCDF library
// accessing the whole array through one process; the remaining columns are
// PnetCDF with collective I/O.
//
// Usage: bench_fig6_scalability [--size=64mb|1gb|all] [--op=read|write|all]
//                               [--procs=1,2,4,8,16] [--quick]
//                               [--hints=k=v,...] [--json=BENCH_fig6.json]
#include <atomic>
#include <cstdio>
#include <numeric>

#include "bench/bench_common.hpp"
#include "bench/platforms.hpp"
#include "bench/registry.hpp"
#include "netcdf/dataset.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"

namespace {

using bench::Args;
using bench::kPartitions;
using bench::MBps;

struct Case {
  const char* label;
  std::uint64_t z, y, x;
  std::vector<int> procs;
};

/// Serial netCDF baseline: one process reads/writes the whole array through
/// the serial library (in Z-slabs, as the original Fortran test code does).
/// A failed run reports its status instead of a bandwidth.
pnc::Result<double> RunSerial(const Case& cse, bool is_write) {
  pfs::Config pcfg = bench::SdscBlueHorizon();
  pcfg.discard_data = true;
  pfs::FileSystem fs(pcfg);
  const std::uint64_t total_bytes = cse.z * cse.y * cse.x * 8;

  auto ds = netcdf::Dataset::Create(fs, "tt.nc").value();
  const int zd = ds.DefDim("level", cse.z).value();
  const int yd = ds.DefDim("latitude", cse.y).value();
  const int xd = ds.DefDim("longitude", cse.x).value();
  const int v = ds.DefVar("tt", ncformat::NcType::kDouble, {zd, yd, xd}).value();
  PNC_RETURN_IF_ERROR(ds.EndDef());

  const std::uint64_t slabs = std::min<std::uint64_t>(cse.z, 8);
  const std::uint64_t zper = cse.z / slabs;
  std::vector<double> buf(zper * cse.y * cse.x, 1.5);

  if (is_write) {  // populate before timing reads, too
    const double t0 = ds.clock().now();
    for (std::uint64_t s = 0; s < slabs; ++s) {
      const std::uint64_t st[] = {s * zper, 0, 0};
      const std::uint64_t ct[] = {zper, cse.y, cse.x};
      PNC_RETURN_IF_ERROR(ds.PutVara<double>(v, st, ct, buf));
    }
    PNC_RETURN_IF_ERROR(ds.Sync());
    return MBps(total_bytes, ds.clock().now() - t0);
  }
  // Read benchmark: file contents already "exist" (sizes known); time reads.
  const double t0 = ds.clock().now();
  for (std::uint64_t s = 0; s < slabs; ++s) {
    const std::uint64_t st[] = {s * zper, 0, 0};
    const std::uint64_t ct[] = {zper, cse.y, cse.x};
    PNC_RETURN_IF_ERROR(ds.GetVara<double>(v, st, ct, buf));
  }
  return MBps(total_bytes, ds.clock().now() - t0);
}

/// PnetCDF collective access with the given partition. Bandwidth counts
/// the bytes the ranks' blocks cover; a failed run reports the first
/// failing rank's status instead.
pnc::Result<double> RunParallel(const Case& cse, unsigned mask, int nprocs,
                                bool is_write, const simmpi::Info& info) {
  pfs::Config pcfg = bench::SdscBlueHorizon();
  pcfg.discard_data = true;
  pfs::FileSystem fs(pcfg);
  const std::uint64_t dims[3] = {cse.z, cse.y, cse.x};
  const std::uint64_t covered_bytes =
      bench::CoveredElems(nprocs, mask, dims) * 8;
  double bw = 0.0;
  std::atomic<int> err{0};
  const auto fail = [&err](const pnc::Status& st) {
    int none = 0;
    err.compare_exchange_strong(none, st.raw());
  };

  simmpi::Run(
      nprocs,
      [&](simmpi::Comm& comm) {
        auto ds = pnetcdf::Dataset::Create(comm, fs, "tt.nc", info).value();
        const int zd = ds.DefDim("level", cse.z).value();
        const int yd = ds.DefDim("latitude", cse.y).value();
        const int xd = ds.DefDim("longitude", cse.x).value();
        const int v =
            ds.DefVar("tt", ncformat::NcType::kDouble, {zd, yd, xd}).value();
        pnc::Status st = ds.EndDef();
        if (!st.ok()) return fail(st);

        const bench::Block b = bench::RankBlock(nprocs, mask, comm.rank(), dims);
        std::vector<double> mine(b.elems(), 2.5);

        comm.SyncClocksToMax();
        const double t0 = comm.clock().now();
        if (is_write) {
          st = ds.PutVaraAll<double>(v, b.start, b.count, mine);
          if (st.ok()) st = ds.Sync();
        } else {
          st = ds.GetVaraAll<double>(v, b.start, b.count, mine);
        }
        if (!st.ok()) return fail(st);
        comm.SyncClocksToMax();
        if (comm.rank() == 0)
          bw = MBps(covered_bytes, comm.clock().now() - t0);
        (void)ds.Close();
      },
      bench::Sp2Cost());
  if (err.load() != 0)
    return pnc::Status(static_cast<pnc::Err>(err.load()), "fig6 run");
  return bw;
}

/// One chart; a failed run stops the sweep with its status (nonzero).
int RunChart(const Case& cse, bool is_write, bench::Recorder& rec,
             const simmpi::Info& info) {
  std::printf("\n=== Figure 6: %s %s ===\n", is_write ? "Write" : "Read",
              cse.label);
  std::printf("(bandwidth in MB/s; first column is the serial netCDF "
              "library on 1 processor)\n");
  std::printf("%-8s %10s", "nprocs", "serial");
  for (const auto& p : kPartitions) std::printf(" %9s", p.name);
  std::printf("\n");

  const char* op = is_write ? "write" : "read";
  const auto failed = [](const pnc::Status& st, const char* what, int np) {
    std::fprintf(stderr, "\nfig6: %s run at %d procs failed: %s (%d)\n",
                 what, np, st.message().c_str(), st.raw());
    return 1;
  };
  rec.BeginConfig();
  const auto serial = RunSerial(cse, is_write);
  if (!serial.ok()) return failed(serial.status(), "serial", 1);
  const double serial_bw = serial.value();
  rec.EndConfig(bench::JsonObj()
                    .Str("op", op)
                    .Str("case", cse.label)
                    .Str("partition", "serial")
                    .Int("nprocs", 1),
                bench::JsonObj().Num("mbps", serial_bw));
  bool first = true;
  for (int np : cse.procs) {
    if (first) {
      std::printf("%-8d %10.1f", np, serial_bw);
    } else {
      std::printf("%-8d %10s", np, "-");
    }
    for (const auto& p : kPartitions) {
      rec.BeginConfig();
      const auto run = RunParallel(cse, p.mask, np, is_write, info);
      if (!run.ok()) return failed(run.status(), p.name, np);
      const double bw = run.value();
      rec.EndConfig(bench::JsonObj()
                        .Str("op", op)
                        .Str("case", cse.label)
                        .Str("partition", p.name)
                        .Int("nprocs", static_cast<std::uint64_t>(np)),
                    bench::JsonObj().Num("mbps", bw));
      std::printf(" %9.1f", bw);
    }
    std::printf("\n");
    first = false;
  }
  std::fflush(stdout);
  return 0;
}

int Run(const Args& args, bench::Recorder& rec) {
  const std::string size = args.Get("size", "all");
  const std::string op = args.Get("op", "all");
  const bool quick = args.Has("quick");
  simmpi::Info info;
  bench::ApplyHintOverrides(args, info);

  // 64 MB: 256 x 256 x 128 doubles; 1 GB: 512^3 doubles (as in §5.1 the
  // most significant dimension is Z = level, least significant X =
  // longitude).
  std::vector<Case> cases;
  if (size == "64mb" || size == "all")
    cases.push_back({"64 MB (tt 256x256x128, double)", 256, 256, 128,
                     bench::ProcsList(args, quick ? std::vector<int>{1, 4, 16}
                                                  : std::vector<int>{1, 2, 4,
                                                                     8, 16})});
  if (size == "1gb" || size == "all")
    cases.push_back({"1 GB (tt 512x512x512, double)", 512, 512, 512,
                     bench::ProcsList(args, quick
                                                ? std::vector<int>{1, 16}
                                                : std::vector<int>{1, 4, 16,
                                                                   32})});

  std::printf("PnetCDF reproduction - Figure 6 scalability benchmark\n");
  std::printf("Platform: SDSC Blue Horizon-like (12 I/O servers, GPFS-style "
              "striping)\n");
  for (const auto& cse : cases) {
    if (op == "write" || op == "all")
      if (const int rc = RunChart(cse, /*is_write=*/true, rec, info); rc != 0)
        return rc;
    if (op == "read" || op == "all")
      if (const int rc = RunChart(cse, /*is_write=*/false, rec, info); rc != 0)
        return rc;
  }
  return 0;
}

const bench::BenchDef kBench{
    "fig6_scalability",
    "Figure 6: serial vs parallel netCDF scalability (LBL tt(Z,Y,X) sweep)",
    {"size", "op", "procs", "quick"},
    Run};

}  // namespace

BENCH_REGISTER(kBench)
