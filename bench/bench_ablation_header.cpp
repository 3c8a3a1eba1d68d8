// Ablation: header handling (paper §4.3). PnetCDF keeps one header with all
// variable metadata, cached locally on every process after a single
// broadcast at open — inquiry and per-variable access cost no file I/O and
// no synchronization. The HDF5-style design disperses metadata in per-object
// header blocks and opens every object collectively, iterating the namespace
// with real file reads.
//
// This bench opens a file with a growing number of variables and then
// "touches" (locates) every variable once, measuring virtual time per open.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/platforms.hpp"
#include "bench/registry.hpp"
#include "hdf5lite/h5file.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"

namespace {

constexpr int kProcs = 8;

/// "v<i>", built by appending: GCC 12 flags `"v" + std::to_string(i)` with
/// a false-positive -Wrestrict at -O3.
std::string VarName(int v) { return std::string("v").append(std::to_string(v)); }

double PnetcdfTouchAll(int nvars, const simmpi::Info& info) {
  pfs::Config pcfg = bench::AsciFrost();
  pfs::FileSystem fs(pcfg);
  double ms = 0.0;
  simmpi::Run(
      kProcs,
      [&](simmpi::Comm& comm) {
        {
          auto ds = pnetcdf::Dataset::Create(comm, fs, "h.nc", info).value();
          const int xd = ds.DefDim("x", 16).value();
          for (int v = 0; v < nvars; ++v)
            (void)ds.DefVar(VarName(v), ncformat::NcType::kFloat, {xd});
          (void)ds.EndDef();
          (void)ds.Close();
        }
        auto ds = pnetcdf::Dataset::Open(comm, fs, "h.nc", false, info)
                      .value();
        comm.SyncClocksToMax();
        const double t0 = comm.clock().now();
        // Locate every variable: pure local-memory inquiry on the cached
        // header ("each array can be identified by its permanent ID and
        // accessed at any time by any process").
        long long checksum = 0;
        for (int v = 0; v < nvars; ++v)
          checksum += ds.VarId(VarName(v)).value();
        comm.SyncClocksToMax();
        if (comm.rank() == 0 && checksum >= 0)
          ms = (comm.clock().now() - t0) / 1e6;
        (void)ds.Close();
      },
      bench::Sp2Cost());
  return ms;
}

double Hdf5liteTouchAll(int nvars, const simmpi::Info& info) {
  pfs::Config pcfg = bench::AsciFrost();
  pfs::FileSystem fs(pcfg);
  double ms = 0.0;
  simmpi::Run(
      kProcs,
      [&](simmpi::Comm& comm) {
        {
          auto f = hdf5lite::File::Create(comm, fs, "h.h5l", info).value();
          const std::uint64_t dims[] = {16};
          for (int v = 0; v < nvars; ++v) {
            auto ds =
                f.CreateDataset(VarName(v), ncformat::NcType::kFloat, dims)
                    .value();
            (void)ds.Close();
          }
          (void)f.Close();
        }
        auto f = hdf5lite::File::Open(comm, fs, "h.h5l", false, info).value();
        comm.SyncClocksToMax();
        const double t0 = comm.clock().now();
        // Locate every dataset: collective opens with namespace iteration
        // and header-block file reads.
        for (int v = 0; v < nvars; ++v) {
          auto ds = f.OpenDataset(VarName(v)).value();
          (void)ds.Close();
        }
        comm.SyncClocksToMax();
        if (comm.rank() == 0) ms = (comm.clock().now() - t0) / 1e6;
        (void)f.Close();
      },
      bench::Sp2Cost());
  return ms;
}

int Run(const bench::Args& args, bench::Recorder& rec) {
  const std::string lib = args.Get("lib", "both");
  simmpi::Info info;
  bench::ApplyHintOverrides(args, info);
  std::printf("Ablation: header caching vs per-object collective opens\n");
  std::printf("locating every variable once, 8 processes\n\n");
  std::printf("%-8s %16s %18s\n", "nvars", "PnetCDF (ms)", "hdf5lite (ms)");
  for (int n : {4, 16, 64, 256}) {
    const auto config = [n](const char* l) {
      return bench::JsonObj()
          .Int("nvars", static_cast<std::uint64_t>(n))
          .Str("lib", l);
    };
    double pnc_ms = 0.0, h5_ms = 0.0;
    if (lib == "pnetcdf" || lib == "both") {
      rec.BeginConfig();
      pnc_ms = PnetcdfTouchAll(n, info);
      rec.EndConfig(config("pnetcdf"), bench::JsonObj().Num("ms", pnc_ms));
    }
    if (lib == "hdf5lite" || lib == "both") {
      rec.BeginConfig();
      h5_ms = Hdf5liteTouchAll(n, info);
      rec.EndConfig(config("hdf5lite"), bench::JsonObj().Num("ms", h5_ms));
    }
    std::printf("%-8d %16.3f %18.1f\n", n, pnc_ms, h5_ms);
  }
  std::printf("\nPnetCDF's cost is flat and essentially zero (local memory); "
              "the dispersed-\nmetadata design pays per-object file reads and "
              "synchronization, quadratic in\nthe namespace scan.\n");
  return 0;
}

const bench::BenchDef kBench{
    "ablation_header",
    "header caching vs per-object collective opens (nvars sweep)",
    {"lib"},
    Run};

}  // namespace

BENCH_REGISTER(kBench)
