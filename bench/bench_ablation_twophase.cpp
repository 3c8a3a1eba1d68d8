// Ablation: two-phase collective buffering on/off (romio_cb_write), across
// partition patterns of increasing interleaving. Two-phase I/O is the §2/
// §4.1 optimization PnetCDF inherits from ROMIO; the win should grow with
// how finely the ranks' file regions interleave (Z coarsest, X finest).
#include <cstdio>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/platforms.hpp"
#include "bench/registry.hpp"
#include "pnetcdf/dataset.hpp"
#include "simmpi/runtime.hpp"

namespace {

double RunOne(unsigned mask, bool cb_enabled, const bench::Args& args) {
  pfs::Config pcfg = bench::SdscBlueHorizon();
  pcfg.discard_data = true;
  pfs::FileSystem fs(pcfg);
  const int nprocs = 8;
  const std::uint64_t kZ = 128, kY = 64, kX = 64;
  double ms = 0.0;

  simmpi::Run(
      nprocs,
      [&](simmpi::Comm& comm) {
        simmpi::Info info;
        info.Set("romio_cb_write", cb_enabled ? "enable" : "disable");
        bench::ApplyHintOverrides(args, info);
        auto ds = pnetcdf::Dataset::Create(comm, fs, "t.nc", info).value();
        const int zd = ds.DefDim("z", kZ).value();
        const int yd = ds.DefDim("y", kY).value();
        const int xd = ds.DefDim("x", kX).value();
        const int v =
            ds.DefVar("u", ncformat::NcType::kDouble, {zd, yd, xd}).value();
        (void)ds.EndDef();

        const std::uint64_t dims[3] = {kZ, kY, kX};
        const bench::Block b = bench::RankBlock(nprocs, mask, comm.rank(), dims);
        std::vector<double> mine(b.elems(), 1.0);

        comm.SyncClocksToMax();
        const double t0 = comm.clock().now();
        (void)ds.PutVaraAll<double>(v, b.start, b.count, mine);
        comm.SyncClocksToMax();
        if (comm.rank() == 0) ms = (comm.clock().now() - t0) / 1e6;
        (void)ds.Close();
      },
      bench::Sp2Cost());
  return ms;
}

int Run(const bench::Args& args, bench::Recorder& rec) {
  const std::string cb = args.Get("cb", "both");
  std::printf("Ablation: two-phase collective buffering (romio_cb_write)\n");
  std::printf("4 MB write of u(128,64,64) doubles on 8 procs, by partition\n\n");
  std::printf("%-10s %14s %14s %9s\n", "partition", "two-phase(ms)",
              "disabled(ms)", "speedup");
  for (const auto& p : bench::kPartitions) {
    const auto config = [&p](const char* mode) {
      return bench::JsonObj().Str("partition", p.name).Str("cb_write", mode);
    };
    double on = 0.0, off = 0.0;
    if (cb == "enable" || cb == "both") {
      rec.BeginConfig();
      on = RunOne(p.mask, true, args);
      rec.EndConfig(config("enable"), bench::JsonObj().Num("ms", on));
    }
    if (cb == "disable" || cb == "both") {
      rec.BeginConfig();
      off = RunOne(p.mask, false, args);
      rec.EndConfig(config("disable"), bench::JsonObj().Num("ms", off));
    }
    std::printf("%-10s %14.2f %14.2f %8.2fx\n", p.name, on, off,
                on > 0 ? off / on : 0.0);
  }
  std::printf("\nThe win grows with interleaving (X-heavy partitions), the "
              "paper's reason to\nfunnel netCDF access patterns into "
              "MPI-IO collectives.\n");
  return 0;
}

const bench::BenchDef kBench{
    "ablation_twophase",
    "two-phase collective buffering on/off across partition interleavings",
    {"cb"},
    Run};

}  // namespace

BENCH_REGISTER(kBench)
