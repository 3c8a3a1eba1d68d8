// Ablation: nonblocking request aggregation over record variables.
//
// Paper §4.2.2: "In some cases (for instance, in record variable access) the
// data is stored interleaved by record, and the contiguity information is
// lost ... we can collect multiple I/O requests over a number of record
// variables and optimize the file I/O over a large pool of data transfers,
// thereby producing more contiguous and larger transfers."
//
// Writing one record of NVAR record variables: per-variable collectives see
// only their own (record-interleaved, noncontiguous) slices; iput + wait_all
// merges them into whole-record contiguous spans.
#include <cstdio>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/platforms.hpp"
#include "bench/registry.hpp"
#include "pnetcdf/nonblocking.hpp"
#include "simmpi/runtime.hpp"

namespace {

struct Outcome {
  double ms = 0;
  std::uint64_t requests = 0;
};

Outcome RunOne(int nvars, bool aggregated, const simmpi::Info& info) {
  pfs::Config pcfg = bench::SdscBlueHorizon();
  pcfg.discard_data = true;
  pfs::FileSystem fs(pcfg);
  const int nprocs = 8;
  const std::uint64_t kX = 64 * 1024;  // 512 KB per variable per record
  Outcome out;

  simmpi::Run(
      nprocs,
      [&](simmpi::Comm& comm) {
        auto ds = pnetcdf::Dataset::Create(comm, fs, "nb.nc", info).value();
        const int t = ds.DefDim("time", pnetcdf::kUnlimited).value();
        const int x = ds.DefDim("x", kX).value();
        std::vector<int> vars;
        for (int v = 0; v < nvars; ++v)
          vars.push_back(
              ds.DefVar(std::string("r").append(std::to_string(v)),
                        ncformat::NcType::kDouble, {t, x})
                  .value());
        (void)ds.EndDef();
        fs.ResetStats();

        const std::uint64_t xper = kX / static_cast<std::uint64_t>(nprocs);
        const std::uint64_t start[] = {
            0, xper * static_cast<std::uint64_t>(comm.rank())};
        const std::uint64_t count[] = {1, xper};
        std::vector<std::vector<double>> bufs(
            static_cast<std::size_t>(nvars),
            std::vector<double>(xper, 1.0));

        comm.SyncClocksToMax();
        const double t0 = comm.clock().now();
        if (aggregated) {
          pnetcdf::NonblockingQueue q(ds);
          for (int v = 0; v < nvars; ++v)
            (void)q.IputVara<double>(vars[static_cast<std::size_t>(v)], start,
                                     count, bufs[static_cast<std::size_t>(v)]);
          (void)q.WaitAll();
        } else {
          for (int v = 0; v < nvars; ++v)
            (void)ds.PutVaraAll<double>(vars[static_cast<std::size_t>(v)],
                                        start, count,
                                        bufs[static_cast<std::size_t>(v)]);
        }
        comm.SyncClocksToMax();
        if (comm.rank() == 0) out.ms = (comm.clock().now() - t0) / 1e6;
        (void)ds.Close();
      },
      bench::Sp2Cost());
  out.requests = fs.stats().write_requests;
  return out;
}

int Run(const bench::Args& args, bench::Recorder& rec) {
  simmpi::Info info;
  bench::ApplyHintOverrides(args, info);
  std::printf("Ablation: nonblocking aggregation across record variables\n");
  std::printf("one record of N record variables (512 KB each), 8 procs\n\n");
  std::printf("%-8s | %14s %10s | %14s %10s | %8s\n", "nvars",
              "iput+waitall", "requests", "per-var colls", "requests",
              "speedup");
  for (int n : {2, 8, 24, 64}) {
    const auto config = [n](const char* mode) {
      return bench::JsonObj()
          .Int("nvars", static_cast<std::uint64_t>(n))
          .Str("mode", mode);
    };
    const auto metrics = [](const Outcome& o) {
      return bench::JsonObj().Num("ms", o.ms).Int("pfs_write_requests",
                                                  o.requests);
    };
    rec.BeginConfig();
    const Outcome agg = RunOne(n, true, info);
    rec.EndConfig(config("iput_waitall"), metrics(agg));
    rec.BeginConfig();
    const Outcome sep = RunOne(n, false, info);
    rec.EndConfig(config("per_var_collective"), metrics(sep));
    std::printf("%-8d | %14.2f %10llu | %14.2f %10llu | %7.2fx\n", n, agg.ms,
                static_cast<unsigned long long>(agg.requests), sep.ms,
                static_cast<unsigned long long>(sep.requests),
                agg.ms > 0 ? sep.ms / agg.ms : 0.0);
  }
  std::printf("\nAggregation recovers record-level contiguity that "
              "per-variable collectives\nlose to the interleaved record "
              "layout (Figure 1).\n");
  return 0;
}

const bench::BenchDef kBench{
    "ablation_nonblocking",
    "iput/wait_all aggregation vs per-variable collectives over records",
    {},
    Run};

}  // namespace

BENCH_REGISTER(kBench)
