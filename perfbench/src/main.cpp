// pncperf: runs the repository benchmark.
//
//   pncperf --workload lbl_write|lbl_read|flash_checkpoint --seed N
//           --seconds S --trace 0|1 [--out-dir DIR]
//
// Sets the workload up several times (setup_s is the median), measures the
// per-run baseline, then runs closed-loop iterations - whole cycles of the workload's labels, in a seeded order -
// until S seconds have passed. Every iteration is checked for correctness
// after its timed window.
//
// --trace 0 reports the end-to-end metrics and records no spans. --trace 1
// runs every scheduled iteration twice, untraced and traced (alternating
// which goes first), reports the per-layer metrics from the traced ones and
// the tracing overhead from the pairs, and writes the spans once at the end.
//
// The last line of stdout is the result object; the line before it holds
// the configuration and every per-iteration sample.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>

#include "bench.hpp"
#include "iostat/iostat.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

extern char** environ;

namespace perfbench {
namespace {

/// Set-ups per run; setup_s is their median. A set-up is the workload's
/// Setup() plus one untimed, checked warm-up iteration: the lazy
/// initialisation and first-touch cost the timed loop must not see belongs
/// to set-up, and it makes flash_checkpoint's set-up (well under a
/// millisecond of data generation on its own) long enough to time steadily.
constexpr int kSetupRuns = 3;
/// The tail percentile reported for iteration CPU time: the highest that
/// keeps ten samples beyond it on every workload (lbl_write, the slowest,
/// reaches about 45 iterations in a 30 s run).
constexpr double kTailQ = 0.75;
constexpr std::uint64_t kCrcWindow = 4ULL << 20;

/// Per-layer metrics and their units, in the order BENCHMARK.json lists
/// them. Each is produced on every workload; "vms" is virtual (cost-model)
/// milliseconds, "ms" host milliseconds. perfbench/README.md defines them.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"pnetcdf.define_host_ms", "ms"},
    {"pnetcdf.define_vms", "vms"},
    {"pnetcdf.data_host_ms", "ms"},
    {"pnetcdf.data_vms", "vms"},
    {"pnetcdf.flush_host_ms", "ms"},
    {"pnetcdf.flush_vms", "vms"},
    {"app.self_host_ms", "ms"},
    {"baseline.host_ms", "ms"},
    {"baseline.vmbps", "MB/s"},
    {"mpiio.exchange_vms", "vms"},
    {"mpiio.io_phase_vms", "vms"},
    {"mpiio.exchange_frac", "ratio"},
    {"mpiio.twophase_amplification", "ratio"},
    {"mpiio.exchange_msgs", "count"},
    {"mpiio.indep_ops", "count"},
    {"pfs.requests", "count"},
    {"pfs.bytes_per_request", "B"},
    {"pfs.bytes_per_payload_byte", "ratio"},
    {"pfs.read_per_written_byte", "ratio"},
    {"pfs.busy_frac", "ratio"},
    {"pfs.queue_wait_frac", "ratio"},
    {"pfs.queue_depth_max", "count"},
    {"format.sum_chunks_verified", "count"},
    {"format.header_bytes_written", "B"},
    {"util.crc32_ns_per_byte", "ns/B"},
    {"simmpi.msgs", "count"},
    {"simmpi.msg_bytes", "B"},
    {"simmpi.collectives", "count"},
    {"simmpi.skew_vms", "vms"},
    {"simmpi.run_overhead_host_ms", "ms"},
    {"verify.host_ms", "ms"},
    {"bench.trace_overhead_frac", "ratio"},
    {"bench.iter_wall_ms", "ms"},
};

struct Args {
  std::string workload, out_dir;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "pncperf: %s\nusage: pncperf --workload "
               "lbl_write|lbl_read|flash_checkpoint --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               why);
  return 2;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Sample RunChecked(Workload& wl, int iter, int label, Tracer* tracer) {
  const double t0 = HostNowNs();
  Sample s;
  try {
    s = wl.RunIteration(iter, label, tracer);
  } catch (const std::exception& e) {
    s = Sample{};
    s.iter = iter;
    s.error = std::string("exception: ") + e.what();
  }
  // Iteration wall time minus the timed run is what the checks (and the
  // baseline, where it runs per iteration) cost the loop.
  s.layer["verify.host_ms"] =
      (HostNowNs() - t0) / 1e6 - s.host_ms -
      (s.layer.count("baseline.host_ms") ? s.layer["baseline.host_ms"] : 0.0);
  return s;
}

std::string SampleJson(const Sample& s) {
  std::ostringstream o;
  o << "{\"iter\":" << s.iter << ",\"label\":\"" << s.label
    << "\",\"traced\":" << (s.traced ? "true" : "false")
    << ",\"ok\":" << (s.ok ? "true" : "false");
  if (s.ok)
    o << ",\"vmbps\":" << Num(s.vmbps())
      << ",\"vs_baseline\":" << Num(s.vs_baseline);
  else
    o << ",\"error\":\"" << pnc::json::Escape(s.error) << "\"";
  o << ",\"host_ms\":" << Num(s.host_ms) << ",\"cpu_ms\":" << Num(s.cpu_ms)
    << ",\"heap_mb\":" << Num(s.heap_mb) << "}";
  return o.str();
}

std::string Metric(const char* name, double value, const char* unit) {
  return std::string("\"") + name + "\":{\"value\":" + Num(value) +
         ",\"unit\":\"" + unit + "\"}";
}

int Main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atoi(v);
    else if (k == "--trace") a.trace = std::atoi(v);
    else if (k == "--out-dir") a.out_dir = v;
    else return Usage(("unknown flag " + k).c_str());
  }
  if (a.seconds <= 0 || (a.trace != 0 && a.trace != 1))
    return Usage("--seconds must be positive and --trace 0 or 1");

  // The benchmark measures the default configuration only.
  for (char** e = environ; *e != nullptr; ++e)
    if (std::strncmp(*e, "PNC_", 4) == 0) {
      std::fprintf(stderr,
                   "pncperf: refusing to run with %s set; the benchmark "
                   "measures the default configuration\n",
                   *e);
      return 2;
    }

  std::unique_ptr<Workload> wl;
  if (a.workload == "lbl_write") wl = MakeLblWrite();
  else if (a.workload == "lbl_read") wl = MakeLblRead();
  else if (a.workload == "flash_checkpoint") wl = MakeFlashCheckpoint();
  else return Usage("unknown workload");

  std::vector<double> setup_s, setup_wall_s;
  std::vector<Sample> samples;
  for (int i = 0; i < kSetupRuns; ++i) {
    const double t0 = HostNowNs();
    const double c0 = ProcessCpuMs();
    if (pnc::Status st = wl->Setup(a.seed); !st.ok()) {
      std::fprintf(stderr, "pncperf: set-up failed: %s\n",
                   st.message().c_str());
      return 1;
    }
    if (Sample warm = RunChecked(*wl, -1 - i, 0, nullptr); !warm.ok) {
      std::fprintf(stderr, "pncperf: warm-up iteration failed: %s\n",
                   warm.error.c_str());
      samples.push_back(std::move(warm));  // counted: the run is not correct
    }
    setup_s.push_back((ProcessCpuMs() - c0) / 1e3);
    setup_wall_s.push_back((HostNowNs() - t0) / 1e9);
  }

  Tracer tracer;
  Tracer* const tp = a.trace ? &tracer : nullptr;
  if (pnc::Status st = wl->MeasureBaseline(tp); !st.ok()) {
    std::fprintf(stderr, "pncperf: baseline failed: %s\n",
                 st.message().c_str());
    return 1;
  }

  const int nlabels = wl->CycleLength();

  pnc::SplitMix64 order_rng(a.seed ^ 0x5eed0fdeULL);
  std::vector<int> order(static_cast<std::size_t>(nlabels));
  std::vector<double> pair_untraced, pair_traced;
  int iter = 0;
  const double t_start = HostNowNs();
  do {  // whole cycles, so every label is covered equally
    std::iota(order.begin(), order.end(), 0);
    for (int i = nlabels - 1; i > 0; --i)
      std::swap(order[static_cast<std::size_t>(i)],
                order[order_rng.Below(static_cast<std::uint64_t>(i) + 1)]);
    for (const int label : order) {
      if (!a.trace) {
        samples.push_back(RunChecked(*wl, iter++, label, nullptr));
        continue;
      }
      const bool traced_first = iter % 2 == 1;
      for (int k = 0; k < 2; ++k) {
        const bool traced = (k == 0) == traced_first;
        if (traced) tracer.BeginIteration(iter);
        Sample s = RunChecked(*wl, iter, label, traced ? tp : nullptr);
        if (traced && s.ok) {
          const pnc::ConstByteSpan p = wl->CrcPayload();
          const std::uint64_t win = std::min<std::uint64_t>(kCrcWindow, p.size());
          const std::uint64_t off =
              (static_cast<std::uint64_t>(iter) * win) % (p.size() - win + 1);
          s.layer["util.crc32_ns_per_byte"] = TimeCrc32(p.subspan(off, win));
        }
        if (s.ok) (traced ? pair_traced : pair_untraced).push_back(s.host_ms);
        samples.push_back(std::move(s));
      }
      ++iter;
    }
  } while ((HostNowNs() - t_start) / 1e9 < a.seconds);
  const double measured_s = (HostNowNs() - t_start) / 1e9;

  std::vector<const Sample*> good;
  int failed = 0;
  for (const Sample& s : samples) {
    if (s.ok) good.push_back(&s);
    else ++failed;
  }
  const int attempted = static_cast<int>(samples.size());

  // Per-iteration samples and configuration (the line before the result).
  std::ostringstream detail;
  detail << "{\"schema\":\"pncperf-run-v1\",\"workload\":\"" << a.workload
         << "\",\"seed\":" << a.seed << ",\"seconds\":" << a.seconds
         << ",\"trace\":" << a.trace << ",\"build_type\":\"" PNCPERF_BUILD_TYPE
         << "\",\"iostat_compiled\":" << (PNC_IOSTAT_ENABLED ? "true" : "false")
         << ",\"nprocs\":" << kProcs << ",\"config\":" << wl->DescribeJson()
         << ",\"setup_cpu_s\":[";
  for (std::size_t i = 0; i < setup_s.size(); ++i)
    detail << (i ? "," : "") << Num(setup_s[i]);
  detail << "],\"setup_wall_s\":[";
  for (std::size_t i = 0; i < setup_wall_s.size(); ++i)
    detail << (i ? "," : "") << Num(setup_wall_s[i]);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  detail << "],\"peak_rss_mb\":" << Num(static_cast<double>(ru.ru_maxrss) / 1024)
         << ",\"measured_s\":" << Num(measured_s)
         << ",\"iterations\":" << attempted << ",\"ok_iterations\":"
         << good.size() << ",\"tail_q\":" << Num(kTailQ)
         << ",\"failed\":" << failed
         << ",\"failed_frac\":"
         << Num(static_cast<double>(failed) / std::max(attempted, 1))
         << ",\"samples\":[";
  for (std::size_t i = 0; i < samples.size(); ++i)
    detail << (i ? "," : "") << SampleJson(samples[i]);
  detail << "]}";

  std::vector<std::string> metrics;
  if (!good.empty() && !a.trace) {
    // vmbps is the aggregate rate over the run: per-iteration virtual rates
    // take only a few distinct values on flash_checkpoint, so their median
    // would read the same on every run.
    double payload = 0, vns = 0;
    std::vector<double> cpu_mbps, cpu_ms, ratio, heap;
    for (const Sample* s : good) {
      payload += s->payload_bytes;
      vns += s->data_vns;
      cpu_mbps.push_back(MBps(s->payload_bytes, s->cpu_ms * 1e6));
      cpu_ms.push_back(s->cpu_ms);
      heap.push_back(s->heap_mb);
      ratio.push_back(s->vs_baseline);
    }
    metrics = {Metric("vmbps", MBps(payload, vns), "MB/s"),
               Metric("host_cpu_mbps", Median(cpu_mbps), "MB/s"),
               Metric("iter_cpu_ms_p75", Percentile(cpu_ms, kTailQ), "ms"),
               Metric("vs_baseline_ratio", Median(ratio), "ratio"),
               Metric("setup_s", Median(setup_s), "s"),
               Metric("heap_mb", Median(heap), "MB")};
  } else if (!good.empty()) {
    std::map<std::string, double> run_level = wl->RunLayerValues();
    run_level["bench.trace_overhead_frac"] =
        Median(pair_traced) / Median(pair_untraced) - 1.0;
    run_level["bench.iter_wall_ms"] = Median(pair_untraced);
    for (const auto& [name, unit] : kLayerMetrics) {
      double value = 0;
      if (auto it = run_level.find(name); it != run_level.end()) {
        value = it->second;
      } else {
        std::vector<double> v;
        for (const Sample* s : good)
          if (auto f = s->layer.find(name); s->traced && f != s->layer.end())
            v.push_back(f->second);
        if (v.empty()) {
          std::fprintf(stderr, "pncperf: no value for %s\n", name);
          return 1;
        }
        value = Median(std::move(v));
      }
      metrics.push_back(Metric(name, value, unit));
    }
  }

  if (!a.out_dir.empty()) {
    const std::string stem = a.out_dir + "/" + a.workload + "-seed" +
                             std::to_string(a.seed) + "-trace" +
                             std::to_string(a.trace);
    std::ofstream(stem + ".json") << detail.str() << "\n";
    if (a.trace) std::ofstream(stem + ".spans.json") << tracer.ToJson();
  }

  std::printf("%s\n", detail.str().c_str());
  std::ostringstream result;
  result << "{\"correct\":" << (failed == 0 && !good.empty() ? "true" : "false")
         << ",\"attempted\":" << attempted << ",\"failed\":" << failed
         << ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    result << (i ? "," : "") << metrics[i];
  result << "}}";
  std::printf("%s\n", result.str().c_str());
  return good.empty() ? 1 : 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
