// ncbench — unified benchmark orchestration and performance-regression
// gating.
//
// Modes:
//   ncbench --list                     show registered benches and suites
//   ncbench --suite=NAME [--json=PATH] run a named suite in-process, writing
//                                      one consolidated results file
//                                      (default BENCH_<suite>.json) whose
//                                      header line records git SHA, build
//                                      flags, platform preset, and the suite
//                                      config
//   ncbench --bench=NAME [flags...]    run one bench; unconsumed flags pass
//                                      through to it
//
// Either mode accepts --trace=PATH (a driver-level bench::Recorder flag):
// the flight recorder stays on and PATH is rewritten after each
// configuration with a Chrome trace-event timeline of the ring's retained
// tail, so it ends holding the run's most recent configuration.
//
// Baseline gating (with --suite):
//   --check --baseline=PATH [--tolerance=PCT]
//       after the run, match records by (bench, config) against the
//       baseline, compare MB/s and the iostat-derived health metrics, print
//       a per-metric delta table with the top regressions, and exit 1 on any
//       regression, missing record, or unmatched new record.
//   --update-baseline --baseline=PATH
//       write the consolidated results to PATH (how bench/baselines/*.json
//       are (re)generated).
//   --hints=k=v[,k=v]   merged into every entry's hints (entry values first,
//                       so a CLI override wins) — e.g. deliberately shrink
//                       cb_buffer_size to watch the gate fail.
//
// Exit status (shared with ncstat --diff; see src/tools/cli.hpp and
// docs/API.md): 0 = success / within tolerance, 1 = regression or
// missing/new record, 2 = usage, I/O, or parse error.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "bench/registry.hpp"
#include "iostat/schemas.hpp"
#include "tools/benchlib/baseline.hpp"
#include "tools/benchlib/records.hpp"
#include "tools/cli.hpp"

#ifndef PNC_GIT_SHA
#define PNC_GIT_SHA "unknown"
#endif
#ifndef PNC_BUILD_DESC
#define PNC_BUILD_DESC "unknown"
#endif

namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: ncbench --list\n"
      "       ncbench --suite=NAME [--json=PATH] [--trace=PATH]\n"
      "               [--hints=k=v,...] [--history=PATH]\n"
      "               [--check --baseline=PATH [--tolerance=PCT]]\n"
      "               [--update-baseline --baseline=PATH]\n"
      "       ncbench --bench=NAME [bench flags...] [--json=PATH]\n");
  return nctools::kExitError;
}

int List() {
  std::printf("benches:\n");
  for (const bench::BenchDef* b : bench::AllBenches()) {
    std::printf("  %-24s %s\n", b->name, b->summary);
    if (!b->flags.empty()) {
      std::printf("  %-24s flags:", "");
      for (const auto& f : b->flags) std::printf(" --%s", f.c_str());
      std::printf("\n");
    }
  }
  std::printf("\nsuites:\n");
  for (const bench::Suite& s : bench::Suites())
    std::printf("  %-24s %s (%zu entries)\n", s.name, s.summary,
                s.entries.size());
  return nctools::kExitOk;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

/// The provenance header line of a consolidated suite file
/// (schema pnc-bench-suite-v1).
std::string SuiteHeaderLine(const bench::Suite& suite,
                            const std::string& extra_hints) {
  std::string config = "{\"entries\":[";
  for (std::size_t i = 0; i < suite.entries.size(); ++i) {
    if (i) config += ",";
    config += "{\"bench\":\"" + JsonEscape(suite.entries[i].bench) +
              "\",\"args\":[";
    for (std::size_t j = 0; j < suite.entries[i].args.size(); ++j) {
      if (j) config += ",";
      config += '"';
      config += JsonEscape(suite.entries[i].args[j]);
      config += '"';
    }
    config += "]}";
  }
  config += "]";
  if (!extra_hints.empty())
    config += ",\"extra_hints\":\"" + JsonEscape(extra_hints) + "\"";
  config += "}";
  return std::string("{\"schema\":\"") + iostat::schemas::kBenchSuite +
         "\",\"suite\":\"" + suite.name + "\",\"git_sha\":\"" PNC_GIT_SHA
         "\",\"build\":\"" PNC_BUILD_DESC
         "\",\"platform\":\"simulated (per-bench presets: sdsc_bluehorizon, "
         "asci_frost)\",\"config\":" +
         config + "}\n";
}

/// Entry args with the CLI-level --hints merged in: the entry's own hints
/// come first so the CLI override wins inside ApplyHintOverrides.
std::vector<std::string> MergeHints(const std::vector<std::string>& entry,
                                    const std::string& extra) {
  std::vector<std::string> out = entry;
  if (extra.empty()) return out;
  for (auto& a : out) {
    if (a.rfind("--hints=", 0) == 0) {
      a += "," + extra;
      return out;
    }
  }
  out.push_back("--hints=" + extra);
  return out;
}

int RunSuite(const bench::Suite& suite, const std::string& json_path,
             const std::string& trace_path, const std::string& extra_hints) {
  FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "ncbench: cannot write %s\n", json_path.c_str());
    return nctools::kExitError;
  }
  const std::string hdr = SuiteHeaderLine(suite, extra_hints);
  const bool ok = std::fwrite(hdr.data(), 1, hdr.size(), f) == hdr.size();
  if (std::fclose(f) != 0 || !ok) {
    std::fprintf(stderr, "ncbench: short write to %s\n", json_path.c_str());
    return nctools::kExitError;
  }

  for (std::size_t i = 0; i < suite.entries.size(); ++i) {
    const bench::SuiteEntry& e = suite.entries[i];
    const bench::BenchDef* def = bench::FindBench(e.bench);
    if (def == nullptr) {
      std::fprintf(stderr, "ncbench: suite %s names unknown bench '%s'\n",
                   suite.name, e.bench);
      return nctools::kExitError;
    }
    std::printf("=== [%zu/%zu] %s ===\n", i + 1, suite.entries.size(),
                def->name);
    std::fflush(stdout);
    const bench::Args args(MergeHints(e.args, extra_hints));
    bench::Recorder rec(json_path, def->name, trace_path);
    const int rc = bench::RunBench(*def, args, rec);
    if (rc != 0) {
      std::fprintf(stderr, "ncbench: bench %s failed (exit %d)\n", def->name,
                   rc);
      return nctools::kExitError;
    }
    std::printf("\n");
  }
  std::printf("ncbench: suite %s -> %s\n", suite.name, json_path.c_str());
  return nctools::kExitOk;
}

/// Append the consolidated results file (header + record lines) to the
/// history log verbatim. The history file is therefore a concatenation of
/// pnc-bench-suite-v1 runs, which is exactly what benchlib::ParseHistory
/// splits on — no separate history schema to version.
int AppendHistory(const std::string& results_path,
                  const std::string& history_path) {
  FILE* in = std::fopen(results_path.c_str(), "rb");
  if (in == nullptr) {
    std::fprintf(stderr, "ncbench: cannot reread %s\n", results_path.c_str());
    return nctools::kExitError;
  }
  std::string text;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, in)) > 0) text.append(buf, n);
  const bool read_err = std::ferror(in) != 0;
  std::fclose(in);
  if (read_err) {
    std::fprintf(stderr, "ncbench: read error on %s\n", results_path.c_str());
    return nctools::kExitError;
  }
  FILE* out = std::fopen(history_path.c_str(), "a");
  if (out == nullptr) {
    std::fprintf(stderr, "ncbench: cannot append to %s\n",
                 history_path.c_str());
    return nctools::kExitError;
  }
  const bool wrote = std::fwrite(text.data(), 1, text.size(), out) ==
                     text.size();
  if (std::fclose(out) != 0 || !wrote) {
    std::fprintf(stderr, "ncbench: short write to %s\n", history_path.c_str());
    return nctools::kExitError;
  }
  std::printf("ncbench: appended run to %s\n", history_path.c_str());
  return nctools::kExitOk;
}

int CheckAgainstBaseline(const std::string& baseline_path,
                         const std::string& current_path, double tolerance) {
  auto base = benchlib::LoadResults(baseline_path);
  if (!base.ok()) {
    std::fprintf(stderr, "ncbench: baseline %s: %s\n", baseline_path.c_str(),
                 base.status().message().c_str());
    return nctools::kExitError;
  }
  auto cur = benchlib::LoadResults(current_path);
  if (!cur.ok()) {
    std::fprintf(stderr, "ncbench: results %s: %s\n", current_path.c_str(),
                 cur.status().message().c_str());
    return nctools::kExitError;
  }
  if (base.value().records.empty()) {
    std::fprintf(stderr, "ncbench: baseline %s holds no pnc-bench-v1 records\n",
                 baseline_path.c_str());
    return nctools::kExitError;
  }
  const benchlib::CompareResult res =
      benchlib::Compare(base.value(), cur.value(), tolerance);
  std::fputs(benchlib::RenderDeltaTable(res).c_str(), stdout);
  return res.ExitCode();
}

}  // namespace

int main(int argc, char** argv) {
  nctools::Cli cli(argc, argv);
  if (cli.Flag("--list")) {
    if (!cli.Unknown().empty() || !cli.positionals().empty()) return Usage();
    return List();
  }

  const std::string suite_name = cli.Value("--suite", "");
  const std::string bench_name = cli.Value("--bench", "");
  if ((suite_name.empty() && bench_name.empty()) ||
      (!suite_name.empty() && !bench_name.empty()))
    return Usage();

  if (!bench_name.empty()) {
    // Single-bench mode: every flag except --bench passes through to the
    // bench (RunBench validates against the bench's declared flags).
    const bench::BenchDef* def = bench::FindBench(bench_name);
    if (def == nullptr) {
      std::fprintf(stderr, "ncbench: unknown bench '%s' (see --list)\n",
                   bench_name.c_str());
      return nctools::kExitError;
    }
    std::vector<std::string> pass;
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--bench=", 0) != 0) pass.push_back(a);
    }
    const bench::Args args(std::move(pass));
    bench::Recorder rec(args, def->name);
    return bench::RunBench(*def, args, rec) == 0 ? nctools::kExitOk
                                                 : nctools::kExitError;
  }

  const bool check = cli.Flag("--check");
  const bool update = cli.Flag("--update-baseline");
  const std::string baseline = cli.Value("--baseline", "");
  const std::string tolerance_s = cli.Value("--tolerance", "0");
  const std::string hints = cli.Value("--hints", "");
  const std::string trace = cli.Value("--trace", "");
  const std::string history = cli.Value("--history", "");
  std::string json = cli.Value("--json", "");
  if (!cli.Unknown().empty() || !cli.positionals().empty()) return Usage();
  if (check && update) return Usage();
  if ((check || update) && baseline.empty()) return Usage();
  char* tol_end = nullptr;
  const double tolerance = std::strtod(tolerance_s.c_str(), &tol_end);
  if (tol_end == tolerance_s.c_str() || *tol_end != '\0' || tolerance < 0)
    return Usage();

  const bench::Suite* suite = bench::FindSuite(suite_name);
  if (suite == nullptr) {
    std::fprintf(stderr, "ncbench: unknown suite '%s' (see --list)\n",
                 suite_name.c_str());
    return nctools::kExitError;
  }
  if (update)
    json = baseline;  // --update-baseline writes the consolidated file there
  else if (json.empty())
    json = "BENCH_" + suite_name + ".json";

  const int rc = RunSuite(*suite, json, trace, hints);
  if (rc != 0) return rc;
  if (!history.empty()) {
    const int hrc = AppendHistory(json, history);
    if (hrc != nctools::kExitOk) return hrc;
  }
  if (update) {
    std::printf("ncbench: baseline %s updated\n", baseline.c_str());
    return nctools::kExitOk;
  }
  if (check) return CheckAgainstBaseline(baseline, json, tolerance);
  return nctools::kExitOk;
}
