// Shared pieces of the repository benchmark program (`pncperf`): the pinned
// platform, the in-memory span tracer, the per-iteration sample and the
// workload interface. Everything here lives in the benchmark's own tree; the
// library under src/ is only called through its public headers.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "pfs/pfs.hpp"
#include "simmpi/clock.hpp"
#include "simmpi/comm.hpp"
#include "util/bytes.hpp"
#include "util/status.hpp"

namespace perfbench {

/// Rank threads per iteration (one simmpi::Run of this many ranks).
inline constexpr int kProcs = 4;
/// MB as the paper-figure benches count it (1e6 bytes).
inline double MBps(double bytes, double ns) { return bytes / ns * 1e3; }

inline double HostNowNs() {
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ platform
// Every field the workloads rely on is set here explicitly, so a change of a
// library default cannot silently change what the benchmark measures.

/// SDSC Blue Horizon (Figure 6): 12 I/O servers, so 4 ranks get 4 aggregators.
pfs::Config BlueHorizon();
/// ASCI White Frost (Figure 7): a 2-server I/O system.
pfs::Config Frost();
/// SP-2 switch fabric for the message-passing cost model.
simmpi::CostModel Sp2();
/// JSON objects recording the pinned values in the run output.
std::string ConfigJson(const pfs::Config& c);
std::string CostJson(const simmpi::CostModel& c);

// -------------------------------------------------------------------- spans
/// One closed span: a call the benchmark made into a layer.
struct Span {
  const char* phase;  ///< metric key, e.g. "pnetcdf.define"
  const char* call;   ///< the call, e.g. "EndDef"
  int slot;           ///< rank, or kProcs for the main thread
  int iter;
  int parent;         ///< index of the enclosing span in the same slot, or -1
  double host_begin_ns, host_end_ns;
  double v_begin_ns, v_end_ns;  ///< virtual clock; 0 where there is none
  double child_host_ns;         ///< host time covered by direct children
};

/// Keeps spans in memory, one vector per slot: each rank thread appends only
/// to its own slot, and the main thread reads them after simmpi::Run has joined.
/// A null Tracer* means "untraced": Scope then records nothing.
class Tracer {
 public:
  static constexpr int kMainSlot = kProcs;

  Tracer();

  class Scope {
   public:
    Scope(Tracer* t, int slot, const char* phase, const char* call,
          const simmpi::VirtualClock* clock = nullptr);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int slot_;
    std::size_t idx_ = 0;
    const simmpi::VirtualClock* clock_;
  };

  void BeginIteration(int iter);
  /// Spans of the current iteration in `slot`, in start order.
  [[nodiscard]] std::vector<Span> IterationSpans(int slot) const;
  /// All spans as a JSON array (written once, when the run ends).
  [[nodiscard]] std::string ToJson() const;

 private:
  struct Slot {
    std::vector<Span> spans;
    std::vector<int> open;
    std::size_t iter_begin = 0;
  };
  std::vector<Slot> slots_;
  int iter_ = -1;
};

// ------------------------------------------------------------------ samples
/// One iteration of a workload.
struct Sample {
  int iter = 0;
  std::string label;   ///< partition (LBL) or file kind (FLASH)
  bool traced = false;
  bool ok = false;
  std::string error;   ///< first failure: a non-OK status or a failed check
  double payload_bytes = 0;  ///< moved by successful calls, summed over ranks
  double data_vns = 0;       ///< virtual ns, first data call through Close
  double host_ms = 0;        ///< host ms of the timed simmpi::Run
  double cpu_ms = 0;         ///< process CPU ms of the same run
  double heap_mb = 0;        ///< heap in use when the run returned
  double vs_baseline = 0;    ///< PnetCDF rate over the baseline's rate
  std::map<std::string, double> layer;  ///< per-layer values (traced only)

  [[nodiscard]] double vmbps() const { return MBps(payload_bytes, data_vns); }
};

/// The first failing status among the ranks of one simmpi::Run.
class FirstError {
 public:
  void Note(const pnc::Status& st) {
    if (st.ok()) return;
    std::lock_guard<std::mutex> lk(mu_);
    if (msg_.empty()) msg_ = st.message();
  }
  [[nodiscard]] std::string Take() { return std::move(msg_); }

 private:
  std::mutex mu_;
  std::string msg_;
};

// ---------------------------------------------------------------- workloads
class Workload {
 public:
  virtual ~Workload() = default;

  /// Build inputs and any pre-existing files from `seed`. Called several
  /// times per run (each call starts from scratch); the median is setup_s.
  virtual pnc::Status Setup(std::uint64_t seed) = 0;
  /// Measure the baseline library once per run where it does not change
  /// from one iteration to the next (LBL's serial netCDF; see lbl.cpp).
  virtual pnc::Status MeasureBaseline(Tracer* tracer) = 0;
  /// Number of labels (LBL partitions) one cycle covers; every run covers
  /// whole cycles, each in an order drawn from the seed.
  [[nodiscard]] virtual int CycleLength() const = 0;
  /// One closed-loop iteration on an idle file system, checked for
  /// correctness after its timed window.
  virtual Sample RunIteration(int iter, int label, Tracer* tracer) = 0;
  /// Per-run values of the baseline (per-layer metrics "baseline.*").
  [[nodiscard]] virtual std::map<std::string, double> RunLayerValues() const {
    return {};
  }
  /// Bytes whose CRC the traced run times (the workload's own payload).
  [[nodiscard]] virtual pnc::ConstByteSpan CrcPayload() const = 0;
  /// Workload description recorded in the run output (JSON object).
  [[nodiscard]] virtual std::string DescribeJson() const = 0;
};

std::unique_ptr<Workload> MakeLblWrite();
std::unique_ptr<Workload> MakeLblRead();
std::unique_ptr<Workload> MakeFlashCheckpoint();

// ------------------------------------------------- iteration helpers (report.cpp)
/// CPU ms (user + system) the process has consumed, all threads included.
double ProcessCpuMs();

/// What one simmpi::Run cost the host.
struct RunCost {
  double wall_ms = 0;
  double cpu_ms = 0;   ///< process CPU (user + system), all threads
  double heap_mb = 0;  ///< malloc'd bytes in use (all arenas + mmapped)
                       ///< when the run returned, in MB
};

/// Resets the iostat registry, runs `body` on kProcs ranks with the given
/// cost model, and returns what it cost.
RunCost TimedRun(const simmpi::CostModel& cost,
                 const std::function<void(simmpi::Comm&)>& body);

/// True when a zero-length flush issued at virtual time 0 sees no queue at
/// server 0 - the file system has no request outstanding from a previous
/// iteration.
bool PfsIdle(pfs::FileSystem& fs);

/// Per-layer values of the iteration just run: iostat counters (read after
/// simmpi::Run returned) and the spans of the current iteration.
void CollectLayers(const Tracer& tracer, double run_host_ms,
                   const std::vector<double>& pre_sync_clock_ns,
                   double payload_bytes, std::map<std::string, double>& out);

/// nctools::VerifyFile(path, {.data = true}) finds a clean commit journal
/// and every data chunk clean against a trusted checksum table.
pnc::Status VerifyClean(pfs::FileSystem& fs, const std::string& path);

/// Time pnc::Crc32 over `payload` (host ns per byte).
double TimeCrc32(pnc::ConstByteSpan payload);

/// Nearest-rank percentile (q in [0, 1]) of `v`; v must be non-empty.
double Percentile(std::vector<double> v, double q);

/// `%.17g`, the form every number takes in the run output.
std::string Num(double v);

}  // namespace perfbench
