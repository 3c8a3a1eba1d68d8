// Platform pinning, the span tracer, and the per-iteration layer readout.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "bench.hpp"
#include "iostat/iostat.hpp"
#include "iostat/report.hpp"
#include "simmpi/runtime.hpp"
#include "tools/verify.hpp"
#include "util/crc32.hpp"

namespace perfbench {

// ------------------------------------------------------------------ platform

pfs::Config BlueHorizon() {
  pfs::Config c;
  c.num_servers = 12;
  c.stripe_size = 256 * 1024;
  c.client_read_ns_per_byte = 4.0;
  c.client_write_ns_per_byte = 10.0;
  c.client_request_ns = 30'000.0;
  c.server_read_ns_per_byte = 16.0;
  c.server_write_ns_per_byte = 40.0;
  c.server_request_ns = 800'000.0;
  c.write_partial_stripe_rmw = true;
  c.discard_data = false;  // outputs are stored so every iteration is checked
  c.faults = pfs::FaultPolicy{};
  c.qos = pfs::QosPolicy{};
  return c;
}

pfs::Config Frost() {
  pfs::Config c;
  c.num_servers = 2;
  c.stripe_size = 256 * 1024;
  c.client_read_ns_per_byte = 3.0;
  c.client_write_ns_per_byte = 6.0;
  c.client_request_ns = 30'000.0;
  c.server_read_ns_per_byte = 8.0;
  c.server_write_ns_per_byte = 14.0;
  c.server_request_ns = 500'000.0;
  c.write_partial_stripe_rmw = true;
  c.discard_data = false;
  c.faults = pfs::FaultPolicy{};
  c.qos = pfs::QosPolicy{};
  return c;
}

simmpi::CostModel Sp2() {
  simmpi::CostModel c;
  c.msg_latency_ns = 20'000.0;
  c.msg_ns_per_byte = 2.0;
  c.mem_copy_ns_per_byte = 0.35;
  c.sw_overhead_ns = 2'000.0;
  c.hang_timeout_ms = 30'000.0;
  return c;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string ConfigJson(const pfs::Config& c) {
  std::ostringstream o;
  o << "{\"num_servers\":" << c.num_servers
    << ",\"stripe_size\":" << c.stripe_size
    << ",\"client_read_ns_per_byte\":" << Num(c.client_read_ns_per_byte)
    << ",\"client_write_ns_per_byte\":" << Num(c.client_write_ns_per_byte)
    << ",\"client_request_ns\":" << Num(c.client_request_ns)
    << ",\"server_read_ns_per_byte\":" << Num(c.server_read_ns_per_byte)
    << ",\"server_write_ns_per_byte\":" << Num(c.server_write_ns_per_byte)
    << ",\"server_request_ns\":" << Num(c.server_request_ns)
    << ",\"write_partial_stripe_rmw\":"
    << (c.write_partial_stripe_rmw ? "true" : "false")
    << ",\"discard_data\":" << (c.discard_data ? "true" : "false")
    << ",\"faults\":\"none\",\"qos\":\"fcfs\"}";
  return o.str();
}

std::string CostJson(const simmpi::CostModel& c) {
  std::ostringstream o;
  o << "{\"msg_latency_ns\":" << Num(c.msg_latency_ns)
    << ",\"msg_ns_per_byte\":" << Num(c.msg_ns_per_byte)
    << ",\"mem_copy_ns_per_byte\":" << Num(c.mem_copy_ns_per_byte)
    << ",\"sw_overhead_ns\":" << Num(c.sw_overhead_ns)
    << ",\"hang_timeout_ms\":" << Num(c.hang_timeout_ms) << "}";
  return o.str();
}

// -------------------------------------------------------------------- spans

Tracer::Tracer() : slots_(kProcs + 1) {}

Tracer::Scope::Scope(Tracer* t, int slot, const char* phase, const char* call,
                     const simmpi::VirtualClock* clock)
    : t_(t), slot_(slot), clock_(clock) {
  if (t_ == nullptr) return;
  Slot& s = t_->slots_[static_cast<std::size_t>(slot_)];
  idx_ = s.spans.size();
  s.spans.push_back(Span{phase, call, slot_, t_->iter_,
                         s.open.empty() ? -1 : s.open.back(), HostNowNs(), 0.0,
                         clock_ != nullptr ? clock_->now() : 0.0, 0.0, 0.0});
  s.open.push_back(static_cast<int>(idx_));
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  Slot& s = t_->slots_[static_cast<std::size_t>(slot_)];
  Span& sp = s.spans[idx_];
  sp.host_end_ns = HostNowNs();
  sp.v_end_ns = clock_ != nullptr ? clock_->now() : 0.0;
  s.open.pop_back();
  if (sp.parent >= 0)
    s.spans[static_cast<std::size_t>(sp.parent)].child_host_ns +=
        sp.host_end_ns - sp.host_begin_ns;
}

void Tracer::BeginIteration(int iter) {
  iter_ = iter;
  for (Slot& s : slots_) s.iter_begin = s.spans.size();
}

std::vector<Span> Tracer::IterationSpans(int slot) const {
  const Slot& s = slots_[static_cast<std::size_t>(slot)];
  return {s.spans.begin() + static_cast<std::ptrdiff_t>(s.iter_begin),
          s.spans.end()};
}

std::string Tracer::ToJson() const {
  double t0 = 0.0;
  for (const Slot& s : slots_)
    if (!s.spans.empty() && (t0 == 0.0 || s.spans.front().host_begin_ns < t0))
      t0 = s.spans.front().host_begin_ns;
  std::ostringstream o;
  o << "[";
  bool first = true;
  for (const Slot& s : slots_)
    for (const Span& sp : s.spans) {
      o << (first ? "" : ",\n") << "{\"name\":\"" << sp.phase << "/" << sp.call
        << "\",\"rank\":" << sp.slot << ",\"iter\":" << sp.iter
        << ",\"parent\":" << sp.parent
        << ",\"host_start_ns\":" << Num(sp.host_begin_ns - t0)
        << ",\"host_end_ns\":" << Num(sp.host_end_ns - t0)
        << ",\"v_start_ns\":" << Num(sp.v_begin_ns)
        << ",\"v_end_ns\":" << Num(sp.v_end_ns) << "}";
      first = false;
    }
  o << "]\n";
  return o.str();
}

// --------------------------------------------------------- iteration helpers

double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) * 1e3 +
           static_cast<double>(t.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

RunCost TimedRun(const simmpi::CostModel& cost,
                 const std::function<void(simmpi::Comm&)>& body) {
  iostat::Registry::Get().Reset();
  const double c0 = ProcessCpuMs();
  const double t0 = HostNowNs();
  simmpi::Run(kProcs, body, cost);
  RunCost rc;
  rc.wall_ms = (HostNowNs() - t0) / 1e6;
  rc.cpu_ms = ProcessCpuMs() - c0;
  const struct mallinfo2 mi = mallinfo2();
  rc.heap_mb = static_cast<double>(mi.uordblks + mi.hblkhd) / (1 << 20);
  return rc;
}

bool PfsIdle(pfs::FileSystem& fs) {
  auto probe = fs.Create("perfbench.idle_probe", /*exclusive=*/false);
  if (!probe.ok()) return false;
  const pfs::Config& c = fs.config();
  return probe.value().HarnessSync(0.0) ==
         c.client_request_ns + c.server_request_ns;
}

void CollectLayers(const Tracer& tracer, double run_host_ms,
                   const std::vector<double>& pre_sync_clock_ns,
                   double payload_bytes, std::map<std::string, double>& out) {
  using iostat::Ctr;
  const iostat::Report rep = iostat::BuildReport();
  const auto sum = [&](Ctr c) { return static_cast<double>(rep[c].sum); };
  const auto max = [&](Ctr c) { return static_cast<double>(rep[c].max); };

  out["mpiio.exchange_vms"] = max(Ctr::kMpiioExchangeNs) / 1e6;
  out["mpiio.io_phase_vms"] = max(Ctr::kMpiioIoPhaseNs) / 1e6;
  out["mpiio.exchange_frac"] = rep.exchange_frac;
  out["mpiio.twophase_amplification"] = rep.twophase_amplification;
  out["mpiio.exchange_msgs"] = sum(Ctr::kMpiioExchangeMsgs);
  out["mpiio.indep_ops"] =
      sum(Ctr::kMpiioIndepReads) + sum(Ctr::kMpiioIndepWrites);

  const double requests = sum(Ctr::kPfsReadOps) + sum(Ctr::kPfsWriteOps);
  const double rd = sum(Ctr::kPfsBytesRead);
  const double wr = sum(Ctr::kPfsBytesWritten);
  out["pfs.requests"] = requests;
  out["pfs.bytes_per_request"] = requests > 0 ? (rd + wr) / requests : 0.0;
  out["pfs.bytes_per_payload_byte"] =
      payload_bytes > 0 ? (rd + wr) / payload_bytes : 0.0;
  out["pfs.read_per_written_byte"] = wr > 0 ? rd / wr : 0.0;
  out["pfs.busy_frac"] = rep.pfs_busy_frac;
  out["pfs.queue_wait_frac"] = rep.pfs_queue_wait_frac;
  out["pfs.queue_depth_max"] = max(Ctr::kPfsQueueDepthMax);

  out["format.sum_chunks_verified"] = sum(Ctr::kNcSumChunksVerified);
  out["format.header_bytes_written"] = sum(Ctr::kNcHeaderBytesWritten);

  out["simmpi.msgs"] = sum(Ctr::kMpiMessages);
  out["simmpi.msg_bytes"] = sum(Ctr::kMpiMessageBytes);
  out["simmpi.collectives"] = sum(Ctr::kMpiCollectives);
  const auto [lo, hi] =
      std::minmax_element(pre_sync_clock_ns.begin(), pre_sync_clock_ns.end());
  out["simmpi.skew_vms"] = (*hi - *lo) / 1e6;

  // Spans: per phase, each rank's total; the slowest rank is reported. The
  // rank-body span ("app.rank") yields the benchmark's own self time and,
  // against simmpi::Run's host time, the runtime's overhead.
  std::map<std::string, std::pair<double, double>> slowest;  // host, virtual
  double body_ms = 0.0, app_self_ms = 0.0;
  for (int r = 0; r < kProcs; ++r) {
    std::map<std::string, std::pair<double, double>> mine;
    for (const Span& sp : tracer.IterationSpans(r)) {
      const double h = (sp.host_end_ns - sp.host_begin_ns) / 1e6;
      if (std::string(sp.phase) == "app.rank") {
        body_ms = std::max(body_ms, h);
        app_self_ms = std::max(app_self_ms, h - sp.child_host_ns / 1e6);
        continue;
      }
      auto& m = mine[sp.phase];
      m.first += h;
      m.second += (sp.v_end_ns - sp.v_begin_ns) / 1e6;
    }
    for (const auto& [phase, v] : mine) {
      auto& s = slowest[phase];
      s.first = std::max(s.first, v.first);
      s.second = std::max(s.second, v.second);
    }
  }
  for (const auto& [phase, v] : slowest) {
    out[phase + "_host_ms"] = v.first;
    out[phase + "_vms"] = v.second;
  }
  out["app.self_host_ms"] = app_self_ms;
  out["simmpi.run_overhead_host_ms"] = run_host_ms - body_ms;
}

pnc::Status VerifyClean(pfs::FileSystem& fs, const std::string& path) {
  auto r = nctools::VerifyFile(fs, path, {.data = true});
  if (!r.ok()) return r.status();
  const auto& v = r.value();
  if (v.state != ncformat::FileState::kClean)
    return pnc::Status(pnc::Err::kInternal, "VerifyFile: not clean: " + v.detail);
  if (!v.scrub || !v.scrub->trusted || v.scrub->clean == 0 ||
      v.scrub->corrupt != 0 || v.scrub->unsummed != 0)
    return pnc::Status(pnc::Err::kInternal, "VerifyFile: data scrub not clean");
  return pnc::Status::Ok();
}

/// Keeps each timed CRC observable so the loop cannot be dropped.
volatile std::uint32_t crc_sink = 0;

double TimeCrc32(pnc::ConstByteSpan payload) {
  const double t0 = HostNowNs();
  const std::uint32_t crc = pnc::Crc32(payload);
  const double ns = HostNowNs() - t0;
  crc_sink = crc;
  return ns / static_cast<double>(payload.size());
}

double Percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto idx = static_cast<std::size_t>(
      std::clamp(std::ceil(q * n) - 1.0, 0.0, n - 1.0));
  return v[idx];
}

}  // namespace perfbench
