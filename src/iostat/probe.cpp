#include "iostat/probe.hpp"

#include <cstdlib>
#include <cstring>

#include "iostat/events.hpp"
#include "iostat/iostat.hpp"
#include "iostat/pattern.hpp"
#include "iostat/timeline.hpp"

namespace iostat {

namespace {

/// Unset or empty => `def`; "0"/"off"/"false" => false; anything else true.
bool EnvFlag(const char* name, bool def) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  return !(std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
           std::strcmp(v, "false") == 0);
}

/// PNC_IOSTAT=0 turns every sink off; each other knob gates one sink.
/// Timeline is opt-in: committed bench baselines embed the iostat report,
/// and a default-on timeline section would change their bytes.
std::uint32_t SinksFromEnv() {
  if (!EnvFlag("PNC_IOSTAT", true)) return 0;
  std::uint32_t m = kSinkCounters;
  if (EnvFlag("PNC_FLIGHT", true)) m |= kSinkFlight;
  if (EnvFlag("PNC_IOSTAT_PATTERN", true)) m |= kSinkPattern;
  if (EnvFlag("PNC_IOSTAT_TIMELINE", false)) m |= kSinkTimeline;
  return m;
}

}  // namespace

std::atomic<std::uint32_t> g_sinks{SinksFromEnv()};

void SetSink(std::uint32_t bit, bool on) {
  if (on)
    g_sinks.fetch_or(bit, std::memory_order_relaxed);
  else
    g_sinks.fetch_and(~bit, std::memory_order_relaxed);
}

void Emit(const Probe& p) {
  const std::uint32_t on =
      g_sinks.load(std::memory_order_relaxed) & SinksOf(p.site);
  // Each sink's fold is a no-op when its bit is off. Within a site the sinks
  // fold in one order — counters, ring, pattern, timeline.
  const auto add = [on](Ctr c, auto n) {
    if (on & kSinkCounters)
      Registry::Get().Add(c, static_cast<std::uint64_t>(n));
  };
  const auto gauge = [on](Ctr c, auto n) {
    if (on & kSinkCounters)
      Registry::Get().Max(c, static_cast<std::uint64_t>(n));
  };
  const auto rec = [on](Ev kind, double t, double d, std::uint64_t a0,
                        std::uint64_t a1, const char* detail = nullptr) {
    if (on & kSinkFlight)
      FlightRecorder::Get().Record(kind, t, d, a0, a1, detail);
  };
  const auto mark = [on](TlTrack track, double t, double value) {
    if (on & kSinkTimeline)
      TimelineRegistry::Get().RecordMark(track, t, value);
  };
  const bool pattern = (on & kSinkPattern) != 0;
  const bool timeline = (on & kSinkTimeline) != 0;
  const auto peer = static_cast<std::uint64_t>(p.server);
  // The pfs_server ring record; its detail names the operation.
  const auto serve = [&](std::uint64_t a0) {
    rec(Ev::kPfsServer, p.t_begin, p.t_end - p.t_begin, a0,
        static_cast<std::uint64_t>(p.wait_ns),
        p.len == 0 ? "s" : (p.write ? "w" : "r"));
  };
  switch (p.site) {
    case Site::kPfsRequest:
      add(p.write ? Ctr::kPfsWriteOps : Ctr::kPfsReadOps, 1);
      add(p.write ? Ctr::kPfsBytesWritten : Ctr::kPfsBytesRead, p.len);
      gauge(Ctr::kPfsServers, p.aux);
      gauge(Ctr::kPfsHorizonNs, p.t_end);
      break;
    case Site::kPfsFlush:
      add(Ctr::kPfsQueueWaitNs, p.wait_ns);
      serve(0);
      break;
    case Site::kPfsGrant:
      add(Ctr::kPfsQueueWaitNs, p.wait_ns);
      add(Ctr::kPfsBusyNs, p.t_end - p.t_begin);
      gauge(Ctr::kPfsQueueDepthMax, p.aux);
      serve((p.len << 8) | (peer & 0xff));
      if (pattern)
        PatternRegistry::Get().RecordPfsGrant(p.server, p.offset, p.len,
                                              p.t_begin, p.t_end, p.aux,
                                              p.wait_ns);
      if (timeline)
        TimelineRegistry::Get().RecordPfsGrant(p.server, p.len, p.t_begin,
                                               p.t_end, p.aux);
      break;
    case Site::kPfsFault:
      add(Ctr::kPfsFaultsInjected, 1);
      rec(Ev::kPfsFault, p.t_begin, 0, p.write, 0, p.detail);
      mark(TlTrack::kFaults, p.t_begin, 1);
      break;
    case Site::kIndep:
      add(p.write ? Ctr::kMpiioIndepWrites : Ctr::kMpiioIndepReads, 1);
      rec(Ev::kIndep, p.t_begin, 0, p.len, p.write);
      break;
    case Site::kSieveWindow:
      add(Ctr::kMpiioSieveBytesWanted, p.len);
      add(Ctr::kMpiioSieveBytesFile, p.aux);
      if (pattern)
        PatternRegistry::Get().RecordSieveWindow(p.write, p.len, p.aux,
                                                 p.offset, p.flag);
      break;
    case Site::kIoRetry:
    case Site::kSyncRetry:
      if (p.site == Site::kIoRetry) add(Ctr::kMpiioRetries, 1);
      rec(Ev::kRetry, p.t_begin, p.wait_ns, p.write, p.aux);
      mark(TlTrack::kRetries, p.t_begin, 1);
      break;
    case Site::kCollBegin:
      add(p.write ? Ctr::kMpiioCollWrites : Ctr::kMpiioCollReads, 1);
      rec(Ev::kCollBegin, p.t_begin, 0, p.len, p.write);
      break;
    case Site::kTwophasePre:
      add(Ctr::kMpiioCollPayloadBytes, p.len);
      if (pattern) PatternRegistry::Get().RecordTwophasePre(p.extents);
      break;
    case Site::kXchgBegin:
      rec(Ev::kXchgBegin, p.t_begin, 0, p.aux, 0);
      break;
    case Site::kXchgSend:
      add(Ctr::kMpiioExchangeMsgs, 1);
      rec(Ev::kXchgSend, p.t_begin, 0, p.aux, peer);
      mark(TlTrack::kExchangeMsgs, p.t_begin, 1);
      break;
    case Site::kXchgEnd:
      add(Ctr::kMpiioExchangeNs, p.t_end - p.t_begin);
      rec(Ev::kXchgEnd, p.t_end, 0, p.aux, 0);
      break;
    case Site::kIoBegin:
      rec(Ev::kIoBegin, p.t_begin, 0, p.aux, 0);
      break;
    case Site::kAggPiece:
      rec(Ev::kAggPiece, p.t_begin, 0, (p.aux << 32) | peer, p.req);
      break;
    case Site::kAggWindow:
      add(Ctr::kMpiioAggBytes, p.len);
      if (pattern) PatternRegistry::Get().RecordAggWindow(p.len);
      break;
    case Site::kIoEnd:
      add(Ctr::kMpiioIoPhaseNs, p.t_end - p.t_begin);
      rec(Ev::kIoEnd, p.t_end, 0, p.aux, 0);
      break;
    case Site::kCollEnd:
      rec(Ev::kCollEnd, p.t_begin, 0, p.flag, p.write);
      if (p.wait_ns > 0) mark(TlTrack::kStragglerWaitNs, p.t_begin, p.wait_ns);
      break;
    case Site::kAccess:
      add(Ctr::kNcDataCalls, 1);
      add(p.write ? Ctr::kNcDataBytesWritten : Ctr::kNcDataBytesRead, p.len);
      if (pattern)
        PatternRegistry::Get().RecordAccess(
            p.detail != nullptr ? p.detail : "", p.write, p.flag, p.extents);
      break;
    case Site::kModeSwitch:
      add(Ctr::kNcModeSwitches, 1);
      mark(TlTrack::kModeSwitches, p.t_begin, 1);
      break;
    case Site::kRankCrash:
      rec(Ev::kRankCrash, p.t_begin, 0, p.aux, 0);
      break;
    case Site::kRankStraggle:
      rec(Ev::kRankStraggle, p.t_begin, 0, p.len, peer);
      break;
    case Site::kMsgDrop:
      rec(Ev::kMsgDrop, p.t_begin, 0, p.len, peer);
      break;
    case Site::kAgreement:
      rec(Ev::kAgreement, p.t_begin, p.wait_ns, p.aux, p.flag);
      break;
    case Site::kDataCorrupt:
      rec(Ev::kDataCorrupt, p.t_begin, 0, p.offset, p.aux);
      break;
  }
}

}  // namespace iostat
