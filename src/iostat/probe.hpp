// One probe per instrumentation site.
//
// Every instrumented point in the production layers describes what just
// happened once, as one typed record (Probe), behind one gate (the combined
// sink mask). iostat::Emit then folds that record into each enabled sink:
//
//   * counters     — the per-rank Registry (iostat.hpp), gate PNC_IOSTAT
//   * flight ring  — the per-rank event ring (events.hpp), gate PNC_FLIGHT
//   * pattern      — the access-pattern profiler (pattern.hpp), gate
//                    PNC_IOSTAT_PATTERN
//   * timeline     — the bucketed rate series (timeline.hpp), gate
//                    PNC_IOSTAT_TIMELINE (off by default)
//
// Each sink takes only the fields it needs; which fields a site fills is
// documented on its Site enumerator. A site therefore never calls more than
// one hook, and adding a sink means adding one fold in probe.cpp rather than
// another macro at every call site.
//
// Cost discipline:
//   * Compile-time: -DPNC_IOSTAT_DISABLED (CMake PNC_IOSTAT=OFF) expands
//     PNC_PROBE to an unevaluated sizeof, so no iostat symbol is referenced.
//   * Runtime: a probe whose sinks are all off is one relaxed load of the
//     mask and a branch. Emit never advances a virtual clock — timestamps are
//     sampled by the caller — so enabling sinks cannot change simulated
//     results.
//
// Production layers must use only the PNC_* macros (lint-enforced in
// tests/CMakeLists.txt); direct Emit calls would bypass the compile gate.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "util/bytes.hpp"

#if defined(PNC_IOSTAT_DISABLED)
#define PNC_IOSTAT_ENABLED 0
#else
#define PNC_IOSTAT_ENABLED 1
#endif

namespace iostat {

/// Instrumentation sites. Each comment lists the Probe fields the site
/// fills; unlisted fields stay at their defaults.
enum class Site : std::uint8_t {
  // ---- pfs ----
  kPfsRequest,    ///< one request served: len, write, aux=servers in the
                  ///< pool, t_end=latest schedule horizon it touched
  kPfsFlush,      ///< zero-length flush on server 0:
                  ///< t_begin/t_end=service, wait_ns=queue wait
  kPfsGrant,      ///< one server's share of a request: server,
                  ///< offset (request start), len, t_begin/t_end=service,
                  ///< wait_ns=queue wait, aux=queue depth, write
  kPfsFault,      ///< injected fault surfaced: t_begin, write, detail=kind
  // ---- mpiio ----
  kIndep,         ///< independent-path call: t_begin, len, write
  kSieveWindow,   ///< one sieve window: offset=span start, len=wanted
                  ///< bytes, aux=bytes moved at the file, write,
                  ///< flag=real multi-segment sieve window
  kIoRetry,       ///< data-transfer retry: t_begin, wait_ns=backoff,
                  ///< aux=attempt, write
  kSyncRetry,     ///< sync retry: t_begin, wait_ns=backoff, aux=attempt,
                  ///< write (always true)
  kCollBegin,     ///< collective call entered: t_begin, len, write
  kTwophasePre,   ///< two-phase payload: len, extents=this rank's fragments
  kXchgBegin,     ///< exchange phase begins: t_begin, aux=window
  kXchgSend,      ///< exchange message posted: t_begin, server=dest rank,
                  ///< aux=window
  kXchgEnd,       ///< exchange phase ends: t_begin/t_end, aux=window
  kIoBegin,       ///< aggregator file I/O begins: t_begin, aux=window
  kAggPiece,      ///< aggregator adopted a piece: req=source request,
                  ///< server=source rank, t_begin, aux=window
  kAggWindow,     ///< aggregator file window: len
  kIoEnd,         ///< aggregator file I/O ends: t_begin/t_end, aux=window
  kCollEnd,       ///< collective call left: t_begin, wait_ns=straggler wait
                  ///< at the final clock sync, write, flag=ok
  // ---- netcdf / pnetcdf ----
  kAccess,        ///< data-access call: len, write, flag=collective,
                  ///< detail=variable, extents=flattened file extents
  kModeSwitch,    ///< define/data/independent mode transition: t_begin
  // ---- simmpi ----
  kRankCrash,     ///< rank died to an armed policy: t_begin, aux=op index
  kRankStraggle,  ///< straggler-delayed send: t_begin, server=dest, len
  kMsgDrop,       ///< send vanished in transit: t_begin, server=dest, len
  kAgreement,     ///< fault-tolerant agreement done: t_begin, wait_ns,
                  ///< aux=survivors, flag=any dead
  // ---- format ----
  kDataCorrupt,   ///< checksum mismatch survived heals: t_begin,
                  ///< offset=chunk index, aux=heal attempts
};

/// One instrumentation record. Built by PNC_PROBE with designated
/// initializers, so call sites name the fields they fill (in this order).
struct Probe {
  Site site;
  std::uint64_t req = 0;          ///< a linked request ID (another rank's)
  int server = 0;                 ///< pfs server, or peer rank
  std::uint64_t offset = 0;       ///< file offset
  std::uint64_t len = 0;          ///< bytes
  double t_begin = 0.0;           ///< virtual ns
  double t_end = 0.0;             ///< virtual ns
  double wait_ns = 0.0;           ///< queue / backoff / straggler wait
  std::uint64_t aux = 0;          ///< site-specific small integer
  bool write = false;             ///< direction
  bool flag = false;              ///< site-specific verdict
  const char* detail = nullptr;   ///< short context string
  std::span<const pnc::Extent> extents = {};
};

// ---- the combined gate ----
inline constexpr std::uint32_t kSinkCounters = 1u << 0;
inline constexpr std::uint32_t kSinkFlight = 1u << 1;
inline constexpr std::uint32_t kSinkPattern = 1u << 2;
inline constexpr std::uint32_t kSinkTimeline = 1u << 3;

/// The sinks a site feeds: the gate a probe tests, and the folds Emit runs
/// (probe.cpp handles exactly these site/sink pairs).
constexpr std::uint32_t SinksOf(Site s) {
  constexpr std::uint32_t C = kSinkCounters, F = kSinkFlight,
                          P = kSinkPattern, T = kSinkTimeline;
  switch (s) {
    case Site::kPfsRequest: return C;
    case Site::kPfsFlush: return C | F;
    case Site::kPfsGrant: return C | F | P | T;
    case Site::kPfsFault: return C | F | T;
    case Site::kIndep: return C | F;
    case Site::kSieveWindow: return C | P;
    case Site::kIoRetry: return C | F | T;
    case Site::kSyncRetry: return F | T;
    case Site::kCollBegin: return C | F;
    case Site::kTwophasePre: return C | P;
    case Site::kXchgBegin: return F;
    case Site::kXchgSend: return C | F | T;
    case Site::kXchgEnd: return C | F;
    case Site::kIoBegin: return F;
    case Site::kAggPiece: return F;
    case Site::kAggWindow: return C | P;
    case Site::kIoEnd: return C | F;
    case Site::kCollEnd: return F | T;
    case Site::kAccess: return C | P;
    case Site::kModeSwitch: return C | T;
    case Site::kRankCrash:
    case Site::kRankStraggle:
    case Site::kMsgDrop:
    case Site::kAgreement:
    case Site::kDataCorrupt: return F;
  }
  return 0;
}

/// Enabled sinks, initialized once from PNC_IOSTAT / PNC_FLIGHT /
/// PNC_IOSTAT_PATTERN / PNC_IOSTAT_TIMELINE before main runs. Every sink's
/// on()/SetEnabled reads and writes its bit here.
extern std::atomic<std::uint32_t> g_sinks;

inline bool SinkOn(std::uint32_t bit) {
  return (g_sinks.load(std::memory_order_relaxed) & bit) != 0;
}
void SetSink(std::uint32_t bit, bool on);

/// Fold one record into every enabled sink (call through PNC_PROBE).
void Emit(const Probe& p);

}  // namespace iostat

#if PNC_IOSTAT_ENABLED

/// Record one probe: `where` is the bare Site enumerator (e.g. kPfsGrant),
/// followed by designated initializers for the fields it fills, e.g.
///   PNC_PROBE(kIndep, .len = bytes, .t_begin = now, .write = is_write);
/// The gate is one relaxed load of the sink mask, tested against the
/// site's compile-time sink set.
#define PNC_PROBE(where, ...)                                           \
  do {                                                                  \
    if (::iostat::g_sinks.load(std::memory_order_relaxed) &             \
        ::iostat::SinksOf(::iostat::Site::where))                       \
      ::iostat::Emit({.site = ::iostat::Site::where, __VA_ARGS__});     \
  } while (0)

#else  // compiled out: the record is only named inside sizeof

#define PNC_PROBE(where, ...) \
  ((void)sizeof(::iostat::Probe{.site = ::iostat::Site::where, __VA_ARGS__}))

#endif  // PNC_IOSTAT_ENABLED
