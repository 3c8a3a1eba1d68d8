// Microbenchmarks (google-benchmark): datatype construction/flattening and
// pack/unpack throughput — the CPU-side costs of the flexible API and the
// file-view machinery — CRC-32 throughput and the checksum-combine step,
// plus the per-event cost of the iostat hooks in both
// runtime states (the disabled path must be a load+branch, nothing more).
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/bench_common.hpp"
#include "bench/microbench.hpp"
#include "bench/registry.hpp"
#include "iostat/events.hpp"
#include "simmpi/datatype.hpp"
#include "util/crc32.hpp"

namespace {

using simmpi::Datatype;

void BM_SubarrayConstruct(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t sizes[] = {n, n, n};
  const std::uint64_t sub[] = {n / 2, n / 2, n / 2};
  const std::uint64_t starts[] = {n / 4, n / 4, n / 4};
  for (auto _ : state) {
    auto t = Datatype::Subarray(sizes, sub, starts, simmpi::DoubleType());
    benchmark::DoNotOptimize(t.value().Flatten().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n / 2 * (n / 2)));
}
BENCHMARK(BM_SubarrayConstruct)->Arg(16)->Arg(32)->Arg(64)->Arg(128);

void BM_HindexedConstruct(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint64_t> lens(n, 64), offs(n);
  for (std::size_t i = 0; i < n; ++i) offs[i] = i * 128;
  for (auto _ : state) {
    auto t = Datatype::Hindexed(lens, offs, simmpi::ByteType());
    benchmark::DoNotOptimize(t.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HindexedConstruct)->Arg(256)->Arg(4096)->Arg(65536);

void BM_PackSubarray(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t sizes[] = {n, n, n};
  const std::uint64_t sub[] = {n - 8, n - 8, n - 8};
  const std::uint64_t starts[] = {4, 4, 4};
  auto t = Datatype::Subarray(sizes, sub, starts, simmpi::DoubleType()).value();
  std::vector<std::byte> base(n * n * n * 8);
  std::vector<std::byte> out(t.size());
  for (auto _ : state) {
    t.Pack(base.data(), 1, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_PackSubarray)->Arg(16)->Arg(24)->Arg(32);

void BM_UnpackSubarray(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t sizes[] = {n, n, n};
  const std::uint64_t sub[] = {n - 8, n - 8, n - 8};
  const std::uint64_t starts[] = {4, 4, 4};
  auto t = Datatype::Subarray(sizes, sub, starts, simmpi::DoubleType()).value();
  std::vector<std::byte> base(n * n * n * 8);
  std::vector<std::byte> in(t.size());
  for (auto _ : state) {
    t.Unpack(in.data(), 1, base.data());
    benchmark::DoNotOptimize(base.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(t.size()));
}
BENCHMARK(BM_UnpackSubarray)->Arg(16)->Arg(24)->Arg(32);

void BM_ContiguousPackIsMemcpySpeed(benchmark::State& state) {
  auto t = Datatype::Contiguous(1 << 20, simmpi::ByteType());
  std::vector<std::byte> base(1 << 20), out(1 << 20);
  for (auto _ : state) {
    t.Pack(base.data(), 1, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) << 20);
}
BENCHMARK(BM_ContiguousPackIsMemcpySpeed);

// The checksum every write records and every verified read recomputes:
// slicing-by-8 CRC-32 over one page, one default 64 KiB sum chunk, and one
// 4 MiB collective buffer (bytes/s; ns/byte = 1e9 / bytes_per_second).
void BM_Crc32(benchmark::State& state) {
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<std::byte>(i * 131 + 7);
  for (auto _ : state) benchmark::DoNotOptimize(pnc::Crc32(buf));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(65536)->Arg(4194304);

// Merging two pieces of one chunk at a flush: the GF(2) shift past the
// second piece's length, whatever that length is.
void BM_Crc32Combine(benchmark::State& state) {
  std::uint32_t a = 0x12345678u;
  std::uint64_t len = 1;
  for (auto _ : state) {
    a = pnc::Crc32Combine(a, 0x9ABCDEF0u, len);
    len = len * 3 % 65521 + 1;
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Crc32Combine);

// The iostat hot-path hook itself: Arg(0) measures PNC_IOSTAT_ADD with
// counters disabled at runtime (the zero-overhead claim: one relaxed load
// and a predictable branch), Arg(1) with counters enabled (one relaxed
// fetch_add on a per-rank slot). With PNC_IOSTAT=OFF at configure time both
// compile to nothing.
void BM_IostatCounterAdd(benchmark::State& state) {
#if PNC_IOSTAT_ENABLED
  iostat::Registry::Get().SetCountersEnabled(state.range(0) != 0);
#endif
  for (auto _ : state) {
    PNC_IOSTAT_ADD(kPfsReadOps, 1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
#if PNC_IOSTAT_ENABLED
  iostat::Registry::Get().SetCountersEnabled(true);
  iostat::Registry::Get().Reset();
#endif
}
BENCHMARK(BM_IostatCounterAdd)->Arg(0)->Arg(1);

// The flight-recorder hot path: Arg(0) measures a flight-only probe
// (PNC_PROBE(kIoBegin)) with the recorder disabled at runtime (one relaxed
// load of the sink mask and a branch), Arg(1) with it enabled (one
// fetch_add claiming a ring slot plus a fixed-size record fill — the
// "~10 ns/event" always-on budget). With PNC_IOSTAT=OFF at configure time
// both compile to nothing.
void BM_FlightRecorderEvent(benchmark::State& state) {
#if PNC_IOSTAT_ENABLED
  PNC_IOSTAT_BIND_RANK(0);
  iostat::FlightRecorder::Get().SetEnabled(state.range(0) != 0);
#endif
  double t = 0.0;
  for (auto _ : state) {
    PNC_PROBE(kIoBegin, .t_begin = t, .aux = 64);
    t += 1.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
#if PNC_IOSTAT_ENABLED
  iostat::FlightRecorder::Get().SetEnabled(true);
  iostat::FlightRecorder::Get().Reset();
#endif
}
BENCHMARK(BM_FlightRecorderEvent)->Arg(0)->Arg(1);

// A multi-sink probe site (kXchgSend: counter, ring event, timeline mark):
// Arg(0) with every sink off — one relaxed load of the sink mask and a
// branch, no call — and Arg(1) with the default sinks (counters, ring and
// pattern on, timeline off), i.e. one Emit folding one record into two sinks.
void BM_ProbeSite(benchmark::State& state) {
#if PNC_IOSTAT_ENABLED
  PNC_IOSTAT_BIND_RANK(0);
  const std::uint32_t saved = iostat::g_sinks.load();
  if (state.range(0) == 0) iostat::g_sinks.store(0);
#endif
  double t = 0.0;
  for (auto _ : state) {
    PNC_PROBE(kXchgSend, .server = 1, .t_begin = t, .aux = 0);
    t += 1.0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
#if PNC_IOSTAT_ENABLED
  iostat::g_sinks.store(saved);
  iostat::Registry::Get().Reset();
#endif
}
BENCHMARK(BM_ProbeSite)->Arg(0)->Arg(1);

int Run(const bench::Args& args, bench::Recorder& rec) {
  return bench::RunMicro(
      args, rec,
      "BM_SubarrayConstruct|BM_HindexedConstruct|BM_PackSubarray|"
      "BM_UnpackSubarray|BM_ContiguousPackIsMemcpySpeed|BM_Crc32|"
      "BM_IostatCounterAdd|BM_FlightRecorderEvent|BM_ProbeSite");
}

const bench::BenchDef kBench{
    "micro_datatype",
    "datatype construct/flatten/pack throughput and iostat hook cost",
    {"benchmark_*"},
    Run};

}  // namespace

BENCH_REGISTER(kBench)
