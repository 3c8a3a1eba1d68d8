// Tests for the simulated parallel file system: data correctness of the
// stores, namespace operations, and the virtual-time service model.
#include "pfs/pfs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>

#include "iostat/iostat.hpp"
#include "util/rng.hpp"

namespace pfs {
namespace {

std::vector<std::byte> Pattern(std::size_t n, std::uint64_t seed) {
  pnc::SplitMix64 rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.Next() & 0xFF);
  return v;
}

TEST(MemStore, WriteReadRoundTrip) {
  MemStore s;
  auto data = Pattern(10000, 1);
  s.Write(123, data);
  EXPECT_EQ(s.size(), 123u + 10000u);
  std::vector<std::byte> out(10000);
  s.Read(123, out);
  EXPECT_EQ(out, data);
}

TEST(MemStore, HolesReadAsZero) {
  MemStore s;
  s.Write(100 << 20, Pattern(16, 2));  // write far out: chunks are sparse
  std::vector<std::byte> out(64, std::byte{0xAA});
  s.Read(0, out);
  for (auto b : out) EXPECT_EQ(b, std::byte{0});
}

TEST(MemStore, CrossChunkBoundary) {
  MemStore s;
  const std::uint64_t off = (4ULL << 20) - 100;  // straddles a 4 MiB chunk
  auto data = Pattern(300, 3);
  s.Write(off, data);
  std::vector<std::byte> out(300);
  s.Read(off, out);
  EXPECT_EQ(out, data);
}

TEST(MemStore, TruncateZeroesTail) {
  MemStore s;
  s.Write(0, Pattern(1000, 4));
  s.Truncate(100);
  EXPECT_EQ(s.size(), 100u);
  std::vector<std::byte> out(1000);
  s.Read(0, out);
  for (std::size_t i = 100; i < 1000; ++i)
    EXPECT_EQ(out[i], std::byte{0}) << i;
}

TEST(FileStore, RealFileRoundTrip) {
  auto r = FileStore::Open("/tmp/pnc_filestore_test.bin", /*truncate=*/true);
  ASSERT_TRUE(r.ok());
  auto store = std::move(r).value();
  auto data = Pattern(5000, 5);
  store->Write(17, data);
  std::vector<std::byte> out(5000);
  store->Read(17, out);
  EXPECT_EQ(out, data);
  EXPECT_EQ(store->size(), 5017u);
  store->Truncate(100);
  EXPECT_EQ(store->size(), 100u);
}

TEST(FileSystem, NamespaceSemantics) {
  FileSystem fs;
  EXPECT_FALSE(fs.Exists("a.nc"));
  ASSERT_TRUE(fs.Create("a.nc", /*exclusive=*/true).ok());
  EXPECT_TRUE(fs.Exists("a.nc"));
  EXPECT_FALSE(fs.Create("a.nc", /*exclusive=*/true).ok());  // EEXIST
  EXPECT_TRUE(fs.Create("a.nc", /*exclusive=*/false).ok());  // clobber
  EXPECT_TRUE(fs.Open("a.nc").ok());
  EXPECT_FALSE(fs.Open("missing.nc").ok());
  EXPECT_TRUE(fs.Remove("a.nc").ok());
  EXPECT_FALSE(fs.Exists("a.nc"));
  EXPECT_FALSE(fs.Remove("a.nc").ok());
}

TEST(FileSystem, CreateTruncatesExisting) {
  FileSystem fs;
  auto f = fs.Create("t.nc", false).value();
  f.HarnessWrite(0, Pattern(100, 6), 0.0);
  EXPECT_EQ(f.size(), 100u);
  auto f2 = fs.Create("t.nc", false).value();
  EXPECT_EQ(f2.size(), 0u);
}

TEST(FileSystem, StatsAccumulate) {
  FileSystem fs;
  auto f = fs.Create("s.nc", false).value();
  f.HarnessWrite(0, Pattern(1000, 7), 0.0);
  std::vector<std::byte> out(500);
  f.HarnessRead(0, out, 0.0);
  auto st = fs.stats();
  EXPECT_EQ(st.bytes_written, 1000u);
  EXPECT_EQ(st.bytes_read, 500u);
  EXPECT_EQ(st.write_requests, 1u);
  EXPECT_EQ(st.read_requests, 1u);
  fs.ResetStats();
  EXPECT_EQ(fs.stats().bytes_written, 0u);
}

// ---- virtual-time model properties ----

Config FastConfig() {
  Config c;
  c.num_servers = 4;
  c.stripe_size = 1024;
  c.client_read_ns_per_byte = 0.0;
  c.client_write_ns_per_byte = 0.0;
  c.client_request_ns = 0.0;
  c.server_read_ns_per_byte = 1.0;
  c.server_write_ns_per_byte = 1.0;
  c.server_request_ns = 1000.0;
  return c;
}

TEST(TimeModel, PerRequestLatencyDominatesSmallRequests) {
  FileSystem fs(FastConfig());
  auto f = fs.Create("t", false).value();
  // 100 x 16-byte requests to the same server region vs 1 x 1600-byte one.
  double t_small = 0.0;
  for (int i = 0; i < 100; ++i)
    t_small = f.HarnessWrite(static_cast<std::uint64_t>(i) * 16,
                      Pattern(16, 8), t_small);
  fs.ResetTime();
  const double t_big = f.HarnessWrite(0, Pattern(1600, 9), 0.0);
  EXPECT_GT(t_small, 10.0 * t_big);
}

TEST(TimeModel, StripingSpreadsLoadAcrossServers) {
  // A request covering all stripes should finish ~nservers times faster than
  // the same bytes confined to a single server's stripes.
  Config cfg = FastConfig();
  FileSystem fs(cfg);
  auto f = fs.Create("t", false).value();
  const std::uint64_t n = 4 * 1024;  // exactly one stripe per server
  const double striped = f.HarnessWrite(0, Pattern(n, 10), 0.0);
  fs.ResetTime();
  // Four separate writes into stripes 0, 4, 8, 12 — all map to server 0.
  double same_server = 0.0;
  double t = 0.0;
  for (int i = 0; i < 4; ++i) {
    t = f.HarnessWrite(static_cast<std::uint64_t>(i) * 4 * 1024, Pattern(1024, 11), t);
    same_server = t;
  }
  EXPECT_GT(same_server, 2.0 * striped);
}

TEST(TimeModel, ConcurrentClientsContendForServers) {
  // Two clients writing disjoint ranges at the same virtual time: the second
  // completion must reflect queueing behind the first on shared servers.
  Config cfg = FastConfig();
  cfg.num_servers = 1;
  FileSystem fs(cfg);
  auto f = fs.Create("t", false).value();
  const double a = f.HarnessWrite(0, Pattern(1000, 12), 0.0);
  const double b = f.HarnessWrite(10000, Pattern(1000, 13), 0.0);
  EXPECT_GE(b, a + 1000.0);  // serialized on the single server
}

TEST(TimeModel, ReadsAndWritesUseDifferentRates) {
  Config cfg = FastConfig();
  cfg.server_read_ns_per_byte = 1.0;
  cfg.server_write_ns_per_byte = 10.0;
  FileSystem fs(cfg);
  auto f = fs.Create("t", false).value();
  auto data = Pattern(100000, 14);
  const double w = f.HarnessWrite(0, data, 0.0);
  fs.ResetTime();
  std::vector<std::byte> out(100000);
  const double r = f.HarnessRead(0, out, 0.0);
  EXPECT_GT(w, 5.0 * r);
}

TEST(TimeModel, CompletionMonotoneInStartTime) {
  FileSystem fs(FastConfig());
  auto f = fs.Create("t", false).value();
  auto data = Pattern(4096, 15);
  const double t1 = f.HarnessWrite(0, data, 0.0);
  fs.ResetTime();
  const double t2 = f.HarnessWrite(0, data, 5e6);
  EXPECT_GT(t2, t1);
  EXPECT_GE(t2, 5e6);
}

/// One server, no partial-stripe charge: a request of n bytes holds the
/// server for exactly 1000 + n ns, and arrives at its start time.
Config OneServerConfig() {
  Config c = FastConfig();
  c.num_servers = 1;
  c.stripe_size = 1 << 20;
  c.write_partial_stripe_rmw = false;
  return c;
}

TEST(TimeModel, SeededScriptMatchesFcfsArithmeticExactly) {
  // Each server is one FCFS timeline: a request begins at
  // max(arrival, next_free) and is done at begin + request_ns + payload_ns.
  // A seeded script (bursts at equal arrivals, idle gaps, late arrivals
  // issued after earlier ones) must reproduce that arithmetic bit for bit.
  FileSystem fs(OneServerConfig());
  auto f = fs.Create("t", false).value();
  pnc::SplitMix64 rng(1234);
  double next_free = 0.0;
  double t = 0.0;
  for (int i = 0; i < 400; ++i) {
    if (rng.Next() % 3 == 0) t += static_cast<double>(rng.Next() % 5000);
    const std::size_t n = 200 + rng.Next() % 2000;
    const double begin = std::max(t, next_free);
    const double done = begin + 1000.0 + static_cast<double>(n);
    next_free = done;
    ASSERT_EQ(f.HarnessWrite(0, Pattern(n, 16), t), done) << "request " << i;
  }
}

TEST(TimeModel, ZeroLengthFlushObservesQueueWithoutExtendingIt) {
  FileSystem fs(OneServerConfig());
  auto f = fs.Create("t", false).value();
  const double w1 = f.HarnessWrite(0, Pattern(4096, 17), 0.0);
  EXPECT_EQ(w1, 1000.0 + 4096.0);
  // A flush arriving while the server is busy begins at next_free...
  EXPECT_EQ(f.HarnessSync(0.0), w1 + 1000.0);
  // ...and one arriving after the queue drained begins at its arrival.
  EXPECT_EQ(f.HarnessSync(1e6), 1e6 + 1000.0);
  // Neither flush moved the timeline: the next data request still begins
  // where the first write left it.
  EXPECT_EQ(f.HarnessWrite(0, Pattern(4096, 18), 0.0), w1 + 1000.0 + 4096.0);
}

TEST(TimeModel, QueueDepthGaugeCountsOverlappingGrants) {
#if !PNC_IOSTAT_ENABLED
  GTEST_SKIP() << "instrumentation compiled out (PNC_IOSTAT=OFF)";
#endif
  iostat::Registry& reg = iostat::Registry::Get();
  reg.Reset();
  reg.SetCountersEnabled(true);
  const auto depth = [&reg] {
    return reg.Value(0, iostat::Ctr::kPfsQueueDepthMax);
  };
  FileSystem fs(OneServerConfig());
  auto f = fs.Create("t", false).value();
  // Three requests arriving together: each sees the ones still in flight.
  for (int i = 0; i < 3; ++i) f.HarnessWrite(0, Pattern(1000, 19), 0.0);
  EXPECT_EQ(depth(), 3u);
  // After every grant completed, a lone request sees only itself...
  reg.Reset();
  reg.SetCountersEnabled(true);
  f.HarnessWrite(0, Pattern(1000, 20), 1e6);
  EXPECT_EQ(depth(), 1u);
  // ...and a second one overlapping it sees two. Flushes never count.
  f.HarnessSync(1e6);
  f.HarnessWrite(0, Pattern(1000, 21), 1e6);
  EXPECT_EQ(depth(), 2u);
  reg.Reset();
}

TEST(TimeModel, DataIntegrityUnderConcurrentDisjointWrites) {
  FileSystem fs(FastConfig());
  auto f = fs.Create("t", false).value();
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&f, i] {
      auto data = Pattern(10000, 100 + static_cast<std::uint64_t>(i));
      f.HarnessWrite(static_cast<std::uint64_t>(i) * 10000, data, 0.0);
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < 8; ++i) {
    std::vector<std::byte> out(10000);
    f.HarnessRead(static_cast<std::uint64_t>(i) * 10000, out, 0.0);
    EXPECT_EQ(out, Pattern(10000, 100 + static_cast<std::uint64_t>(i))) << i;
  }
}

}  // namespace
}  // namespace pfs
