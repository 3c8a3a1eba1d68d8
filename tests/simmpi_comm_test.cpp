// Tests for the thread-backed MPI subset: point-to-point matching,
// collectives, communicator management, and virtual-clock behaviour.
#include "simmpi/comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>

#include "simmpi/runtime.hpp"

namespace simmpi {
namespace {

std::vector<std::byte> Bytes(const std::string& s) {
  std::vector<std::byte> b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

std::string Str(const std::vector<std::byte>& b) {
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

TEST(Runtime, RunsEveryRankExactlyOnce) {
  std::atomic<int> count{0};
  std::array<std::atomic<bool>, 8> seen{};
  simmpi::Run(8, [&](Comm& c) {
    count.fetch_add(1);
    seen[static_cast<std::size_t>(c.rank())] = true;
    EXPECT_EQ(c.size(), 8);
  });
  EXPECT_EQ(count.load(), 8);
  for (const auto& s : seen) EXPECT_TRUE(s.load());
}

TEST(Runtime, PropagatesExceptions) {
  EXPECT_THROW(simmpi::Run(2, [](Comm& c) {
                 if (c.rank() == 1) throw std::runtime_error("rank 1 died");
                 // rank 0 must not block on a collective here, or join hangs
               }),
               std::runtime_error);
}

TEST(PointToPoint, BasicSendRecv) {
  simmpi::Run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.Send(1, 7, Bytes("ping"));
    } else {
      auto msg = c.Recv(0, 7);
      EXPECT_EQ(Str(msg), "ping");
    }
  });
}

TEST(PointToPoint, TagAndSourceMatching) {
  simmpi::Run(3, [](Comm& c) {
    if (c.rank() == 0) {
      c.Send(2, 5, Bytes("from0tag5"));
    } else if (c.rank() == 1) {
      c.Send(2, 9, Bytes("from1tag9"));
    } else {
      // Receive in the opposite order of arrival likelihood: matching must
      // pick by envelope, not queue position.
      auto a = c.Recv(1, 9);
      auto b = c.Recv(0, 5);
      EXPECT_EQ(Str(a), "from1tag9");
      EXPECT_EQ(Str(b), "from0tag5");
    }
  });
}

TEST(PointToPoint, Wildcards) {
  simmpi::Run(2, [](Comm& c) {
    if (c.rank() == 0) {
      c.Send(1, 3, Bytes("x"));
    } else {
      int src = -2, tag = -2;
      auto m = c.Recv(kAnySource, kAnyTag, &src, &tag);
      EXPECT_EQ(src, 0);
      EXPECT_EQ(tag, 3);
      EXPECT_EQ(Str(m), "x");
    }
  });
}

TEST(PointToPoint, FifoPerPair) {
  simmpi::Run(2, [](Comm& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 10; ++i) c.Send(1, 1, Bytes(std::to_string(i)));
    } else {
      for (int i = 0; i < 10; ++i)
        EXPECT_EQ(Str(c.Recv(0, 1)), std::to_string(i));
    }
  });
}

class CollectiveP : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveP, BcastFixed) {
  simmpi::Run(GetParam(), [](Comm& c) {
    std::uint64_t v = c.rank() == 2 % c.size() ? 0xC0FFEE : 0;
    c.BcastValue(v, 2 % c.size());
    EXPECT_EQ(v, 0xC0FFEEu);
  });
}

TEST_P(CollectiveP, BcastResizing) {
  simmpi::Run(GetParam(), [](Comm& c) {
    std::vector<std::byte> buf;
    if (c.rank() == 0) buf = Bytes("a moderately long broadcast payload");
    c.Bcast(buf, 0);
    EXPECT_EQ(Str(buf), "a moderately long broadcast payload");
  });
}

TEST_P(CollectiveP, AllreduceMaxMinSum) {
  simmpi::Run(GetParam(), [](Comm& c) {
    const int p = c.size();
    EXPECT_EQ(c.AllreduceMax(c.rank()), p - 1);
    EXPECT_EQ(c.AllreduceMin(c.rank()), 0);
    EXPECT_EQ(c.AllreduceSum(c.rank() + 1), p * (p + 1) / 2);
    EXPECT_EQ(c.AllreduceMax(3.5 + c.rank()), 3.5 + p - 1);
  });
}

TEST_P(CollectiveP, GatherAndScatter) {
  simmpi::Run(GetParam(), [](Comm& c) {
    auto gathered = c.Gather(Bytes("r" + std::to_string(c.rank())), 0);
    if (c.rank() == 0) {
      ASSERT_EQ(static_cast<int>(gathered.size()), c.size());
      for (int r = 0; r < c.size(); ++r)
        EXPECT_EQ(Str(gathered[static_cast<std::size_t>(r)]),
                  "r" + std::to_string(r));
    }
    std::vector<std::vector<std::byte>> pieces;
    if (c.rank() == 0) {
      for (int r = 0; r < c.size(); ++r)
        pieces.push_back(Bytes("piece" + std::to_string(r)));
    }
    auto mine = c.Scatter(std::move(pieces), 0);
    EXPECT_EQ(Str(mine), "piece" + std::to_string(c.rank()));
  });
}

TEST_P(CollectiveP, Allgather) {
  simmpi::Run(GetParam(), [](Comm& c) {
    auto all = c.Allgather(Bytes(std::string(1 + c.rank() % 3, 'x') +
                                 std::to_string(c.rank())));
    ASSERT_EQ(static_cast<int>(all.size()), c.size());
    for (int r = 0; r < c.size(); ++r)
      EXPECT_EQ(Str(all[static_cast<std::size_t>(r)]),
                std::string(1 + r % 3, 'x') + std::to_string(r));
  });
}

TEST_P(CollectiveP, AlltoallPersonalized) {
  simmpi::Run(GetParam(), [](Comm& c) {
    std::vector<std::vector<std::byte>> send;
    for (int r = 0; r < c.size(); ++r)
      send.push_back(Bytes(std::to_string(c.rank()) + "->" + std::to_string(r)));
    auto recv = c.Alltoall(std::move(send));
    for (int r = 0; r < c.size(); ++r)
      EXPECT_EQ(Str(recv[static_cast<std::size_t>(r)]),
                std::to_string(r) + "->" + std::to_string(c.rank()));
  });
}

TEST_P(CollectiveP, ReduceByteFold) {
  simmpi::Run(GetParam(), [](Comm& c) {
    std::uint32_t v = 1u << c.rank();
    ReduceFn orfn = [](pnc::ByteSpan a, pnc::ConstByteSpan b) {
      std::uint32_t x, y;
      std::memcpy(&x, a.data(), 4);
      std::memcpy(&y, b.data(), 4);
      x |= y;
      std::memcpy(a.data(), &x, 4);
    };
    c.Reduce(pnc::ByteSpan(reinterpret_cast<std::byte*>(&v), 4), orfn, 0);
    if (c.rank() == 0) {
      EXPECT_EQ(v, (c.size() >= 32 ? ~0u : (1u << c.size()) - 1));
    }
  });
}

TEST_P(CollectiveP, AllAgree) {
  simmpi::Run(GetParam(), [](Comm& c) {
    int same = 42;
    EXPECT_TRUE(c.AllAgree(
        pnc::ConstByteSpan(reinterpret_cast<std::byte*>(&same), 4)));
    int diff = c.rank() == 0 ? 1 : 2;
    if (c.size() > 1) {
      EXPECT_FALSE(c.AllAgree(
          pnc::ConstByteSpan(reinterpret_cast<std::byte*>(&diff), 4)));
    }
  });
}

TEST_P(CollectiveP, BarrierSynchronizesClocks) {
  simmpi::Run(GetParam(), [](Comm& c) {
    // Skew the clocks, then barrier: every clock must be >= the pre-barrier
    // maximum (the barrier cannot complete before the slowest rank arrives).
    const double skew = 1e6 * (c.rank() + 1);
    c.clock().Advance(skew);
    const double pre_max = 1e6 * c.size();
    c.Barrier();
    EXPECT_GE(c.clock().now(), pre_max);
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveP, ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(CommManagement, DupIsolatesTraffic) {
  simmpi::Run(2, [](Comm& c) {
    Comm d = c.Dup();
    if (c.rank() == 0) {
      c.Send(1, 5, Bytes("on-c"));
      d.Send(1, 5, Bytes("on-d"));
    } else {
      // Receive from the dup first: context matching must not hand over the
      // message sent on the parent communicator.
      EXPECT_EQ(Str(d.Recv(0, 5)), "on-d");
      EXPECT_EQ(Str(c.Recv(0, 5)), "on-c");
    }
  });
}

TEST(CommManagement, SplitByParity) {
  simmpi::Run(6, [](Comm& c) {
    Comm sub = c.Split(c.rank() % 2, c.rank());
    EXPECT_EQ(sub.size(), 3);
    EXPECT_EQ(sub.rank(), c.rank() / 2);
    // Collective inside the split communicator.
    EXPECT_EQ(sub.AllreduceSum(1), 3);
    // Ranks ordered by key.
    auto all = sub.Allgather(Bytes(std::to_string(c.rank())));
    for (int r = 0; r < 3; ++r)
      EXPECT_EQ(Str(all[static_cast<std::size_t>(r)]),
                std::to_string(2 * r + c.rank() % 2));
  });
}

TEST(CommManagement, SplitSingletonColors) {
  simmpi::Run(4, [](Comm& c) {
    Comm solo = c.Split(c.rank(), 0);
    EXPECT_EQ(solo.size(), 1);
    EXPECT_EQ(solo.rank(), 0);
    EXPECT_EQ(solo.AllreduceSum(c.rank()), c.rank());
  });
}

TEST(VirtualTime, MessageDeliveryAdvancesReceiverClock) {
  CostModel cm;
  cm.msg_latency_ns = 1000.0;
  cm.msg_ns_per_byte = 1.0;
  cm.sw_overhead_ns = 0.0;
  simmpi::Run(2,
      [](Comm& c) {
        if (c.rank() == 0) {
          c.Send(1, 1, std::vector<std::byte>(500));
        } else {
          (void)c.Recv(0, 1);
          // Arrival >= latency + 500 bytes * 1 ns.
          EXPECT_GE(c.clock().now(), 1500.0);
        }
      },
      cm);
}

TEST(VirtualTime, RunReportsMakespan) {
  auto result = simmpi::Run(4, [](Comm& c) {
    c.clock().Advance(1e9 * (c.rank() + 1));
  });
  EXPECT_DOUBLE_EQ(result.max_time_ns, 4e9);
  ASSERT_EQ(result.rank_times_ns.size(), 4u);
  EXPECT_DOUBLE_EQ(result.rank_times_ns[0], 1e9);
}

TEST(VirtualTime, SyncClocksToMax) {
  simmpi::Run(3, [](Comm& c) {
    c.clock().Advance(100.0 * c.rank());
    c.SyncClocksToMax();
    EXPECT_GE(c.clock().now(), 200.0);
  });
}

}  // namespace
}  // namespace simmpi
