// Tests for the thread-backed MPI subset: point-to-point matching,
// collectives, communicator management, and virtual-clock behaviour.
#include "simmpi/comm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>
#include <thread>

#include "iostat/iostat.hpp"
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

// ---- the fault-aware agreement vocabulary ----------------------------------
// Each helper stands for one raw collective. Unarmed it must be that
// collective: the same value, the same mpi.collectives and mpi.messages on
// every rank, the same per-rank clocks. Armed with nobody dead it must agree
// on the same value; armed with rank 1 crashed before the call every
// survivor must get kRankFailed, without hanging.

/// One rank's outcome of a helper: the status it returned and the value it
/// agreed on, as text (so outcomes compare across modes).
struct Outcome {
  pnc::Err code = pnc::Err::kNoErr;
  std::string value;
};

struct AgreeCase {
  const char* name;
  std::function<std::string(Comm&)> raw;  ///< the plain collective
  std::function<Outcome(Comm&)> helper;
};

std::string StatusText(const pnc::Status& st) {
  return std::to_string(st.raw()) + ":" + st.message();
}

template <typename T>
Outcome Folded(const pnc::Status& st, T v) {
  return {st.code(), std::to_string(v)};
}

constexpr int kTestFtTag = 1 << 20;

std::vector<AgreeCase> AgreeCases() {
  // Rank-dependent inputs, including an all-ones sentinel in the unsigned
  // fold and a failing rank that is not the most severe.
  const auto sentinel = [](Comm& c) -> std::uint64_t {
    return c.rank() == 0 ? ~0ULL : 100 + c.rank();
  };
  const auto local_status = [](Comm& c) {
    if (c.rank() == c.size() - 1) return pnc::Status(pnc::Err::kIo, "mine");
    if (c.rank() == 0) return pnc::Status(pnc::Err::kBadType, "mine");
    return pnc::Status::Ok();
  };
  const auto bytes_of = [](Comm& c) {
    return Bytes(c.rank() == c.size() - 1 ? "tail" : "same");
  };
  const auto sends = [](Comm& c) {
    std::vector<std::vector<std::byte>> send;
    for (int r = 0; r < c.size(); ++r)
      send.push_back(Bytes(std::to_string(c.rank()) + ">" + std::to_string(r)));
    return send;
  };
  const auto joined = [](const std::vector<std::vector<std::byte>>& v) {
    std::string s;
    for (const auto& b : v) s += Str(b) + ";";
    return s;
  };
  return {
      {"Barrier",
       [](Comm& c) {
         c.Barrier();
         return std::string();
       },
       [](Comm& c) { return Outcome{c.AgreeBarrier().code(), ""}; }},
      {"Root",
       [](Comm& c) {
         int v = c.rank() == 0 ? -7 : c.rank();
         c.BcastValue(v, 0);
         return std::to_string(v);
       },
       [](Comm& c) {
         int v = c.rank() == 0 ? -7 : c.rank();
         const pnc::Status st = c.AgreeRoot(&v);
         return Folded(st, v);
       }},
      {"MinU64", [=](Comm& c) { return std::to_string(c.AllreduceMin(sentinel(c))); },
       [=](Comm& c) {
         std::uint64_t v = 0;
         const pnc::Status st = c.AgreeMin(sentinel(c), &v);
         return Folded(st, v);
       }},
      {"MaxU64", [=](Comm& c) { return std::to_string(c.AllreduceMax(sentinel(c))); },
       [=](Comm& c) {
         std::uint64_t v = 0;
         const pnc::Status st = c.AgreeMax(sentinel(c), &v);
         return Folded(st, v);
       }},
      {"MaxU8",
       [](Comm& c) {
         return std::to_string(
             c.AllreduceMax<std::uint8_t>(c.rank() % 2 == 1 ? 200 : 3));
       },
       [](Comm& c) {
         std::uint8_t v = 0;
         const pnc::Status st =
             c.AgreeMax<std::uint8_t>(c.rank() % 2 == 1 ? 200 : 3, &v);
         return Folded(st, v);
       }},
      {"MinInt", [](Comm& c) { return std::to_string(c.AllreduceMin(-3 * c.rank())); },
       [](Comm& c) {
         int v = 0;
         const pnc::Status st = c.AgreeMin(-3 * c.rank(), &v);
         return Folded(st, v);
       }},
      {"Status",
       [=](Comm& c) {
         const pnc::Status local = local_status(c);
         const int agreed = c.AllreduceMin(local.raw());
         if (agreed == 0) return StatusText(pnc::Status::Ok());
         if (agreed == local.raw()) return StatusText(local);
         return StatusText(
             pnc::Status(static_cast<pnc::Err>(agreed), "peer failed"));
       },
       [=](Comm& c) {
         const pnc::Status st = c.AgreeStatus(local_status(c), "peer failed");
         return Outcome{st.code(), StatusText(st)};
       }},
      {"StatusFlag",
       [=](Comm& c) {
         const pnc::Status local = local_status(c);
         if (c.AllreduceMin<std::uint8_t>(local.ok() ? 1 : 0) != 0)
           return StatusText(pnc::Status::Ok());
         return StatusText(local.ok() ? pnc::Status(pnc::Err::kMultiDefine,
                                                    "peer failed")
                                      : local);
       },
       [=](Comm& c) {
         const pnc::Status st = c.AgreeStatus(local_status(c), "peer failed",
                                              pnc::Err::kMultiDefine);
         return Outcome{st.code(), StatusText(st)};
       }},
      {"Bcast",
       [](Comm& c) {
         std::vector<std::byte> b;
         if (c.rank() == 0) b = Bytes("root payload");
         c.Bcast(b, 0);
         return Str(b);
       },
       [](Comm& c) {
         std::vector<std::byte> b;
         if (c.rank() == 0) b = Bytes("root payload");
         const pnc::Status st = c.AgreeBcast(b, kTestFtTag);
         return Outcome{st.code(), Str(b)};
       }},
      {"Same",
       [=](Comm& c) { return std::to_string(c.AllAgree(bytes_of(c))); },
       [=](Comm& c) {
         bool same = false;
         const pnc::Status st = c.AgreeSame(bytes_of(c), &same);
         return Folded(st, same);
       }},
      {"Alltoall", [=](Comm& c) { return joined(c.Alltoall(sends(c))); },
       [=](Comm& c) {
         std::vector<std::vector<std::byte>> out;
         const pnc::Status st = c.AgreeAlltoall(sends(c), kTestFtTag, &out);
         return Outcome{st.code(), joined(out)};
       }},
      {"Rendezvous",
       [](Comm& c) {
         c.SyncClocksToMax();
         return std::string();
       },
       [](Comm& c) { return Outcome{c.Rendezvous().code(), ""}; }},
  };
}

/// Per-rank counters and clocks of one run, plus each rank's outcome.
struct Footprint {
  std::vector<std::uint64_t> collectives, messages;
  std::vector<double> clocks;
  std::vector<Outcome> outcomes;
};

Footprint Measure(int p, const std::function<Outcome(Comm&)>& body,
                  const RankFaultPolicy& faults = {}) {
  auto& reg = iostat::Registry::Get();
  reg.Reset();
  Footprint f;
  f.outcomes.resize(static_cast<std::size_t>(p));
  const RunResult run = simmpi::Run(
      p,
      [&](Comm& c) {
        // Skewed arrivals, so every clock rendezvous is visible.
        c.clock().Advance(1000.0 * (c.rank() + 1));
        f.outcomes[static_cast<std::size_t>(c.rank())] = body(c);
      },
      CostModel{}, faults);
  f.clocks = run.rank_times_ns;
  for (int r = 0; r < p; ++r) {
    f.collectives.push_back(reg.Value(r, iostat::Ctr::kMpiCollectives));
    f.messages.push_back(reg.Value(r, iostat::Ctr::kMpiMessages));
  }
  return f;
}

RankFaultPolicy ArmedNoDeath() {
  RankFaultPolicy p;
  p.crashes.push_back({});  // rank -1: armed, but nobody ever dies
  return p;
}

/// Rank 1 dies at its first op, which it spends before the helper; the
/// others wait until the death is visible, then call the helper.
std::function<Outcome(Comm&)> AfterRank1Dies(
    const std::function<Outcome(Comm&)>& helper) {
  return [helper](Comm& c) {
    if (c.rank() == 1) c.Send(0, 7, {});  // crashes here
    while (!c.RankDead(1)) std::this_thread::yield();
    return helper(c);
  };
}

TEST_P(CollectiveP, AgreeHelpersUnarmedAreTheRawCollective) {
  for (const AgreeCase& ac : AgreeCases()) {
    SCOPED_TRACE(ac.name);
    const Footprint raw = Measure(GetParam(), [&](Comm& c) {
      return Outcome{pnc::Err::kNoErr, ac.raw(c)};
    });
    const Footprint helper = Measure(GetParam(), ac.helper);
    EXPECT_EQ(helper.collectives, raw.collectives);
    EXPECT_EQ(helper.messages, raw.messages);
    EXPECT_EQ(helper.clocks, raw.clocks);
    for (int r = 0; r < GetParam(); ++r) {
      const auto i = static_cast<std::size_t>(r);
      EXPECT_EQ(helper.outcomes[i].value, raw.outcomes[i].value) << "rank " << r;
      if (std::string_view(ac.name).starts_with("Status")) continue;
      EXPECT_EQ(helper.outcomes[i].code, pnc::Err::kNoErr) << "rank " << r;
    }
  }
}

TEST_P(CollectiveP, AgreeHelpersArmedAgreeOnTheSameValue) {
  for (const AgreeCase& ac : AgreeCases()) {
    SCOPED_TRACE(ac.name);
    const Footprint raw = Measure(GetParam(), [&](Comm& c) {
      return Outcome{pnc::Err::kNoErr, ac.raw(c)};
    });
    const Footprint armed = Measure(GetParam(), ac.helper, ArmedNoDeath());
    for (int r = 0; r < GetParam(); ++r) {
      const auto i = static_cast<std::size_t>(r);
      EXPECT_EQ(armed.outcomes[i].value, raw.outcomes[i].value) << "rank " << r;
    }
  }
}

TEST_P(CollectiveP, AgreeHelpersArmedTurnADeadPeerIntoRankFailed) {
  if (GetParam() < 2) GTEST_SKIP() << "needs a rank 1";
  RankFaultPolicy faults;
  faults.crashes.push_back({.rank = 1, .at_op = 0});
  for (const AgreeCase& ac : AgreeCases()) {
    SCOPED_TRACE(ac.name);
    const Footprint f = Measure(GetParam(), AfterRank1Dies(ac.helper), faults);
    for (int r = 0; r < GetParam(); ++r) {
      if (r == 1) continue;
      EXPECT_EQ(f.outcomes[static_cast<std::size_t>(r)].code,
                pnc::Err::kRankFailed)
          << "rank " << r;
    }
  }
}

TEST_P(CollectiveP, EnterCollectiveIsThisCommOrTheSurvivors) {
  const int p = GetParam();
  const auto enter = [](Comm& c) {
    auto work = c.EnterCollective();
    if (!work.ok()) return Outcome{work.status().code(), ""};
    return Outcome{pnc::Err::kNoErr,
                   std::to_string(work.value().size()) + "/" +
                       std::to_string(work.value().rank()) + "/" +
                       std::to_string(work.value().AllreduceSum(1))};
  };
  // Unarmed: this comm itself, entered without a message or a clock step.
  const Footprint unarmed = Measure(p, enter);
  const Footprint plain = Measure(p, [](Comm& c) {
    c.AllreduceSum(1);
    return Outcome{};
  });
  EXPECT_EQ(unarmed.collectives, plain.collectives);
  EXPECT_EQ(unarmed.messages, plain.messages);
  EXPECT_EQ(unarmed.clocks, plain.clocks);
  const Footprint armed = Measure(p, enter, ArmedNoDeath());
  for (int r = 0; r < p; ++r) {
    const auto i = static_cast<std::size_t>(r);
    std::string whole = std::to_string(p);
    whole.append("/").append(std::to_string(r)).append("/").append(
        std::to_string(p));
    EXPECT_EQ(unarmed.outcomes[i].value, whole);
    EXPECT_EQ(armed.outcomes[i].value, whole);
  }
  if (p < 2) return;
  // Armed with rank 1 dead: the survivors' subset, renumbered in order.
  RankFaultPolicy faults;
  faults.crashes.push_back({.rank = 1, .at_op = 0});
  const Footprint shrunk = Measure(p, AfterRank1Dies(enter), faults);
  for (int r = 0; r < p; ++r) {
    if (r == 1) continue;
    std::string survivors = std::to_string(p - 1);
    survivors.append("/").append(std::to_string(r == 0 ? 0 : r - 1));
    survivors.append("/").append(std::to_string(p - 1));
    EXPECT_EQ(shrunk.outcomes[static_cast<std::size_t>(r)].value, survivors)
        << "rank " << r;
  }
}

TEST_P(CollectiveP, RendezvousAfterAgreementSyncsUnarmedOnly) {
  const int p = GetParam();
  const auto after = [](Comm& c) {
    c.RendezvousAfterAgreement();
    return Outcome{};
  };
  const Footprint raw = Measure(p, [](Comm& c) {
    c.SyncClocksToMax();
    return Outcome{};
  });
  const Footprint unarmed = Measure(p, after);
  EXPECT_EQ(unarmed.collectives, raw.collectives);
  EXPECT_EQ(unarmed.messages, raw.messages);
  EXPECT_EQ(unarmed.clocks, raw.clocks);
  // Armed it is a no-op: the agreement before it already synchronized the
  // survivors, and a dead peer cannot make it hang.
  const Footprint idle = Measure(p, [](Comm&) { return Outcome{}; },
                                 ArmedNoDeath());
  EXPECT_EQ(Measure(p, after, ArmedNoDeath()).clocks, idle.clocks);
  if (p < 2) return;
  RankFaultPolicy faults;
  faults.crashes.push_back({.rank = 1, .at_op = 0});
  const Footprint dead = Measure(p, AfterRank1Dies([](Comm& c) {
                                   c.RendezvousAfterAgreement();
                                   return Outcome{};
                                 }),
                                 faults);
  EXPECT_EQ(dead.messages[0], 0u);
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
