#include "minimpi/runtime.h"

#include <gtest/gtest.h>

#include <atomic>

namespace sompi::mpi {
namespace {

TEST(MiniMpi, PointToPointRoundTrip) {
  const RunResult r = Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 7, 42);
      EXPECT_EQ(comm.recv<int>(1, 8), 43);
    } else {
      EXPECT_EQ(comm.recv<int>(0, 7), 42);
      comm.send<int>(0, 8, 43);
    }
  });
  EXPECT_TRUE(r.completed);
}

TEST(MiniMpi, VectorMessages) {
  const RunResult r = Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_vec<double>(1, 1, std::vector<double>{1.5, 2.5, 3.5});
    } else {
      const auto v = comm.recv_vec<double>(0, 1);
      ASSERT_EQ(v.size(), 3u);
      EXPECT_DOUBLE_EQ(v[2], 3.5);
    }
  });
  EXPECT_TRUE(r.completed);
}

TEST(MiniMpi, WildcardsMatchAnything) {
  const RunResult r = Runtime::run(3, [](Comm& comm) {
    if (comm.rank() != 0) {
      comm.send<int>(0, comm.rank() * 10, comm.rank());
    } else {
      int sum = 0;
      for (int i = 0; i < 2; ++i) {
        const Message m = comm.recv_message(kAnySource, kAnyTag);
        EXPECT_EQ(m.tag, m.source * 10);
        sum += m.source;
      }
      EXPECT_EQ(sum, 3);
    }
  });
  EXPECT_TRUE(r.completed);
}

TEST(MiniMpi, NonOvertakingSameSourceSameTag) {
  const RunResult r = Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 50; ++i) comm.send<int>(1, 5, i);
    } else {
      for (int i = 0; i < 50; ++i) EXPECT_EQ(comm.recv<int>(0, 5), i);
    }
  });
  EXPECT_TRUE(r.completed);
}

TEST(MiniMpi, TagSelectionOutOfOrder) {
  const RunResult r = Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 1, 100);
      comm.send<int>(1, 2, 200);
    } else {
      // Receive tag 2 first even though tag 1 arrived earlier.
      EXPECT_EQ(comm.recv<int>(0, 2), 200);
      EXPECT_EQ(comm.recv<int>(0, 1), 100);
    }
  });
  EXPECT_TRUE(r.completed);
}

class CollectiveTest : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveTest, Barrier) {
  const int n = GetParam();
  std::atomic<int> arrived{0};
  const RunResult r = Runtime::run(n, [&](Comm& comm) {
    arrived.fetch_add(1);
    comm.barrier();
    // Everyone must have arrived before anyone passes.
    EXPECT_EQ(arrived.load(), n);
  });
  EXPECT_TRUE(r.completed);
}

TEST_P(CollectiveTest, BcastFromEveryRoot) {
  const int n = GetParam();
  for (int root = 0; root < n; ++root) {
    const RunResult r = Runtime::run(n, [root](Comm& comm) {
      std::vector<int> data;
      if (comm.rank() == root) data = {root, 17, 29};
      comm.bcast(data, root);
      ASSERT_EQ(data.size(), 3u);
      EXPECT_EQ(data[0], root);
      EXPECT_EQ(data[2], 29);
    });
    EXPECT_TRUE(r.completed) << "root " << root;
  }
}

TEST_P(CollectiveTest, ReduceAndAllreduce) {
  const int n = GetParam();
  const RunResult r = Runtime::run(n, [n](Comm& comm) {
    const int sum = comm.reduce(comm.rank() + 1, ReduceOp::kSum, 0);
    if (comm.rank() == 0) {
      EXPECT_EQ(sum, n * (n + 1) / 2);
    }
    EXPECT_EQ(comm.allreduce(comm.rank(), ReduceOp::kMax), n - 1);
    EXPECT_EQ(comm.allreduce(comm.rank(), ReduceOp::kMin), 0);
    EXPECT_DOUBLE_EQ(comm.allreduce(0.5, ReduceOp::kSum), 0.5 * n);
  });
  EXPECT_TRUE(r.completed);
}

TEST_P(CollectiveTest, GatherAndAllgather) {
  const int n = GetParam();
  const RunResult r = Runtime::run(n, [n](Comm& comm) {
    const auto at_root = comm.gather(comm.rank() * 3, 0);
    if (comm.rank() == 0) {
      ASSERT_EQ(static_cast<int>(at_root.size()), n);
      for (int i = 0; i < n; ++i) EXPECT_EQ(at_root[static_cast<std::size_t>(i)], i * 3);
    } else {
      EXPECT_TRUE(at_root.empty());
    }
    const auto everywhere = comm.allgather(comm.rank() + 100);
    ASSERT_EQ(static_cast<int>(everywhere.size()), n);
    for (int i = 0; i < n; ++i) EXPECT_EQ(everywhere[static_cast<std::size_t>(i)], i + 100);
  });
  EXPECT_TRUE(r.completed);
}

TEST_P(CollectiveTest, AlltoallPersonalized) {
  const int n = GetParam();
  const RunResult r = Runtime::run(n, [n](Comm& comm) {
    // Rank r sends {r, d} to rank d.
    std::vector<std::vector<int>> send(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) send[static_cast<std::size_t>(d)] = {comm.rank(), d};
    const auto recv = comm.alltoall(send);
    ASSERT_EQ(static_cast<int>(recv.size()), n);
    for (int s = 0; s < n; ++s) {
      ASSERT_EQ(recv[static_cast<std::size_t>(s)].size(), 2u);
      EXPECT_EQ(recv[static_cast<std::size_t>(s)][0], s);
      EXPECT_EQ(recv[static_cast<std::size_t>(s)][1], comm.rank());
    }
  });
  EXPECT_TRUE(r.completed);
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectiveTest, ::testing::Values(1, 2, 3, 4, 7, 8));

TEST(MiniMpi, StatsCountTraffic) {
  const RunResult r = Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) comm.send_vec<double>(1, 1, std::vector<double>(10, 1.0));
    if (comm.rank() == 1) (void)comm.recv_vec<double>(0, 1);
  });
  ASSERT_TRUE(r.completed);
  EXPECT_EQ(r.stats[0].messages_sent, 1u);
  EXPECT_EQ(r.stats[0].bytes_sent, 80u);
  EXPECT_EQ(r.stats[1].bytes_received, 80u);
  EXPECT_EQ(r.total_stats().bytes_sent, 80u);
}

TEST(MiniMpi, AsyncKillUnblocksEveryRank) {
  Runtime rt(4);
  rt.launch([](Comm& comm) {
    if (comm.rank() == 0) {
      // Blocks forever: nobody ever sends tag 99.
      (void)comm.recv<int>(kAnySource, 99);
    } else {
      comm.barrier();  // blocks: rank 0 never reaches the barrier
    }
  });
  rt.kill();
  const RunResult r = rt.join();
  EXPECT_TRUE(r.killed);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(r.errors.empty());
}

TEST(MiniMpi, TickArmedKillFiresDeterministically) {
  // 4 ranks × 25 iterations = 100 ticks; arm at 40 → killed mid-run.
  const RunResult r = Runtime::run_with_kill(
      4,
      [](Comm& comm) {
        for (int i = 0; i < 25; ++i) {
          comm.tick();
          comm.barrier();
        }
      },
      40);
  EXPECT_TRUE(r.killed);
}

TEST(MiniMpi, TickBudgetLargerThanRunCompletes) {
  const RunResult r = Runtime::run_with_kill(
      2,
      [](Comm& comm) {
        for (int i = 0; i < 5; ++i) comm.tick();
      },
      1000);
  EXPECT_TRUE(r.completed);
}

TEST(MiniMpi, RankErrorFailsFastWithoutDeadlock) {
  const RunResult r = Runtime::run(3, [](Comm& comm) {
    if (comm.rank() == 2) throw std::runtime_error("boom");
    comm.barrier();  // would deadlock forever without fail-fast
  });
  EXPECT_FALSE(r.completed);
  ASSERT_EQ(r.errors.size(), 1u);
  EXPECT_NE(r.errors[0].find("rank 2: boom"), std::string::npos);
}

TEST(MiniMpi, DestructorReapsRunningWorld) {
  // A Runtime destroyed while ranks are blocked must not hang or leak.
  {
    Runtime rt(2);
    rt.launch([](Comm& comm) { (void)comm.recv<int>(kAnySource, 1); });
  }
  SUCCEED();
}

TEST(MiniMpi, SendValidatesArguments) {
  const RunResult r = Runtime::run(1, [](Comm& comm) {
    EXPECT_THROW(comm.send<int>(5, 0, 1), PreconditionError);
    EXPECT_THROW(comm.send<int>(0, -3, 1), PreconditionError);
  });
  EXPECT_TRUE(r.completed);
}

TEST(MiniMpi, ProbeSeesQueuedMessage) {
  const RunResult r = Runtime::run(2, [](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, 4, 9);
      comm.barrier();
    } else {
      comm.barrier();
      EXPECT_TRUE(comm.probe(0, 4));
      EXPECT_FALSE(comm.probe(0, 5));
      (void)comm.recv<int>(0, 4);
      EXPECT_FALSE(comm.probe(0, 4));
    }
  });
  EXPECT_TRUE(r.completed);
}

}  // namespace
}  // namespace sompi::mpi
