#include "checkpoint/checkpointer.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include "checkpoint/state_buffer.h"
#include "minimpi/runtime.h"

namespace sompi {
namespace {

std::vector<std::byte> blob_of(const std::string& s) {
  std::vector<std::byte> b(s.size());
  std::memcpy(b.data(), s.data(), s.size());
  return b;
}

std::string string_of(const std::vector<std::byte>& b) {
  return {reinterpret_cast<const char*>(b.data()), b.size()};
}

// --- Storage backends --------------------------------------------------------

template <typename T>
std::unique_ptr<StorageBackend> make_store();

template <>
std::unique_ptr<StorageBackend> make_store<MemoryStore>() {
  return std::make_unique<MemoryStore>();
}
template <>
std::unique_ptr<StorageBackend> make_store<S3Sim>() {
  return std::make_unique<S3Sim>();
}
template <>
std::unique_ptr<StorageBackend> make_store<DiskStore>() {
  return std::make_unique<DiskStore>(::testing::TempDir() + "/sompi_store_" +
                                     std::to_string(::getpid()) + "_" +
                                     ::testing::UnitTest::GetInstance()
                                         ->current_test_info()
                                         ->name());
}

template <typename T>
class StorageTest : public ::testing::Test {};

using StorageTypes = ::testing::Types<MemoryStore, S3Sim, DiskStore>;
TYPED_TEST_SUITE(StorageTest, StorageTypes);

TYPED_TEST(StorageTest, PutGetOverwriteRemove) {
  auto store = make_store<TypeParam>();
  EXPECT_FALSE(store->get("a").has_value());
  store->put("a", blob_of("hello"));
  EXPECT_EQ(string_of(*store->get("a")), "hello");
  store->put("a", blob_of("world!"));
  EXPECT_EQ(string_of(*store->get("a")), "world!");
  EXPECT_TRUE(store->exists("a"));
  store->remove("a");
  EXPECT_FALSE(store->exists("a"));
  store->remove("a");  // idempotent
}

TYPED_TEST(StorageTest, ListByPrefix) {
  auto store = make_store<TypeParam>();
  store->put("run/v0/rank0", blob_of("x"));
  store->put("run/v0/rank1", blob_of("y"));
  store->put("run/v1/rank0", blob_of("z"));
  store->put("other/key", blob_of("w"));
  const auto keys = store->list("run/v0/");
  EXPECT_EQ(keys, (std::vector<std::string>{"run/v0/rank0", "run/v0/rank1"}));
  EXPECT_EQ(store->list("run/").size(), 3u);
  EXPECT_TRUE(store->list("absent/").empty());
}

TYPED_TEST(StorageTest, BytesStored) {
  auto store = make_store<TypeParam>();
  store->put("k1", blob_of("12345"));
  store->put("k2", blob_of("678"));
  EXPECT_EQ(store->bytes_stored(), 8u);
}

TYPED_TEST(StorageTest, ExistsMatchesGetWithoutReadingData) {
  auto store = make_store<TypeParam>();
  EXPECT_FALSE(store->exists("probe"));
  store->put("probe", blob_of("payload"));
  EXPECT_TRUE(store->exists("probe"));
  store->remove("probe");
  EXPECT_FALSE(store->exists("probe"));
}

TEST(S3SimTest, ExistsIsBilledLikeAGetButTransfersNoBytes) {
  S3Sim s3;
  s3.put("a", blob_of(std::string(1000, 'x')));
  EXPECT_TRUE(s3.exists("a"));
  EXPECT_FALSE(s3.exists("missing"));
  EXPECT_EQ(s3.get_count(), 2u);        // HEAD-style probes are requests...
  EXPECT_EQ(s3.bytes_downloaded(), 0u); // ...but not transfers
}

TEST(S3SimTest, CostAccounting) {
  S3Sim s3;
  s3.put("a", blob_of(std::string(1000, 'x')));
  (void)s3.get("a");
  (void)s3.get("missing");
  EXPECT_EQ(s3.put_count(), 1u);
  EXPECT_EQ(s3.get_count(), 2u);
  EXPECT_EQ(s3.bytes_uploaded(), 1000u);
  EXPECT_EQ(s3.bytes_downloaded(), 1000u);
  // Storage term: 1e-6 GB × $0.03/GB-month × (720h/720h) plus request fees.
  const double expected = 1e-6 * 0.03 + 1.0 / 1000 * 0.005 + 2.0 / 10000 * 0.004;
  EXPECT_NEAR(s3.cost_usd(30.0 * 24.0), expected, 1e-12);
  // The paper's claim: checkpoint storage is ignorable next to compute.
  EXPECT_LT(s3.cost_usd(24.0), 0.01);
}

// --- StateBuffer --------------------------------------------------------------

TEST(StateBuffer, RoundTripMixedFields) {
  StateWriter w;
  w.write<int>(42);
  w.write<double>(3.25);
  w.write_vec(std::vector<float>{1.f, 2.f, 3.f});
  w.write_vec(std::vector<std::uint8_t>{});
  const auto blob = w.take();

  StateReader r(blob);
  EXPECT_EQ(r.read<int>(), 42);
  EXPECT_DOUBLE_EQ(r.read<double>(), 3.25);
  EXPECT_EQ(r.read_vec<float>(), (std::vector<float>{1.f, 2.f, 3.f}));
  EXPECT_TRUE(r.read_vec<std::uint8_t>().empty());
  EXPECT_TRUE(r.exhausted());
}

TEST(StateBuffer, UnderrunThrows) {
  StateWriter w;
  w.write<int>(1);
  const auto blob = w.take();
  StateReader r(blob);
  EXPECT_THROW(r.read<double>(), PreconditionError);
}

// --- Coordinated checkpointing -------------------------------------------------

TEST(Checkpointer, SaveRestoreRoundTrip) {
  MemoryStore store;
  mpi::Runtime::run(4, [&store](mpi::Comm& comm) {
    Checkpointer ck(&store, "job1");
    EXPECT_FALSE(ck.load_latest(comm).has_value());
    StateWriter w;
    w.write<int>(comm.rank() * 11);
    const int v = ck.save(comm, w.take());
    EXPECT_EQ(v, 0);
    const auto blob = ck.load_latest(comm);
    ASSERT_TRUE(blob.has_value());
    StateReader r(*blob);
    EXPECT_EQ(r.read<int>(), comm.rank() * 11);
  });
}

TEST(Checkpointer, HasSnapshotProbesWithoutDownloading) {
  S3Sim store;
  mpi::Runtime::run(2, [&store](mpi::Comm& comm) {
    Checkpointer ck(&store, "probe");
    EXPECT_FALSE(ck.has_snapshot(comm));  // cold start: no load attempted
    StateWriter w;
    w.write<int>(comm.rank());
    ck.save(comm, w.take());
    EXPECT_TRUE(ck.has_snapshot(comm));
    if (comm.rank() == 0) {
      EXPECT_TRUE(ck.has_snapshot());
    }
  });
  // Both probes (cold and warm) together moved zero payload bytes.
  EXPECT_EQ(store.bytes_downloaded(), 0u);
}

TEST(Checkpointer, UncommittedSnapshotHasNoSnapshot) {
  MemoryStore store;
  store.put("torn/v0/rank0", blob_of("state"));  // blob without a COMMIT marker
  const Checkpointer ck(&store, "torn");
  EXPECT_FALSE(ck.has_snapshot());
}

TEST(Checkpointer, VersionsIncreaseAndLatestWins) {
  MemoryStore store;
  mpi::Runtime::run(2, [&store](mpi::Comm& comm) {
    Checkpointer ck(&store, "job2");
    for (int i = 0; i < 3; ++i) {
      StateWriter w;
      w.write<int>(i * 100 + comm.rank());
      EXPECT_EQ(ck.save(comm, w.take()), i);
    }
    const auto blob = ck.load_latest(comm);
    StateReader r(*blob);
    EXPECT_EQ(r.read<int>(), 200 + comm.rank());
  });
  EXPECT_EQ(Checkpointer(&store, "job2").latest_version(), 2);
}

TEST(Checkpointer, SurvivesProcessRestart) {
  // A fresh Checkpointer over the same store discovers prior versions —
  // exactly what happens when a killed circle group restarts.
  MemoryStore store;
  mpi::Runtime::run(2, [&store](mpi::Comm& comm) {
    Checkpointer ck(&store, "job3");
    StateWriter w;
    w.write<double>(1.5 + comm.rank());
    ck.save(comm, w.take());
  });
  mpi::Runtime::run(2, [&store](mpi::Comm& comm) {
    Checkpointer ck(&store, "job3");
    const auto blob = ck.load_latest(comm);
    StateReader r(*blob);
    EXPECT_DOUBLE_EQ(r.read<double>(), 1.5 + comm.rank());
  });
}

TEST(Checkpointer, UncommittedSnapshotIsInvisible) {
  // Simulate a kill between the blob uploads and the commit marker: the
  // blobs exist but no COMMIT — restore must ignore them.
  MemoryStore store;
  store.put("job4/v0/rank0", blob_of("torn"));
  store.put("job4/v0/rank1", blob_of("torn"));
  mpi::Runtime::run(2, [&store](mpi::Comm& comm) {
    Checkpointer ck(&store, "job4");
    EXPECT_FALSE(ck.load_latest(comm).has_value());
    // And the next save must not collide with the torn version... it may
    // reuse v0 (never committed), which is fine — commit makes it whole.
    StateWriter w;
    w.write<int>(7);
    ck.save(comm, w.take());
    ASSERT_TRUE(ck.load_latest(comm).has_value());
  });
}

TEST(Checkpointer, CommittedVersionMissingBlobThrows) {
  MemoryStore store;
  const std::byte mark{1};
  store.put("job5/v0/COMMIT", std::span<const std::byte>(&mark, 1));
  mpi::Runtime::run(1, [&store](mpi::Comm& comm) {
    Checkpointer ck(&store, "job5");
    EXPECT_THROW((void)ck.load_latest(comm), IoError);
  });
}

TEST(Checkpointer, GarbageCollectKeepsOnlyLatest) {
  MemoryStore store;
  mpi::Runtime::run(2, [&store](mpi::Comm& comm) {
    Checkpointer ck(&store, "job6");
    for (int i = 0; i < 3; ++i) {
      StateWriter w;
      w.write<int>(i);
      ck.save(comm, w.take());
    }
    comm.barrier();
    if (comm.rank() == 0) ck.garbage_collect();
    comm.barrier();
    const auto blob = ck.load_latest(comm);
    StateReader r(*blob);
    EXPECT_EQ(r.read<int>(), 2);
  });
  EXPECT_TRUE(store.list("job6/v0/").empty());
  EXPECT_TRUE(store.list("job6/v1/").empty());
  EXPECT_EQ(store.list("job6/v2/").size(), 3u);  // 2 ranks + COMMIT
}

TEST(Checkpointer, RejectsBadRunIds) {
  MemoryStore store;
  EXPECT_THROW(Checkpointer(&store, ""), PreconditionError);
  EXPECT_THROW(Checkpointer(&store, "a/b"), PreconditionError);
}

TEST(Checkpointer, ShareOneStoreAcrossRuns) {
  MemoryStore store;
  mpi::Runtime::run(1, [&store](mpi::Comm& comm) {
    Checkpointer a(&store, "jobA"), b(&store, "jobB");
    StateWriter wa, wb;
    wa.write<int>(1);
    wb.write<int>(2);
    a.save(comm, wa.take());
    b.save(comm, wb.take());
    const auto blob_a = a.load_latest(comm);
    const auto blob_b = b.load_latest(comm);
    StateReader ra(*blob_a), rb(*blob_b);
    EXPECT_EQ(ra.read<int>(), 1);
    EXPECT_EQ(rb.read<int>(), 2);
  });
}

}  // namespace
}  // namespace sompi
