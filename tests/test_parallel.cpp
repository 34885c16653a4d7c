// Thread pool, parallel_for, scheduling, deterministic-reduction and
// exception-propagation tests. Built into the `parallel`-labelled binary so
// they also run under TSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"

namespace nebula {
namespace {

TEST(ThreadPool, SizeIsAtLeastOne) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  ThreadPool pool4(4);
  EXPECT_EQ(pool4.size(), 4u);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(0, 100, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoOp) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  pool.parallel_for(7, 3, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ChunkedPartitionIsDisjointAndComplete) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for_chunked(
      0, 1000,
      [&](std::size_t lo, std::size_t hi) {
        ASSERT_LE(lo, hi);
        for (std::size_t i = lo; i < hi; ++i) hits[i]++;
      },
      8);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, GrainForcesSerialForSmallLoops) {
  ThreadPool pool(4);
  std::atomic<long> sum{0};
  pool.parallel_for(0, 10, [&](std::size_t i) { sum += static_cast<long>(i); },
                    /*grain=*/100);
  EXPECT_EQ(sum.load(), 45);
}

TEST(ThreadPool, SumMatchesSerialReference) {
  ThreadPool pool(4);
  const std::size_t n = 10000;
  std::vector<double> data(n);
  std::iota(data.begin(), data.end(), 0.0);
  std::atomic<long long> parallel_sum{0};
  pool.parallel_for_chunked(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        long long local = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          local += static_cast<long long>(data[i]);
        }
        parallel_sum += local;
      },
      64);
  EXPECT_EQ(parallel_sum.load(),
            static_cast<long long>(n) * (n - 1) / 2);
}

TEST(ThreadPool, ReusableAcrossManyLoops) {
  ThreadPool pool(3);
  for (int rep = 0; rep < 50; ++rep) {
    std::atomic<int> count{0};
    pool.parallel_for(0, 37, [&](std::size_t) { count++; });
    ASSERT_EQ(count.load(), 37);
  }
}

TEST(ThreadPool, GlobalPoolAvailable) {
  EXPECT_GE(ThreadPool::global().size(), 1u);
  std::atomic<int> count{0};
  parallel_for(0, 10, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPool, NestedParallelForRunsInline) {
  // A parallel region launched from inside a chunk of the same pool must run
  // inline (the GEMM-inside-Conv2d pattern) instead of deadlocking on the
  // single job slot.
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for_chunked(0, 8, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      pool.parallel_for(0, 10, [&](std::size_t) { inner_total++; });
    }
  });
  EXPECT_EQ(inner_total.load(), 80);
}

TEST(ThreadPool, ScratchIsDistinctPerParticipant) {
  // One participant may process several chunks (and must then see the same
  // buffer each time), but two different participants must never share one.
  ThreadPool pool(4);
  std::mutex mu;
  std::map<std::size_t, std::set<float*>> by_worker;
  pool.parallel_for_chunked(
      0, 64,
      [&](std::size_t, std::size_t) {
        float* buf = pool.scratch_floats(ThreadPool::kScratchConvGrad, 128);
        std::lock_guard<std::mutex> lock(mu);
        by_worker[ThreadPool::current_worker_index()].insert(buf);
      },
      1);
  ASSERT_FALSE(by_worker.empty());
  std::set<float*> all;
  for (const auto& [index, bufs] : by_worker) {
    EXPECT_EQ(bufs.size(), 1u) << "worker " << index
                               << " saw multiple scratch buffers";
    all.insert(bufs.begin(), bufs.end());
  }
  EXPECT_EQ(all.size(), by_worker.size());
}

TEST(ThreadPool, ScratchPersistsAndGrows) {
  ThreadPool pool(1);
  float* a = pool.scratch_floats(ThreadPool::kScratchConvGrad, 16);
  a[3] = 42.0f;
  float* b = pool.scratch_floats(ThreadPool::kScratchConvGrad, 16);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b[3], 42.0f);
  float* c = pool.scratch_floats(ThreadPool::kScratchConvGrad, 1 << 16);
  for (std::size_t i = 0; i < (1u << 16); ++i) c[i] = 1.0f;  // must be usable
}

TEST(ThreadPool, SetGlobalOverridesAndRestores) {
  ThreadPool mine(2);
  ThreadPool* prev = ThreadPool::set_global(&mine);
  EXPECT_EQ(&ThreadPool::global(), &mine);
  ThreadPool::set_global(prev);
  EXPECT_NE(&ThreadPool::global(), &mine);
}

TEST(ReduceOrdered, ChunkCountIsPureFunctionOfRange) {
  // The partition must depend on the range alone — never on the pool — or
  // the accumulation grouping (and the bits) would change with worker count.
  EXPECT_EQ(ThreadPool::reduce_chunks(0), 0u);
  EXPECT_EQ(ThreadPool::reduce_chunks(1), 1u);
  EXPECT_EQ(ThreadPool::reduce_chunks(5), 5u);
  EXPECT_EQ(ThreadPool::reduce_chunks(ThreadPool::kReduceChunks),
            ThreadPool::kReduceChunks);
  EXPECT_EQ(ThreadPool::reduce_chunks(1000), ThreadPool::kReduceChunks);
  EXPECT_EQ(ThreadPool::reduce_chunks(100, 50), 2u);
  EXPECT_EQ(ThreadPool::reduce_chunks(100, 0), ThreadPool::kReduceChunks);
}

TEST(ReduceOrdered, SumsMatchExactIntegerReference) {
  ThreadPool pool(4);
  const std::size_t n = 4097;
  std::vector<float> out(1, 0.0f);
  pool.reduce_ordered(
      0, n, 1,
      [&](std::size_t lo, std::size_t hi, float* acc) {
        for (std::size_t i = lo; i < hi; ++i) acc[0] += 1.0f;
      },
      [&](const float* total) { out[0] += total[0]; });
  EXPECT_EQ(out[0], static_cast<float>(n));
}

// The contract the conv/batchnorm backward reductions rest on: for float
// data whose accumulation order matters, every pool size must produce the
// same bits because the chunking and merge tree are pool-size-invariant.
TEST(ReduceOrdered, BitIdenticalAcrossPoolSizes) {
  const std::size_t n = 1013, width = 7;
  Rng rng(314);
  std::vector<float> data(n);
  for (auto& v : data) v = rng.normal() * 1e3f + rng.normal() * 1e-3f;

  auto run_with_pool = [&](std::size_t workers) {
    ThreadPool pool(workers);
    std::vector<float> out(width, 0.0f);
    pool.reduce_ordered(
        0, n, width,
        [&](std::size_t lo, std::size_t hi, float* acc) {
          for (std::size_t i = lo; i < hi; ++i) acc[i % width] += data[i];
        },
        [&](const float* total) {
          for (std::size_t j = 0; j < width; ++j) out[j] += total[j];
        });
    return out;
  };

  const std::vector<float> serial = run_with_pool(1);
  for (std::size_t workers : {2u, 4u, 7u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    const std::vector<float> parallel = run_with_pool(workers);
    ASSERT_EQ(parallel.size(), serial.size());
    EXPECT_EQ(std::memcmp(parallel.data(), serial.data(),
                          serial.size() * sizeof(float)),
              0);
  }
}

TEST(ReduceOrdered, EmptyRangeSkipsMerge) {
  ThreadPool pool(2);
  int merges = 0;
  pool.reduce_ordered(
      5, 5, 3, [](std::size_t, std::size_t, float*) {},
      [&](const float*) { ++merges; });
  pool.reduce_ordered(
      7, 3, 3, [](std::size_t, std::size_t, float*) {},
      [&](const float*) { ++merges; });
  EXPECT_EQ(merges, 0);
}

// Nested use — a reduction running inline inside a chunk of an outer
// parallel region, the per-device round pattern — must produce the same bits
// as the same reduction run at top level.
TEST(ReduceOrdered, NestedInsideRegionMatchesTopLevelBits) {
  const std::size_t n = 257;
  Rng rng(99);
  std::vector<float> data(n);
  for (auto& v : data) v = rng.normal();

  auto reduce_sum = [&](ThreadPool& pool) {
    float out = 0.0f;
    pool.reduce_ordered(
        0, n, 1,
        [&](std::size_t lo, std::size_t hi, float* acc) {
          for (std::size_t i = lo; i < hi; ++i) acc[0] += data[i];
        },
        [&](const float* total) { out = total[0]; });
    return out;
  };

  ThreadPool pool(4);
  const float top_level = reduce_sum(pool);
  std::vector<float> nested(8, 0.0f);
  pool.parallel_for(0, nested.size(), [&](std::size_t i) {
    nested[i] = reduce_sum(pool);
  });
  for (std::size_t i = 0; i < nested.size(); ++i) {
    EXPECT_EQ(std::memcmp(&nested[i], &top_level, sizeof(float)), 0)
        << "nested reduction " << i << " diverged from top-level bits";
  }
}

TEST(ReduceOrdered, SelfNestedReductionThrows) {
  // A chunk body starting a second reduction on the same thread would
  // clobber the outer accumulators; the arena lease catches it.
  ThreadPool pool(1);
  EXPECT_THROW(
      pool.reduce_ordered(
          0, 4, 1,
          [&](std::size_t, std::size_t, float*) {
            pool.reduce_ordered(
                0, 2, 1, [](std::size_t, std::size_t, float*) {},
                [](const float*) {});
          },
          [](const float*) {}),
      std::runtime_error);
}

TEST(ScratchLease, BlocksAliasingAccessWhileLive) {
  ThreadPool pool(1);
  {
    ThreadPool::ScratchLease lease(pool, ThreadPool::kScratchConvGrad, 64);
    ASSERT_NE(lease.data(), nullptr);
    lease.data()[0] = 1.0f;
    // The leased slot is off-limits to everyone else on this worker...
    EXPECT_THROW(pool.scratch_floats(ThreadPool::kScratchConvGrad, 16),
                 std::runtime_error);
    EXPECT_THROW(
        ThreadPool::ScratchLease(pool, ThreadPool::kScratchConvGrad, 16),
        std::runtime_error);
    // ...while other slots stay available.
    EXPECT_NE(pool.scratch_floats(ThreadPool::kScratchGemmA, 16), nullptr);
    // The holder may grow its own buffer.
    float* grown = lease.grow(1 << 12);
    ASSERT_NE(grown, nullptr);
    grown[(1 << 12) - 1] = 2.0f;
  }
  // Release restores normal access.
  EXPECT_NE(pool.scratch_floats(ThreadPool::kScratchConvGrad, 16), nullptr);
}

TEST(ThreadPool, ManyConsecutiveRegionsStress) {
  ThreadPool pool(4);
  for (int rep = 0; rep < 200; ++rep) {
    std::atomic<long> sum{0};
    pool.parallel_for_chunked(
        0, 257,
        [&](std::size_t lo, std::size_t hi) {
          long local = 0;
          for (std::size_t i = lo; i < hi; ++i) local += static_cast<long>(i);
          sum += local;
        },
        1);
    ASSERT_EQ(sum.load(), 257L * 256 / 2);
  }
}

// ---- Helpers for multi-thread region tests ----------------------------------

constexpr std::size_t kPoolSizes[] = {1, 2, 4, 7};

struct IndexError : std::runtime_error {
  explicit IndexError(std::size_t i)
      : std::runtime_error("index " + std::to_string(i)), index(i) {}
  std::size_t index;
};

// Runs `region` and returns the index carried by the IndexError it throws,
// or SIZE_MAX when it throws nothing.
template <typename F>
std::size_t thrown_index(const F& region) {
  try {
    region();
  } catch (const IndexError& e) {
    return e.index;
  }
  return SIZE_MAX;
}

// Chunk-body barrier: `arrive` blocks until `want` distinct threads have
// arrived (or a generous timeout passes), so a region's chunks spread over
// real workers instead of all being claimed by the caller.
class PeerBarrier {
 public:
  explicit PeerBarrier(std::size_t want) : want_(want) {}

  void arrive() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      threads_.insert(std::this_thread::get_id());
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (threads_.size() >= want_) return;
      }
      std::this_thread::yield();
    }
  }

 private:
  std::size_t want_;
  std::mutex mu_;
  std::set<std::thread::id> threads_;
};

// ---- Scheduling: dynamic chunk claiming, spin-then-park hand-off -----------

// Every (lo, hi) chunk of one region over [0, n), in ascending order.
std::vector<std::pair<std::size_t, std::size_t>> region_chunks(
    ThreadPool& pool, std::size_t n, std::size_t grain) {
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  pool.parallel_for_chunked(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(lo, hi);
      },
      grain);
  std::sort(chunks.begin(), chunks.end());
  return chunks;
}

TEST(ThreadPoolScheduling, CheapItemsAreClaimedPastASlowOne) {
  // Item 0 may finish only once items 1-9 have. One static block per
  // participant would put items 1 and 2 behind item 0 in its chunk, so the
  // wait would time out; with dynamically claimed one-item chunks the other
  // participants drain them meanwhile (the uneven per-device round legs).
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  std::atomic<bool> saw_all{false};
  pool.parallel_for(0, 10, [&](std::size_t i) {
    if (i != 0) {
      finished++;
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (finished.load() < 9 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    saw_all = finished.load() == 9;
  });
  EXPECT_TRUE(saw_all.load());
}

TEST(ThreadPoolScheduling, ChunkWidths) {
  ThreadPool pool(4);
  const std::size_t max_chunks =
      ThreadPool::kChunksPerParticipant * pool.size();

  const auto singles = region_chunks(pool, 10, 1);
  ASSERT_EQ(singles.size(), 10u);
  for (std::size_t i = 0; i < singles.size(); ++i) {
    EXPECT_EQ(singles[i], std::make_pair(i, i + 1));
  }

  for (std::size_t grain : {std::size_t{1}, std::size_t{8}}) {
    for (std::size_t n :
         {std::size_t{17}, std::size_t{100}, std::size_t{1000}}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " grain=" << grain);
      const auto chunks = region_chunks(pool, n, grain);
      ASSERT_FALSE(chunks.empty());
      EXPECT_LE(chunks.size(), max_chunks);
      EXPECT_LE(chunks.size(), (n + grain - 1) / grain);
      // Contiguous, complete, and no chunk but the last below one grain.
      EXPECT_EQ(chunks.front().first, 0u);
      EXPECT_EQ(chunks.back().second, n);
      for (std::size_t c = 0; c + 1 < chunks.size(); ++c) {
        EXPECT_EQ(chunks[c].second, chunks[c + 1].first);
        EXPECT_GE(chunks[c].second - chunks[c].first, grain);
      }
    }
  }
  EXPECT_EQ(region_chunks(pool, 1000, 1).size(), max_chunks);
}

TEST(ThreadPoolScheduling, ParkedWorkersWakeForTheNextRegion) {
  ThreadPool pool(4);
  obs::Counter& parks = obs::counter("pool.parks");
  const std::int64_t parks_before = parks.value();
  pool.parallel_for(0, 4, [](std::size_t) {});
  // Idle far past the spin budget: every worker gives up spinning and parks
  // on the condition variable.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  do {
    std::this_thread::sleep_for(ThreadPool::kSpinBudget * 20);
  } while (parks.value() - parks_before < 3 &&
           std::chrono::steady_clock::now() < deadline);
  EXPECT_GE(parks.value() - parks_before, 3);

  // The next region must still wake them: the caller holds item 0 until a
  // second thread has arrived, so a worker has to take part.
  PeerBarrier barrier(2);
  std::atomic<bool> saw_worker{false};
  pool.parallel_for(0, 4, [&](std::size_t) {
    barrier.arrive();
    if (ThreadPool::current_worker_index() > 0) saw_worker = true;
  });
  EXPECT_TRUE(saw_worker.load());
}

TEST(ThreadPoolScheduling, DestroyingSpinningPoolSkipsTheBudget) {
  // Right after a region every worker is spinning on the job sequence; the
  // destructor must stop them at once instead of letting each spin run out
  // (which counts a park). A worker preempted past the budget before the
  // destructor starts parks legitimately, so the claim is that some of
  // several pools is destroyed without a single park; a spin that ignored the
  // stop flag would park every worker of every pool.
  obs::Counter& parks = obs::counter("pool.parks");
  std::int64_t fewest = std::numeric_limits<std::int64_t>::max();
  for (int rep = 0; rep < 20; ++rep) {
    auto pool = std::make_unique<ThreadPool>(4);
    // A lock-free barrier releases all four threads together, so every
    // worker starts its spin within microseconds of the destructor.
    std::atomic<int> arrived{0};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    pool->parallel_for(0, 4, [&](std::size_t) {
      arrived++;
      while (arrived.load() < 4 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    });
    const std::int64_t before = parks.value();
    pool.reset();
    fewest = std::min(fewest, parks.value() - before);
  }
  EXPECT_EQ(fewest, 0);
}

// ---- Exceptions thrown inside a parallel region -----------------------------

TEST(ThreadPoolExceptions, ThrowAtAnyIndexReachesCaller) {
  const std::size_t n = 64;
  for (std::size_t threads : kPoolSizes) {
    ThreadPool pool(threads);
    for (std::size_t bad : {std::size_t{0}, n / 2, n - 1}) {
      SCOPED_TRACE(testing::Message() << "pool=" << threads << " bad=" << bad);
      std::vector<std::atomic<int>> hits(n);
      EXPECT_EQ(thrown_index([&] {
                  pool.parallel_for(0, n, [&](std::size_t i) {
                    if (i == bad) throw IndexError(i);
                    hits[i]++;
                  });
                }),
                bad);
      // Every other chunk still ran: the last index lives in the last chunk,
      // which a throw at index 0 must not cancel.
      if (threads > 1 && bad == 0) {
        EXPECT_EQ(hits[n - 1].load(), 1);
      }
    }
  }
}

TEST(ThreadPoolExceptions, LowerIndexExceptionWins) {
  const std::size_t n = 64, low = 5, high = 50;
  for (std::size_t threads : kPoolSizes) {
    SCOPED_TRACE(testing::Message() << "pool=" << threads);
    ThreadPool pool(threads);
    std::atomic<bool> high_thrown{false};
    EXPECT_EQ(thrown_index([&] {
                pool.parallel_for(0, n, [&](std::size_t i) {
                  if (i == high) {
                    high_thrown = true;
                    throw IndexError(i);
                  }
                  if (i == low) {
                    // On a multi-thread pool, let the higher index throw
                    // first so arrival order cannot decide the winner.
                    const auto deadline = std::chrono::steady_clock::now() +
                                          std::chrono::seconds(5);
                    while (threads > 1 && !high_thrown &&
                           std::chrono::steady_clock::now() < deadline) {
                      std::this_thread::yield();
                    }
                    throw IndexError(i);
                  }
                });
              }),
              low);
  }
}

TEST(ThreadPoolExceptions, PoolStillUsesWorkersAfterThrow) {
  for (std::size_t threads : kPoolSizes) {
    SCOPED_TRACE(testing::Message() << "pool=" << threads);
    ThreadPool pool(threads);
    EXPECT_EQ(thrown_index([&] {
                pool.parallel_for(0, threads * 4, [&](std::size_t i) {
                  if (i % 3 == 0) throw IndexError(i);
                });
              }),
              0u);
    PeerBarrier barrier(std::min<std::size_t>(threads, 2));
    std::atomic<bool> saw_worker{false};
    std::atomic<int> ran{0};
    pool.parallel_for(0, threads, [&](std::size_t) {
      barrier.arrive();
      if (ThreadPool::current_worker_index() > 0) saw_worker = true;
      ran++;
    });
    EXPECT_EQ(ran.load(), static_cast<int>(threads));
    EXPECT_EQ(saw_worker.load(), threads > 1);
  }
}

TEST(ThreadPoolExceptions, NestedRegionThrowPropagates) {
  // Every outer index starts a nested region that throws, on workers too;
  // the lowest outer index's nested exception wins.
  for (std::size_t threads : kPoolSizes) {
    SCOPED_TRACE(testing::Message() << "pool=" << threads);
    ThreadPool pool(threads);
    PeerBarrier barrier(std::min<std::size_t>(threads, 2));
    EXPECT_EQ(thrown_index([&] {
                pool.parallel_for(0, 8, [&](std::size_t outer) {
                  barrier.arrive();
                  pool.parallel_for(0, 10, [&](std::size_t inner) {
                    if (inner == 2) throw IndexError(outer * 10 + inner);
                  });
                });
              }),
              2u);
  }
}

TEST(ThreadPoolExceptions, ThrowingReductionReleasesArena) {
  const std::size_t n = 40;
  for (std::size_t threads : kPoolSizes) {
    SCOPED_TRACE(testing::Message() << "pool=" << threads);
    ThreadPool pool(threads);
    PeerBarrier barrier(std::min<std::size_t>(threads, 2));
    bool merged = false;
    EXPECT_EQ(thrown_index([&] {
                pool.reduce_ordered(
                    0, n, 1,
                    [&](std::size_t lo, std::size_t, float*) {
                      barrier.arrive();
                      throw IndexError(lo);
                    },
                    [&](const float*) { merged = true; });
              }),
              0u);
    EXPECT_FALSE(merged);
    float total = -1.0f;
    pool.reduce_ordered(
        0, n, 1,
        [](std::size_t lo, std::size_t hi, float* acc) {
          acc[0] += static_cast<float>(hi - lo);
        },
        [&](const float* sum) { total = sum[0]; });
    EXPECT_EQ(total, static_cast<float>(n));
  }
}

TEST(ThreadPoolExceptions, ScratchLeaseViolationOnWorkerIsRuntimeError) {
  for (std::size_t threads : kPoolSizes) {
    SCOPED_TRACE(testing::Message() << "pool=" << threads);
    ThreadPool pool(threads);
    PeerBarrier barrier(std::min<std::size_t>(threads, 2));
    EXPECT_THROW(
        pool.parallel_for(0, threads, [&](std::size_t) {
          barrier.arrive();
          // On a multi-thread pool only workers break the rule, so the
          // error must cross from a worker thread to the caller.
          if (threads > 1 && ThreadPool::current_worker_index() == 0) return;
          ThreadPool::ScratchLease lease(pool, ThreadPool::kScratchConvGrad,
                                         16);
          pool.scratch_floats(ThreadPool::kScratchConvGrad, 16);
        }),
        std::runtime_error);
    // Every lease unwound with its chunk, so each participant can lease the
    // slot again.
    EXPECT_NO_THROW(pool.parallel_for(0, threads, [&](std::size_t) {
      ThreadPool::ScratchLease lease(pool, ThreadPool::kScratchConvGrad, 16);
    }));
  }
}

}  // namespace
}  // namespace nebula
