// Tests for fpna::obs: the recorder's disabled-is-free / enabled-moves-
// no-bits contract, thread-count-invariant provenance, the metrics
// registry, the TrafficLedger view, and the first-divergence localizer
// (scripts/trace_divergence.py) end to end.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <bit>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "fpna/comm/schedule.hpp"
#include "fpna/core/eval_context.hpp"
#include "fpna/core/run_context.hpp"
#include "fpna/dl/linalg.hpp"
#include "fpna/fp/accumulator.hpp"
#include "fpna/obs/clock.hpp"
#include "fpna/obs/metrics.hpp"
#include "fpna/obs/recorder.hpp"
#include "fpna/reduce/cpu_sum.hpp"
#include "fpna/tensor/workload.hpp"
#include "fpna/util/rng.hpp"
#include "fpna/util/thread_pool.hpp"

namespace fpna::obs {
namespace {

dl::Matrix test_matrix(std::int64_t rows, std::int64_t cols,
                       std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  return tensor::random_uniform<float>(tensor::Shape{rows, cols}, -1e6, 1e6,
                                       rng);
}

std::vector<double> test_array(std::size_t n, std::uint64_t seed) {
  util::Xoshiro256pp rng(seed);
  const util::UniformReal dist(-1e6, 1e6);
  std::vector<double> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

/// Canonical textual form of a provenance record: every logical field,
/// no wall-clock, no OS thread ids - two runs of the same computation
/// must produce equal streams regardless of pool width.
std::string record_text(const StampedProvenance& p) {
  std::ostringstream out;
  out << p.frame << '|' << p.scope << '|' << p.record.site << '|'
      << p.record.kind << '|' << p.record.index << '|' << p.record.sub_index
      << '|' << p.record.spec << '|' << p.seq << '|' << hex64(p.record.bits)
      << '|' << p.record.elements;
  return out.str();
}

std::vector<std::string> provenance_texts(const Recorder& recorder) {
  std::vector<std::string> texts;
  for (const auto& p : recorder.sorted_provenance()) {
    texts.push_back(record_text(p));
  }
  return texts;
}

// ------------------------------------------------------------- metrics --

TEST(Metrics, CounterFoldsConcurrentShards) {
  Metrics metrics;
  Counter& hits = metrics.counter("test.hits");
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&hits] {
      for (int i = 0; i < 1000; ++i) hits.add(3);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(hits.value(), 8u * 1000u * 3u);
  // Same name, same counter object.
  EXPECT_EQ(&metrics.counter("test.hits"), &hits);
  metrics.reset_counters();
  EXPECT_EQ(hits.value(), 0u);
}

TEST(Metrics, TimerStatTracksExtremes) {
  TimerStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_EQ(stat.min_ns(), 0u);  // empty: sentinel reads as 0
  stat.record_ns(500);
  stat.record_ns(100);
  stat.record_ns(900);
  EXPECT_EQ(stat.count(), 3u);
  EXPECT_EQ(stat.total_ns(), 1500u);
  EXPECT_EQ(stat.min_ns(), 100u);
  EXPECT_EQ(stat.max_ns(), 900u);
  EXPECT_DOUBLE_EQ(stat.mean_us(), 0.5);
}

TEST(Metrics, SnapshotIsSortedAndTyped) {
  Metrics metrics;
  metrics.counter("b.count").add(7);
  metrics.gauge("a.level").set(2.5);
  metrics.timer("c.span").record_ns(4000);
  const auto rows = metrics.snapshot();
  ASSERT_EQ(rows.size(), 3u);
  // Sorted by (type, name): counter, gauge, timer.
  EXPECT_EQ(rows[0].name, "b.count");
  EXPECT_EQ(rows[0].type, "counter");
  EXPECT_EQ(rows[0].value, "7");
  EXPECT_EQ(rows[1].name, "a.level");
  EXPECT_EQ(rows[1].type, "gauge");
  EXPECT_EQ(rows[2].name, "c.span");
  EXPECT_EQ(rows[2].type, "timer");
  EXPECT_EQ(rows[2].count, "1");
}

TEST(Metrics, HistogramBucketsByBitWidth) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_EQ(histogram.percentile(0.99), 0.0);  // empty reads as 0
  // bit_width: 0 -> bucket 0, 1 -> 1, [2,3] -> 2, [4,7] -> 3, ...
  histogram.record(0);
  histogram.record(1);
  histogram.record(2);
  histogram.record(3);
  histogram.record(7);
  histogram.record(~std::uint64_t{0});  // top bucket, no overflow
  EXPECT_EQ(histogram.count(), 6u);
  const auto buckets = histogram.bucket_counts();
  EXPECT_EQ(buckets[0], 1u);
  EXPECT_EQ(buckets[1], 1u);
  EXPECT_EQ(buckets[2], 2u);
  EXPECT_EQ(buckets[3], 1u);
  EXPECT_EQ(buckets[64], 1u);
  histogram.reset();
  EXPECT_EQ(histogram.count(), 0u);
}

TEST(Metrics, HistogramPercentilesBracketTheSample) {
  Histogram histogram;
  // 1000 values spread across [1, 1000]: the log2 estimate cannot be
  // exact, but each percentile must land inside the covering power-of-
  // two range of the true order statistic.
  for (std::uint64_t v = 1; v <= 1000; ++v) histogram.record(v);
  const double p50 = histogram.percentile(0.50);  // true ~500, range [512,1024)
  EXPECT_GE(p50, 256.0);
  EXPECT_LT(p50, 1024.0);
  const double p99 = histogram.percentile(0.99);  // true ~990
  EXPECT_GE(p99, 512.0);
  EXPECT_LT(p99, 1024.0);
  EXPECT_LE(histogram.percentile(0.50), histogram.percentile(0.95));
  EXPECT_LE(histogram.percentile(0.95), histogram.percentile(0.99));
  // A single-value histogram estimates that value's bucket floor.
  Histogram single;
  single.record(100);  // bucket 7: [64, 128)
  const double p = single.percentile(0.50);
  EXPECT_GE(p, 64.0);
  EXPECT_LT(p, 128.0);
}

TEST(Metrics, HistogramFoldsConcurrentShards) {
  Histogram histogram;
  constexpr std::size_t kThreads = 8, kEach = 10'000;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram] {
      for (std::size_t i = 0; i < kEach; ++i) {
        histogram.record(1000 + i % 7);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(histogram.count(), kThreads * kEach);
  // All values in [1000, 1006] share bit_width 10.
  EXPECT_EQ(histogram.bucket_counts()[10], kThreads * kEach);
}

TEST(Metrics, HistogramSnapshotRowCarriesPercentiles) {
  Metrics metrics;
  auto& histogram = metrics.histogram("serve.latency_ns");
  for (std::uint64_t v = 0; v < 64; ++v) histogram.record(1 << 10);
  const auto rows = metrics.snapshot();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].name, "serve.latency_ns");
  EXPECT_EQ(rows[0].type, "histogram");
  EXPECT_EQ(rows[0].count, "64");
  EXPECT_EQ(rows[0].value.rfind("p50=", 0), 0u);
  EXPECT_NE(rows[0].value.find("/p95="), std::string::npos);
  EXPECT_NE(rows[0].value.find("/p99="), std::string::npos);
  // Same name returns the same instance.
  EXPECT_EQ(&metrics.histogram("serve.latency_ns"), &histogram);
}

TEST(Metrics, ScopedTimerRecordsOnExit) {
  TimerStat stat;
  {
    const ScopedTimer timer(&stat);
    EXPECT_EQ(stat.count(), 0u);  // not yet: destructor records
  }
  EXPECT_EQ(stat.count(), 1u);
  const ScopedTimer noop(nullptr);  // nullptr target is a no-op
}

TEST(Clock, NowIsMonotonic) {
  const std::uint64_t a = now_ns();
  const std::uint64_t b = now_ns();
  EXPECT_LE(a, b);
}

// ----------------------------------------------------- traffic ledger --

TEST(TrafficLedger, SurfacesObsCounters) {
  Metrics metrics;
  comm::TrafficLedger ledger(2, &metrics);
  ledger.record_exchange(0, 64, 0, 1);  // one 64-byte message 0 -> 1
  ledger.record_exchange(1, 0, 64, 0);
  ledger.record_exchange(1, 100, 200, 3);
  EXPECT_EQ(ledger.of_rank(0).bytes_sent, 64u);
  EXPECT_EQ(ledger.of_rank(1).bytes_received, 64u + 200u);
  EXPECT_EQ(ledger.total().messages, 1u + 3u);
  // The per-rank counts are plain obs counters in the shared registry.
  EXPECT_EQ(metrics.counter("comm.traffic.rank0.bytes_sent").value(), 64u);
  EXPECT_EQ(metrics.counter("comm.traffic.rank1.messages").value(), 3u);
  ledger.reset();
  EXPECT_EQ(ledger.total().bytes_sent, 0u);
  // Self-owned registry works the same way.
  comm::TrafficLedger owned(1);
  owned.record_exchange(0, 8, 8, 1);
  EXPECT_EQ(owned.total().bytes_sent, 8u);
}

// ------------------------------------------------------------ recorder --

TEST(Recorder, DisabledContextRecordsNothingAndMovesNoBits) {
  // A recorder nobody writes to stays empty...
  Recorder idle;
  EXPECT_EQ(idle.event_count(), 0u);
  EXPECT_EQ(idle.provenance_count(), 0u);

  // ...and attaching one must not move a single bit, for every registry
  // accumulator (tracing is observation, never computation).
  const dl::Matrix a = test_matrix(24, 24, 11);
  const dl::Matrix b = test_matrix(24, 24, 12);
  const auto data = test_array(4096, 13);
  util::ThreadPool pool(4);
  for (const auto& entry : fp::kAlgorithms) {
    core::EvalContext plain;
    plain.accumulator = entry.id;
    plain.pool = &pool;
    Recorder recorder;
    const core::EvalContext traced = plain.with_recorder(&recorder);
    EXPECT_TRUE(dl::matmul(a, b, plain).bitwise_equal(
        dl::matmul(a, b, traced)))
        << "matmul bits moved under tracing for " << entry.name;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reduce::cpu_sum(data, plain, 4)),
              std::bit_cast<std::uint64_t>(reduce::cpu_sum(data, traced, 4)))
        << "cpu_sum bits moved under tracing for " << entry.name;
    EXPECT_GT(recorder.provenance_count(), 0u);
    EXPECT_GT(recorder.event_count(), 0u);
  }
}

TEST(Recorder, ProvenanceIsThreadCountInvariant) {
  // The same logical computation through a serial context and pools of
  // different widths must emit the *identical* provenance stream: record
  // coordinates are derived from problem shape, never from pool width or
  // which worker ran a block.
  const dl::Matrix a = test_matrix(32, 17, 21);
  const dl::Matrix b = test_matrix(17, 9, 22);
  const auto data = test_array(10000, 23);

  const auto run_traced = [&](util::ThreadPool* pool) {
    Recorder recorder;
    core::EvalContext ctx;
    ctx.accumulator = fp::parse_reduction_spec("kahan");
    ctx.pool = pool;
    ctx.recorder = &recorder;
    (void)dl::matmul(a, b, ctx);
    (void)reduce::cpu_sum(data, ctx, 4);  // chunking fixed by num_threads
    return provenance_texts(recorder);
  };

  const auto serial = run_traced(nullptr);
  ASSERT_FALSE(serial.empty());
  util::ThreadPool pool2(2), pool8(8);
  EXPECT_EQ(run_traced(&pool2), serial);
  EXPECT_EQ(run_traced(&pool8), serial);
}

TEST(Recorder, ScopesNestAndSeparateSeq) {
  EXPECT_EQ(current_scope(), "");
  {
    const ScopeGuard outer("bucket/3");
    EXPECT_EQ(current_scope(), "bucket/3");
    const ScopeGuard inner("retry");
    EXPECT_EQ(current_scope(), "bucket/3/retry");
  }
  EXPECT_EQ(current_scope(), "");

  // seq restarts per scope, so a record stream's stamps don't depend on
  // what the emitting thread did in *other* scopes beforehand.
  Recorder recorder;
  recorder.provenance({"site", "kind", 0, -1, "s", 1, 1});
  {
    const ScopeGuard scope("bucket/0");
    recorder.provenance({"site", "kind", 1, -1, "s", 2, 1});
  }
  const auto sorted = recorder.sorted_provenance();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].seq, 0u);
  EXPECT_EQ(sorted[1].seq, 0u);
}

TEST(Recorder, WritesChromeTraceAndSortedJsonl) {
  Recorder recorder;
  {
    Span span(&recorder, "unit.work");
    span.arg("items", std::int64_t{3});
    span.arg("mode", std::string_view("test"));
  }
  recorder.provenance({"unit", "chunk", 1, -1, "serial", 0xabcdull, 8});
  recorder.provenance({"unit", "chunk", 0, -1, "serial", 0x1234ull, 8});

  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "obs_test_trace.json";
  const std::string prov_path = dir + "obs_test_prov.jsonl";
  recorder.write_chrome_trace(trace_path);
  recorder.write_provenance_jsonl(prov_path);

  std::ifstream trace(trace_path);
  std::stringstream trace_text;
  trace_text << trace.rdbuf();
  EXPECT_NE(trace_text.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_text.str().find("\"unit.work\""), std::string::npos);
  EXPECT_NE(trace_text.str().find("\"items\": 3"), std::string::npos);

  // JSONL comes out in canonical order: chunk 0 before chunk 1.
  std::ifstream prov(prov_path);
  std::string line0, line1;
  ASSERT_TRUE(std::getline(prov, line0));
  ASSERT_TRUE(std::getline(prov, line1));
  EXPECT_NE(line0.find("\"index\": 0"), std::string::npos);
  EXPECT_NE(line0.find("0000000000001234"), std::string::npos);
  EXPECT_NE(line1.find("\"index\": 1"), std::string::npos);
}

// ----------------------------------------------------------- localizer --

int run_localizer(const std::string& file_a, const std::string& file_b,
                  const std::string& out_path) {
  const std::string script =
      std::string(FPNA_SOURCE_DIR) + "/scripts/trace_divergence.py";
  const std::string command = "python3 " + script + " " + file_a + " " +
                              file_b + " > " + out_path + " 2>&1";
  const int status = std::system(command.c_str());
  return WEXITSTATUS(status);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(TraceDivergence, CleanOnReproducibleDoubleRunLocalizesSeededShuffle) {
  const dl::Matrix a = test_matrix(24, 32, 31);
  const dl::Matrix b = test_matrix(32, 16, 32);

  const auto traced_split_k = [&](std::uint64_t run_id,
                                  const std::string& path) {
    Recorder recorder;
    core::RunContext run(77, run_id);
    core::EvalContext ctx = core::EvalContext::nondeterministic_on(run);
    ctx.recorder = &recorder;
    (void)dl::matmul_split_k(a, b, 8, ctx);
    recorder.write_provenance_jsonl(path);
  };

  const std::string dir = ::testing::TempDir();
  const std::string prov_a = dir + "obs_splitk_a.jsonl";
  const std::string prov_b = dir + "obs_splitk_b.jsonl";
  const std::string prov_a2 = dir + "obs_splitk_a2.jsonl";
  const std::string report = dir + "obs_localizer_out.txt";

  // Reproducible double-run (same run identity): clean exit, no report.
  traced_split_k(0, prov_a);
  traced_split_k(0, prov_a2);
  EXPECT_EQ(run_localizer(prov_a, prov_a2, report), 0)
      << slurp(report);
  EXPECT_NE(slurp(report).find("identical"), std::string::npos);

  // A different run identity draws a different combine order: partials
  // agree (deterministic chunks), the combine steps diverge - and the
  // localizer names the split-k combine, not some downstream symptom.
  traced_split_k(1, prov_b);
  EXPECT_EQ(run_localizer(prov_a, prov_b, report), 1) << slurp(report);
  const std::string text = slurp(report);
  EXPECT_NE(text.find("dl.matmul_split_k"), std::string::npos) << text;
  // Every "partial" record matched; only combine coordinates appear.
  EXPECT_EQ(text.find("kind=partial"), std::string::npos) << text;
}

}  // namespace
}  // namespace fpna::obs
