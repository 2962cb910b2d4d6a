// Tests of the benchmark's own machinery: span self time, the percentile
// rule, the SIMD dispatch guard and the output checks.

#include <gtest/gtest.h>

#include <cmath>

#include "checks.hpp"
#include "host.hpp"
#include "trace.hpp"

namespace dcsrbench {
namespace {

Span make(const char* name, std::int64_t start, std::int64_t end, int parent) {
  return Span{.name = name, .start_ns = start, .end_ns = end, .parent = parent};
}

TEST(SpanTree, SelfTimeSubtractsTheUnionOfChildren) {
  // root [0,100) has children a [10,40) and b [30,60) that overlap (two
  // threads), and c [90,120) that runs past the root's end; a has a child
  // d [15,20).
  const std::vector<Span> spans = {
      make("root", 0, 100, -1), make("a", 10, 40, 0), make("b", 30, 60, 0),
      make("c", 90, 120, 0),    make("d", 15, 20, 1),
  };
  const auto self = self_times(spans);
  EXPECT_EQ(self[0], 100 - (60 - 10) - (100 - 90));  // union [10,60) + [90,100)
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 5);

  const auto rows = summarize(spans);
  EXPECT_EQ(stats_for(rows, "root").count, 1u);
  EXPECT_DOUBLE_EQ(stats_for(rows, "root").self_s, 40e-9);
  EXPECT_EQ(stats_for(rows, "missing").count, 0u);
}

TEST(SpanTree, OpenSpansAreIgnored) {
  const std::vector<Span> spans = {make("root", 0, 50, -1), make("open", 10, -1, 0)};
  EXPECT_EQ(self_times(spans)[0], 50);
  EXPECT_EQ(summarize(spans).size(), 1u);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(reportable_percentile(0), 0.0);
  EXPECT_EQ(reportable_percentile(19), 0.0);
  EXPECT_EQ(reportable_percentile(20), 50.0);
  EXPECT_EQ(reportable_percentile(99), 50.0);
  EXPECT_EQ(reportable_percentile(100), 90.0);
  EXPECT_EQ(reportable_percentile(999), 90.0);
  EXPECT_EQ(reportable_percentile(1000), 99.0);
  EXPECT_EQ(reportable_percentile(10000), 99.9);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(nearest_rank(v, 50.0), 50.0);
  EXPECT_EQ(nearest_rank(v, 90.0), 90.0);
  EXPECT_EQ(nearest_rank(v, 100.0), 100.0);
  EXPECT_EQ(nearest_rank({}, 50.0), 0.0);
}

TEST(DispatchGuard, RejectsScalarFamilyTheHostSupports) {
  const std::vector<std::string> all = {"dct", "gemm", "yuv2rgb", "mc"};
  const std::string good =
      "dcsr-simd: backend=avx2 dct=avx2 gemm=avx2 yuv2rgb=avx2 mc=avx2";
  const std::string release =
      "dcsr-simd: backend=avx2 dct=scalar gemm=scalar yuv2rgb=avx2 mc=avx2";
  EXPECT_EQ(dispatch_violation(good, all), "");
  const std::string why = dispatch_violation(release, all);
  EXPECT_NE(why.find("dct,gemm"), std::string::npos) << why;
  // A family the host has no SIMD kernel for may run scalar.
  EXPECT_EQ(dispatch_violation(release, {"yuv2rgb", "mc"}), "");
}

TEST(DispatchGuard, ThisHostPassesItsOwnGuardOrNamesTheDefect) {
  const Fingerprint fp = host_fingerprint();
  const std::string why = dispatch_violation(fp.simd_report, required_simd_families());
  if (!why.empty()) {
    EXPECT_NE(why.find("scalar"), std::string::npos);
  }
  EXPECT_GT(fp.nproc, 0);
  EXPECT_GT(fp.pool_threads, 0);
}

TEST(OutputCheck, CatchesOneFlippedLabel) {
  ServerDigest want;
  want.k = 2;
  want.labels = {0, 1, 1, 0};
  want.train_flops = 1234;
  want.model_bytes = {1, 2, 3};
  ServerDigest got = want;
  EXPECT_EQ(compare(want, got), "");
  got.labels[2] = 0;
  EXPECT_EQ(compare(want, got), "label of segment 2 is 0, expected 1");
  got = want;
  got.model_bytes[1] ^= 1;
  EXPECT_NE(compare(want, got), "");
}

TEST(OutputCheck, PlaybackIsBitwise) {
  PlayDigest a{{30.0, 31.0}, {0.9}};
  PlayDigest b = a;
  EXPECT_EQ(compare(a, b), "");
  b.psnr[1] = std::nextafter(31.0, 32.0);
  EXPECT_EQ(compare(a, b), "per-frame PSNR differs");
}

TEST(OutputCheck, FleetSummaryFieldForField) {
  dcsr::stream::FleetSummary want;
  want.sessions = 1000;
  want.edge_evictions = 17;
  want.rebuffer_p99_s = 39.5;
  dcsr::stream::FleetSummary got = want;
  EXPECT_EQ(compare(want, got), "");
  got.edge_evictions = 18;
  EXPECT_EQ(compare(want, got), "edge_evictions is 18, expected 17");
  got = want;
  got.mean_rung = 1e-300;
  EXPECT_EQ(compare(want, got), "mean_rung differs");
}

}  // namespace
}  // namespace dcsrbench
