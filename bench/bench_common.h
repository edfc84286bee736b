#ifndef SKYLINE_BENCH_BENCH_COMMON_H_
#define SKYLINE_BENCH_BENCH_COMMON_H_

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "baselines/divide_conquer.h"
#include "baselines/less.h"
#include "baselines/naive.h"
#include "core/skyline.h"
#include "env/env.h"

namespace skyline {
namespace bench {

/// Base table size. The paper uses 1M tuples; the default here is 100k so
/// every figure regenerates in seconds. Set SKYLINE_BENCH_SCALE=10 to run
/// at full paper scale.
uint64_t BenchRows();

/// Returns the process-wide bench Env (in-memory).
Env* BenchEnv();

/// Returns (building and caching on first use) the paper-shaped table:
/// BenchRows() 100-byte tuples, ten int32 attributes uniform over the full
/// int32 range, pairwise independent, plus a 60-byte string.
const Table& PaperTable();

/// Cached table with the given distribution (same shape otherwise).
const Table& DistributionTable(Distribution distribution);

/// Cached table whose attribute count equals the skyline dimensionality,
/// so correlation/anti-correlation acts on exactly the criteria in use
/// (a 10-attribute anti-correlated table is nearly independent on any
/// 3-attribute projection).
const Table& DistributionTableDims(Distribution distribution, int dims);

/// Cached small-domain table (domains [0,9], `dims` attributes, 60-byte
/// payload) for the dimensional-reduction experiment.
const Table& SmallDomainTable(int dims);

/// Cached paper-shaped table whose tuple is NOT all-int32: 100 bytes with
/// six attributes spanning float64/float64/int64/int64/int32/int32
/// (8+8+8+8+4+4 = 40 bytes) plus a 60-byte payload drawn from a bounded
/// pool, so the payload works as a dictionary-encoded DIFF column. Specs
/// over it exercise every order-key transform at once.
const Table& MixedPaperTable(Distribution distribution);

/// Skyline spec over the first `dims` attributes of `table`, all MAX.
SkylineSpec MaxSpec(const Table& table, int dims);

/// Mixed-workload spec: MAX over the first `dims` attributes (mixed
/// float64/int64/int32 lanes on the mixed table), plus a
/// dictionary-encoded payload DIFF criterion when `payload_diff`.
SkylineSpec MixedSpec(const Table& table, int dims, bool payload_diff);

/// Publishes the standard counters from a run onto a benchmark state.
void ReportRunStats(::benchmark::State& state, const SkylineRunStats& stats);

}  // namespace bench
}  // namespace skyline

#endif  // SKYLINE_BENCH_BENCH_COMMON_H_
