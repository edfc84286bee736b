#ifndef SKYLINE_CORE_SKYLINE_H_
#define SKYLINE_CORE_SKYLINE_H_

/// Umbrella header: the full public API of the skyline library.
///
/// Core algorithm (the paper's contribution):
///  - SkylineSpec / Directive  — the `SKYLINE OF a1 MAX, ...` specification
///  - ComputeSkylineSfs / SfsIterator — Sort-Filter-Skyline with entropy
///    presort, projection, diff groups, pipelined output
///  - ComputeSkylineBnl — the block-nested-loops baseline
///  - ComputeStrataSfs / LabelStrataIterative — skyline strata
///  - DimensionalReduction — small-domain pre-reduction
///  - ExpectedSkylineSize / ExtrapolateSkylineSize / EstimateSfsCost —
///    cardinality estimation and optimizer costing
///
/// Section 6 extensions: ComputeSkyline2D / ComputeSkyline3D (special-case
/// scans), ComputeWinnow (arbitrary strict-partial-order preferences),
/// SkylineMaintainer (incremental updates), RankEntropyOrdering
/// (histogram-rank presort).
///
/// The reference algorithms no query route reaches — NaiveSkyline*,
/// DivideConquerSkyline* and ComputeSkylineLess (sort-phase elimination)
/// — live in the separate `skyline_baselines` library (baselines/), which
/// only tests, benchmarks and examples link.
///
/// Substrate: Env (env/env.h), heap files (storage/), tables, generators,
/// CSV and sidecar-metadata I/O, histograms (relation/), external sort
/// (sort/), Volcano operators with the Query builder (exec/), and the
/// Figure 3 SQL dialect (sql/).

#include "common/exec_context.h"
#include "core/bnl.h"
#include "core/cardinality.h"
#include "core/compute_skyline.h"
#include "core/cost_model.h"
#include "core/dim_reduce.h"
#include "core/dominance.h"
#include "core/maintenance.h"
#include "core/run_report.h"
#include "core/run_stats.h"
#include "core/scoring.h"
#include "core/sfs.h"
#include "core/skyline_spec.h"
#include "core/special2d.h"
#include "core/special3d.h"
#include "core/strata.h"
#include "core/window.h"
#include "core/winnow.h"
#include "relation/csv.h"
#include "relation/generator.h"
#include "relation/histogram.h"
#include "relation/table.h"
#include "relation/table_io.h"

#endif  // SKYLINE_CORE_SKYLINE_H_
