// Umbrella header: the public API of parcore.
//
//   DynamicGraph            mutable undirected graph
//   generators / suite      synthetic workloads (ER, BA, R-MAT, grid,
//                           temporal streams; Table-2 stand-ins)
//   bz_decompose / parallel_decompose
//                           static decompositions (sequential
//                           reference / parallel exact peel)
//   core_query              k-core extraction, subcores, degeneracy
//   SeqOrderMaintainer      sequential Simplified-Order maintenance
//   TraversalMaintainer     sequential Traversal maintenance (baseline)
//   ParallelOrderMaintainer the paper's contribution (OurI / OurR)
//   JeMaintainer            join-edge-set parallel baseline (JEI / JER)
//   engine::StreamingEngine concurrent ingest + batch coalescing +
//                           epoch-snapshot queries (the service core)
//   io::read_graph / io::read_temporal_stream / io::save_pcg
//                           real-dataset loading (SNAP / MatrixMarket /
//                           .pcg cache / temporal streams)
//
// See README.md for a quickstart and DESIGN.md for the architecture.
#pragma once

#include "baseline/je.h"
#include "decomp/bz.h"
#include "decomp/core_query.h"
#include "decomp/parallel_peel.h"
#include "decomp/verify.h"
#include "engine/coalesce.h"
#include "engine/engine.h"
#include "engine/ingest.h"
#include "gen/generators.h"
#include "gen/stream_adapter.h"
#include "gen/suite.h"
#include "graph/dynamic_graph.h"
#include "graph/edge_list.h"
#include "io/graph_reader.h"
#include "io/pcg.h"
#include "io/temporal_stream.h"
#include "maint/seq_order.h"
#include "maint/traversal.h"
#include "parallel/parallel_order.h"
#include "support/rng.h"
#include "support/timer.h"
#include "sync/thread_team.h"
