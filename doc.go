// Package actjoin is a main-memory point-polygon join library built on an
// Adaptive Cell Trie (ACT), reproducing Kipf et al., "Adaptive Main-Memory
// Indexing for High-Performance Point-Polygon Joins" (EDBT 2020).
//
// The library indexes a mostly-static set of largely disjoint polygons
// (city neighborhoods, tax zones, geofences) and answers "which polygons
// cover this point" at tens of millions of points per second per core.
//
// Two operating modes mirror the paper's two join algorithms:
//
//   - With a precision bound (WithPrecision), the index refines polygon
//     boundaries until every false positive is within the bound, and
//     queries never perform geometric point-in-polygon (PIP) tests.
//   - Without one, queries are exact: the index identifies most results via
//     true-hit filtering and falls back to PIP tests only for points near
//     polygon boundaries. Train adapts the index to an expected query
//     distribution to make that fallback rare.
//
// # Concurrency contract
//
// The API splits reads from writes around immutable snapshots, with one
// type for each role:
//
//   - Index is the writer handle. Mutations — Add, Remove, Train, and the
//     transactional Apply with its Tx — build the next version of the index
//     off to the side and publish it with an atomic pointer swap. Writers
//     never block queries and queries never block writers.
//   - Snapshot carries every read operation (Covers, CoversApprox,
//     CoversBatch, JoinCount, Stats, WriteTo, ...). A snapshot never
//     changes after it is published: all its methods are safe for
//     unlimited concurrent use and take no locks, and a query sequence
//     against one snapshot — including a long batch join — observes a
//     single consistent polygon set. Obtain the latest via Index.Current
//     whenever a fresher view is wanted.
//   - Health reports whether the index runs at full capability, per shard.
//
// # Shards
//
// An Index partitions its covering into contiguous cell-id ranges, each
// served by a shard with its own writer mutex and background compactor.
// NewIndex builds one shard — the paper's index. NewShardedIndex builds
// more, for multi-core deployments: writers on different shards publish
// concurrently and shard failures are isolated (Health reports per-shard
// state; ShardOf maps a point to its failure domain). Current is one
// atomic load at every shard count: the index publishes one composed
// snapshot, and a cross-shard Apply or Train publishes all its shards'
// parts in one store, so a view never observes half of one. Every shard
// count answers every query identically, and serializes byte-identically
// as long as no covering cell had to be split at a shard boundary.
// Lock order is registry > commit lock > one shard's mutex; no path holds
// two shards' mutexes at once.
//
// Publishes are incremental: a mutation patches the previous snapshot
// (splicing clean cell runs, delta-encoding only dirty regions,
// copy-on-write patching of the trie arena), so its latency is
// proportional to the mutation — O(covering) for Add, O(footprint) for
// Remove via the per-polygon cell directory — not to the index. The
// garbage patching accumulates is reorganized by a background compactor
// goroutine that rebuilds from a frozen snapshot with no writer lock held
// and reconciles under the shard's mutex when done, keeping even
// threshold-crossing publishes mutation-sized (see docs/ARCHITECTURE.md for
// the full pipeline).
//
// Quick start:
//
//	idx, err := actjoin.NewIndex(polygons, actjoin.WithPrecision(4))
//	if err != nil { ... }
//	snap := idx.Current()
//	ids := snap.CoversApprox(actjoin.Point{Lon: -73.98, Lat: 40.75})
package actjoin
