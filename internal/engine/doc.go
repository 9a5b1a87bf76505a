// Package engine is the indexed query-execution subsystem: it evaluates
// conjunctive queries (CQs), unions of conjunctive queries (UCQs) and
// datalog programs over rel.Instance data using hash indexes and
// statistics-driven join orders, replacing the naive nested-loop evaluator
// in package rel on every hot path (pdms.Query, the netpeer server and
// executor, the chase oracle, cmd/reform). rel.EvalCQ remains the
// reference oracle the engine is differentially tested against over the
// randomized corpus in diff_test.go.
//
// # Architecture
//
// Indexes. Each relation gets hash indexes lazily, one per bound-position
// set actually probed: the key is the tuple's projection onto the probed
// columns, the value a bucket of matching tuples. Relations expose their
// append-only insert log (rel.Relation.Version / AddedSince), so each index
// is maintained incrementally under its own lock — a probe first consumes
// the log suffix the index has not seen, then answers from the buckets.
// Tuples are never deleted (set semantics, monotone growth), which is what
// makes the log-suffix catch-up complete.
//
// Planning. A conjunctive query is compiled to a Plan: body atoms are
// greedily reordered by estimated result size and each atom is lowered to
// either an index probe (some positions bound by constants or earlier
// steps) or a full scan (none). The cost model (OrderBodyStats) scales a
// relation's cardinality by 1/distinct(c) for every bound column c, using
// the per-column distinct-value sketches rel maintains on insert
// (rel.Stats) — a nearly-unique join column is recognized as sharply
// selective while a low-distinct column no longer masquerades as such.
// Callers without column statistics (the netpeer executor, which only sees
// advertised cardinalities) use the uniform fallback OrderBody, the same
// heuristic family with a fixed per-bound-argument discount. Estimates
// affect ordering only, never correctness. Variable bindings live in a
// flat slot array rather than substitution maps; comparison predicates are
// attached to the earliest step that binds their variables, pruning as
// soon as possible.
//
// Parallelism. One plan runs sequentially; concurrent evaluations run in
// parallel with each other. EvalUCQ fans independent disjuncts over a
// bounded worker pool, the same concurrency shape the distributed executor
// uses.
//
// Plan cache. Compiled plans are cached in an LRU keyed by the query's
// canonical form (lang.CQ.Canonical), so repeated evaluation of identical
// rewritings — the common case once reformulation fans a query into a UCQ —
// skips planning entirely. Plans fix only join order and probe shapes,
// never data, so a cached plan stays sound as the instance grows.
//
// Datalog. EvalDatalog runs semi-naive evaluation with one compiled plan
// per (rule, pivot-atom) pair: the pivot scans the previous round's delta,
// the remaining atoms probe indexes on the accumulating total instance.
//
// Streaming. StreamCQ, StreamScan and ProbeByKeyBatchYield are the
// enumeration hooks behind the netpeer server's chunked responses: they
// yield distinct tuples as the plan runs (or the insert log is walked),
// materializing nothing beyond the dedup set, so results larger than
// memory-comfortable frames flow out incrementally.
//
// Invalidation. The engine itself never serves stale data — indexes
// catch up from the insert logs on every probe. Answer-level
// caching (and its generation-vector invalidation) lives one layer up, in
// pdms.Network; see ARCHITECTURE.md at the repository root for the
// full-stack picture.
package engine
