// Package store is the storage tier: the interface the query layers
// consume instead of a concrete in-memory representation, plus the durable
// segment journal behind it.
//
// # Interface extraction
//
// Relation and Instance are the read contracts internal/engine (per-shard
// indexes, scans, probes, planner statistics) and internal/netpeer's server
// handlers are written against. *rel.Relation implements Relation directly;
// InstanceOf adapts *rel.Instance. The contract preserves rel's sharded
// semantics bit for bit — per-shard monotone generations whose sum is the
// relation Version, insertion-ordered log suffixes via ShardAddedSince, and
// first-column hash routing — so generation-vector cache keys (pdms answer
// caches, the netpeer gens piggyback, fragment-cache revalidation) mean
// exactly the same thing over any backend.
//
// # Durable segment tier
//
// Dir journals a rel.Instance to append-only per-shard segment files that
// mirror the in-memory insert logs frame for frame (see frame.go for the
// length-prefixed encoding and segment.go for the per-file layout). Each
// segment records the shard generation it starts at, so a shard's segment
// sequence tiles its insert log and replay rebuilds a bit-identical
// instance: same tuples, same per-shard log order, same generations.
// Recovery truncates a torn tail in a shard's final segment at the last
// intact frame and rejects corruption anywhere else. Appends flow through
// rel's append hooks under the shard lock; frames buffer in memory until
// Flush/Sync/Close or segment rotation.
//
// RegisterMetrics exposes the storage.* snapshot group (segments, bytes,
// truncations, recovered tuples, replay time).
package store
