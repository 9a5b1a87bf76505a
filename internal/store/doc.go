// Package store is the storage tier: the durable segment journal behind a
// rel.Instance.
//
// Dir journals a rel.Instance to append-only per-relation segment files
// that mirror the in-memory insert logs frame for frame (see frame.go for
// the length-prefixed encoding and segment.go for the per-file layout).
// Each segment records the relation generation it starts at, so a
// relation's segment sequence tiles its insert log and replay rebuilds a
// bit-identical instance: same tuples, same log order, same generations —
// so generation-vector cache keys (pdms answer caches, the netpeer gens
// piggyback, fragment-cache revalidation) mean the same thing across a
// restart. Recovery truncates a torn tail in a relation's final segment at
// the last intact frame and rejects corruption anywhere else, including
// segments written by the former multi-shard layout. Appends flow through
// rel's append hooks under the relation's lock; frames buffer in memory
// until Flush/Sync/Close or segment rotation.
//
// RegisterMetrics exposes the storage.* snapshot group (segments, bytes,
// truncations, recovered tuples, replay time).
package store
