// Package rel is the relational execution substrate: instances of stored
// relations, set-semantics evaluation of conjunctive queries and
// unions of conjunctive queries, and semi-naive datalog evaluation.
//
// The paper defers query execution ("the precise method of evaluating Q' is
// beyond the scope of this paper"); this package supplies it so that
// reformulated queries can actually be answered over stored relations, and
// so the chase-based certain-answer oracle has an evaluator to run on.
//
// # Relations
//
// A Relation is one tuple set, one append-only insert log, one generation
// counter and one distinct-value sketch per column, all behind one mutex.
// How a peer lays out its stored relations is its own business in the
// paper; this package keeps the simplest layout that serves the engine.
//
// # Generations
//
// Every relation counts its inserts; Relation.Version is that monotonic
// per-relation insert count, so the generation-vector answer cache
// (pdms.Network) and the netpeer gens piggyback key on it. Derived
// structures that must catch up incrementally — the engine's lazy hash
// indexes — read the log suffix past the version they last consumed
// (AddedSince): tuples are never deleted, so that suffix is exactly what
// the relation gained since.
//
// # Answer order and identity
//
// An answer is a set; order is only how it is presented. Compare is the
// one canonical order: column by column, each value compared bytewise, a
// proper prefix first. It allocates nothing, and for NUL-free values it
// is the order of the values joined by NUL. DistinctSorted merges the
// answer groups of a UCQ's disjuncts — concatenate, sort by Compare,
// compact. On the query path (internal/engine, internal/netpeer) it is the
// only sort: disjuncts hand it their rows unsorted.
//
// Tuple.Key is identity only, never order: the hash-set key behind set
// semantics (Relation.Insert and Contains, head dedup in the evaluators).
// It is injective for tuples of one arity — an in-value NUL is escaped, so
// no value can forge the separator — and is never stored or sent, so its
// encoding may change freely.
//
// # Statistics
//
// Each relation also maintains one small HyperLogLog sketch per column,
// updated on every insert and read by Relation.Stats. The resulting
// approximate distinct-value counts feed the engine planner's selectivity
// model (a bound column with d distinct values keeps roughly 1/d of a
// relation), replacing the fixed per-bound-argument discount. Estimates
// are deterministic for a given data set and can only influence join
// order, never answers.
//
// The naive evaluators in this package (EvalCQ, EvalUCQ, EvalDatalog)
// remain the reference oracles that internal/engine — the indexed
// evaluator used on every hot path — is differentially tested
// against. See ARCHITECTURE.md at the repository root for how this layer
// fits under the mediator, engine and wire layers.
package rel
