// Package index implements immutable secondary hash indexes over canonical
// attribute keys — the access paths that turn the engine's enforcement
// checks from relation scans into key probes.
//
// # Why the engine needs them
//
// The paper's transaction-modification approach stands on cheap enforcement:
// a differential alarm program such as alarm(semijoin(child, del(parent)))
// should cost O(|delta|). Without an access path, the non-delta side of that
// semijoin is a full scan that also enters the transaction's read set as a
// whole-relation read, so the check is slow and its optimistic conflict
// footprint is the entire relation. With an index on child(parent), the
// evaluator probes only the keys the delta names, and the overlay records
// only those probe keys — the residual check against the stored database
// becomes the selective probe that simplification-based integrity checking
// presupposes.
//
// # Lifecycle across seal and commit
//
// Indexes follow the storage layer's copy-on-write discipline:
//
//   - An Index is immutable. Its tuples live in one B+tree (tree.go) whose
//     entries are ordered by (key, canonical tuple key); a hash index keys
//     its tree by the 8-byte big-endian hash of the probe key
//     (relation.Tuple.KeyOn over the index columns) followed by the probe
//     key, so a probe is a scan of adjacent entries. When the matches lie
//     in one leaf the probe returns the leaf's sub-slice, capped so that a
//     caller's append copies, and allocates nothing beyond its key.
//   - Each committed transaction's net (ins, del) delta derives a successor
//     index via Apply, which path-copies only the leaves the delta touches
//     and their ancestors: O(delta log n) per commit, and no commit ever
//     rebuilds a whole index. A per-Apply ownership token lets a
//     multi-tuple delta copy each node at most once; once Apply returns the
//     tree is frozen. Deletes rebalance underflowing nodes by merging with
//     or sharing entries with a sibling, so the height stays O(log n) under
//     insert/delete churn.
//   - The storage layer derives successor indexes while it seals the
//     committed relation instances and publishes them inside the same
//     atomic Snapshot swap, so any snapshot's indexes exactly describe its
//     sealed instances and readers never lock. Bulk loads, index
//     definitions, recovery and commits recorded without tuple-level
//     deltas fall back to Build/Rebuild, which sort the entries (radix
//     passes over pointer-free hash/position pairs for hash indexes) and
//     build the tree bottom-up.
//
// Divergent derivations may share nodes (storage.Database.Clone shares
// snapshots); a frozen node is never mutated, so this needs no extra work.
//
// # Probe recording and fallback rules
//
// The algebra evaluator consults indexes through algebra.ProbeEnv, which
// the transaction overlay implements:
//
//   - select(R, attr = const ∧ ...) over a base relation probes an index
//     covering a subset of the constant-equality columns and filters the
//     candidates with the full predicate.
//   - join/semijoin/antijoin probe the indexed side once per driving-side
//     tuple when the other side is a direct base-relation reference with an
//     index covering a subset of the equi-join columns; an antijoin may only
//     probe its right side (its output needs every left tuple).
//   - Each probe records a probed-key read (storage.ProbeRead) instead of a
//     whole-relation read; the commit validator projects concurrent deltas
//     onto the probed columns and conflicts only on matching keys. Probing
//     with a covering (subset) index is sound because the recorded
//     dependency is a superset of the tuples the expression observed.
//
// Everything else falls back to the scan path and whole-relation read
// recording: no covering index, a driving side too large relative to the
// indexed side, non-equality predicates without an indexable conjunct, and
// environments that do not implement ProbeEnv (fragment-local checking).
// Transaction-local differentials (ins/del) are never indexed — they are
// small and carry no base-read dependency at all.
//
// # Ordered indexes and interval reads
//
// Ordered (range) indexes extend the same discipline to comparison
// predicates — the guard shapes of the paper's differential enforcement
// programs ("alarm if any stock fell below threshold"). An Ordered index
// keys the same B+tree by order-preserving key encodings
// (value.AppendOrderedKey via relation.Tuple.OrderedKeyOn; attribute order
// is the sort order), so Range is a scan of the entries in [Lo, Hi) and
// Apply derives successors exactly as for hash indexes. Snapshots publish
// ordered indexes in the same atomic swap as hash indexes, through the
// shared Set.
//
//   - select(R, attr < const ∧ ...) — and <=, >, >=, between-style
//     conjunctions, also when they reach the evaluator negated, as
//     enforcement guards do — probes the ordered index whose leading
//     columns carry equality bindings and whose next column is the bounded
//     one, then re-verifies candidates with the full predicate.
//   - Every bound shape normalizes to half-open key intervals [Lo, Hi)
//     (KeyRange, RangesFor): kind-rank bytes bound missing endpoints, and a
//     trailing 0xFF turns inclusive-upper/exclusive-lower bounds into the
//     half-open form, valid over both full index keys and prefix-projected
//     keys.
//   - The overlay records each range probe as an interval read
//     (storage.RangeRead) instead of a whole-relation read; the commit
//     validator projects concurrent deltas onto the probed column prefix
//     and conflicts only when a written tuple's projection falls inside a
//     probed interval — so a transaction that probed qty < 10 merge-commits
//     with a concurrent writer of qty = 500.
package index
