// Package distsolve is the fault-tolerant distributed sharded solver:
// an in-process multi-"node" simulation harness that splits one grid
// into N shards over internal/rectpart's balanced Nicol decompositions,
// sweeps each shard on its own node goroutine, and reconciles shard
// boundaries through an explicit message-passing halo-exchange protocol
// — the message-passing generalization of internal/parallel's atomic
// halo reads.
//
// # Sharding
//
// The cut follows the global visit order. Line order cuts only the
// slowest axis with more than one cell (y in 2D, z in 3D), so the
// shards are slabs that follow each other in the order: slab i observes
// only slabs before it and is final after i+1 rounds. Weight-descending
// order has no such axis and keeps a balanced multi-axis cut. Each node
// keeps its state dense over its box grown by one cell, so a neighbor
// read — local start or cached halo value — is an index.
//
// # Round protocol
//
// The solve is bulk-synchronous. Each round, every node (1) sweeps its
// region in the global visit order restricted to the shard, placing
// each dirty vertex by lowest fit against only its
// earlier-in-global-order neighbors — local ones at their
// freshly-swept values (Gauss–Seidel), remote ones at the halo cache's
// last applied snapshot, unknown ones as unconstrained; (2) sends each
// neighboring shard a full snapshot of the boundary cells that shard
// can see, tagged with the round number as its sequence number; and (3)
// acknowledges, deduplicates, and retries until every one of its own
// snapshots is acknowledged. A vertex is dirty when an input may have
// changed since its last placement: every vertex in the first sweep
// (and in a re-homed node's restart), then the later-in-order local
// neighbors of each vertex whose start changed and of each remote cell
// whose cached value changed. Clean vertices already hold the lowest
// fit of their inputs, so a sweep ends in the state a full recompute
// would reach, at the cost of the changes alone. The coordinator
// barriers on all nodes and declares the fixpoint only when no vertex
// changed and both the current and the previous round's exchanges were
// fully acknowledged — never while any boundary message is outstanding.
//
// The unique fixpoint of "every vertex = lowest fit over its earlier
// neighbors" is the sequential greedy coloring (induction over order
// rank), so a converged distributed solve is byte-identical to
// core.GreedyColorOpts over the same order — and because the global
// sequential fallback computes exactly that coloring too, the result
// is byte-stable no matter which rung of the degradation ladder
// produced it. See DESIGN.md §16 for the message format, the
// retry/backoff policy, the crash-recovery state machine, and the
// termination argument.
//
// # Robustness
//
// The transport is an interface (Transport, with the in-process
// ChanTransport reference implementation) instrumented with four chaos
// sites — distsolve/msg-drop, distsolve/msg-dup, distsolve/msg-delay,
// distsolve/shard-crash — so seeded storms are deterministic and
// testable under -race. Sequence numbers plus idempotent full-snapshot
// application make duplicates and reorders harmless; per-round ACK
// tracking with deadline-aware retry and capped exponential backoff
// rides out drops; a crashed shard is detected at the round barrier and
// its region re-homed onto a fresh replacement node (state restarts
// from Unset, delivery turns reliable, the shard is fenced from further
// crashes); retry exhaustion escalates to re-homing and, past that, to
// the global sequential bedrock, which also bounds the round count —
// every storm terminates with a complete, valid, byte-identical
// coloring.
package distsolve
